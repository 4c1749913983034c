"""Exact membership grades and the fuzzy set algebra.

Grades are exact rationals in [0,1] (``fractions.Fraction``); min/max and
comparisons are therefore exact and evaluation-order independent.  Float
grades appear only in the numeric manifold module.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Any, Iterable

from .errors import CarrierMismatchError, DominationError

Grade = Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


def as_grade(value) -> Fraction:
    """Coerce to an exact grade, rejecting anything outside [0,1]."""
    g = Fraction(value)
    if g < 0 or g > 1:
        raise ValueError(f"grade outside [0,1]: {value!r}")
    return g


# Largest decimal exponent a literal may carry.  Fraction expands the
# exponent into an integer power of ten, so `1e-10000000` would take seconds
# and megabytes before any range check could reject it.
MAX_DECIMAL_EXPONENT = 1000


def _check_exponent(text: str) -> None:
    _, e, exponent = text.strip().lower().partition("e")
    digits = exponent.lstrip("+-").replace("_", "").lstrip("0")
    if e and digits.isdigit() and (
        len(digits) > len(str(MAX_DECIMAL_EXPONENT)) or int(digits) > MAX_DECIMAL_EXPONENT
    ):
        raise ValueError(f"exponent of {text.strip()!r} exceeds {MAX_DECIMAL_EXPONENT}")


def parse_rational(text: str) -> Fraction:
    """Parse 'p/q', an integer, or a decimal literal as an exact rational."""
    _check_exponent(text)
    return Fraction(text.strip())


def parse_grade(text: str) -> Fraction:
    """Parse 'p/q', an integer, or a decimal literal as an exact grade."""
    _check_exponent(text)
    try:
        g = Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"cannot parse grade {text!r}") from exc
    if g < 0 or g > 1:
        raise ValueError(f"grade outside [0,1]: {text!r}")
    return g


def format_grade(g: Fraction) -> str:
    """Lowest-terms 'p/q' (or bare integer for 0 and 1); round-trips exactly."""
    if g.denominator == 1:
        return str(g.numerator)
    return f"{g.numerator}/{g.denominator}"


@dataclass(frozen=True)
class Verdict:
    """Outcome of a checked property: ok, or a reason plus the first witness."""

    ok: bool
    reason: str = ""
    witness: Any = None

    def __bool__(self) -> bool:
        return self.ok

    @staticmethod
    def passed() -> "Verdict":
        return Verdict(True)

    @staticmethod
    def failed(reason: str, witness=None) -> "Verdict":
        return Verdict(False, reason, witness)

    def require(self, what: str) -> None:
        """Refuse a failed precondition: raise `what: reason` with the witness."""
        if not self.ok:
            raise DominationError(f"{what}: {self.reason}", witness=self.witness)


@dataclass(frozen=True)
class Carrier:
    """Finite ordered list of distinct opaque labels."""

    elements: tuple

    def __post_init__(self):
        object.__setattr__(self, "elements", tuple(self.elements))
        if not self.elements:
            raise ValueError("carrier must be nonempty")
        if len(set(self.elements)) != len(self.elements):
            raise ValueError("carrier has duplicate labels")

    @cached_property
    def _index(self) -> dict:
        return {x: i for i, x in enumerate(self.elements)}

    def index(self, x) -> int:
        try:
            return self._index[x]
        except KeyError:
            raise KeyError(f"{x!r} not in carrier") from None

    def __contains__(self, x) -> bool:
        return x in self._index

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    @staticmethod
    def product(a: "Carrier", b: "Carrier") -> "Carrier":
        return Carrier(tuple((x, y) for x in a for y in b))


@dataclass(frozen=True)
class FuzzySet:
    """A grade per carrier element; immutable and hashable."""

    carrier: Carrier
    grades: tuple = field(default=())

    def __post_init__(self):
        grades = tuple(as_grade(g) for g in self.grades)
        if len(grades) != len(self.carrier):
            raise ValueError("one grade per carrier element required")
        object.__setattr__(self, "grades", grades)

    @classmethod
    def _trusted(cls, carrier: Carrier, grades: tuple) -> "FuzzySet":
        """Build from a tuple of Fractions already known to lie in [0,1], one
        per carrier element, without re-validating each grade."""
        s = object.__new__(cls)
        object.__setattr__(s, "carrier", carrier)
        object.__setattr__(s, "grades", grades)
        return s

    @classmethod
    def from_map(cls, carrier: Carrier, mapping, default=ZERO) -> "FuzzySet":
        return cls(carrier, tuple(mapping.get(x, default) for x in carrier))

    @classmethod
    def constant(cls, carrier: Carrier, g) -> "FuzzySet":
        g = as_grade(g)
        return cls(carrier, (g,) * len(carrier))

    @classmethod
    def zero(cls, carrier: Carrier) -> "FuzzySet":
        return cls.constant(carrier, ZERO)

    @classmethod
    def ones(cls, carrier: Carrier) -> "FuzzySet":
        return cls.constant(carrier, ONE)

    @classmethod
    def point(cls, carrier: Carrier, base, height) -> "FuzzySet":
        """The fuzzy point: grade `height` at `base`, 0 elsewhere."""
        return cls.from_map(carrier, {base: as_grade(height)})

    def __call__(self, x) -> Fraction:
        return self.grades[self.carrier.index(x)]

    def items(self):
        return zip(self.carrier.elements, self.grades)

    def support(self) -> tuple:
        return tuple(x for x, g in self.items() if g > 0)

    def __repr__(self):
        body = ", ".join(f"{x!r}:{format_grade(g)}" for x, g in self.items())
        return f"FuzzySet({body})"


@dataclass(frozen=True)
class FuzzyPoint:
    """A carrier element together with a positive height."""

    base: Any
    height: Fraction

    def __post_init__(self):
        h = as_grade(self.height)
        if h == 0:
            raise ValueError("fuzzy point height must be positive")
        object.__setattr__(self, "height", h)


def _common_carrier(sets: Iterable[FuzzySet]) -> Carrier:
    sets = list(sets)
    if not sets:
        raise ValueError("need at least one fuzzy set")
    carrier = sets[0].carrier
    for s in sets[1:]:
        if s.carrier != carrier:
            raise CarrierMismatchError("fuzzy sets live on different carriers")
    return carrier


def union(sets: Iterable[FuzzySet]) -> FuzzySet:
    """Pointwise maximum over a nonempty family on a common carrier."""
    sets = list(sets)
    carrier = _common_carrier(sets)
    return FuzzySet(carrier, tuple(max(gs) for gs in zip(*(s.grades for s in sets))))


def intersection(sets: Iterable[FuzzySet]) -> FuzzySet:
    """Pointwise minimum over a nonempty family on a common carrier."""
    sets = list(sets)
    carrier = _common_carrier(sets)
    return FuzzySet(carrier, tuple(min(gs) for gs in zip(*(s.grades for s in sets))))


def product(lam: FuzzySet, mu: FuzzySet) -> FuzzySet:
    """Fuzzy set on the cartesian product carrier with grade min(lam(x), mu(y))."""
    carrier = Carrier.product(lam.carrier, mu.carrier)
    grades = tuple(min(gx, gy) for gx in lam.grades for gy in mu.grades)
    return FuzzySet(carrier, grades)


def level_set(mu: FuzzySet, t) -> tuple:
    """Crisp subset {x : mu(x) >= t}, in carrier order."""
    t = as_grade(t)
    return tuple(x for x, g in mu.items() if g >= t)


def complement_in(ambient: FuzzySet, sub: FuzzySet) -> FuzzySet:
    """Pointwise difference ambient - sub; requires sub <= ambient.

    The complement formula (subtraction) is an extrapolation: it makes the
    double complement an involution on sets below the ambient.
    """
    is_subset(sub, ambient).require("subset exceeds ambient")
    return FuzzySet(ambient.carrier, tuple(ga - gs for ga, gs in zip(ambient.grades, sub.grades)))


def is_subset(a: FuzzySet, b: FuzzySet) -> Verdict:
    """a <= b pointwise; on failure the witness is the first violating element."""
    carrier = _common_carrier([a, b])
    for x, ga, gb in zip(carrier.elements, a.grades, b.grades):
        if ga > gb:
            return Verdict.failed(
                f"grade {format_grade(ga)} > {format_grade(gb)} at {x!r}", witness=x
            )
    return Verdict.passed()


def point_in(p: FuzzyPoint, mu: FuzzySet) -> bool:
    """Membership of a fuzzy point: height <= mu(base).

    Inclusive inequality by design, so x at its own grade lies in mu.
    """
    return p.height <= mu(p.base)


def is_normal_element(lam: FuzzySet, mu: FuzzySet, a) -> Verdict:
    """lam(a) >= mu(y) for every y; witness is the first dominating y."""
    _common_carrier([lam, mu])
    ga = lam(a)
    for y, gy in mu.items():
        if ga < gy:
            return Verdict.failed(
                f"lam({a!r})={format_grade(ga)} < mu({y!r})={format_grade(gy)}",
                witness=y,
            )
    return Verdict.passed()

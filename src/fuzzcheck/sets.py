"""Exact membership grades and the fuzzy set algebra.

Grades are exact rationals in [0,1].  A `FuzzySet` stores them as integer
numerators over one denominator in lowest terms, so min/max and comparisons
are exact integer operations; `Fraction`s appear only where grades are
parsed, formatted or handed to callers (`FuzzySet.grades`).  Float grades
appear only in the numeric manifold module.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from typing import Any, Iterable

from .errors import CarrierMismatchError, DominationError
from .record import Frozen

ZERO = Fraction(0)


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


# Largest common denominator that the grades of one parsed set may reach by
# combining literals.  A FuzzySet rescales every grade to the lcm of their
# denominators, so n grades over distinct primes would hold n numerators the
# size of a product of n primes.  A common denominator that is one literal's
# own is bounded by that literal's length and stays allowed, so every literal
# accepted on its own still is.
MAX_COMMON_DENOMINATOR = 10**MAX_DECIMAL_EXPONENT


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


class Verdict(Frozen):
    """Outcome of a checked property: ok, or a reason plus the first witness."""

    def __init__(self, ok: bool, reason: str = "", witness: Any = None):
        self._set(ok=ok, reason=reason, witness=witness)

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


class Carrier(Frozen):
    """Finite ordered list of distinct opaque labels."""

    def __init__(self, elements):
        self._set(elements=tuple(elements))
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


class FuzzySet(Frozen):
    """A grade per carrier element; immutable and hashable.  Grade i is
    nums[i] / den, where den is the least common denominator of the grades,
    so two sets are equal exactly when their (carrier, nums, den) are."""

    _fields = ("carrier", "nums", "den")  # nums: one int in 0..den per carrier element

    def __init__(self, carrier: Carrier, grades=()):
        values = tuple(grades)
        fracs = [v if type(v) is Fraction else Fraction(v) for v in values]
        den = math.lcm(1, *(g.denominator for g in fracs))
        nums = tuple(g.numerator * (den // g.denominator) for g in fracs)
        for v, n in zip(values, nums):
            if not 0 <= n <= den:
                raise ValueError(f"grade outside [0,1]: {v!r}")
        if len(nums) != len(carrier):
            raise ValueError("one grade per carrier element required")
        vars(self).update(carrier=carrier, nums=nums, den=den)  # past the frozen setattr

    @classmethod
    def _from_nums(cls, carrier: Carrier, nums: tuple, den: int) -> "FuzzySet":
        """Build from numerators already known to lie in 0..den, one per
        carrier element, without re-validating them; reduces to lowest terms."""
        g = math.gcd(den, *nums)
        s = object.__new__(cls)
        vars(s).update(carrier=carrier, nums=nums if g == 1 else tuple(n // g for n in nums),
                       den=den // g)
        return s

    @cached_property
    def grades(self) -> tuple:
        """The grades as Fractions, aligned with the carrier."""
        return tuple(Fraction(n, self.den) for n in self.nums)

    def over(self, den: int) -> tuple:
        """The numerators over `den`, a multiple of this set's denominator."""
        k = den // self.den
        return self.nums if k == 1 else tuple(n * k for n in self.nums)

    @classmethod
    def from_map(cls, carrier: Carrier, mapping) -> "FuzzySet":
        """Grade mapping[x] at x and 0 elsewhere; KeyError on an element
        outside the carrier."""
        by_index = {carrier.index(x): g for x, g in mapping.items()}
        return cls(carrier, tuple(by_index.get(i, ZERO) for i in range(len(carrier))))

    @classmethod
    def constant(cls, carrier: Carrier, g) -> "FuzzySet":
        g = as_grade(g)
        return cls._from_nums(carrier, (g.numerator,) * len(carrier), g.denominator)

    @classmethod
    def zero(cls, carrier: Carrier) -> "FuzzySet":
        return cls.constant(carrier, 0)

    @classmethod
    def ones(cls, carrier: Carrier) -> "FuzzySet":
        return cls.constant(carrier, 1)

    @classmethod
    def point(cls, carrier: Carrier, base, height) -> "FuzzySet":
        """The fuzzy point: grade `height` at `base`, 0 elsewhere."""
        return cls.from_map(carrier, {base: as_grade(height)})

    def __call__(self, x) -> Fraction:
        return self.grades[self.carrier.index(x)]

    def items(self):
        return zip(self.carrier.elements, self.grades)

    def support(self) -> tuple:
        return tuple(x for x, n in zip(self.carrier.elements, self.nums) if n)

    def __repr__(self):
        body = ", ".join(f"{x!r}:{format_grade(g)}" for x, g in self.items())
        return f"FuzzySet({body})"


class FuzzyPoint(Frozen):
    """A carrier element together with a positive height."""

    def __init__(self, base: Any, height: Fraction):
        h = as_grade(height)
        if h == 0:
            raise ValueError("fuzzy point height must be positive")
        self._set(base=base, height=h)


def _aligned(sets: Iterable[FuzzySet]) -> tuple:
    """(carrier, den, rows): the carrier the sets share, the lcm of their
    denominators, and each set's numerators over it."""
    sets = list(sets)
    if not sets:
        raise ValueError("need at least one fuzzy set")
    carrier = sets[0].carrier
    if any(s.carrier != carrier for s in sets):
        raise CarrierMismatchError("fuzzy sets live on different carriers")
    den = math.lcm(*(s.den for s in sets))
    return carrier, den, [s.over(den) for s in sets]


def _pointwise(op, sets: Iterable[FuzzySet]) -> FuzzySet:
    carrier, den, rows = _aligned(sets)
    return FuzzySet._from_nums(carrier, tuple(map(op, zip(*rows))), den)


def union(sets: Iterable[FuzzySet]) -> FuzzySet:
    """Pointwise maximum over a nonempty family on a common carrier."""
    return _pointwise(max, sets)


def intersection(sets: Iterable[FuzzySet]) -> FuzzySet:
    """Pointwise minimum over a nonempty family on a common carrier."""
    return _pointwise(min, sets)


def product(lam: FuzzySet, mu: FuzzySet) -> FuzzySet:
    """Fuzzy set on the cartesian product carrier with grade min(lam(x), mu(y))."""
    den = math.lcm(lam.den, mu.den)
    ys = mu.over(den)
    nums = tuple(min(x, y) for x in lam.over(den) for y in ys)
    return FuzzySet._from_nums(Carrier.product(lam.carrier, mu.carrier), nums, den)


def level_set(mu: FuzzySet, t) -> tuple:
    """Crisp subset {x : mu(x) >= t}, in carrier order."""
    t = as_grade(t)
    bar = t.numerator * mu.den  # n / den >= p / q exactly when n * q >= p * den
    return tuple(x for x, n in zip(mu.carrier.elements, mu.nums) if n * t.denominator >= bar)


def complement_in(ambient: FuzzySet, sub: FuzzySet) -> FuzzySet:
    """Pointwise difference ambient - sub; requires sub <= ambient.

    The complement formula (subtraction) is an extrapolation: it makes the
    double complement an involution on sets below the ambient.
    """
    is_subset(sub, ambient).require("subset exceeds ambient")
    carrier, den, (a, s) = _aligned([ambient, sub])
    return FuzzySet._from_nums(carrier, tuple(x - y for x, y in zip(a, s)), den)


def is_subset(a: FuzzySet, b: FuzzySet) -> Verdict:
    """a <= b pointwise; on failure the witness is the first violating element."""
    if a.carrier != b.carrier:
        raise CarrierMismatchError("fuzzy sets live on different carriers")
    for x, p, r in zip(a.carrier.elements, a.nums, b.nums):
        if p * b.den > r * a.den:  # p / a.den > r / b.den
            return Verdict.failed(
                f"grade {format_grade(Fraction(p, a.den))} > {format_grade(Fraction(r, b.den))} "
                f"at {x!r}", witness=x
            )
    return Verdict.passed()


def point_in(p: FuzzyPoint, mu: FuzzySet) -> bool:
    """Membership of a fuzzy point: height <= mu(base).

    Inclusive inequality by design, so x at its own grade lies in mu.
    """
    h = p.height
    return h.numerator * mu.den <= mu.nums[mu.carrier.index(p.base)] * h.denominator


def is_normal_element(lam: FuzzySet, mu: FuzzySet, a) -> Verdict:
    """lam(a) >= mu(y) for every y; witness is the first dominating y."""
    if lam.carrier != mu.carrier:
        raise CarrierMismatchError("fuzzy sets live on different carriers")
    na = lam.nums[lam.carrier.index(a)]
    for y, n in zip(mu.carrier.elements, mu.nums):
        if na * mu.den < n * lam.den:  # na / lam.den < n / mu.den
            return Verdict.failed(
                f"lam({a!r})={format_grade(Fraction(na, lam.den))} "
                f"< mu({y!r})={format_grade(Fraction(n, mu.den))}", witness=y
            )
    return Verdict.passed()

"""The `Fraction` versions of the fuzzy set operations that `fuzzcheck.sets`
replaced with integer numerators over one denominator, kept as
differential oracles.  They read grades through `FuzzySet.grades` and
build results through the public constructor."""

from fractions import Fraction

from fuzzcheck.errors import CarrierMismatchError
from fuzzcheck.sets import Carrier, FuzzySet, Verdict, format_grade


def as_grade(value) -> Fraction:
    """Coerce to an exact grade, rejecting anything outside [0,1]."""
    g = Fraction(value)
    if g < 0 or g > 1:
        raise ValueError(f"grade outside [0,1]: {value!r}")
    return g


def grades(carrier: Carrier, values) -> tuple:
    """The grades the constructor stores, validated one at a time."""
    out = tuple(as_grade(g) for g in values)
    if len(out) != len(carrier):
        raise ValueError("one grade per carrier element required")
    return out


def fuzzy_repr(s: FuzzySet) -> str:
    body = ", ".join(f"{x!r}:{format_grade(g)}" for x, g in zip(s.carrier, s.grades))
    return f"FuzzySet({body})"


def support(s: FuzzySet) -> tuple:
    return tuple(x for x, g in zip(s.carrier, s.grades) if g > 0)


def _common_carrier(sets) -> Carrier:
    sets = list(sets)
    if not sets:
        raise ValueError("need at least one fuzzy set")
    carrier = sets[0].carrier
    for s in sets[1:]:
        if s.carrier != carrier:
            raise CarrierMismatchError("fuzzy sets live on different carriers")
    return carrier


def union(sets) -> FuzzySet:
    sets = list(sets)
    carrier = _common_carrier(sets)
    return FuzzySet(carrier, tuple(max(gs) for gs in zip(*(s.grades for s in sets))))


def intersection(sets) -> FuzzySet:
    sets = list(sets)
    carrier = _common_carrier(sets)
    return FuzzySet(carrier, tuple(min(gs) for gs in zip(*(s.grades for s in sets))))


def product(lam: FuzzySet, mu: FuzzySet) -> FuzzySet:
    carrier = Carrier.product(lam.carrier, mu.carrier)
    return FuzzySet(carrier, tuple(min(gx, gy) for gx in lam.grades for gy in mu.grades))


def level_set(mu: FuzzySet, t) -> tuple:
    t = as_grade(t)
    return tuple(x for x, g in zip(mu.carrier, mu.grades) if g >= t)


def is_subset(a: FuzzySet, b: FuzzySet) -> Verdict:
    carrier = _common_carrier([a, b])
    for x, ga, gb in zip(carrier.elements, a.grades, b.grades):
        if ga > gb:
            return Verdict.failed(
                f"grade {format_grade(ga)} > {format_grade(gb)} at {x!r}", witness=x
            )
    return Verdict.passed()


def complement_in(ambient: FuzzySet, sub: FuzzySet) -> FuzzySet:
    is_subset(sub, ambient).require("subset exceeds ambient")
    return FuzzySet(ambient.carrier, tuple(ga - gs for ga, gs in zip(ambient.grades, sub.grades)))


def point_in(p, mu: FuzzySet) -> bool:
    return p.height <= mu(p.base)


def is_normal_element(lam: FuzzySet, mu: FuzzySet, a) -> Verdict:
    _common_carrier([lam, mu])
    ga = lam(a)
    for y, gy in zip(mu.carrier, mu.grades):
        if ga < gy:
            return Verdict.failed(
                f"lam({a!r})={format_grade(ga)} < mu({y!r})={format_grade(gy)}", witness=y
            )
    return Verdict.passed()

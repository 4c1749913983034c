"""The label scans that `fuzzcheck.maps` replaced, kept as differential
oracles: values are looked up through `ProperFunction.of` and
`FiniteGroup.op`, grades through `FuzzySet.__call__`."""

from fuzzcheck.errors import CarrierMismatchError, DominationError
from fuzzcheck.maps import ProperFunction
from fuzzcheck.sets import ZERO, FuzzySet, Verdict, is_subset


def _require_below(a: FuzzySet, bound: FuzzySet, what: str):
    v = is_subset(a, bound)
    if not v:
        raise DominationError(f"{what} exceeds its bound: {v.reason}", witness=v.witness)


def image(f: ProperFunction, a: FuzzySet) -> FuzzySet:
    """(F(A))(y) = max over the fiber of min(source grade, A(x))."""
    if a.carrier != f.source.carrier:
        raise CarrierMismatchError("A must live on the source carrier")
    _require_below(a, f.source, "A")
    out = {y: ZERO for y in f.target.carrier}
    for x, gx in a.items():
        y = f.of(x)
        g = min(f.source(x), gx)
        if g > out[y]:
            out[y] = g
    return FuzzySet.from_map(f.target.carrier, out)


def preimage(f: ProperFunction, b: FuzzySet) -> FuzzySet:
    """(F^{-1}(B))(x) = min(source grade at x, B(f(x)))."""
    if b.carrier != f.target.carrier:
        raise CarrierMismatchError("B must live on the target carrier")
    _require_below(b, f.target, "B")
    grades = tuple(min(gx, b(y)) for gx, y in zip(f.source.grades, f.images))
    return FuzzySet(f.source.carrier, grades)


def is_fuzzy_homomorphism(f: ProperFunction, group_src, group_tgt) -> Verdict:
    """f(x*z) = f(x)*f(z) for all pairs, first failing pair in carrier order."""
    if f.source.carrier != group_src.carrier:
        raise CarrierMismatchError("source carrier is not the source group")
    if f.target.carrier != group_tgt.carrier:
        raise CarrierMismatchError("target carrier is not the target group")
    for x in group_src.carrier:
        for z in group_src.carrier:
            left = f.of(group_src.op(x, z))
            right = group_tgt.op(f.of(x), f.of(z))
            if left != right:
                return Verdict.failed(
                    f"f({x!r}*{z!r})={left!r} but f({x!r})*f({z!r})={right!r}",
                    witness=(x, z),
                )
    return Verdict.passed()

"""Fuzzy proper functions: crisp map + source/target fuzzy sets.

The induced relation F(x,y) equals the source grade on the graph of the
crisp map and 0 elsewhere, so image/preimage reduce to sup-min over the
crisp fibers.  The scans run on the images as target indices.
"""

from __future__ import annotations

import math

from .errors import CarrierMismatchError
from .record import Frozen
from .sets import FuzzySet, Verdict, ZERO, is_subset


def indices(carrier, labels, stray: str) -> tuple:
    """The labels as carrier indices; ValueError `stray` names the first stray label."""
    try:
        return tuple(map(carrier.index, labels))
    except KeyError:
        raise ValueError(stray.format(next(y for y in labels if y not in carrier))) from None


class ProperFunction(Frozen):
    """Crisp total map between the carriers of two fuzzy sets."""

    def __init__(self, source: FuzzySet, target: FuzzySet, images):
        # images[i] = value at source.carrier.elements[i]
        images = tuple(images)
        if len(images) != len(source.carrier):
            raise ValueError("map must be total on the source carrier")
        ints = indices(target.carrier, images, "map value {!r} not in target carrier")
        self._set(source=source, target=target, images=images, _ints=ints)

    def of(self, x):
        return self.images[self.source.carrier.index(x)]

    def relation(self, x, y):
        """Graph relation: source grade on the graph, 0 off it."""
        return self.source(x) if self.of(x) == y else ZERO


class MapFlags(Frozen):
    def __init__(self, injective: bool, surjective: bool, bijective: bool, witness=None):
        self._set(injective=injective, surjective=surjective, bijective=bijective, witness=witness)


def image(f: ProperFunction, a: FuzzySet) -> FuzzySet:
    """Sup-min image: (F(A))(y) = max over the fiber of min(source grade, A(x)),
    which is A(x) as A lies under the source."""
    if a.carrier != f.source.carrier:
        raise CarrierMismatchError("A must live on the source carrier")
    is_subset(a, f.source).require("A exceeds its bound")
    out = [0] * len(f.target.carrier)
    for y, n in zip(f._ints, a.nums):
        if n > out[y]:
            out[y] = n
    return FuzzySet._from_nums(f.target.carrier, tuple(out), a.den)


def preimage(f: ProperFunction, b: FuzzySet) -> FuzzySet:
    """(F^{-1}(B))(x) = min(source grade at x, B(f(x)))."""
    if b.carrier != f.target.carrier:
        raise CarrierMismatchError("B must live on the target carrier")
    is_subset(b, f.target).require("B exceeds its bound")
    den = math.lcm(f.source.den, b.den)
    pulled = b.over(den)
    nums = tuple(min(n, pulled[y]) for n, y in zip(f.source.over(den), f._ints))
    return FuzzySet._from_nums(f.source.carrier, nums, den)


def classify(f: ProperFunction) -> MapFlags:
    """Injective iff the crisp map is; surjective iff every positively graded
    target element has a preimage; bijective iff both."""
    hit = set(f._ints)
    injective = len(hit) == len(f.images)
    missed = [y for y, n in enumerate(f.target.nums) if n and y not in hit]
    witness = f.target.carrier.elements[missed[0]] if missed else None
    return MapFlags(injective, not missed, injective and not missed, witness)


def is_fuzzy_homomorphism(f: ProperFunction, group_src, group_tgt) -> Verdict:
    """Grade-carrying group compatibility: f(x*z) = f(x)*f(z) for all pairs.

    Witness is the first failing pair (x, z) in carrier order.
    """
    if f.source.carrier != group_src.carrier:
        raise CarrierMismatchError("source carrier is not the source group")
    if f.target.carrier != group_tgt.carrier:
        raise CarrierMismatchError("target carrier is not the target group")
    fi, elems, mul = f._ints, group_src.carrier.elements, group_tgt._ints
    for x, row in enumerate(group_src._ints):
        fx_row = mul[fi[x]]
        for z, xz in enumerate(row):
            if fi[xz] != fx_row[fi[z]]:
                a, b, right = elems[x], elems[z], group_tgt.table[fi[x]][fi[z]]
                return Verdict.failed(
                    f"f({a!r}*{b!r})={f.images[xz]!r} but f({a!r})*f({b!r})={right!r}",
                    witness=(a, b),
                )
    return Verdict.passed()

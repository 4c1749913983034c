"""Fuzzy proper functions: crisp map + source/target fuzzy sets.

The induced relation F(x,y) equals the source grade on the graph of the
crisp map and 0 elsewhere, so image/preimage reduce to sup-min over the
crisp fibers.  The scans run on the images as target indices.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import CarrierMismatchError
from .sets import FuzzySet, Verdict, ZERO, is_subset


@dataclass(frozen=True)
class ProperFunction:
    """Crisp total map between the carriers of two fuzzy sets."""

    source: FuzzySet
    target: FuzzySet
    images: tuple  # images[i] = value at source.carrier.elements[i]

    def __post_init__(self):
        object.__setattr__(self, "images", tuple(self.images))
        if len(self.images) != len(self.source.carrier):
            raise ValueError("map must be total on the source carrier")
        for y in self.images:
            if y not in self.target.carrier:
                raise ValueError(f"map value {y!r} not in target carrier")

    @classmethod
    def from_dict(cls, source: FuzzySet, target: FuzzySet, mapping: dict) -> "ProperFunction":
        try:
            images = tuple(mapping[x] for x in source.carrier)
        except KeyError as exc:
            raise ValueError(f"map not defined at {exc.args[0]!r}") from None
        return cls(source, target, images)

    @cached_property
    def _ints(self) -> tuple:
        """The images as target indices, aligned with source order."""
        return tuple(map(self.target.carrier.index, self.images))

    def of(self, x):
        return self.images[self.source.carrier.index(x)]

    def relation(self, x, y):
        """Graph relation: source grade on the graph, 0 off it."""
        return self.source(x) if self.of(x) == y else ZERO


@dataclass(frozen=True)
class MapFlags:
    injective: bool
    surjective: bool
    bijective: bool
    witness: object = None


def image(f: ProperFunction, a: FuzzySet) -> FuzzySet:
    """Sup-min image: (F(A))(y) = max over the fiber of min(source grade, A(x)),
    which is A(x) as A lies under the source."""
    if a.carrier != f.source.carrier:
        raise CarrierMismatchError("A must live on the source carrier")
    is_subset(a, f.source).require("A exceeds its bound")
    out = [ZERO] * len(f.target.carrier)
    for y, g in zip(f._ints, a.grades):
        if g > out[y]:
            out[y] = g
    return FuzzySet._trusted(f.target.carrier, tuple(out))


def preimage(f: ProperFunction, b: FuzzySet) -> FuzzySet:
    """(F^{-1}(B))(x) = min(source grade at x, B(f(x)))."""
    if b.carrier != f.target.carrier:
        raise CarrierMismatchError("B must live on the target carrier")
    is_subset(b, f.target).require("B exceeds its bound")
    grades = tuple(min(gx, b.grades[y]) for gx, y in zip(f.source.grades, f._ints))
    return FuzzySet._trusted(f.source.carrier, grades)


def classify(f: ProperFunction) -> MapFlags:
    """Injective iff the crisp map is; surjective iff every positively graded
    target element has a preimage; bijective iff both."""
    hit = set(f._ints)
    injective = len(hit) == len(f.images)
    missed = [y for y, gy in enumerate(f.target.grades) if gy > 0 and y not in hit]
    witness = f.target.carrier.elements[missed[0]] if missed else None
    return MapFlags(injective, not missed, injective and not missed, witness)


def compose(f: ProperFunction, g: ProperFunction) -> ProperFunction:
    """g after f; requires f's target to be g's source."""
    if f.target != g.source:
        raise CarrierMismatchError("target of first map must equal source of second")
    return ProperFunction(f.source, g.target, tuple(g.images[y] for y in f._ints))


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

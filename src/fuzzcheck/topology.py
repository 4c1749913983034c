"""Fuzzy topologies on a fuzzy set, with a finite grade lattice.

The constant-cut axiom quantifies over every t in [0,1]; restricting t to
the finite lattice {k/q} makes it decidable.  All families here are finite,
so arbitrary unions reduce to pairwise ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce
from operator import itemgetter, or_

from .errors import CarrierMismatchError, ResourceCapError
from .maps import ProperFunction, classify, image, preimage

# `union`, `intersection`, `image` and `preimage` stay bound in this module
# even where unused: perfbench/tracing.py counts their calls by wrapping
# these module attributes.
from .sets import FuzzySet, Verdict, format_grade, intersection, is_subset, union  # noqa: F401

DEFAULT_CLOSURE_CAP = 10**6


@dataclass(frozen=True)
class GradeLattice:
    """The grades {k/q : 0 <= k <= q}; closed under min/max."""

    q: int

    def __post_init__(self):
        if self.q < 1:
            raise ValueError("lattice resolution must be a positive integer")

    def members(self) -> tuple:
        return tuple(Fraction(k, self.q) for k in range(self.q + 1))

    def contains(self, g: Fraction) -> bool:
        return 0 <= g <= 1 and (g * self.q).denominator == 1

    def contains_set(self, s: FuzzySet) -> bool:
        return all(self.contains(g) for g in s.grades)


class _IntView:
    """A topology as the scans see it.

    Grades become numerators over one scale: the lcm of q and every
    denominator in the ambient and the opens, because a --literal family may
    hold grades off the lattice.  Each open also gets an int code: per
    coordinate, the rank r of its numerator among the values the opens take
    there, written as r one-bits (a thermometer code).  The code of a
    pointwise max of two opens is then the OR of their codes, and of a
    pointwise min the AND.  Lattice grade k/q is numerator k * step.
    """

    def __init__(self, tau: "FuzzyTopology"):
        carrier = tau.ambient.carrier
        if any(s.carrier != carrier for s in tau.opens):
            raise CarrierMismatchError("an open lives on another carrier than the ambient set")
        self.q = q = tau.lattice.q
        scale = math.lcm(q, *{g.denominator for s in (tau.ambient, *tau.opens) for g in s.grades})
        self.step = scale // q

        def numerators(s):
            return tuple(g.numerator * (scale // g.denominator) for g in s.grades)

        self.ambient = numerators(tau.ambient)
        # Numerators over one positive scale order like the grades themselves.
        ordered = sorted(zip(map(numerators, tau.opens), tau.opens), key=itemgetter(0))
        self.opens = [s for _, s in ordered]
        self.keys = [k for k, _ in ordered]  # numerators, aligned with `opens`
        self.bits = []  # per coordinate: numerator -> its bits in a code
        offset = 0
        for i in range(len(carrier)):
            values = sorted({k[i] for k in self.keys})
            self.bits.append({x: ((1 << r) - 1) << offset for r, x in enumerate(values)})
            offset += max(len(values) - 1, 0)
        self.codes = [self.code(k) for k in self.keys]  # aligned with `opens`
        self.codeset = frozenset(self.codes)

    def code(self, key: tuple):
        """The code of a numerator tuple; None when some coordinate holds a
        value no open holds there."""
        try:
            return sum(b[x] for b, x in zip(self.bits, key))
        except KeyError:
            return None

    def is_open(self, key: tuple) -> bool:
        return self.code(key) in self.codeset

    def heights(self) -> list:
        """Per carrier element x, the k with 0 < k/q <= ambient(x)."""
        return [range(1, min(self.q, top // self.step) + 1) for top in self.ambient]


@dataclass(frozen=True)
class FuzzyTopology:
    ambient: FuzzySet
    opens: frozenset  # of FuzzySet, each <= ambient
    lattice: GradeLattice

    @classmethod
    def literal(cls, ambient: FuzzySet, opens: list, lattice: GradeLattice) -> "FuzzyTopology":
        """The listed family, unclosed; each open in turn must lie under the ambient."""
        for s in opens:
            is_subset(s, ambient).require("generator exceeds ambient")
        return cls(ambient, frozenset(opens), lattice)

    def sorted_opens(self) -> list:
        """Opens in a canonical order (by grade tuple); used for determinism."""
        return list(self._ints.opens)

    @cached_property
    def _ints(self) -> _IntView:
        return _IntView(self)


def cut(ambient: FuzzySet, t: Fraction) -> FuzzySet:
    """The constant t intersected with the ambient set."""
    return FuzzySet(ambient.carrier, tuple(min(t, g) for g in ambient.grades))


def _closure(top: tuple, generators, cap: int) -> set:
    """The sublattice of {0..q}^n generated by the generators and every cut
    min(t, top), as numerator tuples.  {0..q}^n is distributive, so that is
    the set of joins of meets of those seeds: close under meet, then under
    join.  Both passes grow subsets of the result, so the cap fires exactly
    when the closure has more than `cap` members."""
    height = max(top)
    # The cuts for t = 0..height are distinct, and each higher t repeats top.
    if height + 1 > cap:
        raise ResourceCapError(f"topology closure exceeded cap of {cap} opens")
    seeds = {tuple(min(t, a) for a in top) for t in range(height + 1)}
    seeds.update(generators)

    def close(family, by, op):
        for s in by:
            family |= {tuple(map(op, f, s)) for f in family}
            if len(family) > cap:
                raise ResourceCapError(f"topology closure exceeded cap of {cap} opens")
        return family

    meets = close({top}, seeds, min)
    return close({(0,) * len(top)}, meets, max)


def generate(
    ambient: FuzzySet,
    generators,
    lattice: GradeLattice,
    cap: int = DEFAULT_CLOSURE_CAP,
) -> FuzzyTopology:
    """Smallest family containing the generators and every constant cut,
    closed under pairwise union and intersection.

    The closure lives inside lattice^carrier, hence terminates; exceeding
    `cap` raises ResourceCapError rather than truncating.
    """
    if cap < 1:
        raise ValueError("closure cap must be a positive integer")
    if not lattice.contains_set(ambient):
        raise ValueError("ambient grades must lie in the lattice")
    for g in generators:
        is_subset(g, ambient).require("generator exceeds ambient")
        if not lattice.contains_set(g):
            raise ValueError("generator grade outside the lattice")

    q = lattice.q

    def numerators(s):
        return tuple(g.numerator * (q // g.denominator) for g in s.grades)

    top = numerators(ambient)
    keys = _closure(top, map(numerators, generators), cap)
    grade = [Fraction(k, q) for k in range(max(top) + 1)]
    carrier = ambient.carrier
    opens = frozenset(FuzzySet._trusted(carrier, tuple(grade[k] for k in key)) for key in keys)
    return FuzzyTopology(ambient, opens, lattice)


def verify_axioms(tau: FuzzyTopology) -> Verdict:
    """Constant cuts present, closed under pairwise union and intersection."""
    v = tau._ints
    # Past the ambient's top numerator every cut is the ambient itself.
    for k in range(min(v.q, -(-max(v.ambient) // v.step)) + 1):
        if not v.is_open(tuple(min(k * v.step, a) for a in v.ambient)):
            t = Fraction(k, v.q)
            return Verdict.failed(
                f"constant cut t={format_grade(t)} missing", witness=("cut", t)
            )
    codes, codeset, opens = v.codes, v.codeset, v.opens
    for i, a in enumerate(codes):
        for j in range(i, len(codes)):
            b = codes[j]
            if a | b not in codeset:
                return Verdict.failed(
                    "union of two opens missing", witness=("union", opens[i], opens[j])
                )
            if a & b not in codeset:
                return Verdict.failed(
                    "intersection of two opens missing",
                    witness=("intersection", opens[i], opens[j]),
                )
    return Verdict.passed()


def is_open_base(base, tau: FuzzyTopology) -> Verdict:
    """Every open must be the union of the base members lying under it."""
    v = tau._ints
    code_of = dict(zip(v.opens, v.codes))
    try:
        base = [code_of[b] for b in base]
    except KeyError:
        raise ValueError("base member is not an open of the topology") from None
    zero = v.code((0,) * len(v.ambient))  # no open's code unless the zero set is open
    for nu, c in zip(v.opens, v.codes):
        # On codes, b <= nu is b & c == b, and a union is the OR.
        under = [b for b in base if b & c == b]
        if (reduce(or_, under) if under else zero) != c:
            return Verdict.failed("open is not a union of base members", witness=nu)
    return Verdict.passed()


def product_topology(tau1: FuzzyTopology, tau2: FuzzyTopology) -> FuzzyTopology:
    """Generated by products of opens, over the product ambient."""
    from .sets import product as set_product

    if tau1.lattice != tau2.lattice:
        raise ValueError("product topology requires matching grade lattices")
    ambient = set_product(tau1.ambient, tau2.ambient)
    base = [
        set_product(g1, g2)
        for g1 in tau1.sorted_opens()
        for g2 in tau2.sorted_opens()
    ]
    return generate(ambient, base, tau1.lattice)


def is_T1(tau: FuzzyTopology) -> Verdict:
    """Every fuzzy point (lattice heights up to the ambient grade) is closed,
    i.e. its complement within the ambient set is open."""
    v = tau._ints
    for xi, (x, heights) in enumerate(zip(tau.ambient.carrier, v.heights())):
        for k in heights:
            rest = list(v.ambient)
            rest[xi] -= k * v.step
            if not v.is_open(tuple(rest)):
                t = Fraction(k, v.q)
                return Verdict.failed(
                    f"point {x!r} at height {format_grade(t)} is not closed",
                    witness=(x, t),
                )
    return Verdict.passed()


def is_hausdorff(tau: FuzzyTopology) -> Verdict:
    """Distinct fuzzy points separated by disjoint opens containing them.
    Two opens are disjoint exactly when their supports are, so each open is
    reduced to the bitmask of its support."""
    v = tau._ints
    carrier = tau.ambient.carrier
    heights = v.heights()
    supports = [sum(1 << i for i, g in enumerate(key) if g) for key in v.keys]
    # Distinct supports of the opens containing each fuzzy point (x, k/q).
    around = {
        (xi, k): {m for m, key in zip(supports, v.keys) if key[xi] >= k * v.step}
        for xi, hs in enumerate(heights)
        for k in hs
    }
    for xi, x in enumerate(carrier):
        for k in heights[xi]:
            us = around[xi, k]
            for yi, y in enumerate(carrier):
                if y == x:
                    continue
                for j in heights[yi]:
                    if not any(not u & w for u in us for w in around[yi, j]):
                        tp, tq = Fraction(k, v.q), Fraction(j, v.q)
                        return Verdict.failed(
                            f"points {x!r}@{format_grade(tp)} and {y!r}@{format_grade(tq)} "
                            "admit no disjoint opens",
                            witness=((x, tp), (y, tq)),
                        )
    return Verdict.passed()


@dataclass(frozen=True)
class TopoMapFlags:
    continuous: bool
    open: bool
    homeomorphism: bool
    witness: object = None


def check_map(f: ProperFunction, tau_src: FuzzyTopology, tau_tgt: FuzzyTopology) -> TopoMapFlags:
    """Continuity (preimages of opens are open), openness (images of opens
    are open), homeomorphism (bijective + both)."""
    if f.source != tau_src.ambient:
        raise CarrierMismatchError("map source must be the source topology's ambient set")
    if f.target != tau_tgt.ambient:
        raise CarrierMismatchError("map target must be the target topology's ambient set")
    witness = None
    continuous = True
    for nu in tau_tgt.sorted_opens():
        if preimage(f, nu) not in tau_src.opens:
            continuous, witness = False, ("preimage", nu)
            break
    is_open = True
    for delta in tau_src.sorted_opens():
        if image(f, delta) not in tau_tgt.opens:
            is_open = False
            if witness is None:
                witness = ("image", delta)
            break
    bijective = classify(f).bijective
    return TopoMapFlags(continuous, is_open, bijective and continuous and is_open, witness)

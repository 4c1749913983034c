"""Fuzzy topologies on a fuzzy set, with a finite grade lattice.

The constant-cut axiom quantifies over every t in [0,1]; restricting t to
the finite lattice {k/q} makes it decidable.  All families here are finite,
so arbitrary unions reduce to pairwise ones.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import reduce
from operator import or_

from .errors import CarrierMismatchError, ResourceCapError
from .record import Frozen

# `union`, `intersection`, `image` and `preimage` stay bound in this module
# even where unused: perfbench/tracing.py counts their calls by wrapping
# these module attributes.
from .maps import ProperFunction, classify, image, preimage  # noqa: F401
from .sets import FuzzySet, Verdict, format_grade, intersection, is_subset, union  # noqa: F401

DEFAULT_CLOSURE_CAP = 10**6


class GradeLattice(Frozen):
    """The grades {k/q : 0 <= k <= q}; closed under min/max."""

    def __init__(self, q: int):
        if q < 1:
            raise ValueError("lattice resolution must be a positive integer")
        self._set(q=q)

    def members(self) -> tuple:
        return tuple(Fraction(k, self.q) for k in range(self.q + 1))

    def contains_set(self, s: FuzzySet) -> bool:
        return self.q % s.den == 0


class _IntView:
    """A topology as the scans see it.

    Grades become numerators over one scale: the lcm of q and the
    denominators of the ambient and the opens, because a --literal family may
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
        self.scale = scale = math.lcm(q, tau.ambient.den, *{s.den for s in tau.opens})
        self.step = scale // q
        self.ambient = tau.ambient.over(scale)
        # Numerators over one positive scale order like the grades themselves.
        self.opens = sorted(tau.opens, key=lambda s: s.over(scale))
        self.keys = [s.over(scale) for s in self.opens]  # aligned with `opens`
        self.bits = []  # per coordinate: numerator -> its bits in a code
        offset = 0
        for i in range(len(carrier)):
            values = sorted({k[i] for k in self.keys})
            self.bits.append({x: ((1 << r) - 1) << offset for r, x in enumerate(values)})
            offset += max(len(values) - 1, 0)
        self.codes = [self.code(k) for k in self.keys]  # aligned with `opens`
        self.codeset = frozenset(self.codes)

    def code(self, key: tuple, bits=None):
        """The code of a numerator tuple, looked up in `bits` (by default the
        view's own); None when some coordinate holds a value no open holds there."""
        try:
            return sum(b[x] for b, x in zip(bits or self.bits, key))
        except KeyError:
            return None

    def is_open(self, key: tuple, bits=None) -> bool:
        return self.code(key, bits) in self.codeset

    def heights(self) -> list:
        """Per carrier element x, the k with 0 < k/q <= ambient(x)."""
        return [range(1, min(self.q, top // self.step) + 1) for top in self.ambient]


class FuzzyTopology(Frozen):
    def __init__(self, ambient: FuzzySet, opens: frozenset, lattice: GradeLattice):
        # opens: a frozenset of FuzzySet, each <= ambient
        self._set(ambient=ambient, opens=opens, lattice=lattice)
        self._set(_ints=_IntView(self))  # what the scans read

    @classmethod
    def literal(cls, ambient: FuzzySet, opens: list, lattice: GradeLattice,
                cap: int = DEFAULT_CLOSURE_CAP) -> "FuzzyTopology":
        """The listed family, unclosed; each open in turn must lie under the
        ambient, and the family may hold at most `cap` opens."""
        _require_cap(cap)
        for s in opens:
            is_subset(s, ambient).require("generator exceeds ambient")
        family = frozenset(opens)
        if len(family) > cap:
            raise ResourceCapError(f"literal topology exceeded cap of {cap} opens")
        return cls(ambient, family, lattice)

    def sorted_opens(self) -> list:
        """Opens in a canonical order (by grade tuple); used for determinism."""
        return list(self._ints.opens)


def _require_cap(cap: int) -> None:
    if cap < 1:
        raise ValueError("closure cap must be a positive integer")


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
    _require_cap(cap)
    if not lattice.contains_set(ambient):
        raise ValueError("ambient grades must lie in the lattice")
    for g in generators:
        is_subset(g, ambient).require("generator exceeds ambient")
        if not lattice.contains_set(g):
            raise ValueError("generator grade outside the lattice")

    q, carrier = lattice.q, ambient.carrier
    keys = _closure(ambient.over(q), (g.over(q) for g in generators), cap)
    opens = frozenset(FuzzySet._from_nums(carrier, key, q) for key in keys)
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


def product_topology(tau1: FuzzyTopology, tau2: FuzzyTopology,
                     cap: int = DEFAULT_CLOSURE_CAP) -> FuzzyTopology:
    """Generated by products of opens over the product ambient, up to `cap` opens."""
    from .sets import product as set_product

    if tau1.lattice != tau2.lattice:
        raise ValueError("product topology requires matching grade lattices")
    ambient = set_product(tau1.ambient, tau2.ambient)
    base = [
        set_product(g1, g2)
        for g1 in tau1.sorted_opens()
        for g2 in tau2.sorted_opens()
    ]
    return generate(ambient, base, tau1.lattice, cap)


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
    reduced to the bitmask of its support.  Separation is symmetric, so y
    runs after x in carrier order: a pair that fails with y before x fails
    swapped, earlier, so the first witness is the one a scan of all ordered
    pairs finds."""
    v = tau._ints
    carrier = tau.ambient.carrier.elements
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
            for yi, y in enumerate(carrier[xi + 1:], xi + 1):
                for j in heights[yi]:
                    if not any(not u & w for u in us for w in around[yi, j]):
                        tp, tq = Fraction(k, v.q), Fraction(j, v.q)
                        return Verdict.failed(
                            f"points {x!r}@{format_grade(tp)} and {y!r}@{format_grade(tq)} "
                            "admit no disjoint opens",
                            witness=((x, tp), (y, tq)),
                        )
    return Verdict.passed()


class TopoMapFlags(Frozen):
    def __init__(self, continuous: bool, open: bool, homeomorphism: bool, witness=None):
        self._set(continuous=continuous, open=open, homeomorphism=homeomorphism, witness=witness)


def check_map(f: ProperFunction, tau_src: FuzzyTopology, tau_tgt: FuzzyTopology) -> TopoMapFlags:
    """Continuity (preimages of opens are open), openness (images of opens
    are open), homeomorphism (bijective + both)."""
    if f.source != tau_src.ambient:
        raise CarrierMismatchError("map source must be the source topology's ambient set")
    if f.target != tau_tgt.ambient:
        raise CarrierMismatchError("map target must be the target topology's ambient set")
    vs, vt = tau_src._ints, tau_tgt._ints
    s, t = vs.scale, vt.scale
    # Preimages and images as numerators over s*t: one that is no multiple of
    # a family's own scale is no grade of its opens, so no key of its bits.
    src_bits, tgt_bits = ([{x * k: b for x, b in xs.items()} for xs in v.bits]
                          for v, k in ((vs, t), (vt, s)))
    witness = None
    continuous = True
    for nu, key in zip(vt.opens, vt.keys):
        pulled = tuple(min(a * t, key[y] * s) for a, y in zip(vs.ambient, f._ints))
        if not vs.is_open(pulled, src_bits):
            continuous, witness = False, ("preimage", nu)
            break
    is_open = True
    for delta, key in zip(vs.opens, vs.keys):
        sup = [0] * len(vt.ambient)  # of delta over each fiber, over s
        for y, n in zip(f._ints, key):
            if n > sup[y]:
                sup[y] = n
        if not vt.is_open(tuple(n * t for n in sup), tgt_bits):
            is_open = False
            if witness is None:
                witness = ("image", delta)
            break
    bijective = classify(f).bijective
    return TopoMapFlags(continuous, is_open, bijective and continuous and is_open, witness)

"""Fuzzy topologies on a fuzzy set, with a finite grade lattice.

The constant-cut axiom quantifies over every t in [0,1]; restricting t to
the finite lattice {k/q} makes it decidable.  All families here are finite,
so arbitrary unions reduce to pairwise ones.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property, reduce
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


class FuzzyTopology(Frozen):
    """Opens on an ambient fuzzy set, each held once as the numerator tuple
    (its key) of its grades over one scale: the lcm of q and the ambient's and
    opens' denominators, as a --literal family may hold grades off the
    lattice.  Grade k/q is numerator k * step; `top` is the ambient's key.
    Each open also gets an int code: per coordinate, the rank r of its
    numerator among the values the opens take there, as r one-bits.  The code
    of a pointwise max of two opens is the OR of theirs, of a min the AND.
    `opens` is the FuzzySet family the constructor was given, or is built
    from the keys on first access; FuzzySets are made only on request."""

    def __init__(self, ambient: FuzzySet, opens: frozenset, lattice: GradeLattice):
        # opens: a frozenset of FuzzySet, each <= ambient
        if any(s.carrier != ambient.carrier for s in opens):
            raise CarrierMismatchError("an open lives on another carrier than the ambient set")
        scale = math.lcm(lattice.q, ambient.den, *{s.den for s in opens})
        self._set(opens=opens)
        self._index(ambient, lattice, scale, [s.over(scale) for s in opens])

    @classmethod
    def _from_keys(cls, ambient: FuzzySet, keys, lattice: GradeLattice) -> "FuzzyTopology":
        """From distinct numerator tuples over q, each <= the ambient's; builds no FuzzySet."""
        tau = object.__new__(cls)
        tau._index(ambient, lattice, lattice.q, keys)
        return tau

    def _index(self, ambient: FuzzySet, lattice: GradeLattice, scale: int, keys) -> None:
        # Numerators over one positive scale order like the grades themselves.
        keys = sorted(keys)
        bits = []  # per coordinate: numerator -> its bits in a code
        offset = 0
        for i in range(len(ambient.carrier)):
            values = sorted({k[i] for k in keys})
            bits.append({x: ((1 << r) - 1) << offset for r, x in enumerate(values)})
            offset += max(len(values) - 1, 0)
        codes = [self.code(k, bits) for k in keys]  # aligned with `keys`
        self._set(ambient=ambient, lattice=lattice, scale=scale, step=scale // lattice.q,
                  top=ambient.over(scale), keys=keys, bits=bits, codes=codes,
                  codeset=frozenset(codes))

    @cached_property
    def opens(self) -> frozenset:
        return frozenset(self.sorted_opens())

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

    def as_set(self, key: tuple) -> FuzzySet:
        """The open whose numerators over the scale are `key`."""
        return FuzzySet._from_nums(self.ambient.carrier, key, self.scale)

    def sorted_opens(self) -> list:
        """Opens in a canonical order (by grade tuple); used for determinism."""
        return [self.as_set(k) for k in self.keys]

    def code(self, key: tuple, bits=None):
        """The code of a numerator tuple, looked up in `bits` (by default the
        topology's own); None when some coordinate holds a value no open holds there."""
        try:
            return sum(b[x] for b, x in zip(bits or self.bits, key))
        except KeyError:
            return None

    def is_open(self, key: tuple, bits=None) -> bool:
        return self.code(key, bits) in self.codeset

    def heights(self) -> list:
        """Per carrier element x, the k with 0 < k/q <= ambient(x)."""
        return [range(1, min(self.lattice.q, a // self.step) + 1) for a in self.top]


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

    q = lattice.q
    keys = _closure(ambient.over(q), (g.over(q) for g in generators), cap)
    return FuzzyTopology._from_keys(ambient, keys, lattice)


def verify_axioms(tau: FuzzyTopology) -> Verdict:
    """Constant cuts present, closed under pairwise union and intersection."""
    q, step, top = tau.lattice.q, tau.step, tau.top
    # Past the ambient's top numerator every cut is the ambient itself.
    for k in range(min(q, -(-max(top) // step)) + 1):
        if not tau.is_open(tuple(min(k * step, a) for a in top)):
            t = Fraction(k, q)
            return Verdict.failed(
                f"constant cut t={format_grade(t)} missing", witness=("cut", t)
            )
    codes, codeset, keys = tau.codes, tau.codeset, tau.keys
    for i, a in enumerate(codes):
        for j in range(i, len(codes)):
            b = codes[j]
            if a | b not in codeset or a & b not in codeset:
                op = "union" if a | b not in codeset else "intersection"
                return Verdict.failed(f"{op} of two opens missing",
                                      witness=(op, tau.as_set(keys[i]), tau.as_set(keys[j])))
    return Verdict.passed()


def is_open_base(base, tau: FuzzyTopology) -> Verdict:
    """Every open must be the union of the base members lying under it."""
    carrier, scale = tau.ambient.carrier, tau.scale
    # A set over no divisor of the scale holds a grade no open holds.
    base = [tau.code(b.over(scale)) if b.carrier == carrier and scale % b.den == 0 else None
            for b in base]
    if not tau.codeset.issuperset(base):
        raise ValueError("base member is not an open of the topology")
    zero = tau.code((0,) * len(carrier))  # no open's code unless the zero set is open
    for key, c in zip(tau.keys, tau.codes):
        # On codes, b <= the open is b & c == b, and a union is the OR.
        under = [b for b in base if b & c == b]
        if (reduce(or_, under) if under else zero) != c:
            return Verdict.failed("open is not a union of base members", witness=tau.as_set(key))
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
    for xi, (x, heights) in enumerate(zip(tau.ambient.carrier, tau.heights())):
        for k in heights:
            rest = list(tau.top)
            rest[xi] -= k * tau.step
            if not tau.is_open(tuple(rest)):
                t = Fraction(k, tau.lattice.q)
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
    carrier, q, step = tau.ambient.carrier.elements, tau.lattice.q, tau.step
    heights = tau.heights()
    supports = [sum(1 << i for i, g in enumerate(key) if g) for key in tau.keys]
    # Distinct supports of the opens containing each fuzzy point (x, k/q).
    around = {
        (xi, k): {m for m, key in zip(supports, tau.keys) if key[xi] >= k * step}
        for xi, hs in enumerate(heights)
        for k in hs
    }
    for xi, x in enumerate(carrier):
        for k in heights[xi]:
            us = around[xi, k]
            for yi, y in enumerate(carrier[xi + 1:], xi + 1):
                for j in heights[yi]:
                    if not any(not u & w for u in us for w in around[yi, j]):
                        tp, tq = Fraction(k, q), Fraction(j, q)
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
    s, t = tau_src.scale, tau_tgt.scale
    # Preimages and images as numerators over s*t: one that is no multiple of
    # a family's own scale is no grade of its opens, so no key of its bits.
    src_bits, tgt_bits = ([{x * k: b for x, b in xs.items()} for xs in v.bits]
                          for v, k in ((tau_src, t), (tau_tgt, s)))
    witness = None
    continuous = True
    for key in tau_tgt.keys:
        pulled = tuple(min(a * t, key[y] * s) for a, y in zip(tau_src.top, f._ints))
        if not tau_src.is_open(pulled, src_bits):
            continuous, witness = False, ("preimage", tau_tgt.as_set(key))
            break
    is_open = True
    for key in tau_src.keys:
        sup = [0] * len(tau_tgt.top)  # of the open over each fiber, over s
        for y, n in zip(f._ints, key):
            if n > sup[y]:
                sup[y] = n
        if not tau_tgt.is_open(tuple(n * t for n in sup), tgt_bits):
            is_open = False
            if witness is None:
                witness = ("image", tau_src.as_set(key))
            break
    bijective = classify(f).bijective
    return TopoMapFlags(continuous, is_open, bijective and continuous and is_open, witness)

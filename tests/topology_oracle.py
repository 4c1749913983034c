"""Reference implementations of the fuzzy-topology closure and scans.

These build and compare `FuzzySet`s pairwise, exactly as the library did
before its int-tuple kernel; the differential tests in
`test_topology_kernel.py` require the kernel to agree with them on opens,
verdicts and witnesses.
"""

from __future__ import annotations

from fractions import Fraction

import maps_oracle
from fuzzcheck.errors import CarrierMismatchError, DominationError, ResourceCapError
from fuzzcheck.maps import classify
from fuzzcheck.sets import (
    FuzzySet,
    Verdict,
    complement_in,
    format_grade,
    intersection,
    is_subset,
    union,
)
from fuzzcheck.topology import (
    DEFAULT_CLOSURE_CAP,
    FuzzyTopology,
    GradeLattice,
    TopoMapFlags,
)


def cut(ambient: FuzzySet, t: Fraction) -> FuzzySet:
    """The constant t intersected with the ambient set."""
    return FuzzySet(ambient.carrier, tuple(min(t, g) for g in ambient.grades))


def generate(
    ambient: FuzzySet,
    generators,
    lattice: GradeLattice,
    cap: int = DEFAULT_CLOSURE_CAP,
) -> FuzzyTopology:
    if not lattice.contains_set(ambient):
        raise ValueError("ambient grades must lie in the lattice")
    for g in generators:
        v = is_subset(g, ambient)
        if not v:
            raise DominationError(f"generator exceeds ambient: {v.reason}", witness=v.witness)
        if not lattice.contains_set(g):
            raise ValueError("generator grade outside the lattice")

    family = {cut(ambient, t) for t in lattice.members()}
    family.update(generators)
    if len(family) > cap:
        raise ResourceCapError(f"topology closure exceeded cap of {cap} opens")
    frontier = list(family)
    while frontier:
        new = []
        members = sorted(family, key=lambda s: s.grades)
        for a in frontier:
            for b in members:
                for c in (union([a, b]), intersection([a, b])):
                    if c not in family:
                        family.add(c)
                        new.append(c)
                        if len(family) > cap:
                            raise ResourceCapError(
                                f"topology closure exceeded cap of {cap} opens"
                            )
        frontier = new
    return FuzzyTopology(ambient, frozenset(family), lattice)


def verify_axioms(tau: FuzzyTopology) -> Verdict:
    opens = tau.sorted_opens()
    open_set = tau.opens
    for t in tau.lattice.members():
        if cut(tau.ambient, t) not in open_set:
            return Verdict.failed(
                f"constant cut t={format_grade(t)} missing", witness=("cut", t)
            )
    for i, a in enumerate(opens):
        for b in opens[i:]:
            if union([a, b]) not in open_set:
                return Verdict.failed("union of two opens missing", witness=("union", a, b))
            if intersection([a, b]) not in open_set:
                return Verdict.failed(
                    "intersection of two opens missing", witness=("intersection", a, b)
                )
    return Verdict.passed()


def is_open_base(base, tau: FuzzyTopology) -> Verdict:
    """Every open must be the union of the base members lying under it."""
    base = list(base)
    for b in base:
        if b not in tau.opens:
            raise ValueError("base member is not an open of the topology")
    zero = FuzzySet.zero(tau.ambient.carrier)
    for nu in tau.sorted_opens():
        under = [b for b in base if is_subset(b, nu)]
        rebuilt = union(under) if under else zero
        if rebuilt != nu:
            return Verdict.failed("open is not a union of base members", witness=nu)
    return Verdict.passed()


def _lattice_heights(tau: FuzzyTopology, top: Fraction):
    return [t for t in tau.lattice.members() if 0 < t <= top]


def is_T1(tau: FuzzyTopology) -> Verdict:
    mu = tau.ambient
    for x in mu.carrier:
        for p in _lattice_heights(tau, mu(x)):
            pt = FuzzySet.point(mu.carrier, x, p)
            if complement_in(mu, pt) not in tau.opens:
                return Verdict.failed(
                    f"point {x!r} at height {format_grade(p)} is not closed",
                    witness=(x, p),
                )
    return Verdict.passed()


def is_hausdorff(tau: FuzzyTopology) -> Verdict:
    mu = tau.ambient
    opens = tau.sorted_opens()
    zero_grades = (Fraction(0),) * len(mu.carrier)
    for xi, x in enumerate(mu.carrier):
        for p in _lattice_heights(tau, mu(x)):
            us = [u for u in opens if u.grades[xi] >= p]
            for yi, y in enumerate(mu.carrier):
                if y == x:
                    continue
                for q in _lattice_heights(tau, mu(y)):
                    vs = [v for v in opens if v.grades[yi] >= q]
                    if not any(
                        intersection([u, v]).grades == zero_grades
                        for u in us
                        for v in vs
                    ):
                        return Verdict.failed(
                            f"points {x!r}@{format_grade(p)} and {y!r}@{format_grade(q)} "
                            "admit no disjoint opens",
                            witness=((x, p), (y, q)),
                        )
    return Verdict.passed()


def check_map(f, tau_src: FuzzyTopology, tau_tgt: FuzzyTopology) -> TopoMapFlags:
    """Continuity, openness and homeomorphism through the checked label-loop
    `image` and `preimage` of `maps_oracle`, one call per open."""
    if f.source != tau_src.ambient:
        raise CarrierMismatchError("map source must be the source topology's ambient set")
    if f.target != tau_tgt.ambient:
        raise CarrierMismatchError("map target must be the target topology's ambient set")
    witness = None
    continuous = True
    for nu in sorted(tau_tgt.opens, key=lambda s: s.grades):
        if maps_oracle.preimage(f, nu) not in tau_src.opens:
            continuous, witness = False, ("preimage", nu)
            break
    is_open = True
    for delta in sorted(tau_src.opens, key=lambda s: s.grades):
        if maps_oracle.image(f, delta) not in tau_tgt.opens:
            is_open = False
            witness = witness or ("image", delta)
            break
    bijective = classify(f).bijective
    return TopoMapFlags(continuous, is_open, bijective and continuous and is_open, witness)

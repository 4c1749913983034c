"""Differential tests: the int-tuple topology kernel against the FuzzySet
reference in `topology_oracle.py`.  Opens, verdicts and witnesses must be
equal, down to the repr of every witness."""

import random
import time
from fractions import Fraction as F

from hypothesis import assume, given, settings, strategies as st

import topology_oracle as oracle
from fuzzcheck.errors import ResourceCapError
from fuzzcheck.maps import ProperFunction
from fuzzcheck.sets import Carrier, FuzzySet, intersection
from fuzzcheck.topology import (
    FuzzyTopology,
    GradeLattice,
    check_map,
    generate,
    is_T1,
    is_hausdorff,
    is_open_base,
    verify_axioms,
)

# Bounds the reference closure's pairwise work in every example.
ORACLE_CAP = 150

SCANS = [
    (verify_axioms, oracle.verify_axioms),
    (is_T1, oracle.is_T1),
    (is_hausdorff, oracle.is_hausdorff),
]


@st.composite
def lattice_setups(draw):
    """(ambient, generators, lattice) with n <= 4 points and q <= 4."""
    n = draw(st.integers(1, 4))
    q = draw(st.integers(1, 4))
    carrier = Carrier(tuple(f"e{i}" for i in range(n)))
    full = st.just([q] * n)
    top = draw(st.one_of(full, st.lists(st.integers(0, q), min_size=n, max_size=n)))
    vector = st.tuples(*(st.integers(0, a) for a in top))
    point = st.builds(
        lambda i, h: tuple(min(h, a) if j == i else 0 for j, a in enumerate(top)),
        st.integers(0, n - 1),
        st.integers(1, q),
    )
    gens = draw(st.lists(st.one_of(vector, point), max_size=4))
    ambient = FuzzySet(carrier, tuple(F(a, q) for a in top))
    return ambient, [FuzzySet(carrier, tuple(F(a, q) for a in g)) for g in gens], GradeLattice(q)


def off_lattice_sets(carrier):
    grade = st.builds(lambda d, k: F(min(k, d), d), st.integers(1, 6), st.integers(0, 6))
    return st.builds(
        lambda gs: FuzzySet(carrier, tuple(gs)),
        st.lists(grade, min_size=len(carrier), max_size=len(carrier)),
    )


@st.composite
def literal_families(draw):
    """Families as `--literal` reads them: a generated topology (or, past
    the cap, its generators and cuts) with some opens dropped, so unions,
    intersections or cuts go missing, and with sets whose grades lie off
    the lattice added; the ambient itself may lie off the lattice."""
    ambient, gens, lattice = draw(lattice_setups())
    try:
        family = generate(ambient, gens, lattice, cap=ORACLE_CAP).sorted_opens()
    except ResourceCapError:
        family = [oracle.cut(ambient, t) for t in lattice.members()] + gens
    cuts = {oracle.cut(ambient, t) for t in lattice.members()}
    inner = [s for s in family if s not in cuts]
    dropped = draw(st.sets(st.sampled_from(inner), max_size=3)) if inner else set()
    if draw(st.integers(0, 4)) == 0:
        dropped.add(draw(st.sampled_from(sorted(cuts, key=lambda s: s.grades))))
    family = [s for s in family if s not in dropped]
    family += draw(st.lists(off_lattice_sets(ambient.carrier), max_size=2))
    if draw(st.integers(0, 4)) == 0:
        ambient = draw(off_lattice_sets(ambient.carrier))
    return FuzzyTopology(ambient, frozenset(family), lattice)


def assert_scans_agree(tau):
    assert tau.sorted_opens() == sorted(tau.opens, key=lambda s: s.grades)
    for kernel, reference in SCANS:
        got, want = kernel(tau), reference(tau)
        assert got == want
        assert repr(got) == repr(want)


@settings(max_examples=150, deadline=None)
@given(lattice_setups(), st.integers(1, ORACLE_CAP))
def test_generate_matches_reference_closure_and_cap(setup, cap):
    outcomes = []
    for gen in (generate, oracle.generate):
        try:
            outcomes.append(gen(*setup, cap=cap).opens)
        except ResourceCapError as exc:
            outcomes.append(str(exc))
    assert outcomes[0] == outcomes[1]


@settings(max_examples=60, deadline=None)
@given(lattice_setups())
def test_scans_match_reference_on_generated_topologies(setup):
    try:
        tau = generate(*setup, cap=ORACLE_CAP)
    except ResourceCapError:
        assume(False)
    assert_scans_agree(tau)


@settings(max_examples=200, deadline=None)
@given(literal_families())
def test_scans_match_reference_on_literal_families(tau):
    assert_scans_agree(tau)


@st.composite
def wide_setups(draw):
    """(ambient, generators, lattice) on 300 to 1,000 points with q <= 3 and
    at most two random generators, the ambient full or with some lower
    grades.  The grades come from a drawn seed, so that an example shrinks
    by its seed and not by a thousand draws."""
    n = draw(st.integers(300, 1000))
    q = draw(st.sampled_from([2, 3, 1]))
    full = draw(st.booleans())
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    top = [q if full or rng.random() < 0.7 else rng.randint(0, q) for _ in range(n)]
    # Two generators first: they give the most opens.
    gens = [[rng.randint(0, a) for a in top] for _ in range(draw(st.sampled_from([2, 1, 0])))]
    carrier = Carrier(tuple(f"e{i}" for i in range(n)))
    ambient = FuzzySet(carrier, tuple(F(a, q) for a in top))
    return ambient, [FuzzySet(carrier, tuple(F(a, q) for a in g)) for g in gens], GradeLattice(q)


@settings(max_examples=8, deadline=None)
@given(wide_setups())
def test_generate_matches_reference_closure_on_wide_carriers(setup):
    assert generate(*setup).opens == oracle.generate(*setup).opens


@st.composite
def map_cases(draw):
    """(f, tau_src, tau_tgt): a crisp map between the ambients of two
    `literal_families`, each open cut down under its ambient.  The two sides
    draw their lattices apart, so their q and the scales of their opens
    mostly differ, and a preimage or an image may be no whole number over
    the scale of the family it is looked up in."""
    topologies = []
    for _ in range(2):
        tau = draw(literal_families())
        opens = [intersection([s, tau.ambient]) for s in tau.opens]
        topologies.append(FuzzyTopology.literal(tau.ambient, opens, tau.lattice))
    src, tgt = topologies
    n = len(src.ambient.carrier)
    images = draw(st.lists(st.sampled_from(tgt.ambient.carrier.elements),
                           min_size=n, max_size=n))
    return ProperFunction(src.ambient, tgt.ambient, images), src, tgt


@settings(max_examples=200, deadline=None)
@given(map_cases())
def test_check_map_matches_checked_image_and_preimage(case):
    got, want = check_map(*case), oracle.check_map(*case)
    assert got == want
    assert repr(got) == repr(want)


@st.composite
def base_cases(draw):
    """(base, topology): a generated or literal family, some without the
    zero set, and a base drawn from its opens, maybe empty, sometimes with a
    set that is not an open."""
    if draw(st.booleans()):
        try:
            tau = generate(*draw(lattice_setups()), cap=ORACLE_CAP)
        except ResourceCapError:
            assume(False)
    else:
        tau = draw(literal_families())
    opens = tau.sorted_opens()
    if draw(st.integers(0, 2)) == 0:
        opens = [s for s in opens if any(s.grades)]
        tau = FuzzyTopology(tau.ambient, frozenset(opens), tau.lattice)
    picked = st.lists(st.sampled_from(opens), max_size=6) if opens else st.just([])
    base = draw(st.one_of(st.just(opens), picked))
    if draw(st.integers(0, 4)) == 0:
        stranger = draw(off_lattice_sets(tau.ambient.carrier))
        base.insert(draw(st.integers(0, len(base))), stranger)
    return base, tau


def base_outcome(check, base, tau):
    try:
        return repr(check(base, tau))
    except ValueError as exc:
        return f"ValueError: {exc}"


@settings(max_examples=300, deadline=None)
@given(base_cases())
def test_open_base_matches_reference(case):
    base, tau = case
    assert base_outcome(is_open_base, base, tau) == base_outcome(oracle.is_open_base, base, tau)


def test_open_base_matches_reference_on_seeded_cases():
    # Hypothesis shrinks toward tiny families; these reach dozens of opens,
    # with bases cut from the opens so that some pass and some fail late.
    rng = random.Random(7)
    carrier = Carrier(("a", "b", "c"))
    verdicts = set()
    for _ in range(200):
        q = rng.choice((2, 3, 4))
        ambient = FuzzySet(carrier, tuple(F(rng.choice((q, rng.randint(0, q))), q)
                                          for _ in carrier))
        gens = [FuzzySet(carrier, tuple(F(rng.randint(0, int(a * q)), q)
                                        for a in ambient.grades))
                for _ in range(rng.randint(0, 3))]
        try:
            tau = generate(ambient, gens, GradeLattice(q), cap=ORACLE_CAP)
        except ResourceCapError:
            continue
        opens = tau.sorted_opens()
        if rng.random() < 0.3:
            opens = opens[1:]  # the zero set sorts first
            tau = FuzzyTopology(ambient, frozenset(opens), tau.lattice)
        base = rng.sample(opens, len(opens) - rng.randint(0, min(3, len(opens))))
        got = base_outcome(is_open_base, base, tau)
        assert got == base_outcome(oracle.is_open_base, base, tau)
        verdicts.add(got.startswith("Verdict(ok=True"))
    assert verdicts == {True, False}


def test_scans_match_reference_on_seeded_large_topologies():
    # Hypothesis mostly draws closures of under twenty opens; these reach
    # several dozen, on full and partial ambients, intact and with opens
    # dropped.
    rng = random.Random(2024)
    carrier = Carrier(("a", "b", "c", "d"))
    sizes = []
    while len(sizes) < 20:
        q = rng.choice((3, 4))
        top = [rng.choice((q, q, rng.randint(1, q))) for _ in carrier]
        ambient = FuzzySet(carrier, tuple(F(a, q) for a in top))
        gens = [
            FuzzySet(carrier, tuple(F(rng.randint(0, a), q) for a in top))
            for _ in range(rng.randint(1, 3))
        ]
        gens += [
            FuzzySet.point(carrier, x, F(rng.randint(1, a), q))
            for x, a in zip(carrier, top)
            if rng.random() < 0.5
        ]
        try:
            tau = oracle.generate(ambient, gens, GradeLattice(q), cap=2 * ORACLE_CAP)
        except ResourceCapError:
            continue
        assert generate(ambient, gens, GradeLattice(q)).opens == tau.opens
        sizes.append(len(tau.opens))
        assert_scans_agree(tau)
        opens = tau.sorted_opens()
        for _ in range(3):
            kept = frozenset(rng.sample(opens, len(opens) - rng.randint(1, 3)))
            assert_scans_agree(FuzzyTopology(ambient, kept, tau.lattice))
    assert max(sizes) >= 60


def test_discrete_topology_scans_match_reference():
    carrier = Carrier(("a", "b", "c"))
    ambient = FuzzySet.ones(carrier)
    points = [FuzzySet.point(carrier, x, F(1)) for x in carrier]
    tau = generate(ambient, points, GradeLattice(2))
    assert len(tau.opens) == 27
    assert tau.opens == oracle.generate(ambient, points, GradeLattice(2)).opens
    assert_scans_agree(tau)
    assert verify_axioms(tau).ok and is_T1(tau).ok and is_hausdorff(tau).ok


def test_wide_carrier_scans_stay_fast():
    """The timing rung on 2,000-point carriers with an all-ones ambient:
    generate and the three scans over q=2 with no generator, q=4 with one
    random generator and q=3 with two, in under 2 s in all.  A walk over
    minimal neighbourhoods point by point would take seconds on the first
    shape alone."""
    rng = random.Random(7)
    carrier = Carrier(tuple(f"p{i}" for i in range(2000)))
    ambient = FuzzySet.ones(carrier)
    shapes = [(q, [FuzzySet(carrier, tuple(F(rng.randint(0, q), q) for _ in carrier))
                   for _ in range(count)])
              for q, count in ((2, 0), (4, 1), (3, 2))]
    start = time.perf_counter()
    for q, gens in shapes:
        tau = generate(ambient, gens, GradeLattice(q))
        verdicts = verify_axioms(tau), is_T1(tau), is_hausdorff(tau)
        assert [v.ok for v in verdicts] == [True, False, False]
    assert time.perf_counter() - start < 2.0

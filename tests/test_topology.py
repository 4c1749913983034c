import random
import time
from fractions import Fraction as F

import pytest

from fuzzcheck.errors import CarrierMismatchError, DominationError, ResourceCapError
from fuzzcheck.maps import ProperFunction, preimage
from fuzzcheck.sets import Carrier, FuzzySet
from fuzzcheck.topology import (
    FuzzyTopology,
    GradeLattice,
    check_map,
    generate,
    is_T1,
    is_hausdorff,
    is_open_base,
    product_topology,
    verify_axioms,
)
from topology_oracle import cut

AB = Carrier(("a", "b"))
L2 = GradeLattice(2)
L4 = GradeLattice(4)


def fs(carrier, *gs):
    return FuzzySet(carrier, tuple(F(g) for g in gs))


def random_fuzzy_set(rng, carrier, q):
    return FuzzySet(carrier, tuple(F(rng.randint(0, q), q) for _ in carrier))


def random_topology(rng, max_carrier=4, max_q=4, q=None):
    """Generated topology on a random small carrier with random generators."""
    n = rng.randint(1, max_carrier)
    q = q or rng.randint(1, max_q)
    carrier = Carrier(tuple(f"e{i}" for i in range(n)))
    lattice = GradeLattice(q)
    ambient = FuzzySet.ones(carrier)
    gens = [random_fuzzy_set(rng, carrier, q) for _ in range(rng.randint(0, 3))]
    return generate(ambient, gens, lattice)


class TestLattice:
    def test_members(self):
        assert GradeLattice(2).members() == (F(0), F(1, 2), F(1))

    def test_contains(self):
        assert L4.contains_set(fs(AB, F(3, 4), F(1, 2)))
        assert not L4.contains_set(fs(AB, F(3, 4), F(1, 3)))
        assert not L4.contains_set(fs(AB, F(3, 8), 1))

    def test_positive_resolution(self):
        with pytest.raises(ValueError):
            GradeLattice(0)


class TestGenerate:
    def test_cuts_only_form_a_chain(self):
        tau = generate(FuzzySet.ones(AB), [], L2)
        assert len(tau.opens) == 3
        assert verify_axioms(tau).ok

    def test_discrete_like_on_two_points(self):
        # generators chi_a, chi_b at grade 1 give all lattice-valued opens
        tau = generate(
            FuzzySet.ones(AB),
            [FuzzySet.point(AB, "a", F(1)), FuzzySet.point(AB, "b", F(1))],
            GradeLattice(1),
        )
        assert len(tau.opens) == 4
        assert verify_axioms(tau).ok
        assert is_T1(tau).ok and is_hausdorff(tau).ok

    def test_indiscrete_not_separated(self):
        tau = generate(FuzzySet.ones(AB), [], GradeLattice(1))
        assert len(tau.opens) == 2
        assert not is_T1(tau).ok
        assert not is_hausdorff(tau).ok

    def test_generator_above_ambient_rejected(self):
        ambient = fs(AB, F(1, 2), 1)
        with pytest.raises(DominationError):
            generate(ambient, [FuzzySet.ones(AB)], L2)

    def test_generator_off_lattice_rejected(self):
        with pytest.raises(ValueError):
            generate(FuzzySet.ones(AB), [fs(AB, F(1, 3), 0)], L2)

    def test_cap_enforced(self):
        with pytest.raises(ResourceCapError):
            generate(FuzzySet.ones(AB), [], L4, cap=2)

    def test_cap_raised_before_the_cuts_are_built(self):
        start = time.perf_counter()
        with pytest.raises(ResourceCapError, match="cap of 1000 opens"):
            generate(FuzzySet.ones(AB), [], GradeLattice(10**6), cap=1000)
        assert time.perf_counter() - start < 1

    def test_idempotent(self):
        rng = random.Random(7)
        tau = random_topology(rng)
        tau2 = generate(tau.ambient, tau.sorted_opens(), tau.lattice)
        assert tau2.opens == tau.opens


class TestVerifyAxioms:
    def test_detects_missing_cut(self):
        tau = generate(FuzzySet.ones(AB), [], L2)
        broken = FuzzyTopology(
            tau.ambient,
            frozenset(o for o in tau.opens if o != cut(tau.ambient, F(1, 2))),
            tau.lattice,
        )
        v = verify_axioms(broken)
        assert not v.ok and v.witness == ("cut", F(1, 2))

    def test_detects_missing_union(self):
        ambient = FuzzySet.ones(AB)
        a, b = FuzzySet.point(AB, "a", F(1)), FuzzySet.point(AB, "b", F(1))
        tau = generate(ambient, [a, b], GradeLattice(1))
        broken = FuzzyTopology(
            ambient, frozenset(o for o in tau.opens if o != ambient), tau.lattice
        )
        v = verify_axioms(broken)
        assert not v.ok and v.witness[0] in ("cut", "union")

    def test_cut_walks_stop_at_the_ambient_top(self):
        # Past the ambient's top grade every cut and height repeats, so a
        # huge q over an all-zero ambient leaves one cut and no heights.
        tau = generate(FuzzySet.zero(AB), [], GradeLattice(10**6))
        start = time.perf_counter()
        assert verify_axioms(tau).ok and is_T1(tau).ok and is_hausdorff(tau).ok
        assert time.perf_counter() - start < 0.5


class TestOpenBase:
    def test_generators_plus_cuts_form_base_after_intersection_closure(self):
        ambient = FuzzySet.ones(AB)
        gens = [FuzzySet.point(AB, "a", F(1)), FuzzySet.point(AB, "b", F(1))]
        tau = generate(ambient, gens, GradeLattice(1))
        # the whole family is trivially a base
        assert is_open_base(tau.sorted_opens(), tau).ok

    def test_base_regenerates_topology(self):
        rng = random.Random(21)
        for _ in range(20):
            tau = random_topology(rng, max_carrier=3, max_q=3)
            assert generate(tau.ambient, tau.sorted_opens(), tau.lattice).opens == tau.opens

    def test_failure_witness(self):
        ambient = FuzzySet.ones(AB)
        gens = [FuzzySet.point(AB, "a", F(1))]
        tau = generate(ambient, gens, GradeLattice(1))
        v = is_open_base([FuzzySet.zero(AB), ambient], tau)
        assert not v.ok
        assert v.witness in tau.opens

    def test_non_open_member_rejected(self):
        tau = generate(FuzzySet.ones(AB), [], GradeLattice(1))
        with pytest.raises(ValueError):
            is_open_base([FuzzySet.point(AB, "a", F(1))], tau)

    def test_member_off_the_scale_rejected(self):
        # Over q = 2 the numerators of 1/3 would round down to the zero set,
        # which is open; a grade off the scale is no open's grade.
        tau = generate(FuzzySet.ones(AB), [], L2)
        for member in (fs(AB, F(1, 3), 0), FuzzySet.zero(Carrier(("a", "c")))):
            with pytest.raises(ValueError, match="base member is not an open"):
                is_open_base([member], tau)


class TestProductTopology:
    def test_projections_continuous(self):
        rng = random.Random(3)
        tau1 = random_topology(rng, max_carrier=2, q=2)
        tau2 = random_topology(rng, max_carrier=2, q=2)
        prod = product_topology(tau1, tau2)
        assert verify_axioms(prod).ok
        proj1 = ProperFunction(
            prod.ambient, tau1.ambient, tuple(x for x, _ in prod.ambient.carrier)
        )
        # projection of an all-ones product ambient is continuous by construction
        if all(g == 1 for g in prod.ambient.grades):
            flags = check_map(proj1, prod, tau1)
            assert flags.continuous

    def test_lattice_mismatch_rejected(self):
        t1 = generate(FuzzySet.ones(AB), [], L2)
        t2 = generate(FuzzySet.ones(AB), [], L4)
        with pytest.raises(ValueError):
            product_topology(t1, t2)


class TestCheckMap:
    def test_identity_is_homeomorphism(self):
        rng = random.Random(11)
        for _ in range(10):
            tau = random_topology(rng, max_carrier=3, max_q=3)
            ident = ProperFunction(
                tau.ambient, tau.ambient, tuple(tau.ambient.carrier.elements)
            )
            flags = check_map(ident, tau, tau)
            assert flags.continuous and flags.open and flags.homeomorphism

    def test_coarse_to_fine_not_continuous(self):
        ambient = FuzzySet.ones(AB)
        indiscrete = generate(ambient, [], GradeLattice(1))
        discrete = generate(
            ambient,
            [FuzzySet.point(AB, "a", F(1)), FuzzySet.point(AB, "b", F(1))],
            GradeLattice(1),
        )
        ident = ProperFunction(ambient, ambient, AB.elements)
        flags = check_map(ident, indiscrete, discrete)
        assert not flags.continuous
        assert flags.witness[0] == "preimage"
        # reverse direction: continuous but not open
        rev = check_map(ident, discrete, indiscrete)
        assert rev.continuous and not rev.open

    def test_preimage_generated_source_makes_map_continuous(self):
        rng = random.Random(5)
        for _ in range(10):
            tgt = random_topology(rng, max_carrier=3, max_q=3)
            src_ambient = FuzzySet.ones(Carrier(("p", "q", "r")))
            if not all(g == 1 for g in tgt.ambient.grades):
                continue
            images = tuple(
                rng.choice(tgt.ambient.carrier.elements) for _ in src_ambient.carrier
            )
            f = ProperFunction(src_ambient, tgt.ambient, images)
            src = generate(
                src_ambient, [preimage(f, nu) for nu in tgt.sorted_opens()], tgt.lattice
            )
            assert check_map(f, src, tgt).continuous


class TestSeparation:
    def test_t1_needs_closed_points(self):
        ambient = FuzzySet.ones(AB)
        # opens: cuts + chi_a; complement of (b,1) is chi_a (open) but
        # complement of (a,1) is chi_b (missing) -> not T1
        tau = generate(ambient, [FuzzySet.point(AB, "a", F(1))], GradeLattice(1))
        v = is_T1(tau)
        assert not v.ok and v.witness == ("a", F(1))

    def test_hausdorff_implies_t1_on_samples(self):
        rng = random.Random(13)
        for _ in range(30):
            tau = random_topology(rng, max_carrier=3, max_q=2)
            if is_hausdorff(tau).ok:
                assert is_T1(tau).ok


class TestGuards:
    """Each mismatched input raises its own type and message."""

    def raises(self, kind, message, fn, *args):
        with pytest.raises(kind) as err:
            fn(*args)
        assert err.value.args[0] == message

    def test_open_on_another_carrier(self):
        self.raises(CarrierMismatchError, "an open lives on another carrier than the ambient set",
                    FuzzyTopology, FuzzySet.ones(AB),
                    frozenset({FuzzySet.ones(Carrier(("a", "c")))}), L2)

    def test_ambient_off_the_lattice(self):
        self.raises(ValueError, "ambient grades must lie in the lattice",
                    generate, fs(AB, F(1, 2), 1), [], GradeLattice(3))

    def test_map_ends_must_be_the_ambients(self):
        tau = generate(FuzzySet.ones(AB), [], L2)
        half = generate(fs(AB, F(1, 2), 1), [], L2)
        ident = ProperFunction(tau.ambient, tau.ambient, AB.elements)
        self.raises(CarrierMismatchError, "map source must be the source topology's ambient set",
                    check_map, ident, half, tau)
        self.raises(CarrierMismatchError, "map target must be the target topology's ambient set",
                    check_map, ident, tau, half)


def discrete(n, q):
    """The ambient, crisp points and lattice of the discrete topology on n
    points at resolution q: (q + 1)^n opens."""
    carrier = Carrier(tuple(f"e{i}" for i in range(n)))
    points = [FuzzySet.point(carrier, x, 1) for x in carrier]
    return FuzzySet.ones(carrier), points, GradeLattice(q)


class TestOneRepresentation:
    """A topology holds each open once, as a numerator tuple; FuzzySets are
    built only for witnesses and for callers that read `opens`."""

    def test_passing_scans_build_no_fuzzy_set(self, monkeypatch):
        ambient, points, lattice = discrete(3, 4)
        built = []
        from_nums, init = FuzzySet._from_nums.__func__, FuzzySet.__init__
        monkeypatch.setattr(FuzzySet, "_from_nums",
                            classmethod(lambda cls, *a: built.append(a) or from_nums(cls, *a)))
        monkeypatch.setattr(FuzzySet, "__init__",
                            lambda self, *a: built.append(a) or init(self, *a))
        tau = generate(ambient, points, lattice)
        verdicts = [scan(tau) for scan in (verify_axioms, is_T1, is_hausdorff)]
        assert all(verdicts) and len(built) == 0
        assert len(tau.opens) == 125 and len(built) == 125  # built on first access

    def test_generated_equals_constructed_from_its_opens(self):
        rng = random.Random(31)
        for tau in [generate(*discrete(2, 3))] + [random_topology(rng) for _ in range(20)]:
            built = FuzzyTopology(tau.ambient, tau.opens, tau.lattice)
            assert built == tau and tau == built
            assert hash(built) == hash(tau)
            assert repr(built) == repr(tau)
            assert (built.keys, built.codes) == (tau.keys, tau.codes)

    def test_generate_retains_no_fuzzy_set_per_open(self):
        import gc
        import tracemalloc

        ambient, points, lattice = discrete(3, 12)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tau = generate(ambient, points, lattice)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert retained < 0.6 * 2**20
        assert len(tau.opens) == 13**3

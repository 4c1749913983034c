import random
from fractions import Fraction as F

import pytest

from fuzzcheck.errors import CarrierMismatchError, DominationError
from fuzzcheck.groups import (
    EquivalenceRelation,
    FiniteAction,
    FiniteGroup,
    catalog,
    check_subgroup,
    cyclic_group,
    dihedral_group,
    direct_product,
    is_G_invariant,
    is_fuzzy_subgroup,
    is_fuzzy_topological_group,
    quaternion_group,
    quotient_action,
    restrict_to_invariant,
    restrict_to_subgroup,
    symmetric_group,
    validate_group,
    verify_action,
)
from fuzzcheck.sets import Carrier, FuzzySet
from fuzzcheck.topology import GradeLattice, generate
from groups_oracle import level_subgroup_oracle, subgroup_closure
from helpers import action_from_function, class_of, coset_action


def fs(group, mapping):
    carrier = group.carrier
    return FuzzySet(carrier, tuple(F(mapping[x]) for x in carrier))


class TestCatalog:
    def test_all_entries_are_groups(self):
        for name, g in catalog().items():
            assert validate_group(g).ok, name

    def test_orders(self):
        sizes = {name: len(g) for name, g in catalog().items()}
        assert sizes["S3"] == 6 and sizes["D4"] == 8 and sizes["Q8"] == 8
        assert sizes["Z2xZ2xZ2"] == 8

    def test_s3_not_abelian(self):
        s3 = symmetric_group(3)
        a, b = (1, 0, 2), (0, 2, 1)
        assert s3.op(a, b) != s3.op(b, a)

    def test_q8_has_unique_order_two_element(self):
        q8 = quaternion_group()
        order2 = [x for x in q8.carrier if x != q8.identity and q8.op(x, x) == q8.identity]
        assert len(order2) == 1

    def test_corrupted_table_detected(self):
        z3 = cyclic_group(3)
        rows = [list(r) for r in z3.table]
        rows[1][1] = 1  # 1+1 = 1 breaks cancellation
        bad = FiniteGroup(z3.carrier, tuple(tuple(r) for r in rows))
        assert not validate_group(bad).ok

    def test_identity_and_inverses_come_from_the_table(self):
        z2 = FiniteGroup(Carrier(("a", "b")), (("a", "b"), ("b", "a")))
        assert validate_group(z2).ok
        assert (z2.identity, z2.inverses) == ("a", ("a", "b"))

    @pytest.mark.parametrize("labels, identity, inverses", [
        ((None, 1), None, (None, 1)),
        (("e", None), "e", ("e", None)),
    ], ids=["identity-None", "inverse-None"])
    def test_a_label_None_is_an_element_like_any_other(self, labels, identity, inverses):
        a, b = labels
        z2 = FiniteGroup(Carrier(labels), ((a, b), (b, a)))
        assert validate_group(z2).ok
        assert (z2.identity, z2.inverses) == (identity, inverses)
        assert check_subgroup(z2, [a]).ok and not check_subgroup(z2, [b]).ok
        action = action_from_function(z2, z2.carrier, z2.op)
        assert verify_action(action).ok

    @pytest.mark.parametrize("rows, reason, witness", [
        ((("b", "b"), ("b", "b")), "table has no identity element", None),
        ((("a", "b"), ("b", "b")), "element 'b' has no inverse", "b"),
    ], ids=["no-identity", "no-inverse"])
    def test_table_without_identity_or_inverse_is_not_a_group(self, rows, reason, witness):
        v = validate_group(FiniteGroup(Carrier(("a", "b")), rows))
        assert (v.ok, v.reason, v.witness) == (False, reason, witness)


class TestFuzzySubgroup:
    def test_step_function_on_z4(self):
        z4 = cyclic_group(4)
        mu = fs(z4, {0: 1, 1: F(1, 4), 2: F(1, 2), 3: F(1, 4)})
        assert is_fuzzy_subgroup(mu, z4).ok
        assert level_subgroup_oracle(mu, z4)

    def test_non_subgroup_witness(self):
        z4 = cyclic_group(4)
        mu = fs(z4, {0: 1, 1: F(1, 2), 2: F(1, 4), 3: F(1, 2)})
        v = is_fuzzy_subgroup(mu, z4)
        assert not v.ok and v.witness == ("pair", (1, 1))
        assert not level_subgroup_oracle(mu, z4)

    def test_inverse_grade_mismatch(self):
        z3 = cyclic_group(3)
        mu = fs(z3, {0: 1, 1: F(1, 2), 2: F(1, 4)})
        v = is_fuzzy_subgroup(mu, z3)
        assert not v.ok and v.witness[0] in ("pair", "inverse")

    def test_agrees_with_level_oracle_randomized(self):
        rng = random.Random(17)
        groups = list(catalog().values())
        for _ in range(200):
            g = rng.choice(groups)
            mu = FuzzySet(g.carrier, tuple(F(rng.randint(0, 8), 8) for _ in g.carrier))
            assert is_fuzzy_subgroup(mu, g).ok == level_subgroup_oracle(mu, g)

    def test_carrier_mismatch(self):
        with pytest.raises(CarrierMismatchError):
            is_fuzzy_subgroup(FuzzySet.ones(Carrier(("x",))), cyclic_group(2))


class TestTopologicalGroup:
    def test_indiscrete_always_works(self):
        z2 = cyclic_group(2)
        tau = generate(FuzzySet.ones(z2.carrier), [], GradeLattice(1))
        assert is_fuzzy_topological_group(z2, tau).ok

    def test_point_generated_fails_multiplication(self):
        z2 = cyclic_group(2)
        ambient = FuzzySet.ones(z2.carrier)
        tau = generate(ambient, [FuzzySet.point(z2.carrier, 0, F(1))], GradeLattice(1))
        v = is_fuzzy_topological_group(z2, tau)
        assert not v.ok
        assert v.reason == "multiplication is not fuzzy continuous"
        assert v.witness[0] == "preimage"
        assert v.witness[1] == FuzzySet.point(z2.carrier, 0, F(1))

    def test_discrete_like_works(self):
        z2 = cyclic_group(2)
        ambient = FuzzySet.ones(z2.carrier)
        gens = [FuzzySet.point(z2.carrier, x, F(1)) for x in z2.carrier]
        tau = generate(ambient, gens, GradeLattice(1))
        assert is_fuzzy_topological_group(z2, tau).ok

    def test_requires_all_ones_ambient(self):
        z2 = cyclic_group(2)
        ambient = FuzzySet(z2.carrier, (F(1), F(1, 2)))
        tau = generate(ambient, [], GradeLattice(2))
        with pytest.raises(CarrierMismatchError):
            is_fuzzy_topological_group(z2, tau)


def s3_natural_action():
    s3 = symmetric_group(3)
    space = Carrier((0, 1, 2))
    return action_from_function(s3, space, lambda p, x: p[x])


class TestActions:
    def test_s3_natural_action_valid(self):
        assert verify_action(s3_natural_action()).ok

    def test_broken_action_witness(self):
        z2 = cyclic_group(2)
        space = Carrier(("p", "q"))
        bad = FiniteAction(z2, space, FuzzySet.ones(space),
                           (("p", "q"), ("q", "q")))
        v = verify_action(bad)
        assert not v.ok and v.witness == (1, 1, "p")

    def test_identity_must_fix_points_off_the_support(self):
        """Every g.x = p keeps the composition law and reaches the support
        {p}, but e.q = p."""
        z2 = cyclic_group(2)
        space = Carrier(("p", "q"))
        collapse = FiniteAction(z2, space, FuzzySet(space, (1, 0)), (("p", "p"), ("p", "p")))
        v = verify_action(collapse)
        assert (v.ok, v.reason, v.witness) == (False, "identity law fails at 'q'", "q")

    def test_constant_sets_invariant(self):
        action = s3_natural_action()
        assert is_G_invariant(action, FuzzySet.constant(action.space, F(1, 3))).ok

    def test_transitive_action_only_constants_invariant(self):
        action = s3_natural_action()
        s = FuzzySet(action.space, (F(1), F(1, 2), F(1, 2)))
        v = is_G_invariant(action, s)
        assert not v.ok
        y, g, x = v.witness
        assert action.act(g, x) == y and s(x) > s(y)

    def test_restrict_to_a3(self):
        action = s3_natural_action()
        a3 = [p for p in action.group.carrier if _parity(p) == 0]
        sub = restrict_to_subgroup(action, a3)
        assert len(sub.group) == 3
        assert verify_action(sub).ok

    def test_restrict_rejects_non_subgroup(self):
        action = s3_natural_action()
        with pytest.raises(DominationError):
            restrict_to_subgroup(action, [(1, 0, 2)])  # no identity

    def test_restrict_to_invariant_support(self):
        z2 = cyclic_group(2)
        space = Carrier(("p", "q", "r"))
        action = FiniteAction(z2, space, FuzzySet.ones(space),
                              (("p", "q", "r"), ("q", "p", "r")))
        s = FuzzySet(space, (F(1, 2), F(1, 2), F(0)))
        sub = restrict_to_invariant(action, s)
        assert sub.space.elements == ("p", "q")
        assert verify_action(sub).ok

    def test_restrict_to_invariant_rejects_moving_grades(self):
        z2 = cyclic_group(2)
        space = Carrier(("p", "q"))
        action = FiniteAction(z2, space, FuzzySet.ones(space),
                              (("p", "q"), ("q", "p")))
        with pytest.raises(DominationError):
            restrict_to_invariant(action, FuzzySet(space, (F(1), F(0))))


def _parity(perm):
    n = len(perm)
    return sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n)) % 2


class TestQuotientAndCosets:
    def test_z4_mod_two_classes(self):
        z4 = cyclic_group(4)
        action = action_from_function(z4, z4.carrier, z4.op)
        rho = EquivalenceRelation(((0, 2), (1, 3)))
        q = quotient_action(action, rho)
        assert len(q.space) == 2
        assert verify_action(q).ok
        assert q.act(1, (0, 2)) == (1, 3)

    def test_unpreserved_relation_rejected(self):
        z4 = cyclic_group(4)
        action = action_from_function(z4, z4.carrier, z4.op)
        with pytest.raises(DominationError):
            quotient_action(action, EquivalenceRelation(((0, 1), (2, 3))))

    def test_identity_relation_is_isomorphic_copy(self):
        z3 = cyclic_group(3)
        action = action_from_function(z3, z3.carrier, z3.op)
        q = quotient_action(action, EquivalenceRelation(tuple((x,) for x in z3.carrier)))
        assert len(q.space) == 3 and verify_action(q).ok

    def test_coset_action_sizes(self):
        s3 = symmetric_group(3)
        a3 = [p for p in s3.carrier if _parity(p) == 0]
        act = coset_action(s3, a3)
        assert len(act.space) == 2
        assert verify_action(act).ok

    def test_coset_action_on_trivial_subgroup_is_translation(self):
        z4 = cyclic_group(4)
        act = coset_action(z4, [0])
        assert len(act.space) == 4 and verify_action(act).ok


class TestSubgroupMachinery:
    def test_closure(self):
        z6 = cyclic_group(6)
        assert subgroup_closure(z6, [2]) == (0, 2, 4)
        assert subgroup_closure(z6, [2, 3]) == (0, 1, 2, 3, 4, 5)

    def test_check_subgroup_witnesses(self):
        z4 = cyclic_group(4)
        assert check_subgroup(z4, [0, 2]).ok
        v = check_subgroup(z4, [0, 1])
        assert not v.ok and v.witness == 1  # inverse of 1 (which is 3) missing
        v = check_subgroup(z4, [0, 1, 3])
        assert not v.ok and v.witness == (1, 1)  # 1+1=2 escapes

    def test_closure_always_passes_check(self):
        rng = random.Random(29)
        for g in catalog().values():
            seed = rng.sample(g.carrier.elements, k=min(2, len(g)))
            assert check_subgroup(g, subgroup_closure(g, seed)).ok

    def test_direct_product_and_dihedral_consistency(self):
        z2z2 = direct_product(cyclic_group(2), cyclic_group(2))
        assert all(z2z2.op(x, x) == z2z2.identity for x in z2z2.carrier)
        d3 = dihedral_group(3)
        assert len(d3) == 6 and validate_group(d3).ok


class TestGuards:
    """Each malformed construction raises its own type and message."""

    def raises(self, kind, message, fn, *args):
        with pytest.raises(kind) as err:
            fn(*args)
        assert err.value.args[0] == message

    def test_non_square_table(self):
        self.raises(ValueError, "Cayley table must be square and match the element list",
                    FiniteGroup, Carrier((0, 1)), ((0, 1), (1,)))

    def test_stray_table_entry(self):
        self.raises(ValueError, "Cayley entry 2 is not an element",
                    FiniteGroup, Carrier((0, 1)), ((0, 1), (1, 2)))

    @pytest.mark.parametrize("rows", [
        (("p",), ("q",)),  # where q goes is never said
        (("p", "q"),),  # no row for the second element
        (("p", "q"), ("q", "p", "p")),
    ], ids=["short-rows", "missing-row", "long-row"])
    def test_action_table_of_the_wrong_shape(self, rows):
        space = Carrier(("p", "q"))
        self.raises(ValueError,
                    "action table must have a row per group element, a column per point",
                    FiniteAction, cyclic_group(2), space, FuzzySet.ones(space), rows)

    def test_stray_action_entry(self):
        space = Carrier(("p", "q"))
        self.raises(ValueError, "action value 'r' is not a space point",
                    FiniteAction, cyclic_group(2), space, FuzzySet.ones(space),
                    (("p", "q"), ("r", "s")))

    def test_ambient_on_another_carrier(self):
        space = Carrier(("p", "q"))
        self.raises(CarrierMismatchError, "ambient fuzzy set must live on the action space",
                    FiniteAction, cyclic_group(2), space, FuzzySet.ones(Carrier(("p", "r"))),
                    (("p", "q"), ("q", "p")))

    def test_invariant_candidate_on_another_carrier(self):
        self.raises(CarrierMismatchError, "fuzzy subset must live on the action space",
                    is_G_invariant, s3_natural_action(), FuzzySet.ones(Carrier(("p",))))

    def test_empty_class(self):
        self.raises(ValueError, "empty equivalence class", EquivalenceRelation, (("p",), ()))

    def test_element_in_two_classes(self):
        self.raises(ValueError, "element 'p' in two classes",
                    EquivalenceRelation, (("p", "q"), ("p",)))

    def test_class_of_unknown_element(self):
        self.raises(KeyError, "'r' not in any class",
                    class_of, EquivalenceRelation((("p", "q"),)), "r")

    def test_quotient_by_classes_that_miss_a_point(self):
        z4 = cyclic_group(4)
        action = action_from_function(z4, z4.carrier, z4.op)
        self.raises(ValueError, "relation classes must partition the action space",
                    quotient_action, action, EquivalenceRelation(((0, 2), (1,))))

import random
from fractions import Fraction as F

import pytest

from fuzzcheck.lie import (
    ClassifierCase,
    Condition,
    MembershipClassifier,
    SampleSet,
    StructureConstants,
    bracket,
    cross_product_constants,
    cross_product_fixture,
    is_fuzzy_lie_ideal,
    is_fuzzy_lie_subalgebra,
    validate_lie,
    z_axis_classifier,
)
from lie_oracle import vec_add, vec_scale


class TestBracket:
    def test_cross_product_on_basis(self):
        sc = cross_product_constants()
        e1, e2, e3 = sc.basis(0), sc.basis(1), sc.basis(2)
        assert bracket(sc, e1, e2) == e3
        assert bracket(sc, e2, e3) == e1
        assert bracket(sc, e3, e1) == e2
        assert bracket(sc, e1, e1) == (0, 0, 0)

    def test_exact_rational_arithmetic(self):
        sc = cross_product_constants()
        x, y = (F(1, 3), 0, 0), (0, F(1, 7), 0)
        assert bracket(sc, x, y) == (0, 0, F(1, 21))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            bracket(cross_product_constants(), (1, 0), (0, 1, 0))

    def test_bilinearity_randomized_exact(self):
        sc = cross_product_constants()
        rng = random.Random(41)
        for _ in range(50):
            x, y, z = (tuple(F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(3))
                       for _ in range(3))
            a = F(rng.randint(-3, 3), rng.randint(1, 2))
            assert bracket(sc, vec_add(x, y), z) == vec_add(
                bracket(sc, x, z), bracket(sc, y, z))
            assert bracket(sc, vec_scale(a, x), y) == vec_scale(a, bracket(sc, x, y))
            assert bracket(sc, x, y) == vec_scale(-1, bracket(sc, y, x))


class TestStructureConstants:
    def test_held_as_ints_over_the_lcm_of_the_denominators(self):
        sc = StructureConstants.from_entries(
            2, {(1, 0, 0): F(-1, 3), (0, 1, 0): F(1, 2), (1, 1, 1): 0})
        assert StructureConstants._fields == ("dim", "scale", "ints")
        assert set(vars(sc)) == {"dim", "scale", "ints"}
        assert (sc.scale, sc.ints) == (6, {(0, 1): ((0, 3),), (1, 0): ((0, -2),)})
        assert bracket(sc, (1, 0), (0, 1)) == (F(1, 2), F(0))


class TestValidateLie:
    def test_cross_product_valid(self):
        assert validate_lie(cross_product_constants()).ok

    def test_abelian_valid(self):
        assert validate_lie(StructureConstants.from_entries(2, {})).ok

    def test_antisymmetry_violation(self):
        sc = StructureConstants.from_entries(2, {(0, 1, 0): 1})
        v = validate_lie(sc)
        assert not v.ok and v.witness == (0, 1)[0:2] + (0,)
        assert "antisymmetry" in v.reason

    def test_jacobi_violation(self):
        # antisymmetric but [e1,e2]=e1, [e2,e3]=e2, [e1,e3]=0 breaks Jacobi
        sc = StructureConstants.from_entries(
            3, {(0, 1, 0): 1, (1, 0, 0): -1, (1, 2, 1): 1, (2, 1, 1): -1})
        v = validate_lie(sc)
        assert not v.ok and "Jacobi" in v.reason

    def test_no_antisymmetry_autofill(self):
        # only one side listed: the constants as written are not antisymmetric
        sc = StructureConstants.from_entries(3, {(0, 1, 2): 1})
        assert not validate_lie(sc).ok


class TestClassifier:
    def test_z_axis_grades(self):
        mu = z_axis_classifier()
        assert mu.grade((0, 0, 0)) == F(1)
        assert mu.grade((0, 0, 5)) == F(1, 4)
        assert mu.grade((0, 0, F(-1, 3))) == F(1, 4)
        assert mu.grade((1, 0, 0)) == F(0)
        assert mu.grade((1, 1, 1)) == F(0)

    def test_first_match_wins(self):
        mu = MembershipClassifier(
            1,
            (ClassifierCase((Condition(0, "gt0"),), F(1, 2)),
             ClassifierCase((), F(1, 4))),  # empty conjunction matches anything
            F(0),
        )
        assert mu.grade((1,)) == F(1, 2)
        assert mu.grade((-1,)) == F(1, 4)

    def test_bad_operator_rejected(self):
        with pytest.raises(ValueError):
            Condition(0, "ge0")

    def test_coordinate_range_checked(self):
        with pytest.raises(ValueError):
            MembershipClassifier(
                2, (ClassifierCase((Condition(5, "eq0"),), F(1)),), F(0))


class TestSampleSet:
    def test_requires_zero_vector(self):
        with pytest.raises(ValueError):
            SampleSet(((1, 0),), (F(1),))

    def test_mixed_dimension_rejected(self):
        with pytest.raises(ValueError):
            SampleSet(((0, 0), (1, 0, 0)), ())


class TestSubalgebraAndIdeal:
    def test_z_axis_is_subalgebra(self):
        sc, mu, samples = cross_product_fixture()
        assert is_fuzzy_lie_subalgebra(mu, sc, samples).ok

    def test_z_axis_is_not_ideal(self):
        sc, mu, samples = cross_product_fixture()
        v = is_fuzzy_lie_ideal(mu, sc, samples)
        assert not v.ok
        kind, x, y, got, bound = v.witness
        assert kind == "bracket"
        assert x == (0, 0, 1) and y == (1, 1, 1)
        assert got == F(0) and bound == F(1, 4)
        assert bracket(sc, x, y) == (-1, 1, 0)

    def test_ideal_witness_respects_bracket(self):
        sc, mu, samples = cross_product_fixture()
        v = is_fuzzy_lie_ideal(mu, sc, samples)
        _, x, y, got, bound = v.witness
        assert mu.grade(bracket(sc, x, y)) == got
        assert max(mu.grade(x), mu.grade(y)) == bound

    def test_whole_space_is_ideal(self):
        sc, _, samples = cross_product_fixture()
        ones = MembershipClassifier(3, (), F(1))
        assert is_fuzzy_lie_ideal(ones, sc, samples).ok

    def test_ideal_implies_subalgebra_on_samples(self):
        sc, _, samples = cross_product_fixture()
        for mu in (MembershipClassifier(3, (), F(1)),
                   MembershipClassifier(3, (), F(1, 3)),
                   z_axis_classifier()):
            if is_fuzzy_lie_ideal(mu, sc, samples).ok:
                assert is_fuzzy_lie_subalgebra(mu, sc, samples).ok

    def test_sum_condition_violation_reported_first(self):
        # grade 1/2 exactly on the x-axis minus origin; origin gets 0,
        # so mu(x + (-x)) = mu(0) = 0 < 1/2
        mu = MembershipClassifier(
            3,
            (ClassifierCase(
                (Condition(0, "ne0"), Condition(1, "eq0"), Condition(2, "eq0")),
                F(1, 2)),),
            F(0),
        )
        sc, _, samples = cross_product_fixture()
        v = is_fuzzy_lie_subalgebra(mu, sc, samples)
        assert not v.ok and v.witness[0] == "sum"

    def test_scalar_condition_violation(self):
        # grade depends on sign: positive x1 graded above negative x1,
        # so scaling by -1 drops the grade
        mu = MembershipClassifier(
            1,
            (ClassifierCase((Condition(0, "gt0"),), F(3, 4)),),
            F(0),
        )
        sc = StructureConstants.from_entries(1, {})
        samples = SampleSet(((0,), (1,)), (F(-1),))
        v = is_fuzzy_lie_subalgebra(mu, sc, samples)
        assert not v.ok and v.witness == ("scale", F(-1), (F(1),))

    def test_sample_dimension_checked(self):
        sc = cross_product_constants()
        mu = MembershipClassifier(3, (), F(1))
        with pytest.raises(ValueError):
            is_fuzzy_lie_subalgebra(mu, sc, SampleSet(((0, 0),), ()))


def test_entry_index_out_of_range():
    with pytest.raises(ValueError) as err:
        StructureConstants.from_entries(2, {(0, 1, 2): 1})
    assert err.value.args[0] == "index 2 out of range for dim 2"

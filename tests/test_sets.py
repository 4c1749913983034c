from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from fuzzcheck.errors import CarrierMismatchError, DominationError
from fuzzcheck.sets import (
    Carrier,
    FuzzyPoint,
    FuzzySet,
    Verdict,
    as_grade,
    complement_in,
    format_grade,
    intersection,
    is_normal_element,
    is_subset,
    level_set,
    parse_grade,
    point_in,
    product,
    union,
)

AB = Carrier(("a", "b"))
ABC = Carrier(("a", "b", "c"))

grades = st.fractions(min_value=0, max_value=1, max_denominator=64)


def fsets(carrier):
    return st.builds(
        lambda gs: FuzzySet(carrier, tuple(gs)),
        st.lists(grades, min_size=len(carrier), max_size=len(carrier)),
    )


class TestGradeParsing:
    def test_fraction_decimal_integer(self):
        assert parse_grade("1/2") == F(1, 2)
        assert parse_grade("0.25") == F(1, 4)
        assert parse_grade("1") == F(1)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            parse_grade("5/4")
        with pytest.raises(ValueError):
            parse_grade("-1/2")

    @given(st.integers(min_value=1, max_value=10**6).flatmap(
        lambda q: st.tuples(st.integers(min_value=0, max_value=q), st.just(q))))
    def test_roundtrip_exact(self, pq):
        p, q = pq
        text = format_grade(F(p, q))
        assert format_grade(parse_grade(text)) == text
        assert parse_grade(text) == F(p, q)


class TestUnionIntersection:
    def test_union_with_zero_is_identity(self):
        mu = FuzzySet(AB, (F(1, 2), F(0)))
        assert union([mu, FuzzySet.zero(AB)]) == mu

    def test_union_idempotent(self):
        mu = FuzzySet(AB, (F(1, 3), F(2, 3)))
        assert union([mu, mu]) == mu

    def test_union_pointwise_max(self):
        mu = FuzzySet(AB, (F(1, 2), F(0)))
        nu = FuzzySet(AB, (F(1, 4), F(3, 4)))
        assert union([mu, nu]) == FuzzySet(AB, (F(1, 2), F(3, 4)))

    def test_intersection_with_ones_is_identity(self):
        mu = FuzzySet(AB, (F(1, 2), F(0)))
        assert intersection([mu, FuzzySet.ones(AB)]) == mu

    def test_intersection_with_zero_absorbs(self):
        mu = FuzzySet(AB, (F(1, 2), F(0)))
        assert intersection([mu, FuzzySet.zero(AB)]) == FuzzySet.zero(AB)

    def test_intersection_pointwise_min(self):
        mu = FuzzySet(AB, (F(1, 2), F(0)))
        nu = FuzzySet(AB, (F(1, 4), F(3, 4)))
        assert intersection([mu, nu]) == FuzzySet(AB, (F(1, 4), F(0)))

    def test_carrier_mismatch(self):
        with pytest.raises(CarrierMismatchError):
            union([FuzzySet.zero(AB), FuzzySet.zero(ABC)])

    @given(fsets(ABC), fsets(ABC), fsets(ABC))
    def test_lattice_laws(self, a, b, c):
        assert union([a, b]) == union([b, a])
        assert intersection([a, b]) == intersection([b, a])
        assert union([a, union([b, c])]) == union([union([a, b]), c])
        assert intersection([a, intersection([b, c])]) == intersection([intersection([a, b]), c])
        assert union([a, a]) == a
        assert intersection([a, a]) == a
        assert union([a, intersection([a, b])]) == a
        assert intersection([a, union([a, b])]) == a


class TestProduct:
    def test_min_with_one_recovers_factor(self):
        lam = FuzzySet.ones(AB)
        mu = FuzzySet(ABC, (F(1, 3), F(1), F(0)))
        prod = product(lam, mu)
        for x in AB:
            for y in ABC:
                assert prod((x, y)) == mu(y)

    def test_min_formula(self):
        lam = FuzzySet(AB, (F(3, 10), F(1)))
        mu = FuzzySet(AB, (F(7, 10), F(0)))
        assert product(lam, mu)(("a", "a")) == F(3, 10)

    def test_symmetry_on_3x3(self):
        lam = FuzzySet(ABC, (F(1, 2), F(1, 3), F(1)))
        mu = FuzzySet(ABC, (F(2, 3), F(0), F(1, 4)))
        p1, p2 = product(lam, mu), product(mu, lam)
        for x in ABC:
            for y in ABC:
                assert p1((x, y)) == p2((y, x))

    @given(fsets(AB))
    def test_diagonal_recovers_set(self, mu):
        prod = product(mu, mu)
        for x in AB:
            assert prod((x, x)) == mu(x)


class TestLevelSet:
    MU = FuzzySet(ABC, (F(1), F(1, 2), F(1, 4)))

    def test_zero_threshold_gives_carrier(self):
        assert level_set(self.MU, F(0)) == ABC.elements

    def test_half_threshold(self):
        assert level_set(self.MU, F(1, 2)) == ("a", "b")

    def test_above_max_is_empty(self):
        mu = FuzzySet(ABC, (F(1, 2), F(1, 2), F(1, 4)))
        assert level_set(mu, F(3, 4)) == ()

    @given(fsets(ABC), grades, grades)
    def test_antitone(self, mu, t1, t2):
        lo, hi = min(t1, t2), max(t1, t2)
        assert set(level_set(mu, hi)) <= set(level_set(mu, lo))


class TestComplement:
    def test_self_complement_is_zero(self):
        mu = FuzzySet(AB, (F(1, 2), F(1)))
        assert complement_in(mu, mu) == FuzzySet.zero(AB)

    def test_complement_of_zero_is_ambient(self):
        mu = FuzzySet(AB, (F(1, 2), F(1)))
        assert complement_in(mu, FuzzySet.zero(AB)) == mu

    def test_pointwise_subtraction(self):
        ambient = FuzzySet.ones(AB)
        sub = FuzzySet(AB, (F(1, 4), F(1)))
        assert complement_in(ambient, sub) == FuzzySet(AB, (F(3, 4), F(0)))

    def test_domination_witness(self):
        ambient = FuzzySet(AB, (F(1, 2), F(1)))
        sub = FuzzySet(AB, (F(3, 4), F(0)))
        with pytest.raises(DominationError) as err:
            complement_in(ambient, sub)
        assert err.value.witness == "a"

    def test_domination_message_is_the_subset_verdicts(self):
        with pytest.raises(DominationError) as err:
            complement_in(FuzzySet(AB, (F(1, 2), F(1))), FuzzySet(AB, (F(3, 4), F(0))))
        assert str(err.value) == "subset exceeds ambient: grade 3/4 > 1/2 at 'a'"

    @given(fsets(AB), fsets(AB))
    def test_involution_below_ambient(self, ambient, nu):
        nu = intersection([ambient, nu])  # force nu <= ambient
        assert complement_in(ambient, complement_in(ambient, nu)) == nu


class TestRequire:
    def test_pass_returns_and_failure_raises_reason_and_witness(self):
        assert Verdict.passed().require("unused") is None
        with pytest.raises(DominationError) as err:
            Verdict.failed("grade 1 > 0 at 'b'", witness="b").require("B exceeds its bound")
        assert str(err.value) == "B exceeds its bound: grade 1 > 0 at 'b'"
        assert err.value.witness == "b"


class TestSubsetAndPoints:
    def test_zero_below_everything(self):
        mu = FuzzySet(AB, (F(1, 3), F(0)))
        assert is_subset(FuzzySet.zero(AB), mu).ok
        assert is_subset(mu, mu).ok

    def test_subset_witness(self):
        a = FuzzySet(AB, (F(1, 2), F(0)))
        b = FuzzySet(AB, (F(1, 4), F(0)))
        v = is_subset(a, b)
        assert not v.ok and v.witness == "a"

    def test_point_membership_boundary(self):
        mu = FuzzySet(AB, (F(1, 2), F(1)))
        assert point_in(FuzzyPoint("a", F(1, 2)), mu)
        assert point_in(FuzzyPoint("b", F(9, 10)), mu)
        assert not point_in(FuzzyPoint("a", F(3, 4)), mu)

    def test_point_height_positive(self):
        with pytest.raises(ValueError):
            FuzzyPoint("a", F(0))

    def test_normal_element(self):
        lam = FuzzySet(AB, (F(1), F(1, 4)))
        mu = FuzzySet(AB, (F(1, 4), F(1, 4)))
        assert is_normal_element(lam, mu, "a").ok
        assert is_normal_element(lam, FuzzySet.constant(AB, F(1, 4)), "b").ok
        lam2 = FuzzySet(AB, (F(1, 4), F(1, 2)))
        v = is_normal_element(lam2, FuzzySet(AB, (F(1, 2), F(0))), "a")
        assert not v.ok and v.witness == "a"


class TestCarrier:
    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            Carrier(("a", "a"))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Carrier(())


class TestGuards:
    def test_grade_out_of_range(self):
        with pytest.raises(ValueError) as err:
            as_grade(F(3, 2))
        assert err.value.args[0] == "grade outside [0,1]: Fraction(3, 2)"

    def test_union_of_no_sets(self):
        with pytest.raises(ValueError) as err:
            union([])
        assert err.value.args[0] == "need at least one fuzzy set"

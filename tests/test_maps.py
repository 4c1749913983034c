from fractions import Fraction as F
from itertools import product as iproduct

import pytest
from hypothesis import given, strategies as st

from fuzzcheck.errors import CarrierMismatchError, DominationError
from fuzzcheck.groups import cyclic_group
from fuzzcheck.maps import (
    ProperFunction,
    classify,
    compose,
    image,
    is_fuzzy_homomorphism,
    preimage,
)
from fuzzcheck.sets import Carrier, FuzzySet, intersection, is_subset, union

XY = Carrier(("x1", "x2", "x3"))
YZ = Carrier(("y1", "y2"))

grades = st.fractions(min_value=0, max_value=1, max_denominator=16)


def below(ambient):
    """Strategy for fuzzy sets dominated by the given ambient set."""
    n = len(ambient.carrier)
    return st.lists(grades, min_size=n, max_size=n).map(
        lambda gs: intersection([ambient, FuzzySet(ambient.carrier, tuple(gs))])
    )


def make_map(src_grades, tgt_grades, mapping):
    src = FuzzySet(XY, tuple(F(g) for g in src_grades))
    tgt = FuzzySet(YZ, tuple(F(g) for g in tgt_grades))
    return ProperFunction.from_dict(src, tgt, mapping)


COLLAPSE = make_map(
    (F(1, 2), F(3, 4), F(1)),
    (F(1), F(1)),
    {"x1": "y1", "x2": "y1", "x3": "y2"},
)


class TestConstruction:
    def test_total_on_source(self):
        with pytest.raises(ValueError):
            ProperFunction(FuzzySet.ones(XY), FuzzySet.ones(YZ), ("y1", "y2"))

    def test_values_in_target(self):
        with pytest.raises(ValueError):
            make_map((1, 1, 1), (1, 1), {"x1": "y1", "x2": "y1", "x3": "zz"})

    def test_relation_is_graph_scaled(self):
        assert COLLAPSE.relation("x1", "y1") == F(1, 2)
        assert COLLAPSE.relation("x1", "y2") == 0


class TestImage:
    def test_sup_min_over_fiber(self):
        a = FuzzySet(XY, (F(1, 4), F(1, 2), F(1)))
        img = image(COLLAPSE, a)
        # fiber over y1 is {x1, x2}: max(min(1/2,1/4), min(3/4,1/2)) = 1/2
        assert img("y1") == F(1, 2)
        assert img("y2") == F(1)

    def test_requires_a_below_source(self):
        a = FuzzySet(XY, (F(1), F(0), F(0)))
        with pytest.raises(DominationError) as err:
            image(COLLAPSE, a)
        assert err.value.witness == "x1"

    def test_carrier_check(self):
        with pytest.raises(CarrierMismatchError):
            image(COLLAPSE, FuzzySet.zero(YZ))


class TestPreimage:
    def test_min_with_source_grade(self):
        b = FuzzySet(YZ, (F(3, 4), F(1, 4)))
        pre = preimage(COLLAPSE, b)
        assert pre("x1") == F(1, 2)  # min(1/2, 3/4)
        assert pre("x2") == F(3, 4)  # min(3/4, 3/4)
        assert pre("x3") == F(1, 4)  # min(1, 1/4)

    def test_requires_b_below_target(self):
        f = make_map((1, 1, 1), (F(1, 2), 1), {"x1": "y1", "x2": "y1", "x3": "y2"})
        with pytest.raises(DominationError):
            preimage(f, FuzzySet(YZ, (F(1), F(0))))


class TestGaloisConnection:
    @given(below(COLLAPSE.source))
    def test_unit_a_below_preimage_of_image(self, a):
        assert is_subset(a, preimage(COLLAPSE, image(COLLAPSE, a))).ok

    @given(below(COLLAPSE.target))
    def test_counit_image_of_preimage_below_b(self, b):
        assert is_subset(image(COLLAPSE, preimage(COLLAPSE, b)), b).ok

    @given(below(COLLAPSE.source), below(COLLAPSE.source))
    def test_image_monotone_and_joins(self, a1, a2):
        assert is_subset(image(COLLAPSE, intersection([a1, a2])),
                         intersection([image(COLLAPSE, a1), image(COLLAPSE, a2)])).ok
        assert image(COLLAPSE, union([a1, a2])) == union(
            [image(COLLAPSE, a1), image(COLLAPSE, a2)])

    @given(below(COLLAPSE.target), below(COLLAPSE.target))
    def test_preimage_preserves_meets_and_joins(self, b1, b2):
        assert preimage(COLLAPSE, union([b1, b2])) == union(
            [preimage(COLLAPSE, b1), preimage(COLLAPSE, b2)])
        assert preimage(COLLAPSE, intersection([b1, b2])) == intersection(
            [preimage(COLLAPSE, b1), preimage(COLLAPSE, b2)])


class TestClassify:
    def test_collapse_is_surjective_not_injective(self):
        flags = classify(COLLAPSE)
        assert flags.surjective and not flags.injective and not flags.bijective

    def test_missed_positive_target_breaks_surjectivity(self):
        f = make_map((1, 1, 1), (1, F(1, 2)),
                     {"x1": "y1", "x2": "y1", "x3": "y1"})
        flags = classify(f)
        assert not flags.surjective and flags.witness == "y2"

    def test_zero_graded_targets_ignored(self):
        f = make_map((1, 1, 1), (1, 0),
                     {"x1": "y1", "x2": "y1", "x3": "y1"})
        assert classify(f).surjective

    def test_bijective(self):
        src = FuzzySet.ones(YZ)
        f = ProperFunction.from_dict(src, src, {"y1": "y2", "y2": "y1"})
        assert classify(f).bijective


class TestCompose:
    def test_pointwise(self):
        swap = ProperFunction.from_dict(
            COLLAPSE.target, COLLAPSE.target, {"y1": "y2", "y2": "y1"})
        h = compose(COLLAPSE, swap)
        assert h.of("x1") == "y2" and h.of("x3") == "y1"

    def test_requires_matching_middle(self):
        with pytest.raises(CarrierMismatchError):
            compose(COLLAPSE, COLLAPSE)

    def test_preimage_contravariant(self):
        swap = ProperFunction.from_dict(
            COLLAPSE.target, COLLAPSE.target, {"y1": "y2", "y2": "y1"})
        b = FuzzySet(YZ, (F(1, 3), F(2, 3)))
        assert preimage(compose(COLLAPSE, swap), b) == preimage(
            COLLAPSE, preimage(swap, b))


class TestGroupCompatibility:
    def test_mod_two_reduction(self):
        z4, z2 = cyclic_group(4), cyclic_group(2)
        f = ProperFunction.from_dict(
            FuzzySet.ones(z4.carrier), FuzzySet.ones(z2.carrier),
            {x: x % 2 for x in z4.carrier})
        assert is_fuzzy_homomorphism(f, z4, z2).ok

    def test_non_compatible_witness(self):
        z4, z2 = cyclic_group(4), cyclic_group(2)
        f = ProperFunction.from_dict(
            FuzzySet.ones(z4.carrier), FuzzySet.ones(z2.carrier),
            {0: 0, 1: 1, 2: 1, 3: 0})
        v = is_fuzzy_homomorphism(f, z4, z2)
        assert not v.ok and v.witness == (1, 1)


def test_exhaustive_galois_small():
    """Both adjunction inequalities over every map {x1,x2}->{y1,y2} and every
    fuzzy set with grades in {0, 1/2, 1}."""
    src_c, tgt_c = Carrier(("x1", "x2")), Carrier(("y1", "y2"))
    levels = (F(0), F(1, 2), F(1))
    for imgs in iproduct(("y1", "y2"), repeat=2):
        f = ProperFunction(FuzzySet.ones(src_c), FuzzySet.ones(tgt_c), imgs)
        for gs in iproduct(levels, repeat=2):
            a = FuzzySet(src_c, gs)
            assert is_subset(a, preimage(f, image(f, a))).ok
            b = FuzzySet(tgt_c, gs)
            assert is_subset(image(f, preimage(f, b)), b).ok


class TestGuards:
    """Each mismatched input raises its own type and message."""

    def raises(self, kind, message, fn, *args):
        with pytest.raises(kind) as err:
            fn(*args)
        assert err.value.args[0] == message

    def test_map_undefined_at_a_point(self):
        self.raises(ValueError, "map not defined at 'x3'", ProperFunction.from_dict,
                    FuzzySet.ones(XY), FuzzySet.ones(YZ), {"x1": "y1", "x2": "y2"})

    def test_preimage_of_a_set_on_another_carrier(self):
        self.raises(CarrierMismatchError, "B must live on the target carrier",
                    preimage, COLLAPSE, FuzzySet.ones(XY))

    @pytest.mark.parametrize("groups, message", [
        ((2, 2), "source carrier is not the source group"),
        ((4, 4), "target carrier is not the target group"),
    ])
    def test_homomorphism_carriers_must_be_the_groups(self, groups, message):
        z4, z2 = cyclic_group(4), cyclic_group(2)
        f = ProperFunction.from_dict(
            FuzzySet.ones(z4.carrier), FuzzySet.ones(z2.carrier),
            {x: x % 2 for x in z4.carrier})
        self.raises(CarrierMismatchError, message,
                    is_fuzzy_homomorphism, f, *map(cyclic_group, groups))

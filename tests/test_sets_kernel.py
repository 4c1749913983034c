"""Differential tests: `FuzzySet` on integer numerators over one
denominator against the `Fraction` operations in `sets_oracle.py`.  Grades
are drawn with mixed denominators, as unreduced 'p/q' text, as ints and as
floats; grades, equality, hashing, results, verdicts, reprs and error texts
must all agree."""

import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

import maps_oracle
import sets_oracle as oracle
from fuzzcheck.errors import CarrierMismatchError, DominationError
from fuzzcheck.maps import ProperFunction, image, preimage
from fuzzcheck.sets import (
    Carrier,
    FuzzyPoint,
    FuzzySet,
    complement_in,
    intersection,
    is_normal_element,
    is_subset,
    level_set,
    point_in,
    product,
    union,
)


@st.composite
def unreduced(draw):
    """'p/q' text with a common factor left in, such as '2/4'."""
    q = draw(st.integers(1, 12))
    p, k = draw(st.integers(0, q)), draw(st.integers(2, 5))
    return f"{p * k}/{q * k}"


GRADES = st.one_of(
    st.fractions(min_value=0, max_value=1, max_denominator=24),
    unreduced(),
    st.sampled_from([0, 1]),
    st.floats(min_value=0, max_value=1),
)
# A few values shared by many draws, so that equal sets come up often.
POOL = st.sampled_from([0, 1, F(1, 2), "2/4", 0.5, F(1, 3), "2/6", F(2, 3), 0.25])


def carriers(n):
    return Carrier(tuple(f"x{i}" for i in range(n)))


@st.composite
def sets_on(draw, carrier, grades=GRADES):
    return FuzzySet(carrier, draw(st.lists(grades, min_size=len(carrier),
                                           max_size=len(carrier))))


def outcome(fn, *args):
    try:
        return fn(*args)
    except DominationError as exc:
        return str(exc), repr(exc.witness)


def same_set(new, old):
    return new == old and new.grades == old.grades and repr(new) == oracle.fuzzy_repr(old)


def same(new, old):
    if isinstance(old, FuzzySet):
        return same_set(new, old)
    return new == old


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_grades_view_is_the_input(data):
    carrier = carriers(data.draw(st.integers(1, 6)))
    values = data.draw(st.lists(GRADES, min_size=len(carrier), max_size=len(carrier)))
    s = FuzzySet(carrier, values)
    assert s.grades == tuple(F(v) for v in values) == oracle.grades(carrier, values)
    assert tuple(s.items()) == tuple(zip(carrier, s.grades))
    assert [s(x) for x in carrier] == list(s.grades)
    # One least common denominator, so equal sets store equal numerators.
    assert s.den == math.lcm(*(F(v).denominator for v in values))
    assert s.nums == tuple(g.numerator * (s.den // g.denominator) for g in s.grades)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_equality_and_hash_follow_the_grades(data):
    carrier = carriers(data.draw(st.integers(1, 3)))
    a = data.draw(sets_on(carrier, POOL))
    b = data.draw(sets_on(carrier, POOL))
    assert (a == b) == (a.grades == b.grades)
    if a == b:
        assert hash(a) == hash(b)
    assert (a == b) == ({a} == {b})
    assert FuzzySet(carriers(len(carrier) + 1), (*a.grades, 0)) != a


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_set_operations_match_the_fraction_oracle(data):
    carrier = carriers(data.draw(st.integers(1, 4)))
    grades = data.draw(st.sampled_from([GRADES, POOL]))
    a, b, c = (data.draw(sets_on(carrier, grades)) for _ in range(3))
    other = data.draw(sets_on(carriers(data.draw(st.integers(1, 3))), grades))
    t = data.draw(GRADES)
    assert same_set(union([a, b, c]), oracle.union([a, b, c]))
    assert same_set(union([a]), oracle.union([a]))
    assert same_set(intersection([a, b, c]), oracle.intersection([a, b, c]))
    assert same_set(product(a, other), oracle.product(a, other))
    assert repr(is_subset(a, b)) == repr(oracle.is_subset(a, b))
    assert same(outcome(complement_in, a, b), outcome(oracle.complement_in, a, b))
    low = intersection([a, b])
    assert same_set(complement_in(a, low), oracle.complement_in(a, low))
    assert level_set(a, t) == oracle.level_set(a, t)
    assert a.support() == oracle.support(a)
    assert repr(a) == oracle.fuzzy_repr(a)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_image_and_preimage_match_the_fraction_oracle(data):
    source, target = carriers(data.draw(st.integers(1, 4))), carriers(data.draw(st.integers(1, 4)))
    images = data.draw(st.lists(st.sampled_from(target.elements),
                                min_size=len(source), max_size=len(source)))
    f = ProperFunction(data.draw(sets_on(source)), data.draw(sets_on(target)), images)
    a = data.draw(st.sampled_from([data.draw(sets_on(source)),
                                   intersection([f.source, data.draw(sets_on(source))])]))
    b = data.draw(st.sampled_from([data.draw(sets_on(target)),
                                   intersection([f.target, data.draw(sets_on(target))])]))
    assert same(outcome(image, f, a), outcome(maps_oracle.image, f, a))
    assert same(outcome(preimage, f, b), outcome(maps_oracle.preimage, f, b))


def error_text(fn, *args):
    with pytest.raises(ValueError) as info:
        fn(*args)
    return str(info.value)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_out_of_range_grades_raise_the_oracle_text(data):
    carrier = carriers(data.draw(st.integers(1, 4)))
    wild = st.one_of(GRADES, st.fractions(min_value=-2, max_value=3, max_denominator=9),
                     st.floats(min_value=-2, max_value=3), st.sampled_from([-1, 2, "5/4", "-0"]))
    values = data.draw(st.lists(wild, min_size=1, max_size=len(carrier) + 1))
    try:
        expected = oracle.grades(carrier, values)
    except ValueError as exc:
        assert error_text(FuzzySet, carrier, values) == str(exc)
    else:
        assert FuzzySet(carrier, values).grades == expected


def verdict_or_error(fn, *args):
    try:
        return repr(fn(*args))
    except (CarrierMismatchError, KeyError) as exc:
        return type(exc).__name__, str(exc)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_normal_element_matches_the_fraction_oracle(data):
    """Verdicts, reasons and witnesses agree, and so do the errors for a set
    on another carrier and for an element outside the carrier."""
    carrier = carriers(data.draw(st.integers(1, 4)))
    grades = data.draw(st.sampled_from([GRADES, POOL]))
    lam = data.draw(sets_on(carrier, grades))
    mu = data.draw(sets_on(data.draw(st.sampled_from(
        [carrier, carrier, carriers(data.draw(st.integers(1, 4)))])), grades))
    a = data.draw(st.sampled_from(carrier.elements + ("elsewhere",)))
    assert verdict_or_error(is_normal_element, lam, mu, a) == verdict_or_error(
        oracle.is_normal_element, lam, mu, a)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_point_in_matches_the_fraction_oracle(data):
    """Membership agrees, at a height equal to the base's grade too, and so
    does the KeyError for a base outside the carrier."""
    carrier = carriers(data.draw(st.integers(1, 4)))
    grades = data.draw(st.sampled_from([GRADES, POOL]))
    mu = data.draw(sets_on(carrier, grades))
    base = data.draw(st.sampled_from(carrier.elements + ("elsewhere",)))
    height = data.draw(st.one_of(grades, st.sampled_from(mu.grades)).filter(lambda g: F(g) > 0))
    p = FuzzyPoint(base, height)
    assert verdict_or_error(point_in, p, mu) == verdict_or_error(oracle.point_in, p, mu)

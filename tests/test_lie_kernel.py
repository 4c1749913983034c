"""Differential tests: the sparse integer Lie kernel against the dense
Fraction kernel in `lie_oracle.py`.  Verdicts, reasons and witnesses must
be equal, down to the repr of every witness."""

import time
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

import lie_oracle as oracle
from fuzzcheck.lie import (
    ClassifierCase,
    Condition,
    MembershipClassifier,
    SampleSet,
    StructureConstants,
    bracket,
    is_fuzzy_lie_ideal,
    is_fuzzy_lie_subalgebra,
    validate_lie,
)

RATIONALS = st.builds(F, st.integers(-4, 4), st.integers(1, 4))
NONZERO = RATIONALS.filter(bool)
SCALARS = st.one_of(st.sampled_from([F(0), F(-1), F(1), F(1, 2), F(-3, 2), F(2)]), RATIONALS)
GRADES = st.builds(F, st.integers(0, 4), st.just(4))

# Lie algebras of dimension <= 4 as (dim, {(i, j, k): c}).
ALGEBRAS = [
    (1, {}),
    (2, {(0, 1, 1): 1, (1, 0, 1): -1}),
    (3, {(0, 1, 2): 1, (1, 0, 2): -1, (1, 2, 0): 1, (2, 1, 0): -1,
         (2, 0, 1): 1, (0, 2, 1): -1}),
    (3, {(0, 1, 2): 1, (1, 0, 2): -1}),
    (3, {(0, 1, 1): 2, (1, 0, 1): -2, (0, 2, 2): -2, (2, 0, 2): 2,
         (1, 2, 0): 1, (2, 1, 0): -1}),
    (4, None),  # gl_2
]


def gl_entries(n):
    """gl_n on the basis E_ab (index a*n+b): [E_ab, E_cd] = d_bc E_ad - d_da E_cb."""
    entries = {}
    for a in range(n):
        for b in range(n):
            for c in range(n):
                for d in range(n):
                    i, j = a * n + b, c * n + d
                    if b == c:
                        entries[(i, j, a * n + d)] = entries.get((i, j, a * n + d), 0) + 1
                    if d == a:
                        entries[(i, j, c * n + b)] = entries.get((i, j, c * n + b), 0) - 1
    return entries


@st.composite
def constants(draw):
    """A Lie algebra of dimension <= 5 under a permuted, rescaled basis
    (still a Lie algebra), or random antisymmetric constants, then
    optionally perturbed: one entry changed alone (breaks antisymmetry) or
    together with its mirror (may break Jacobi), or an explicit zero added."""
    kind = draw(st.integers(0, 4))
    if kind == 0:
        dim = draw(st.integers(1, 5))
        entries = {}
        for (i, j) in draw(st.lists(st.tuples(st.integers(0, dim - 1), st.integers(0, dim - 1)),
                                    max_size=6)):
            if i != j:
                k, v = draw(st.integers(0, dim - 1)), draw(NONZERO)
                entries[(i, j, k)], entries[(j, i, k)] = v, -v
    else:
        base_dim, base = draw(st.sampled_from(ALGEBRAS))
        base = gl_entries(2) if base is None else base
        dim = draw(st.integers(base_dim, 5))
        perm = draw(st.permutations(range(dim)))
        s = draw(st.lists(NONZERO, min_size=dim, max_size=dim))
        entries = {(perm[i], perm[j], perm[k]): F(c) * s[i] * s[j] / s[k]
                   for (i, j, k), c in base.items()}
    index = st.integers(0, dim - 1)
    change = draw(st.sampled_from(["none", "one", "pair", "zero"]))
    i, j, k = draw(index), draw(index), draw(index)
    if change == "one":
        entries[(i, j, k)] = draw(RATIONALS)
    elif change == "pair" and i != j:
        v = draw(RATIONALS)
        entries[(i, j, k)], entries[(j, i, k)] = v, -v
    elif change == "zero":
        entries.setdefault((i, j, k), 0)
    return dim, entries


@st.composite
def classifiers(draw, dim):
    """Either a chain of coordinate subspaces with falling grades (a fuzzy
    subspace, so the sum and scalar scans pass and the bracket scan
    decides) or random sign cases."""
    if draw(st.booleans()):
        order = draw(st.permutations(range(dim)))
        depth = draw(st.integers(0, dim))
        grades = sorted(draw(st.lists(GRADES, min_size=depth + 2, max_size=depth + 2)),
                        reverse=True)
        cases = tuple(ClassifierCase(tuple(Condition(c, "eq0") for c in order[t:]), grades[t])
                      for t in range(depth + 1))
        return MembershipClassifier(dim, cases, grades[-1])
    condition = st.builds(Condition, st.integers(0, dim - 1),
                          st.sampled_from(["eq0", "ne0", "gt0", "lt0"]))
    case = st.builds(ClassifierCase, st.lists(condition, min_size=1, max_size=3).map(tuple),
                     GRADES)
    return MembershipClassifier(dim, tuple(draw(st.lists(case, min_size=1, max_size=4))),
                                draw(GRADES))


@st.composite
def samples(draw, dim):
    coord = st.one_of(st.just(F(0)), RATIONALS)
    vectors = draw(st.lists(st.tuples(*([coord] * dim)), min_size=2, max_size=7))
    at = draw(st.integers(0, len(vectors)))
    vectors.insert(at, (F(0),) * dim)
    return SampleSet(tuple(vectors), tuple(draw(st.lists(SCALARS, max_size=4))))


@st.composite
def scans(draw):
    dim, entries = draw(constants())
    return dim, entries, draw(classifiers(dim)), draw(samples(dim))


def same(got, want):
    assert (got.ok, got.reason, repr(got.witness)) == (want.ok, want.reason, repr(want.witness))


@settings(max_examples=300, deadline=None)
@given(constants())
# Jacobi first fails at (0,1,2), where only [e_2, e_0] is nonzero.
@example((4, {(2, 0, 3): 1, (0, 2, 3): -1, (1, 3, 1): 1, (3, 1, 1): -1}))
def test_validate_lie_matches_dense(case):
    dim, entries = case
    same(validate_lie(StructureConstants.from_entries(dim, entries)),
         oracle.validate_lie(oracle.DenseConstants.from_entries(dim, entries)))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_bracket_matches_dense(data):
    dim, entries = data.draw(constants())
    vector = st.tuples(*([RATIONALS] * dim))
    x, y = data.draw(vector), data.draw(vector)
    got = bracket(StructureConstants.from_entries(dim, entries), x, y)
    want = oracle.bracket(oracle.DenseConstants.from_entries(dim, entries), x, y)
    assert repr(got) == repr(want)


@settings(max_examples=300, deadline=None)
@given(scans())
def test_condition_scans_match_dense(case):
    dim, entries, mu, sample_set = case
    sc = StructureConstants.from_entries(dim, entries)
    dense = oracle.DenseConstants.from_entries(dim, entries)
    same(is_fuzzy_lie_subalgebra(mu, sc, sample_set),
         oracle._check_conditions(mu, dense, sample_set, min))
    same(is_fuzzy_lie_ideal(mu, sc, sample_set),
         oracle._check_conditions(mu, dense, sample_set, max))


def test_gl2_and_gl3_match_dense():
    for n in (2, 3):
        entries = gl_entries(n)
        same(validate_lie(StructureConstants.from_entries(n * n, entries)),
             oracle.validate_lie(oracle.DenseConstants.from_entries(n * n, entries)))


def test_classifier_dimension_mismatch_raises():
    sc = StructureConstants.from_entries(2, {})
    mu = MembershipClassifier(3, (), F(1))
    sample_set = SampleSet(((0, 0), (1, 0)), ())
    with pytest.raises(ValueError):
        oracle._check_conditions(mu, oracle.DenseConstants.from_entries(2, {}), sample_set, min)
    with pytest.raises(ValueError):
        is_fuzzy_lie_subalgebra(mu, sc, sample_set)


def test_validate_lie_gl5_under_a_second():
    """Ladder guard: dim 25 took 17 s on the dense kernel."""
    sc = StructureConstants.from_entries(25, gl_entries(5))
    start = time.perf_counter()
    assert validate_lie(sc).ok
    assert time.perf_counter() - start < 1.0

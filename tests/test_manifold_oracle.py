"""Differential tests: the tabulated-chart checks against the loop-based
reference in `manifold_oracle.py`.  Verdicts, reasons, witnesses, the
largest derivative jump, checked-point counts and cover reports must be
equal on random tables with kinks, gaps and dips."""

from hypothesis import given, settings, strategies as st

import manifold_oracle as oracle
from fuzzcheck.manifold import Tolerances, check_c1_tabulated, check_tabulated_atlas

STEP = 1.0 / 64.0
# Caps on either side of the slope changes the tables draw, so both the
# failing and the passing jump scans run.
TOLERANCES = st.builds(
    Tolerances,
    lipschitz_cap=st.sampled_from([10.0, 1e3, 1e9]),
    cover_eps=st.sampled_from([0.0, 0.3]),
)


def _fields(rep):
    return rep.ok, rep.reason, rep.witness, rep.max_derivative_jump, rep.checked_points


@st.composite
def transitions(draw, n):
    """n rows of (param, value): distinct params on a 1/64 grid with some
    gaps wide enough to split the table, values linear with one kink, an
    optional dip at one row and optional rounding that makes values equal."""
    steps = draw(st.lists(st.sampled_from([1, 1, 1, 2, 3, 40]), min_size=n, max_size=n))
    params, at = [], draw(st.integers(-20, 20))
    for s in steps:
        at += s
        params.append(at * STEP)
    slopes = st.sampled_from([-3.0, -1.0, 0.0, 0.5, 1.0, 2.0, 200.0])
    left, right = draw(slopes), draw(slopes)
    kink = draw(st.integers(0, max(n - 1, 0)))
    values = [left * p if i <= kink else left * params[kink] + right * (p - params[kink])
              for i, p in enumerate(params)]
    if n and draw(st.booleans()):
        values[draw(st.integers(0, n - 1))] += draw(st.sampled_from([-0.5, 0.01, 3.0]))
    if draw(st.booleans()):
        values = [round(v, 1) for v in values]
    order = draw(st.permutations(range(n)))
    return [params[i] for i in order], [values[i] for i in order]


@st.composite
def tables(draw):
    """Two or three chart tables over a shared pool of points, each on its
    own subset of the pool, with distinct params within each table.  A
    chart's params either rise along the pool, so transitions between such
    charts are monotone with kinks at uneven steps, or are shuffled."""
    pool = [(float(i), float(i % 3)) for i in range(draw(st.integers(1, 30)))]
    out = []
    for _ in range(draw(st.integers(2, 3))):
        params, _ = draw(transitions(len(pool)))
        if draw(st.booleans()):
            params.sort()
        keep = draw(st.lists(st.sampled_from([True, True, True, False]),
                             min_size=len(pool), max_size=len(pool)))
        idx = draw(st.permutations([i for i, k in enumerate(keep) if k]))
        memberships = draw(st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.0, 1.0]),
                                    min_size=len(idx), max_size=len(idx)))
        out.append(([params[i] for i in idx], [pool[i] for i in idx], memberships))
    return out


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 40).flatmap(transitions), TOLERANCES)
def test_table_check_matches_reference(table, tol):
    coords, values = table
    assert _fields(check_c1_tabulated(coords, values, tol)) == \
        _fields(oracle.check_c1_tabulated(coords, values, tol))


@settings(max_examples=200, deadline=None)
@given(tables(), TOLERANCES, st.booleans())
def test_tabulated_atlas_matches_reference(charts, tol, normalize):
    got = check_tabulated_atlas(charts, tol, normalize_cover=normalize)
    want = oracle.check_tabulated_atlas(charts, tol, normalize_cover=normalize)
    assert got.cover == want.cover
    assert got.transitions_ok == want.transitions_ok
    assert [(p.source_label, p.target_label, _fields(p.report)) for p in got.pairs] == \
        [(p.source_label, p.target_label, _fields(p.report)) for p in want.pairs]

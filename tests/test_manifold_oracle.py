"""Differential tests: the tabulated-chart checks against the loop-based
reference in `manifold_oracle.py`.  Verdicts, reasons, witnesses, the
largest derivative jump, checked-point counts and cover reports must be
equal on random tables with kinks, gaps and dips.  The `demo-circle`
command's machine output must equal the reference handler's, which checks
each atlas on its own before checking both together.  Checking two atlases
one by one and then with `check_compatible` must give the reference
two-atlas check's pairs, in its order.  The product-atlas check must equal
the reference's scan of the whole product grid.  The cover check and the
transition maps, which read an atlas's arrays, must equal the loops that
call the chart formulas point by point, and must call each formula at most
once per sample, at no sample the loops skip."""

import argparse
import contextlib
import io
import itertools
import math
import struct
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import manifold_oracle as oracle
from fuzzcheck import cli, manifold
from fuzzcheck.errors import ParseError
from fuzzcheck.parsers import load_chart_table
from fuzzcheck.manifold import Tolerances, check_tabulated_atlas
from helpers import check_c1_tabulated

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


def _pairs(atlas_report):
    return [(p.source_label, p.target_label, _fields(p.report)) for p in atlas_report.pairs]


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


def _columns(table, dim=2):
    """A (params, points, memberships) table with its points as columns."""
    params, points, memberships = table
    return params, [[p[c] for p in points] for c in range(dim)], memberships


def _assert_same_atlas_reports(got, want):
    """Equal reports, the worst point compared by repr, which tells -0.0
    from 0.0."""
    assert got.cover == want.cover
    assert repr(got.cover.worst_point) == repr(want.cover.worst_point)
    assert got.transitions_ok == want.transitions_ok
    assert _pairs(got) == _pairs(want)


@settings(max_examples=200, deadline=None)
@given(tables(), TOLERANCES, st.booleans())
def test_tabulated_atlas_matches_reference(charts, tol, normalize):
    got = check_tabulated_atlas(list(map(_columns, charts)), tol, normalize_cover=normalize)
    want = oracle.check_tabulated_atlas(charts, tol, normalize_cover=normalize)
    _assert_same_atlas_reports(got, want)


# Spellings of a few coordinates: each value's spellings parse to equal
# floats, and -0.0 equals 0.0 without being it.
SPELLINGS = [["0", "0.0", "-0.0", "-0"], ["0.5", "0.50", "5e-1"], ["1", "1.0"], ["-2.25"]]


@st.composite
def chart_files(draw):
    """The texts of two or three chart tables over a shared pool of points,
    each point spelt afresh on every row, with now and then a chart of
    another dimension, a point listed twice in one file or a malformed
    line."""
    dim = draw(st.integers(1, 2))
    pool = draw(st.lists(st.tuples(*[st.integers(0, len(SPELLINGS) - 1)] * dim),
                         min_size=1, max_size=12, unique=True))
    texts = []
    for _ in range(draw(st.integers(2, 3))):
        width = dim if draw(st.integers(0, 4)) else 3 - dim
        idx = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=len(pool),
                            unique=not draw(st.integers(0, 5))))
        steps = draw(st.lists(st.sampled_from([1, 1, 2, 40]), min_size=len(idx),
                              max_size=len(idx)))
        params = [at * STEP for at in itertools.accumulate(steps)]
        if draw(st.booleans()):
            params = draw(st.permutations(params))
        rows = []
        for i, param in zip(idx, params):
            point = (pool[i] * 2)[:width]
            spelt = " ".join(draw(st.sampled_from(SPELLINGS[v])) for v in point)
            grade = draw(st.sampled_from(["0", "0.25", "0.5", "1"]))
            rows.append(f"{param!r} {spelt} {grade}\n")
        if not draw(st.integers(0, 5)):
            rows.insert(draw(st.integers(0, len(rows))), draw(st.sampled_from(
                ["0 x 1\n", "0 1\n", "0 0 0 0 0 1\n", "0 0 2\n"])))
        texts.append("".join(rows))
    return texts


def _atlas_or_error(load, check, paths, tol, normalize):
    try:
        shared = {}
        tables = [load(p, shared) if load is oracle.load_chart_table else load(p)
                  for p in paths]
    except ParseError as exc:
        return str(exc)
    return check(tables, tol, normalize_cover=normalize)


@settings(max_examples=300, deadline=None)
@given(chart_files(), TOLERANCES, st.booleans())
def test_chart_files_match_the_oracle(tmp_path_factory, texts, tol, normalize):
    """The column parser and the sorted matching against the tuple parser
    and the dict matching: the same error, or reports equal field by
    field."""
    root = tmp_path_factory.mktemp("charts")
    paths = []
    for j, text in enumerate(texts):
        paths.append(root / f"chart{j}.txt")
        paths[-1].write_text(text)
    paths = list(map(str, paths))
    got = _atlas_or_error(load_chart_table, check_tabulated_atlas, paths, tol, normalize)
    want = _atlas_or_error(oracle.load_chart_table, oracle.check_tabulated_atlas, paths, tol,
                           normalize)
    if isinstance(want, str):
        assert got == want
    else:
        _assert_same_atlas_reports(got, want)


# Spellings of one float class each: a class's spellings parse to equal
# floats, and the zero class holds 0.0 and -0.0, which are one point but
# not one float.
FLOAT_SPELLINGS = [["0", "0.0", "0e0", "-0", "-0.0", "-0e5"], ["0.5", "0.50", "5e-1", "5E-1"],
                   ["1", "1.0", "1e0", "100e-2"], ["-2.25", "-225e-2"],
                   ["3e-7", "0.0000003"], ["1e300", "1E+300"]]
MEMBERSHIP_SPELLINGS = ["0", "-0", "0.0", "0.25", "0.5", "0.50", "5e-1", "1", "1.0", "1e0"]


@st.composite
def valid_chart_text(draw):
    """A chart table of 1-D to 3-D points, each point listed once, with
    every param, coordinate and membership spelt afresh."""
    dim = draw(st.integers(1, 3))
    points = draw(st.lists(st.tuples(*[st.integers(0, len(FLOAT_SPELLINGS) - 1)] * dim),
                           min_size=1, max_size=20, unique=True))
    spell = st.sampled_from(FLOAT_SPELLINGS).flatmap(st.sampled_from)
    rows = []
    for point in points:
        coords = " ".join(draw(st.sampled_from(FLOAT_SPELLINGS[c])) for c in point)
        rows.append(f"{draw(spell)} {coords} {draw(st.sampled_from(MEMBERSHIP_SPELLINGS))}\n")
    return "".join(rows)


def _bits(column):
    """The float64 bytes of each entry, which tell -0.0 from 0.0."""
    return [struct.pack("d", v) for v in column]


@settings(max_examples=300, deadline=None)
@given(valid_chart_text())
def test_chart_columns_equal_the_oracle_bit_for_bit(tmp_path_factory, text):
    """The columns hold the very floats the tuple parser reads, signed
    zeros included, and all of one table's columns view one buffer."""
    path = tmp_path_factory.mktemp("chart") / "chart.txt"
    path.write_text(text)
    params, coords, memberships = load_chart_table(str(path))
    want_params, points, want_memberships = oracle.load_chart_table(str(path))
    assert _bits(params) == _bits(want_params)
    assert [_bits(column) for column in coords] == [_bits(column) for column in zip(*points)]
    assert _bits(memberships) == _bits(want_memberships)
    assert all(column.obj is params.obj for column in (*coords, memberships))


def test_points_of_different_dimensions_never_match():
    """(0.0,) and (0.0, 0.0), or (1.0,) and (1.0, 0.0), are different points,
    though the wider point's extra coordinate is the zero the narrower one
    is padded with."""
    narrow = ([0.0, 0.5, 1.0], [[0.0, 1.0, 2.0]], [1.0, 1.0, 1.0])
    wide = ([0.0, 0.5, 1.0], [[0.0, 1.0, 2.0], [0.0, 0.0, 0.0]], [0.5, 0.5, 0.5])
    tol = Tolerances()
    got = check_tabulated_atlas([narrow, wide], tol)
    want = oracle.check_tabulated_atlas(
        [(p, list(zip(*c)), m) for p, c, m in (narrow, wide)], tol)
    _assert_same_atlas_reports(got, want)
    assert got.pairs == [] and got.cover.worst_point == (0.0, 0.0)


# Few grades, so that dips, equal worst deficiencies within a factor and
# across the two recur; 0.1, 1/3 and 0.7 round when subtracted from 1.
GRADES = [0.0, 0.1, 0.25, 1.0 / 3.0, 0.5, 0.7, 1.0, 1.0]


@st.composite
def sampled_factors(draw, tol, samples=None):
    """One to three charts without inverse formulas over the given samples
    or 0 to 12 drawn ones, possibly none, with memberships drawn from
    GRADES.  Optionally every chart misses one sample, the first or another:
    a dip to deficiency 1, which makes that sample the factor's worst and
    ties with a dip in the other factor."""
    if samples is None:
        samples = tuple(draw(st.permutations(range(draw(st.integers(0, 12))))))
    dip = draw(st.one_of(st.none(), st.just(0), st.integers(0, 11)))
    charts = []
    for j in range(draw(st.integers(1, 3))):
        grades = draw(st.lists(st.sampled_from(GRADES), min_size=len(samples),
                               max_size=len(samples)))
        if dip is not None and dip < len(samples):
            grades[dip] = 0.0
        params = list(draw(st.permutations(range(len(samples)))))
        if draw(st.booleans()):
            params.sort()
        charts.append(manifold.SampledChart(
            f"c{j}", dict(zip(samples, grades)).get, dict(zip(samples, map(float, params))).get,
            None))
    return manifold.Atlas(charts, samples, tol)


def circle_factors(tol):
    return st.builds(lambda make, n: make(n, tol),
                     st.sampled_from([manifold.circle_phi_atlas, manifold.circle_psi_atlas]),
                     st.sampled_from([4, 7, 16, 64]))


def factors(tol):
    return st.one_of(sampled_factors(tol), circle_factors(tol))


@settings(max_examples=120, deadline=None)
@given(st.sampled_from([0.0, 0.3, 0.75]).map(lambda eps: Tolerances(cover_eps=eps))
       .flatmap(lambda tol: st.tuples(factors(tol), factors(tol))), st.booleans())
def test_product_atlas_matches_product_grid(atlases, normalize):
    a, b = atlases
    got = manifold.check_product_atlas(a, b, normalize_cover=normalize)
    want = oracle.check_product_atlas(a, b, normalize_cover=normalize)
    assert got.cover == want.cover
    assert got.transitions_ok == want.transitions_ok
    assert _pairs(got) == _pairs(want)


def _one_by_one(a, b):
    return (manifold.check_atlas(a).pairs + manifold.check_atlas(b).pairs
            + manifold.check_compatible(a, b))


def _assert_matches_two_atlas_check(a, b):
    """The pairs of both atlases and across, report for report, or the same
    ValueError from both sides.  Returns whether that error was raised."""
    try:
        want = oracle.check_atlas(a, b).pairs
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            _one_by_one(a, b)
        assert str(got.value) == str(exc)
        return True
    assert _one_by_one(a, b) == want
    return False


@st.composite
def shared_sample_atlases(draw):
    """Two atlases of tabulated charts on one sample list, each under its
    own tolerances, so that each direction's cap shows."""
    a = draw(sampled_factors(draw(TOLERANCES)))
    return a, draw(sampled_factors(draw(TOLERANCES), a.samples))


@settings(max_examples=200, deadline=None)
@given(shared_sample_atlases())
def test_compatible_tabulated_matches_two_atlas_check(atlases):
    assert not _assert_matches_two_atlas_check(*atlases)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([0.0, 0.3, 0.75]).map(lambda eps: Tolerances(cover_eps=eps))
       .flatmap(factors), st.booleans())
def test_cover_matches_the_loop(atlas, normalize):
    assert manifold.check_cover_condition(atlas, normalize) == \
        oracle.check_cover_condition(atlas, normalize)


@settings(max_examples=100, deadline=None)
@given(factors(Tolerances()))
def test_transition_maps_match_the_loop(atlas):
    for j in range(len(atlas.charts)):
        for l in range(len(atlas.charts)):
            try:
                want = oracle.transition_map(atlas, j, l)
            except manifold.EmptyOverlapError:
                with pytest.raises(manifold.EmptyOverlapError):
                    manifold.transition_map(atlas, j, l)
                continue
            got = manifold.transition_map(atlas, j, l)
            assert got.coords == tuple(want.coords.tolist())
            assert got.values == tuple(want.values.tolist())
            assert (got.source, got.target, got.seams) == (want.source, want.target, want.seams)


def _counted(atlases, calls):
    """The atlases with each chart's membership and coord logging
    (formula, atlas number, chart number, point) to calls."""
    def log(*call):
        fn = call[-1]
        return lambda p: (calls.append((*call[:-1], p)), fn(p))[1]
    return [manifold.Atlas([manifold.SampledChart(c.label, log("membership", i, j, c.membership),
                                                  log("coord", i, j, c.coord), c.coord_inverse)
                            for j, c in enumerate(atlas.charts)],
                           atlas.samples, atlas.tolerances, atlas.seam_points)
            for i, atlas in enumerate(atlases)]


@settings(max_examples=100, deadline=None)
@given(shared_sample_atlases())
def test_formulas_are_called_once_per_sample_where_the_loop_calls_them(atlases):
    """Charts without inverse formulas, so every coord call is at a sample."""
    mine, loops = [], []
    _one_by_one(*_counted(atlases, mine))
    assert max(Counter(mine).values(), default=1) == 1
    oracle.check_atlas(*_counted(atlases, loops))
    assert {call for call in mine if call[0] == "coord"} == \
        {call for call in loops if call[0] == "coord"}


FLOATS = st.floats(-4.0, 4.0).map(lambda x: round(x, 1))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(FLOATS, st.sampled_from([math.nan, math.inf])), min_size=1,
                max_size=12))
def test_median_is_numpys(values):
    got, want = manifold._median(np.array(values)), float(np.median(values))
    assert got == want or (math.isnan(got) and math.isnan(want))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(FLOATS, st.sampled_from([10.0, 40.0, math.nan])), min_size=3,
                max_size=30),
       st.lists(FLOATS, max_size=3))
def test_components_match_the_loop(grid, seams):
    grid = np.sort(np.array(grid))
    got = [grid[piece].tolist() for piece in manifold._split_components(grid, seams)]
    want = [piece.tolist() for piece in oracle._split_components(grid, seams)]
    assert got == want or (np.isnan(grid).any() and repr(got) == repr(want))


def _run(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.execute(argv)
    return code, buf.getvalue()


# Overrides that fail the jump scan, the stability scan, the coord_inverse
# round trip (exit 2), one cover but not the other, and a transition after
# both covers pass.
DEMO_TOLERANCES = [[], ["lipschitz_cap=30"], ["eps_deriv=1e-15"], ["eps_inv=1e-18"],
                   ["cover_eps=0.5"], ["cover_eps=0.75", "h0=0.02"]]


@pytest.mark.parametrize("tolerances", DEMO_TOLERANCES)
@pytest.mark.parametrize("normalize", [False, True])
@pytest.mark.parametrize("samples", [16, 64, 256, 1024])
def test_demo_circle_matches_reference(monkeypatch, samples, normalize, tolerances):
    argv = ["demo-circle", "--samples-per-chart", str(samples), "--format", "machine"]
    argv += ["--normalize-cover"] * normalize
    argv += [arg for item in tolerances for arg in ("--tolerance", item)]
    got = _run(argv)
    monkeypatch.setattr(cli, "cmd_demo_circle", oracle.cmd_demo_circle)
    assert got == _run(argv)


@pytest.mark.parametrize("tolerances", DEMO_TOLERANCES)
@pytest.mark.parametrize("samples", [16, 64, 256])
def test_compatible_circle_matches_two_atlas_check(samples, tolerances):
    tol = cli._tolerances(argparse.Namespace(tolerance=tolerances))
    phi, psi = manifold.circle_phi_atlas(samples, tol), manifold.circle_psi_atlas(samples, tol)
    raised = _assert_matches_two_atlas_check(phi, psi)
    # At 16 samples every sampled coord_inverse round trip is exact.
    assert raised == (tolerances == ["eps_inv=1e-18"] and samples > 16)


def test_demo_circle_checks_each_transition_once(monkeypatch):
    phi, psi = manifold.circle_phi_atlas(64), manifold.circle_psi_atlas(64)
    pairs = _one_by_one(phi, psi)
    real, calls = manifold.check_c1_diffeo, []

    def spy(fn, *args, **kwargs):
        # Every call counts, nested ones too: an inverse is its own pair.
        calls.append(fn)
        return real(fn, *args, **kwargs)

    monkeypatch.setattr(manifold, "check_c1_diffeo", spy)
    assert _run(["demo-circle", "--samples-per-chart", "64", "--format", "machine"])[0] == 1
    assert len(calls) == len(pairs)
    assert [(tr.source.label, tr.target.label) for tr in calls] == \
        [(pc.source_label, pc.target_label) for pc in pairs]

"""Sampled numeric charts and atlases: cover diagnostics, transition maps,
C1 smoothness checks, product atlases, Jacobian ranks, and the invertible-
matrix demo.

Unlike the exact modules, membership grades here are floats and every
verdict is tolerance-based.  The tolerances a caller may vary are named
fields with defaults on Tolerances; the fixed ones are module constants.
"""

from __future__ import annotations

import math
from functools import cached_property
from itertools import permutations, product
from typing import Callable, Optional, Sequence

import numpy as np

from .record import Frozen, Record

H_REF = 1e-5  # the step at which eps_deriv holds as given; at step h it scales by (h/H_REF)^2
EDGE_MARGIN_FRAC = 0.05  # fraction of a component span skipped at its edges
SEAM_MARGIN_FACTOR = 8.0  # skip radius around declared seams, in units of h0


class Tolerances(Frozen):
    def __init__(self,
                 eps_inv=1e-9,        # coord o coord_inverse round-trip error
                 eps_deriv=1e-6,      # finite-difference stability, relative, at h = H_REF
                 h0=1e-3,             # initial central-difference step (two halvings follow)
                 cover_eps=0.0,       # allowed cover deficiency
                 lipschitz_cap=1e3):  # max |dD/ds| between adjacent derivative samples
        self._set(eps_inv=eps_inv, eps_deriv=eps_deriv, h0=h0, cover_eps=cover_eps,
                  lipschitz_cap=lipschitz_cap)


class SampledChart(Frozen):
    """Fuzzy chart realized numerically: membership and a coordinate
    bijection defined on the membership's support.  A tabulated chart has
    no formulas at all: its membership, coord and coord_inverse are None,
    and its atlas holds its table."""

    def __init__(self, label: str, membership: Callable[[object], float],
                 coord: Callable[[object], float],
                 coord_inverse: Optional[Callable[[float], object]]):
        self._set(label=label, membership=membership, coord=coord, coord_inverse=coord_inverse)


class Atlas(Frozen):
    """Charts over shared manifold sample points; the seam points are where
    chart formulas break.  Every chart's membership is read once per
    sample, into `grades`, and its coordinate at most once per sample, when
    a transition first needs it."""

    def __init__(self, charts, samples, tolerances: Tolerances = Tolerances(), seam_points=()):
        self._set(charts=tuple(charts), samples=tuple(samples), tolerances=tolerances,
                  seam_points=tuple(seam_points))
        if not self.charts:
            raise ValueError("an atlas needs at least one chart")

    @cached_property
    def grades(self) -> np.ndarray:
        """The (charts x samples) float64 memberships."""
        grades = np.empty((len(self.charts), len(self.samples)))
        for row, chart in zip(grades, self.charts):
            row[:] = np.fromiter(map(chart.membership, self.samples), float, len(self.samples))
        return grades

    @cached_property
    def _coord_columns(self) -> list:
        """Per chart, its coordinates at the samples and which of them are
        read so far."""
        n = len(self.samples)
        return [(np.zeros(n), np.zeros(n, dtype=bool)) for _ in self.charts]

    def _coordinates(self, j: int, ids: np.ndarray) -> np.ndarray:
        """Chart j's coordinates at the sample ids."""
        column, known = self._coord_columns[j]
        todo = ids[~known[ids]]
        if todo.size:
            chart, samples = self.charts[j], self.samples
            column[todo] = np.array([chart.coord(samples[i]) for i in todo.tolist()], dtype=float)
            known[todo] = True
        return column[ids]


class CoverReport(Frozen):
    def __init__(self, ok: bool, max_deficiency: float, worst_point):
        self._set(ok=ok, max_deficiency=max_deficiency, worst_point=worst_point)


def check_cover_condition(atlas: Atlas, normalize: bool = False) -> CoverReport:
    """Per sample, 1 - sup of chart memberships; the worst point is the
    first sample of the largest positive deficiency.  Never repairs an
    atlas: with normalize=True each positive sup is rescaled to 1 (the
    intended reading), otherwise the raw supremum is reported."""
    sup = atlas.grades.max(axis=0)
    if normalize:
        sup[sup > 0.0] = 1.0
    deficiency = 1.0 - sup
    worst, worst_point = 0.0, None
    if deficiency.size:
        i = int(np.argmax(deficiency))
        if deficiency[i] > 0.0:
            worst, worst_point = float(deficiency[i]), atlas.samples[i]
    return CoverReport(worst <= atlas.tolerances.cover_eps, worst, worst_point)


def cover_deficiency_at(atlas: Atlas, point, normalize: bool = False) -> float:
    sup = max(chart.membership(point) for chart in atlas.charts)
    if normalize and sup > 0.0:
        sup = 1.0
    return 1.0 - sup


class EmptyOverlapError(ValueError):
    pass


class TransitionMap(Frozen):
    """phi_l o phi_j^{-1}, tabulated over the sampled overlap and callable
    anywhere the chart formulas are defined: coords are the overlap samples'
    source-chart coordinates, sorted, values their target-chart coordinates,
    both tuples of floats, and seams the seam locations in source
    coordinates."""

    def __init__(self, source: SampledChart, target: SampledChart, coords: tuple,
                 values: tuple, seams: tuple):
        self._set(source=source, target=target, coords=coords, values=values, seams=seams)

    def __call__(self, s: float) -> float:
        return self.target.coord(self.source.coord_inverse(s))


def _overlap_table(atlas: Atlas, j: int, l: int):
    """(coords, values) arrays of the transition from chart j to chart l:
    the source and target coordinates of the samples in both supports,
    ordered by source coordinate."""
    src, tgt = atlas.charts[j], atlas.charts[l]
    ids = np.flatnonzero((atlas.grades[j] > 0.0) & (atlas.grades[l] > 0.0))
    if not ids.size:
        raise EmptyOverlapError(f"charts {src.label} and {tgt.label} do not overlap on the samples")
    coords, values = atlas._coordinates(j, ids), atlas._coordinates(l, ids)
    order = np.argsort(coords)
    coords, values = coords[order], values[order]
    # coord_inverse consistency on the sampled coordinates; a tabulated
    # chart has no inverse to check.
    if src.coord_inverse is not None:
        for s in coords[:: max(1, len(coords) // 32)]:
            if abs(src.coord(src.coord_inverse(float(s))) - s) > atlas.tolerances.eps_inv:
                raise ValueError(f"chart {src.label}: coord o coord_inverse deviates at {s}")
    return coords, values


def transition_map(atlas: Atlas, j: int, l: int) -> TransitionMap:
    """Transition from chart j to chart l, tabulated over the shared
    samples lying in both supports."""
    src, tgt = atlas.charts[j], atlas.charts[l]
    coords, values = _overlap_table(atlas, j, l)
    seams = tuple(sorted({src.coord(p) for p in atlas.seam_points if src.membership(p) > 0.0}))
    return TransitionMap(src, tgt, tuple(coords.tolist()), tuple(values.tolist()), seams)


def _central(fn, x: float, h: float):
    """The one central difference, (fn(x + h) - fn(x - h)) / 2h, of every
    numeric derivative here.  Along a unit direction u, fn(s) = f(p + s * u)
    at x = 0.0 evaluates f at exactly p + h u and p - h u."""
    return (fn(x + h) - fn(x - h)) / (2.0 * h)


def _relative_error(approx, ref) -> float:
    """max|approx - ref| / max(1, max|ref|) over the entries."""
    return float(np.max(np.abs(approx - ref))) / max(1.0, float(np.max(np.abs(ref))))


class C1Report(Record):
    def __init__(self, ok: bool, reason: str = "", witness=None,
                 max_stability_error=0.0,   # max relative |D_{h/2} - D_{h/4}|
                 max_derivative_jump=0.0,   # max |dD/ds| between adjacent samples
                 checked_points=0):
        self._set(ok=ok, reason=reason, witness=witness, max_stability_error=max_stability_error,
                  max_derivative_jump=max_derivative_jump, checked_points=checked_points)


def _median(values: np.ndarray) -> float:
    """np.median's value, NaN when any value is NaN, without the numpy.ma
    import that np.median makes on its first call (about 11 ms and 1 MiB)."""
    ordered = np.sort(values)
    mid = len(ordered) // 2
    if np.isnan(ordered[-1]):  # NaN sorts last
        return math.nan
    return float(ordered[mid] if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2.0)


def _split_components(grid: np.ndarray, seams: Sequence[float]) -> list:
    """Slices of a sorted grid's connected pieces, split at declared seams
    and at gaps much larger than the local spacing.  Callers pass at least
    3 points; below that they report "grid too small" themselves."""
    diffs = np.diff(grid)
    median = _median(diffs)
    cut = diffs > 10.0 * median if median > 0 else np.zeros(len(diffs), dtype=bool)
    for seam in seams:
        cut |= (grid[:-1] <= seam) & (seam <= grid[1:])
    bounds = [0, *(np.flatnonzero(cut) + 1).tolist(), len(grid)]
    return [slice(a, b) for a, b in zip(bounds, bounds[1:])]


def _first_collision(sorted_values: np.ndarray) -> Optional[int]:
    """Index i of the first adjacent pair of a sorted array that lies at
    most 1e-12 apart, or None when the entries are distinct."""
    hits = np.flatnonzero(np.diff(sorted_values) <= 1e-12)
    return int(hits[0]) if len(hits) else None


def _jump_scan(report: C1Report, positions, derivatives, cap: float) -> Optional[int]:
    """Index i of the first |D[i+1] - D[i]| / (s[i+1] - s[i]) above cap, or
    None.  Raises report.max_derivative_jump to the largest jump up to and
    including that one.  The positions must be strictly increasing, which
    the injectivity checks before every scan guarantee."""
    jumps = np.abs(np.diff(derivatives)) / np.diff(positions)
    bad = np.flatnonzero(jumps > cap)
    first = int(bad[0]) if len(bad) else None
    scanned = jumps if first is None else jumps[:first + 1]
    # fmax skips NaN jumps, as the comparison against the running max does.
    report.max_derivative_jump = float(np.fmax.reduce(scanned, initial=report.max_derivative_jump))
    return first


def check_c1_diffeo(fn: Callable[[float], float], grid, tol: Tolerances = Tolerances(),
                    seams: Sequence[float] = ()) -> C1Report:
    """Injectivity on the grid, finite-difference derivative stability under
    step halving, and derivative continuity along the grid, all for fn in
    its own direction only.  The inverse of a transition is the reverse
    transition, which check_atlas checks as a pair of its own.

    Grid cells touching a declared seam or a component edge are skipped: the
    piecewise chart formulas end there and central differences would straddle
    the break.  The stability tolerance is eps_deriv scaled by (h/H_REF)^2,
    matching the h^2 truncation error of central differences.
    """
    grid = np.sort(np.asarray(grid, dtype=float))
    if len(grid) < 3:
        return C1Report(False, "grid too small", witness=len(grid))
    values = np.array([fn(s) for s in grid])
    order = np.argsort(values)
    i = _first_collision(values[order])
    if i is not None:
        return C1Report(
            False,
            "not injective on the grid",
            witness=(float(grid[order[i]]), float(grid[order[i + 1]])),
        )

    report = C1Report(True)
    seam_margin = SEAM_MARGIN_FACTOR * tol.h0
    for piece in _split_components(grid, seams):
        comp = grid[piece]
        span = float(comp[-1] - comp[0])
        margin = max(seam_margin, EDGE_MARGIN_FRAC * span)
        lo, hi = comp[0] + margin, comp[-1] - margin
        pts = [float(s) for s in comp if lo <= s <= hi
               and all(abs(s - seam) >= seam_margin for seam in seams)]
        if len(pts) < 3:
            continue
        h = tol.h0
        scale = tol.eps_deriv * (h / H_REF) ** 2
        derivs = []
        for s in pts:
            d2 = _central(fn, s, h / 2.0)
            d4 = _central(fn, s, h / 4.0)
            err = abs(d2 - d4) / max(1.0, abs(d4))
            report.max_stability_error = max(report.max_stability_error, err)
            if err > scale:
                report.ok, report.reason, report.witness = (
                    False, "derivative not stable under step halving", float(s))
                return report
            derivs.append(d4)
        i = _jump_scan(report, pts, derivs, tol.lipschitz_cap)
        if i is not None:
            report.ok, report.reason, report.witness = (
                False, "derivative jumps between adjacent samples", (pts[i], pts[i + 1]))
            return report
        report.checked_points += len(pts)
    if report.checked_points == 0:
        return C1Report(False, "grid too small", witness=len(grid))
    return report


class PairCheck(Record):
    def __init__(self, source_label: str, target_label: str, report: C1Report):
        self._set(source_label=source_label, target_label=target_label, report=report)


class AtlasReport(Record):
    def __init__(self, cover: CoverReport, pairs: list, transitions_ok: bool):
        self._set(cover=cover, pairs=pairs, transitions_ok=transitions_ok)

    @property
    def ok(self) -> bool:
        return self.transitions_ok and self.cover.ok


def _check_pairs(atlas: Atlas, index_pairs) -> list:
    """The C1 check of each transition j -> l whose charts overlap on the
    samples: _check_c1_sorted's scan over the overlap table, which comes
    sorted, when either chart has no inverse formula, and check_c1_diffeo
    otherwise."""
    pairs = []
    for j, l in index_pairs:
        src, tgt = atlas.charts[j], atlas.charts[l]
        tabulated = src.coord_inverse is None or tgt.coord_inverse is None
        try:
            tr = _overlap_table(atlas, j, l) if tabulated else transition_map(atlas, j, l)
        except EmptyOverlapError:
            continue
        if tabulated:
            rep = _check_c1_sorted(*tr, atlas.tolerances)
        else:
            rep = check_c1_diffeo(tr, tr.coords, atlas.tolerances, seams=tr.seams)
        pairs.append(PairCheck(src.label, tgt.label, rep))
    return pairs


def check_atlas(atlas: Atlas, normalize_cover: bool = False) -> AtlasReport:
    """Cover diagnostics plus the C1 check of the transition between every
    ordered pair of distinct charts.  Each check covers one direction; the
    inverse of j -> l is checked as the pair l -> j."""
    cover = check_cover_condition(atlas, normalize=normalize_cover)
    pairs = _check_pairs(atlas, permutations(range(len(atlas.charts)), 2))
    return AtlasReport(cover, pairs, all(pc.report.ok for pc in pairs))


def check_compatible(a: Atlas, b: Atlas) -> list[PairCheck]:
    """C1 checks from each chart of a to each chart of b, then from b to a:
    the atlases give the same manifold when all pass.  Each direction keeps
    its source atlas's tolerances and skips the seams of both atlases."""
    if a.samples != b.samples:
        raise ValueError("compatibility checks require a shared sample list")
    pairs = []
    for src, dst in ((a, b), (b, a)):
        joined = Atlas(src.charts + dst.charts, src.samples, src.tolerances,
                       src.seam_points + dst.seam_points)
        # The joined atlas reads the rows of its two atlases' arrays, not
        # copies, so no membership is read again, and a coordinate read for
        # one is read for all.
        joined._set(grades=[*src.grades, *dst.grades],
                    _coord_columns=src._coord_columns + dst._coord_columns)
        n = len(src.charts)
        pairs += _check_pairs(joined, product(range(n), range(n, len(joined.charts))))
    return pairs


# ---------------------------------------------------------------------------
# Circle fixtures.  Sample points are canonical parameters t in [0,1) with
# the manifold point (sin 2 pi t, cos 2 pi t).

def _circle_samples(n: int) -> tuple:
    return tuple(k / n for k in range(n))


def circle_phi_atlas(n_samples: int = 1024, tol: Tolerances = Tolerances()) -> Atlas:
    """Two angle charts: full-circle chart missing t=0 with membership 1,
    and a half-shifted chart missing t=1/2 with membership 1/2."""
    u = SampledChart(
        "phi1",
        membership=lambda t: 1.0 if t % 1.0 != 0.0 else 0.0,
        coord=lambda t: t % 1.0,
        coord_inverse=lambda s: s % 1.0,
    )
    v = SampledChart(
        "phi2",
        membership=lambda t: 0.5 if t % 1.0 != 0.5 else 0.0,
        coord=lambda t: (t % 1.0) if (t % 1.0) < 0.5 else (t % 1.0) - 1.0,
        coord_inverse=lambda s: s % 1.0,
    )
    return Atlas((u, v), _circle_samples(n_samples), tol, seam_points=(0.0, 0.5))


def circle_psi_atlas(n_samples: int = 1024, tol: Tolerances = Tolerances()) -> Atlas:
    """Four half-circle projection charts, each with membership 1/4:
    right (x>0, coord y), top (y>0, coord x), left (x<0, coord y),
    bottom (y<0, coord x)."""

    def x_of(t):
        return math.sin(2.0 * math.pi * t)

    def y_of(t):
        return math.cos(2.0 * math.pi * t)

    right = SampledChart(
        "psi1",
        membership=lambda t: 0.25 if x_of(t) > 0.0 else 0.0,
        coord=y_of,
        coord_inverse=lambda s: math.acos(s) / (2.0 * math.pi),
    )
    top = SampledChart(
        "psi2",
        membership=lambda t: 0.25 if y_of(t) > 0.0 else 0.0,
        coord=x_of,
        coord_inverse=lambda s: (math.asin(s) / (2.0 * math.pi)) % 1.0,
    )
    left = SampledChart(
        "psi3",
        membership=lambda t: 0.25 if x_of(t) < 0.0 else 0.0,
        coord=y_of,
        coord_inverse=lambda s: 1.0 - math.acos(s) / (2.0 * math.pi),
    )
    bottom = SampledChart(
        "psi4",
        membership=lambda t: 0.25 if y_of(t) < 0.0 else 0.0,
        coord=x_of,
        coord_inverse=lambda s: 0.5 - math.asin(s) / (2.0 * math.pi),
    )
    return Atlas((right, top, left, bottom), _circle_samples(n_samples), tol,
                 seam_points=())


# ---------------------------------------------------------------------------
# Product atlases: a chart of each factor, with membership min(m(p), n(q)),
# over the samples (p, q), p outer.  Transitions are componentwise.

def check_product_atlas(a: Atlas, b: Atlas, normalize_cover: bool = False) -> AtlasReport:
    """Transitions checked factor-wise, which is exactly what the
    componentwise coordinate maps decompose into, and the cover read off the
    factor covers.  The sup over chart pairs of min(m(p), n(q)) is
    min(sup m(p), sup n(q)), so a product sample's deficiency is the larger
    of its factors', and the first worst (p, q), p outer, lies among the
    factors' first and worst samples."""
    first = check_atlas(a, normalize_cover=normalize_cover)
    second = check_atlas(b, normalize_cover=normalize_cover)
    worst, point = max(first.cover.max_deficiency, second.cover.max_deficiency), None
    if not (a.samples and b.samples):
        worst = 0.0
    elif worst > 0.0:
        p, q = a.samples[0], b.samples[0]
        if second.cover.max_deficiency < worst:
            p = first.cover.worst_point
        elif cover_deficiency_at(a, p, normalize_cover) < worst:
            q = second.cover.worst_point
        point = (p, q)
    cover = CoverReport(worst <= a.tolerances.cover_eps, worst, point)
    return AtlasReport(cover, first.pairs + second.pairs,
                       first.transitions_ok and second.transitions_ok)


# ---------------------------------------------------------------------------
# Tabulated user charts: no callable formulas, so derivative checks are
# coarse difference quotients over the table itself.

def _check_c1_sorted(coords, values, tol: Tolerances) -> C1Report:
    """Injectivity plus difference-quotient continuity for a transition
    known only through a table, given as float arrays ordered by
    coordinate."""
    if len(coords) < 3:
        return C1Report(False, "grid too small", witness=len(coords))
    # Equal values make the transition non-injective; equal coordinates
    # make the chart itself non-injective, and would divide by zero below.
    for column in (np.sort(values), coords):
        i = _first_collision(column)
        if i is not None:
            return C1Report(False, "not injective on the table", witness=float(column[i]))
    report = C1Report(True)
    for piece in _split_components(coords, ()):
        comp, vals = coords[piece], values[piece]
        if len(comp) < 3:
            continue
        report.checked_points += len(comp)
        i = _jump_scan(report, comp[:-1], np.diff(vals) / np.diff(comp), tol.lipschitz_cap)
        if i is not None:
            report.ok, report.reason, report.witness = (
                False, "difference quotient jumps between adjacent rows",
                (float(comp[i]), float(comp[i + 1])))
            return report
    if report.checked_points == 0:
        return C1Report(False, "grid too small", witness=len(coords))
    return report


def _first_listings(columns) -> np.ndarray:
    """Per row of equal-length coordinate columns, the first row that lists
    the same point.  A stable lexsort brings equal points together in row
    order; -0.0 and 0.0 are equal, as they are in a tuple."""
    order = np.lexsort(columns)
    begins = np.zeros(len(order), dtype=bool)  # sorted rows that begin a point
    begins[:1] = True
    for column in columns:
        ordered = np.asarray(column)[order]
        begins[1:] |= ordered[1:] != ordered[:-1]
    heads = np.flatnonzero(begins)
    first = np.empty_like(order)
    first[order] = np.repeat(order[heads], np.diff(heads, append=len(order)))
    return first


def first_repeat(columns) -> Optional[tuple]:
    """(row, first) for the first row whose point an earlier row lists,
    with that earlier row, or None when every point is listed once."""
    first = _first_listings(columns)
    rows = np.flatnonzero(first != np.arange(len(first)))
    return (int(rows[0]), int(first[rows[0]])) if rows.size else None


def _number_samples(tables):
    """Per row of the charts' rows one after another, its sample, and per
    sample, the row of its first listing.  The samples are the distinct
    points, numbered in the order they are first listed; the points are
    padded with zeros to the widest and told apart by their dimension."""
    sizes = [len(params) for params, _, _ in tables]
    dims = [len(coords) for _, coords, _ in tables]
    keys = [np.concatenate([np.asarray(coords[c], dtype=float) if c < d else np.zeros(n)
                            for (_, coords, _), d, n in zip(tables, dims, sizes)])
            for c in range(max(dims))]
    first = _first_listings([*keys, np.repeat(dims, sizes)])
    heads = np.flatnonzero(first == np.arange(len(first)))
    sample = np.zeros(len(first), dtype=np.intp)
    sample[heads] = np.arange(len(heads))
    return sample[first], heads


class _TabulatedSamples:
    """The samples of a tabulated atlas: sample i is the tuple of the floats
    of its first listing's row, built only when a witness asks for it."""

    def __init__(self, tables, heads):
        self.tables, self.heads = tables, heads

    def __len__(self):
        return len(self.heads)

    def __getitem__(self, i):
        row = int(self.heads[i])
        for params, coords, _ in self.tables:
            if row < len(params):
                return tuple(float(column[row]) for column in coords)
            row -= len(params)


def check_tabulated_atlas(tables, tol: Tolerances = Tolerances(),
                          normalize_cover: bool = False) -> AtlasReport:
    """Atlas checks over charts given as (params, coordinate columns,
    memberships) tables.  Rows are matched across charts by equal points,
    which number the samples in the order they are first listed; points of
    different dimensions never match.  A chart's membership is 0 at the
    samples it does not list."""
    atlas = Atlas([SampledChart(f"chart{j}", None, None, None) for j in range(len(tables))],
                  (), tol)
    ids, heads = _number_samples(tables)
    grades, coord_columns, start = np.zeros((len(tables), len(heads))), [], 0
    for row, (params, _, memberships) in zip(grades, tables):
        chart_ids, start = ids[start:start + len(params)], start + len(params)
        row[chart_ids] = memberships
        coords = np.zeros(len(heads))
        coords[chart_ids] = params
        coord_columns.append((coords, np.ones(len(heads), dtype=bool)))
    atlas._set(samples=_TabulatedSamples(tables, heads), grades=grades,
               _coord_columns=coord_columns)
    return check_atlas(atlas, normalize_cover=normalize_cover)


# ---------------------------------------------------------------------------
# Jacobian ranks and the invertible-matrix demo.

# Singular values below RANK_RTOL times the largest do not count toward a rank.
RANK_RTOL = 1e-6


def numeric_rank(fn: Callable, point) -> int:
    """Rank of the central finite-difference Jacobian, at step 1e-5, at an
    interior point."""
    point = np.asarray(point, dtype=float)
    cols = [_central(lambda s: np.asarray(fn(point + s * u), dtype=float).ravel(), 0.0, 1e-5)
            for u in np.eye(point.size)]
    jac = np.stack(cols, axis=1)
    svals = np.linalg.svd(jac, compute_uv=False)
    if svals.size == 0 or svals[0] == 0.0:
        return 0
    return int(np.sum(svals > RANK_RTOL * svals[0]))


class GLDemoReport(Record):
    def __init__(self, n: int, samples: int,
                 max_det_gradient_error,   # finite differences vs adjugate formula
                 max_mult_instability,     # step-halving residual for products
                 max_inv_instability,      # step-halving residual for inversion
                 max_orthogonality_error,  # O(n) closure under product/inverse
                 inclusion_rank,           # Jacobian rank of the natural inclusion
                 ok: bool):
        self._set(n=n, samples=samples, max_det_gradient_error=max_det_gradient_error,
                  max_mult_instability=max_mult_instability,
                  max_inv_instability=max_inv_instability,
                  max_orthogonality_error=max_orthogonality_error, inclusion_rank=inclusion_rank,
                  ok=ok)


def _random_invertible(uniform: Callable[[], np.ndarray]) -> np.ndarray:
    while True:
        a = uniform()
        if abs(np.linalg.det(a)) >= 0.1:
            return a


def gl_demo(n: int, sample_count: int = 50, seed: int = 0) -> GLDemoReport:
    """Numeric demo on invertible matrices: the determinant's finite-
    difference gradient against the adjugate formula, smoothness of
    multiplication and inversion, closure of orthogonal samples, and the
    Jacobian rank of the inclusion into the full matrix space."""
    if not 1 <= n <= 4:
        raise ValueError("demo is desk-scale: n must be between 1 and 4")
    if sample_count < 1:
        raise ValueError("sample count must be at least 1")
    from .pcg64 import uniform_draws
    draws = uniform_draws(seed)  # default_rng(seed)'s stream, without numpy.random

    def uniform():
        return np.fromiter(draws, float, n * n).reshape(n, n)

    h = 1e-5
    units = np.eye(n * n).reshape(n * n, n, n)  # the unit directions of the matrix space
    max_grad_err = 0.0
    max_mult = 0.0
    max_inv = 0.0
    max_orth = 0.0

    def halving_residual(f):
        return _relative_error(_central(f, 0.0, h), _central(f, 0.0, h / 2.0))

    for _ in range(sample_count):
        a = _random_invertible(uniform)
        # Gradient of det vs the adjugate (cofactor) formula.
        exact = np.linalg.det(a) * np.linalg.inv(a).T
        fd = _central(lambda s: np.linalg.det(a + s * units), 0.0, h).reshape(n, n)
        max_grad_err = max(max_grad_err, _relative_error(fd, exact))

        # Directional-derivative stability for multiplication and inversion.
        b = _random_invertible(uniform)
        e = uniform()
        max_mult = max(max_mult, halving_residual(lambda s: (a + s * e) @ b))
        max_inv = max(max_inv, halving_residual(lambda s: np.linalg.inv(a + s * e)))

        # Orthogonal samples: QR factor, then closure under product/inverse.
        q1, _ = np.linalg.qr(_random_invertible(uniform))
        q2, _ = np.linalg.qr(_random_invertible(uniform))
        eye = np.eye(n)
        for m in (q1, q2, q1 @ q2, q1.T):
            max_orth = max(max_orth, float(np.max(np.abs(m @ m.T - eye))))

    inclusion_rank = numeric_rank(lambda v: v, _random_invertible(uniform).ravel())
    ok = (
        max_grad_err < 1e-4
        and max_mult < 1e-6
        and max_inv < 1e-4
        and max_orth < 1e-9
        and inclusion_rank == n * n
    )
    return GLDemoReport(n, sample_count, max_grad_err, max_mult, max_inv,
                        max_orth, inclusion_rank, ok)

"""Sampled numeric charts and atlases: cover diagnostics, transition maps,
C1 smoothness checks, product atlases, Jacobian ranks, and the invertible-
matrix demo.

Unlike the exact modules, membership grades here are floats and every
verdict is tolerance-based.  All tolerances are named fields with defaults
on Tolerances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import permutations, product
from typing import Callable, Optional, Sequence

import numpy as np

H_REF = 1e-5  # the step at which eps_deriv holds as given; at step h it scales by (h/H_REF)^2


@dataclass(frozen=True)
class Tolerances:
    eps_inv: float = 1e-9        # coord o coord_inverse round-trip error
    eps_deriv: float = 1e-6      # finite-difference stability, relative, at h = H_REF
    h0: float = 1e-3             # initial central-difference step (two halvings follow)
    cover_eps: float = 0.0       # allowed cover deficiency
    lipschitz_cap: float = 1e3   # max |dD/ds| between adjacent derivative samples
    edge_margin_frac: float = 0.05  # fraction of a component span skipped at its edges
    seam_margin_factor: float = 8.0  # skip radius around declared seams, in units of h0


@dataclass(frozen=True)
class SampledChart:
    """Fuzzy chart realized numerically: membership and a coordinate
    bijection defined on the membership's support.  A tabulated chart has
    no inverse formula, so its coord_inverse is None."""

    label: str
    membership: Callable[[object], float]
    coord: Callable[[object], float]
    coord_inverse: Optional[Callable[[float], object]]


@dataclass(frozen=True)
class Atlas:
    charts: tuple
    samples: tuple           # shared manifold sample points
    tolerances: Tolerances = Tolerances()
    seam_points: tuple = ()  # manifold points where chart formulas break

    def __post_init__(self):
        object.__setattr__(self, "charts", tuple(self.charts))
        object.__setattr__(self, "samples", tuple(self.samples))
        object.__setattr__(self, "seam_points", tuple(self.seam_points))
        if not self.charts:
            raise ValueError("an atlas needs at least one chart")


@dataclass(frozen=True)
class CoverReport:
    ok: bool
    max_deficiency: float
    worst_point: object


def check_cover_condition(atlas: Atlas, normalize: bool = False) -> CoverReport:
    """Per sample, 1 - sup of chart memberships.  Never repairs an atlas:
    with normalize=True each positive sup is rescaled to 1 (the intended
    reading), otherwise the raw supremum is reported."""
    worst, worst_point = 0.0, None
    for p in atlas.samples:
        deficiency = cover_deficiency_at(atlas, p, normalize)
        if deficiency > worst:
            worst, worst_point = deficiency, p
    ok = worst <= atlas.tolerances.cover_eps
    return CoverReport(ok, worst, worst_point)


def cover_deficiency_at(atlas: Atlas, point, normalize: bool = False) -> float:
    sup = max(chart.membership(point) for chart in atlas.charts)
    if normalize and sup > 0.0:
        sup = 1.0
    return 1.0 - sup


class EmptyOverlapError(ValueError):
    pass


@dataclass(frozen=True)
class TransitionMap:
    """phi_l o phi_j^{-1}, tabulated over the sampled overlap and callable
    anywhere the chart formulas are defined."""

    source: SampledChart
    target: SampledChart
    coords: np.ndarray   # sorted source-chart coordinates of overlap samples
    values: np.ndarray   # target-chart coordinates at the same samples
    seams: tuple         # source-coordinate seam locations

    def __call__(self, s: float) -> float:
        return self.target.coord(self.source.coord_inverse(s))


def transition_map(atlas: Atlas, j: int, l: int) -> TransitionMap:
    """Transition from chart j to chart l, tabulated over the shared
    samples lying in both supports."""
    src, tgt = atlas.charts[j], atlas.charts[l]
    tol = atlas.tolerances
    pts = [p for p in atlas.samples if src.membership(p) > 0.0 and tgt.membership(p) > 0.0]
    if not pts:
        raise EmptyOverlapError(f"charts {src.label} and {tgt.label} do not overlap on the samples")
    coords = np.array([src.coord(p) for p in pts], dtype=float)
    values = np.array([tgt.coord(p) for p in pts], dtype=float)
    order = np.argsort(coords)
    coords, values = coords[order], values[order]
    # coord_inverse consistency on the sampled coordinates; a tabulated
    # chart has no inverse to check.
    if src.coord_inverse is not None:
        for s in coords[:: max(1, len(coords) // 32)]:
            if abs(src.coord(src.coord_inverse(float(s))) - s) > tol.eps_inv:
                raise ValueError(f"chart {src.label}: coord o coord_inverse deviates at {s}")
    seams = tuple(sorted({src.coord(p) for p in atlas.seam_points if src.membership(p) > 0.0}))
    return TransitionMap(src, tgt, coords, values, seams)


def _central(fn, x: float, h: float):
    """The one central difference, (fn(x + h) - fn(x - h)) / 2h, of every
    numeric derivative here.  Along a unit direction u, fn(s) = f(p + s * u)
    at x = 0.0 evaluates f at exactly p + h u and p - h u."""
    return (fn(x + h) - fn(x - h)) / (2.0 * h)


def _relative_error(approx, ref) -> float:
    """max|approx - ref| / max(1, max|ref|) over the entries."""
    return float(np.max(np.abs(approx - ref))) / max(1.0, float(np.max(np.abs(ref))))


@dataclass
class C1Report:
    ok: bool
    reason: str = ""
    witness: object = None
    max_stability_error: float = 0.0   # max relative |D_{h/2} - D_{h/4}|
    max_derivative_jump: float = 0.0   # max |dD/ds| between adjacent samples
    checked_points: int = 0


def _split_components(grid: np.ndarray, seams: Sequence[float]) -> list:
    """Slices of a sorted grid's connected pieces, split at declared seams
    and at gaps much larger than the local spacing.  Callers pass at least
    3 points; below that they report "grid too small" themselves."""
    diffs = np.diff(grid)
    median = float(np.median(diffs))
    cuts = [i + 1 for i, d in enumerate(diffs)
            if any(grid[i] <= seam <= grid[i + 1] for seam in seams)
            or (median > 0 and d > 10.0 * median)]
    bounds = [0, *cuts, len(grid)]
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
    seam_margin = tol.seam_margin_factor * tol.h0
    for piece in _split_components(grid, seams):
        comp = grid[piece]
        span = float(comp[-1] - comp[0])
        margin = max(seam_margin, tol.edge_margin_frac * span)
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
                return replace(
                    report,
                    ok=False,
                    reason="derivative not stable under step halving",
                    witness=float(s),
                )
            derivs.append(d4)
        i = _jump_scan(report, pts, derivs, tol.lipschitz_cap)
        if i is not None:
            return replace(
                report,
                ok=False,
                reason="derivative jumps between adjacent samples",
                witness=(pts[i], pts[i + 1]),
            )
        report.checked_points += len(pts)
    if report.checked_points == 0:
        return C1Report(False, "grid too small", witness=len(grid))
    return report


@dataclass
class PairCheck:
    source_label: str
    target_label: str
    report: C1Report


@dataclass
class AtlasReport:
    cover: CoverReport
    pairs: list
    transitions_ok: bool

    @property
    def ok(self) -> bool:
        return self.transitions_ok and self.cover.ok


def _check_pairs(atlas: Atlas, index_pairs) -> list:
    """The C1 check of each transition j -> l whose charts overlap on the
    samples: check_c1_tabulated over the overlap table when either chart is
    tabulated, so has no inverse formula, and check_c1_diffeo otherwise."""
    pairs = []
    for j, l in index_pairs:
        try:
            tr = transition_map(atlas, j, l)
        except EmptyOverlapError:
            continue
        if tr.source.coord_inverse is None or tr.target.coord_inverse is None:
            rep = check_c1_tabulated(tr.coords, tr.values, atlas.tolerances)
        else:
            rep = check_c1_diffeo(tr, tr.coords, atlas.tolerances, seams=tr.seams)
        pairs.append(PairCheck(tr.source.label, tr.target.label, rep))
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

def check_c1_tabulated(coords, values, tol: Tolerances = Tolerances()) -> C1Report:
    """Injectivity plus difference-quotient continuity for a transition
    known only through a table."""
    coords = np.asarray(coords, dtype=float)
    values = np.asarray(values, dtype=float)
    order = np.argsort(coords)
    coords, values = coords[order], values[order]
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
            return replace(
                report,
                ok=False,
                reason="difference quotient jumps between adjacent rows",
                witness=(float(comp[i]), float(comp[i + 1])),
            )
    if report.checked_points == 0:
        return C1Report(False, "grid too small", witness=len(coords))
    return report


def check_tabulated_atlas(tables, tol: Tolerances = Tolerances(),
                          normalize_cover: bool = False) -> AtlasReport:
    """Atlas checks over charts given as (params, points, memberships)
    tables.  Rows are matched across charts by identical point tuples."""
    charts, samples = [], {}
    for j, (params, points, memberships) in enumerate(tables):
        member = dict(zip(points, memberships))
        charts.append(SampledChart(f"chart{j}", lambda p, member=member: member.get(p, 0.0),
                                   dict(zip(points, params)).__getitem__, None))
        samples.update(dict.fromkeys(points))
    return check_atlas(Atlas(charts, samples, tol), normalize_cover=normalize_cover)


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


@dataclass
class GLDemoReport:
    n: int
    samples: int
    max_det_gradient_error: float      # finite differences vs adjugate formula
    max_mult_instability: float        # step-halving residual for products
    max_inv_instability: float         # step-halving residual for inversion
    max_orthogonality_error: float     # O(n) closure under product/inverse
    inclusion_rank: int                # Jacobian rank of the natural inclusion
    ok: bool


def _random_invertible(rng: np.random.Generator, n: int) -> np.ndarray:
    while True:
        a = rng.uniform(-1.0, 1.0, size=(n, n))
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
    rng = np.random.default_rng(seed)
    h = 1e-5
    max_grad_err = 0.0
    max_mult = 0.0
    max_inv = 0.0
    max_orth = 0.0

    def halving_residual(f):
        return _relative_error(_central(f, 0.0, h), _central(f, 0.0, h / 2.0))

    for _ in range(sample_count):
        a = _random_invertible(rng, n)
        # Gradient of det vs the adjugate (cofactor) formula.
        exact = np.linalg.det(a) * np.linalg.inv(a).T
        fd = np.array([_central(lambda s: np.linalg.det(a + s * u), 0.0, h)
                       for u in np.eye(n * n).reshape(n * n, n, n)]).reshape(n, n)
        max_grad_err = max(max_grad_err, _relative_error(fd, exact))

        # Directional-derivative stability for multiplication and inversion.
        b = _random_invertible(rng, n)
        e = rng.uniform(-1.0, 1.0, size=(n, n))
        max_mult = max(max_mult, halving_residual(lambda s: (a + s * e) @ b))
        max_inv = max(max_inv, halving_residual(lambda s: np.linalg.inv(a + s * e)))

        # Orthogonal samples: QR factor, then closure under product/inverse.
        q1, _ = np.linalg.qr(_random_invertible(rng, n))
        q2, _ = np.linalg.qr(_random_invertible(rng, n))
        eye = np.eye(n)
        for m in (q1, q2, q1 @ q2, q1.T):
            max_orth = max(max_orth, float(np.max(np.abs(m @ m.T - eye))))

    inclusion_rank = numeric_rank(lambda v: v, _random_invertible(rng, n).ravel())
    ok = (
        max_grad_err < 1e-4
        and max_mult < 1e-6
        and max_inv < 1e-4
        and max_orth < 1e-9
        and inclusion_rank == n * n
    )
    return GLDemoReport(n, sample_count, max_grad_err, max_mult, max_inv,
                        max_orth, inclusion_rank, ok)

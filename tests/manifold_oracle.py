"""Reference implementations of the tabulated-chart checks, of the cover
check, of transition maps, of the two-atlas check, of the circle demo and
of the product-atlas check.

These are the loop-based table transition check and the tabulated atlas
check with its own cover loop and overlap filter, as the library had them
before the cover and C1 scans were shared with the callable charts; the
cover loop and the transition map that call each chart's formulas point by
point, as the library had them before an atlas held its memberships and
coordinates as arrays; and the `demo-circle` handler that checked each
atlas on its own and then both together, so that every transition within
an atlas ran twice; and the chart-table parser that kept each point as a
tuple, refused a repeat through a per-file dict of first lines and shared
one tuple per point across an atlas's charts, as the library had it before
it kept the coordinates as columns and matched them by sorting.  The
differential tests in `test_manifold_oracle.py` require the library to
agree with them on every report field, and the CLI on every machine line.
The table checks divide by zero on a table whose params repeat, so the
tests draw distinct params only.  The two-atlas check is the one
`check_atlas` with an optional second atlas, which listed the pairs within
each atlas and then across them, where the library checks one atlas with
`check_atlas` and two with `check_compatible`.  The product-atlas check
builds every product chart and scans the whole product grid with the
cover loop, where the library reads the product cover off the two
factor covers.
"""

from __future__ import annotations

import math
from array import array
from itertools import permutations, product
from typing import Optional

import numpy as np

import helpers
from fuzzcheck import manifold
from fuzzcheck.cli import _tolerances
from fuzzcheck.errors import ParseError
from fuzzcheck.manifold import (
    Atlas, AtlasReport, C1Report, CoverReport, EmptyOverlapError, PairCheck, SampledChart,
    Tolerances, TransitionMap,
)
from fuzzcheck.parsers import _lines, _parse
from fuzzcheck.report import Report


def load_chart_table(path, shared=None):
    """(params, points, memberships) of a chart table, the points as tuples;
    the charts of one atlas pass one `shared` dict, which keeps the first
    tuple read for each point."""
    params, points, memberships = array("d"), [], array("d")
    first = {}  # point -> the line that lists it in this file
    width = None
    for no, line in _lines(path):
        parts = line.split()
        if len(parts) < 3:
            raise ParseError(path, no, "expected 'param coords... membership'")
        if width is None:
            width = len(parts)
        elif len(parts) != width:
            raise ParseError(path, no, f"expected {width} columns")
        row = _parse(path, no, list, map(float, parts), message="bad numeric value")
        if not all(map(math.isfinite, row[:-1])):
            raise ParseError(path, no, "param and coordinates must be finite")
        if not 0.0 <= row[-1] <= 1.0:
            raise ParseError(path, no, "membership outside [0,1]")
        point = tuple(row[1:-1])
        if point in first:
            raise ParseError(path, no, f"point {' '.join(parts[1:-1])} already listed on line "
                                       f"{first[point]}")
        if shared is not None:
            point = shared.setdefault(point, point)
        first[point] = no
        params.append(row[0])
        points.append(point)
        memberships.append(row[-1])
    if not params:
        raise ParseError(path, 1, "empty chart table")
    return params, points, memberships


def _split_components(grid, seams):
    if len(grid) == 0:
        return []
    pieces, start = [], 0
    diffs = np.diff(grid)
    median = float(np.median(diffs)) if len(diffs) else 0.0
    for i, d in enumerate(diffs):
        crosses = any(grid[i] <= seam <= grid[i + 1] for seam in seams)
        if crosses or (median > 0 and d > 10.0 * median):
            pieces.append(grid[start:i + 1])
            start = i + 1
    pieces.append(grid[start:])
    return [p for p in pieces if len(p) > 0]


def check_c1_tabulated(coords, values, tol: Tolerances = Tolerances()) -> C1Report:
    coords = np.asarray(coords, dtype=float)
    values = np.asarray(values, dtype=float)
    order = np.argsort(coords)
    coords, values = coords[order], values[order]
    if len(coords) < 3:
        return C1Report(False, "grid too small", witness=len(coords))
    v_sorted = np.sort(values)
    if np.any(np.diff(v_sorted) <= 1e-12):
        i = int(np.where(np.diff(v_sorted) <= 1e-12)[0][0])
        return C1Report(False, "not injective on the table", witness=float(v_sorted[i]))
    report = C1Report(True)
    for comp in _split_components(coords, ()):
        if len(comp) < 3:
            continue
        idx = np.searchsorted(coords, comp)
        d = np.diff(values[idx]) / np.diff(coords[idx])
        report.checked_points += len(comp)
        for i in range(len(d) - 1):
            ds = coords[idx[i + 1]] - coords[idx[i]]
            jump = abs(d[i + 1] - d[i]) / ds if ds > 0 else 0.0
            report.max_derivative_jump = max(report.max_derivative_jump, jump)
            if jump > tol.lipschitz_cap:
                return C1Report(False, "difference quotient jumps between adjacent rows",
                                (float(coords[idx[i]]), float(coords[idx[i + 1]])),
                                report.max_stability_error, report.max_derivative_jump,
                                report.checked_points)
    if report.checked_points == 0:
        return C1Report(False, "grid too small", witness=len(coords))
    return report


def check_tabulated_atlas(tables, tol: Tolerances = Tolerances(),
                          normalize_cover: bool = False) -> AtlasReport:
    charts = []
    sample_order = []
    seen = set()
    for params, points, memberships in tables:
        coord = dict(zip(points, params))
        member = dict(zip(points, memberships))
        charts.append((coord, member))
        for p in points:
            if p not in seen:
                seen.add(p)
                sample_order.append(p)
    worst, worst_point = 0.0, None
    for p in sample_order:
        sup = max(member.get(p, 0.0) for _, member in charts)
        if normalize_cover and sup > 0.0:
            sup = 1.0
        if 1.0 - sup > worst:
            worst, worst_point = 1.0 - sup, p
    cover = CoverReport(worst <= tol.cover_eps, worst, worst_point)
    pairs = []
    ok = True
    for j, (coord_j, member_j) in enumerate(charts):
        for l, (coord_l, member_l) in enumerate(charts):
            if j == l:
                continue
            shared = [p for p in sample_order
                      if member_j.get(p, 0.0) > 0.0 and member_l.get(p, 0.0) > 0.0]
            if not shared:
                continue
            rep = check_c1_tabulated(
                [coord_j[p] for p in shared], [coord_l[p] for p in shared], tol
            )
            pairs.append(PairCheck(f"chart{j}", f"chart{l}", rep))
            ok = ok and rep.ok
    return AtlasReport(cover, pairs, ok)


def check_cover_condition(atlas: Atlas, normalize: bool = False) -> CoverReport:
    worst, worst_point = 0.0, None
    for p in atlas.samples:
        deficiency = manifold.cover_deficiency_at(atlas, p, normalize)
        if deficiency > worst:
            worst, worst_point = deficiency, p
    return CoverReport(worst <= atlas.tolerances.cover_eps, worst, worst_point)


def transition_map(atlas: Atlas, j: int, l: int, atlas2: Optional[Atlas] = None) -> TransitionMap:
    """Transition from chart j to chart l (of atlas2 when given), tabulated
    over the shared samples lying in both supports."""
    src = atlas.charts[j]
    other = atlas2 if atlas2 is not None else atlas
    tgt = other.charts[l]
    tol = atlas.tolerances
    pts = [p for p in atlas.samples if src.membership(p) > 0.0 and tgt.membership(p) > 0.0]
    if not pts:
        raise EmptyOverlapError(f"charts {src.label} and {tgt.label} do not overlap on the samples")
    coords = np.array([src.coord(p) for p in pts], dtype=float)
    values = np.array([tgt.coord(p) for p in pts], dtype=float)
    order = np.argsort(coords)
    coords, values = coords[order], values[order]
    if src.coord_inverse is not None:
        for s in coords[:: max(1, len(coords) // 32)]:
            if abs(src.coord(src.coord_inverse(float(s))) - s) > tol.eps_inv:
                raise ValueError(f"chart {src.label}: coord o coord_inverse deviates at {s}")
    seam_pts = atlas.seam_points + (atlas2.seam_points if atlas2 is not None else ())
    seams = tuple(sorted({src.coord(p) for p in seam_pts if src.membership(p) > 0.0}))
    return TransitionMap(src, tgt, coords, values, seams)


def _factor_pairs(atlas: Atlas, atlas2: Optional[Atlas]) -> list:
    """(source atlas, j, l, target atlas or None) for every ordered pair of
    distinct charts within each atlas, then, with a second atlas, every pair
    across the two in both directions.  None means the target chart l is in
    the source atlas."""
    atlases = (atlas,) if atlas2 is None else (atlas, atlas2)
    out = [(a, j, l, None) for a in atlases
           for j, l in permutations(range(len(a.charts)), 2)]
    if atlas2 is not None:
        out += [(a, j, l, b) for a, b in ((atlas, atlas2), (atlas2, atlas))
                for j, l in product(range(len(a.charts)), range(len(b.charts)))]
    return out


def check_atlas(atlas: Atlas, atlas2: Optional[Atlas] = None,
                normalize_cover: bool = False) -> AtlasReport:
    """Cover diagnostics of the first atlas plus every pairwise (and, with a
    second atlas, cross) transition C1 check."""
    if atlas2 is not None and atlas.samples != atlas2.samples:
        raise ValueError("compatibility checks require a shared sample list")
    cover = check_cover_condition(atlas, normalize=normalize_cover)
    pairs = []
    for src_atlas, j, l, cross in _factor_pairs(atlas, atlas2):
        try:
            tr = transition_map(src_atlas, j, l, atlas2=cross)
        except EmptyOverlapError:
            continue
        tol = src_atlas.tolerances
        if tr.source.coord_inverse is None or tr.target.coord_inverse is None:
            rep = helpers.check_c1_tabulated(tr.coords, tr.values, tol)
        else:
            rep = manifold.check_c1_diffeo(tr, tr.coords, tol, seams=tr.seams)
        pairs.append(PairCheck(tr.source.label, tr.target.label, rep))
    return AtlasReport(cover, pairs, all(pc.report.ok for pc in pairs))


def check_product_atlas(a: Atlas, b: Atlas, normalize_cover: bool = False) -> AtlasReport:
    """The cover of the atlas of product charts, with membership
    min(m(p), n(q)), over the samples (p, q), p outer; the transitions
    checked on each factor."""
    charts = [SampledChart(f"{ca.label}*{cb.label}",
                           lambda pq, ca=ca, cb=cb: min(ca.membership(pq[0]), cb.membership(pq[1])),
                           None, None)
              for ca in a.charts for cb in b.charts]
    grid = Atlas(charts, [(p, q) for p in a.samples for q in b.samples], a.tolerances)
    cover = check_cover_condition(grid, normalize=normalize_cover)
    first, second = manifold.check_atlas(a), manifold.check_atlas(b)
    return AtlasReport(cover, first.pairs + second.pairs,
                       first.transitions_ok and second.transitions_ok)


def cmd_demo_circle(args) -> Report:
    tol = _tolerances(args)
    n = args.samples_per_chart
    phi = manifold.circle_phi_atlas(n, tol)
    psi = manifold.circle_psi_atlas(n, tol)
    phi_rep = check_atlas(phi, normalize_cover=args.normalize_cover)
    psi_rep = check_atlas(psi, normalize_cover=args.normalize_cover)
    cross = check_atlas(phi, psi, normalize_cover=args.normalize_cover)
    tr_phi = transition_map(phi, 0, 1)
    tr_psi = transition_map(psi, 0, 1)
    max_stab = max(
        [pc.report.max_stability_error for rep_ in (phi_rep, psi_rep, cross)
         for pc in rep_.pairs],
        default=0.0,
    )
    ok = (phi_rep.transitions_ok and psi_rep.transitions_ok and cross.transitions_ok
          and phi_rep.cover.ok and psi_rep.cover.ok)
    rep = Report(
        "demo-circle",
        "pass" if ok else "fail",
        "circle-atlas-fixture",
        metrics={
            "phi_cover_deficiency": phi_rep.cover.max_deficiency,
            "phi_cover_worst_point": phi_rep.cover.worst_point,
            "psi_cover_deficiency": psi_rep.cover.max_deficiency,
            "phi_transitions_ok": phi_rep.transitions_ok,
            "psi_transitions_ok": psi_rep.transitions_ok,
            "cross_transitions_ok": cross.transitions_ok,
            "phi21_at_0.25": tr_phi(0.25),
            "phi21_at_0.75": tr_phi(0.75),
            "psi21_at_0.6": tr_psi(0.6),
            "max_stability_error": max_stab,
            "samples_per_chart": n,
        },
    )
    if not ok:
        if not (phi_rep.cover.ok and psi_rep.cover.ok):
            rep.witness["reason"] = "cover supremum below 1 as the memberships are written"
            rep.witness["at"] = (phi_rep if not phi_rep.cover.ok else psi_rep).cover.worst_point
        else:
            bad = next(pc for rep_ in (phi_rep, psi_rep, cross)
                       for pc in rep_.pairs if not pc.report.ok)
            rep.witness["reason"] = f"{bad.source_label}->{bad.target_label}: {bad.report.reason}"
    return rep

"""Reference implementations of the tabulated-chart checks.

These are the loop-based table transition check and the tabulated atlas
check with its own cover loop and overlap filter, as the library had them
before the cover and C1 scans were shared with the callable charts.  The
differential tests in `test_manifold_oracle.py` require the library to
agree with them on every report field.  They divide by zero on a table
whose params repeat, so the tests draw distinct params only.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from fuzzcheck.manifold import AtlasReport, C1Report, CoverReport, PairCheck, Tolerances


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
                return replace(
                    report,
                    ok=False,
                    reason="difference quotient jumps between adjacent rows",
                    witness=(float(coords[idx[i]]), float(coords[idx[i + 1]])),
                )
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
    cover = CoverReport(worst <= tol.cover_eps, worst, worst_point, normalize_cover)
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

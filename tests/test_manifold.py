import math

import numpy as np
import pytest

from fuzzcheck.manifold import (
    Atlas,
    CoverReport,
    SampledChart,
    Tolerances,
    check_atlas,
    check_c1_diffeo,
    check_c1_tabulated,
    check_compatible,
    check_cover_condition,
    check_product_atlas,
    check_tabulated_atlas,
    circle_phi_atlas,
    circle_psi_atlas,
    cover_deficiency_at,
    gl_demo,
    numeric_rank,
    transition_map,
)


class TestCoverCondition:
    def test_phi_atlas_raw_deficiency_is_half(self):
        atlas = circle_phi_atlas(256)
        rep = check_cover_condition(atlas)
        assert not rep.ok
        assert rep.max_deficiency == pytest.approx(0.5, abs=1e-12)
        assert rep.worst_point == 0.0  # only the half-grade chart covers t=0

    def test_psi_atlas_raw_deficiency_is_three_quarters(self):
        rep = check_cover_condition(circle_psi_atlas(256))
        assert not rep.ok
        assert rep.max_deficiency == pytest.approx(0.75, abs=1e-12)

    def test_normalized_cover_passes(self):
        for atlas in (circle_phi_atlas(256), circle_psi_atlas(256)):
            rep = check_cover_condition(atlas, normalize=True)
            assert rep.ok and rep.max_deficiency == 0.0

    def test_pointwise_deficiency(self):
        atlas = circle_phi_atlas(256)
        assert cover_deficiency_at(atlas, 0.25) == pytest.approx(0.0)
        assert cover_deficiency_at(atlas, 0.0) == pytest.approx(0.5)
        assert cover_deficiency_at(atlas, 0.0, normalize=True) == 0.0


class TestTransitionMaps:
    def test_phi_transition_values(self):
        atlas = circle_phi_atlas(256)
        tr = transition_map(atlas, 0, 1)  # phi2 o phi1^{-1}
        assert tr(0.25) == pytest.approx(0.25, abs=1e-12)
        assert tr(0.75) == pytest.approx(-0.25, abs=1e-12)

    def test_phi_transition_seams(self):
        atlas = circle_phi_atlas(256)
        tr = transition_map(atlas, 0, 1)
        # t=0 is outside phi1's support; only the t=1/2 seam lands in chart 1
        assert tr.seams == (0.5,)

    def test_psi_quarter_overlap(self):
        atlas = circle_psi_atlas(256)
        tr = transition_map(atlas, 0, 1)  # x>0 chart (coord y) to y>0 chart (coord x)
        assert tr(0.6) == pytest.approx(0.8, abs=1e-12)  # x = sqrt(1 - y^2)

    def test_cross_atlas_transition(self):
        phi, psi = circle_phi_atlas(256), circle_psi_atlas(256)
        joined = Atlas(phi.charts + psi.charts, phi.samples)
        tr = transition_map(joined, 0, 2)  # angle t to y = cos(2 pi t)
        assert tr(0.125) == pytest.approx(math.cos(math.pi / 4), abs=1e-12)

    def test_disjoint_charts_raise(self):
        atlas = circle_psi_atlas(256)
        from fuzzcheck.manifold import EmptyOverlapError
        with pytest.raises(EmptyOverlapError):
            transition_map(atlas, 0, 2)  # x>0 and x<0 never overlap

    def test_tabulated_and_callable_agree(self):
        atlas = circle_phi_atlas(256)
        tr = transition_map(atlas, 0, 1)
        for s, v in zip(tr.coords[::37], tr.values[::37]):
            assert tr(float(s)) == pytest.approx(float(v), abs=1e-12)


class TestC1Check:
    GRID = np.linspace(-1.0, 1.0, 201)

    def test_smooth_bijection_passes(self):
        rep = check_c1_diffeo(lambda s: s + 0.1 * math.sin(s), self.GRID)
        assert rep.ok
        assert rep.max_stability_error < 1e-4
        assert rep.checked_points > 100

    def test_non_injective_detected(self):
        rep = check_c1_diffeo(lambda s: s * s, self.GRID)
        assert not rep.ok and rep.reason == "not injective on the grid"
        a, b = rep.witness
        assert a * a == pytest.approx(b * b, abs=1e-9)

    @staticmethod
    def kink(s):
        # monotone, slope 1 on the left and 100 on the right of 0
        return s if s < 0.0 else 100.0 * s

    def test_kink_detected(self):
        rep = check_c1_diffeo(self.kink, self.GRID)
        assert not rep.ok
        assert rep.reason == "derivative jumps between adjacent samples"
        a, b = rep.witness
        assert a <= 0.0 <= b

    def test_seam_skipped(self):
        # same kink, but declared as a seam: the break is exempt
        rep = check_c1_diffeo(self.kink, self.GRID, seams=(0.0,))
        assert rep.ok

    def test_tiny_grid_rejected(self):
        rep = check_c1_diffeo(lambda s: s, [0.0, 1.0])
        assert not rep.ok and rep.reason == "grid too small"


class TestAtlasChecks:
    def test_phi_atlas_transitions_pass(self):
        rep = check_atlas(circle_phi_atlas(512))
        assert rep.transitions_ok
        assert len(rep.pairs) == 2
        assert all(p.report.max_stability_error < 1e-4 for p in rep.pairs)

    def test_psi_atlas_transitions_pass(self):
        rep = check_atlas(circle_psi_atlas(512))
        assert rep.transitions_ok
        # 4 charts, adjacent quarter overlaps in both directions
        assert len(rep.pairs) == 8

    def test_cross_atlas_compatible(self):
        phi, psi = circle_phi_atlas(512), circle_psi_atlas(512)
        assert check_atlas(phi, normalize_cover=True).ok
        assert check_atlas(psi).transitions_ok
        cross = check_compatible(phi, psi)
        assert len(cross) == 2 * 2 * 4  # every phi chart meets every psi chart, both ways
        assert all(pc.report.ok for pc in cross)

    def test_shared_samples_required(self):
        with pytest.raises(ValueError, match="shared sample list"):
            check_compatible(circle_phi_atlas(512), circle_psi_atlas(256))

    def test_atlas_needs_a_chart(self):
        with pytest.raises(ValueError, match="an atlas needs at least one chart"):
            check_atlas(Atlas((), (0.0,)))
        with pytest.raises(ValueError, match="an atlas needs at least one chart"):
            check_tabulated_atlas([])

    @staticmethod
    def line_atlas(coord, coord_inverse):
        """Charts a (coord t) and b (the given coord) on 401 samples of
        [-1, 1], both with membership 1: a -> b is coord, b -> a its inverse."""
        samples = tuple(np.linspace(-1.0, 1.0, 401))
        return Atlas((SampledChart("a", lambda t: 1.0, lambda t: t, lambda s: s),
                      SampledChart("b", lambda t: 1.0, coord, coord_inverse)), samples)

    def test_inverse_checked_as_reverse_pair(self):
        rep = check_atlas(self.line_atlas(math.exp, math.log))
        assert rep.transitions_ok
        assert [(p.source_label, p.target_label) for p in rep.pairs] == [("a", "b"), ("b", "a")]

    def test_unstable_inverse_detected_as_reverse_pair(self):
        # cube is a smooth bijection, but its inverse has a vertical tangent at 0
        cbrt = lambda s: math.copysign(abs(s) ** (1.0 / 3.0), s)
        forward, backward = check_atlas(self.line_atlas(lambda t: t ** 3, cbrt)).pairs
        assert (forward.source_label, forward.target_label, forward.report.ok) == ("a", "b", True)
        assert (backward.source_label, backward.target_label) == ("b", "a")
        assert not backward.report.ok
        assert backward.report.reason == "derivative not stable under step halving"
        assert backward.report.witness == pytest.approx(-0.0017, abs=1e-4)


class TestProductAtlas:
    def test_torus_from_two_circles(self):
        a, b = circle_phi_atlas(64), circle_phi_atlas(64)
        rep = check_product_atlas(a, b)
        assert rep.transitions_ok
        assert rep.cover.max_deficiency == pytest.approx(0.5, abs=1e-12)
        assert check_product_atlas(a, b, normalize_cover=True).cover.ok

    @staticmethod
    def factor(memberships):
        """One chart, coordinate p, over the samples 0, 1, ... with the given
        memberships."""
        samples = tuple(range(len(memberships)))
        return Atlas((SampledChart("c", dict(zip(samples, memberships)).get, float, None),),
                     samples)

    # Deficiency 1 - m per factor sample; the product's is the larger of two.
    @pytest.mark.parametrize("first, second, worst, point", [
        ([0.5, 1.0, 0.5], [1.0, 0.5], 0.5, (0, 0)),  # both attain at a's first sample
        ([1.0, 0.5], [1.0, 0.5], 0.5, (0, 1)),       # a's first sample does not attain
        ([1.0, 0.25], [0.5, 1.0], 0.75, (1, 0)),     # only a attains
        ([1.0, 1.0], [1.0], 0.0, None),              # covered
        ([], [0.0], 0.0, None),                      # empty first factor
        ([0.0], [], 0.0, None),                      # empty second factor
    ])
    def test_first_worst_point_from_the_factors(self, first, second, worst, point):
        cover = check_product_atlas(self.factor(first), self.factor(second)).cover
        assert cover == CoverReport(worst == 0.0, worst, point)


class TestTabulatedCharts:
    @staticmethod
    def line_tables(n=50, corrupt=False):
        points = tuple(f"p{i}" for i in range(n))
        params1 = tuple(i / n for i in range(n))
        values = [2.0 * i / n + 0.25 for i in range(n)]
        if corrupt:
            values[n // 2] += 0.5
        mem = tuple(1.0 for _ in range(n))
        return [(params1, points, mem), (tuple(values), points, mem)]

    def test_linear_tables_pass(self):
        rep = check_tabulated_atlas(self.line_tables())
        assert rep.ok and rep.cover.max_deficiency == 0.0

    def test_corrupted_row_detected(self):
        rep = check_tabulated_atlas(self.line_tables(corrupt=True))
        assert not rep.transitions_ok
        bad = [p for p in rep.pairs if not p.report.ok]
        assert bad and "jumps" in bad[0].report.reason

    def test_direct_table_check(self):
        xs = np.linspace(0.0, 1.0, 40)
        rep = check_c1_tabulated(xs, 3.0 * xs - 1.0)
        assert rep.ok
        rep2 = check_c1_tabulated(xs, np.abs(xs - 0.5) * 100.0)
        assert not rep2.ok

    def test_repeated_param_is_not_injective(self):
        # Two rows share param 0.1, so the chart itself is not injective;
        # a difference quotient over them would be 0/0.
        rep = check_c1_tabulated([0.1, 0.1, 0.3, 0.4], [1.0, 2.0, 3.0, 4.0])
        assert not rep.ok and rep.reason == "not injective on the table"
        assert rep.witness == 0.1

    def test_table_split_into_short_pieces_is_too_small(self):
        # Gaps far wider than the spacing cut the rows into pairs, and a
        # pair has one difference quotient, with none to compare it to.
        xs = [0.0, 1.0, 100.0, 101.0, 10000.0, 10001.0]
        rep = check_c1_tabulated(xs, xs)
        assert (rep.ok, rep.reason, rep.witness) == (False, "grid too small", 6)


class TestNumericRank:
    def test_identity_full_rank(self):
        assert numeric_rank(lambda v: v, np.zeros(4)) == 4

    def test_collapsed_map_rank_one(self):
        fn = lambda v: np.array([v[0] + v[1], 2.0 * (v[0] + v[1])])
        assert numeric_rank(fn, np.array([0.3, -0.2])) == 1

    def test_zero_jacobian_rank_zero(self):
        assert numeric_rank(lambda v: np.zeros(2), np.array([0.3, -0.2, 0.1])) == 0


class TestGLDemo:
    def test_scalar_case_exact(self):
        rep = gl_demo(1, sample_count=5, seed=3)
        assert rep.ok and rep.inclusion_rank == 1

    def test_two_by_two(self):
        rep = gl_demo(2, sample_count=10, seed=1)
        assert rep.ok
        assert rep.max_det_gradient_error < 1e-4
        assert rep.inclusion_rank == 4
        assert rep.max_orthogonality_error < 1e-9

    def test_size_guard(self):
        with pytest.raises(ValueError):
            gl_demo(5)

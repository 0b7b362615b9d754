import time
import warnings

import numpy as np
import pytest
from scipy.ndimage import binary_erosion
from scipy.spatial import cKDTree
from scipy.stats import spearmanr

from mmfsk import (
    CandidateGrid,
    chamfer_one_way,
    depth_prior,
    evaluate_image,
    make_scene,
    projective_error,
    surface_depth,
)
from mmfsk.errors import InsufficientDataError, StructuralError
from mmfsk.metrics import EvalReport, _nearest_sq, erode_mask, report_table, spearman_rho
from mmfsk.reconstruct import RadarImage


def brute_force_chamfer(src, dst):
    d = np.linalg.norm(src[:, None, :] - dst[None, :, :], axis=-1)
    return float(d.min(axis=1).mean())


def lattice(n, pitch=0.001, z=0.3, shift=(0.0, 0.0)):
    g = (np.arange(n) - n / 2) * pitch
    x, y = np.meshgrid(g + shift[0], g + shift[1])
    return np.column_stack([x.ravel(), y.ravel(), np.full(x.size, z)])


def chamfer_cases():
    """Name -> (src, dst) clouds that stress the strip search: non-uniform
    density, a dense cluster, holes, far queries, zero-area footprints and
    large offsets."""
    rng = np.random.default_rng(11)
    a = lattice(60)
    b = lattice(60, shift=(0.0003, 0.0004))
    b[:, 2] += rng.normal(0.0, 1e-4, b.shape[0])
    holed = b[np.hypot(b[:, 0], b[:, 1]) > 0.015]  # a 30 mm hole
    blob = rng.normal(0.0, 0.01, (300, 3)) + [5.0, -3.0, 2.0]
    t = rng.uniform(0.0, 1.0, 1500)
    cube = rng.uniform(0.0, 1.0, (1500, 3))
    cases = {
        "random-3d": (rng.normal(size=(2000, 3)), rng.normal(size=(1500, 3))),
        "hole-in-destination": (a, holed),
        "hole-in-source": (holed, a),
        "far-blob-in-source": (np.vstack([a, blob]), b),
        "far-blob-in-destination": (b, np.vstack([a, blob])),
        "one-destination-point": (rng.normal(size=(500, 3)), np.array([[0.1, 0.2, 0.3]])),
        "one-source-point": (np.array([[0.1, 0.2, 0.3]]), rng.normal(size=(500, 3))),
        "duplicates": (np.repeat(b[::7], 2, axis=0), np.repeat(rng.normal(size=(200, 3)), 5, axis=0)),
        "all-identical-destination": (cube[:300], np.tile([[0.5, 0.5, 0.5]], (300, 1))),
        "lateral-line": (cube, np.column_stack([t, np.zeros_like(t), rng.uniform(0.0, 1.0, t.size)])),
        "diagonal-lateral-line": (cube, np.column_stack([t, t, np.zeros_like(t)])),
        "lateral-point": (cube, np.column_stack([np.zeros_like(t), np.zeros_like(t), t])),
        "depth-outliers-in-destination": (b, np.vstack([a[5:], a[:5] + [0.0, 0.0, 0.7]])),
        "offset-1e3": (a + 1e3, b + 1e3),
        "offset-1e3-far-apart": (a - 1e3, b + [-1e3, 1e3, 0.0]),
    }
    # 9,900 points of 0.1 mm spread and 100 over 2 m: the strips near the
    # cluster are a few um wide
    cluster = np.vstack([rng.normal(0.0, 1e-4, (9900, 3)) + [0.3, 0.2, 0.5], rng.uniform(-1.0, 1.0, (100, 3))])
    cases["cluster-in-destination"] = (np.vstack([rng.normal(0.0, 3e-4, (100, 3)) + [0.3, 0.2, 0.5], cube[:400]]),
                                       cluster)
    return cases


CHAMFER_CASES = chamfer_cases()


class TestChamfer:
    def test_identical_clouds(self):
        pts = np.random.default_rng(0).normal(size=(50, 3))
        assert chamfer_one_way(pts, pts) == 0.0

    def test_nearest_of_two(self):
        src = np.array([[0.0, 0.0, 0.0]])
        dst = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 3.0]])
        assert chamfer_one_way(src, dst) == pytest.approx(1.0)

    @pytest.mark.parametrize("n,m", [(10, 10), (333, 217), (2000, 1500)])
    def test_matches_brute_force(self, n, m):
        rng = np.random.default_rng(n + m)
        src = rng.normal(size=(n, 3))
        dst = rng.normal(size=(m, 3))
        got = chamfer_one_way(src, dst)
        assert abs(got - brute_force_chamfer(src, dst)) < 1e-12

    def test_superset_destination_never_hurts(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(40, 3))
        b = rng.normal(size=(60, 3))
        c = rng.normal(size=(10, 3))
        assert chamfer_one_way(a, np.vstack([b, c])) <= chamfer_one_way(a, b) + 1e-15
        assert chamfer_one_way(a, np.vstack([a, b])) == 0.0

    def test_asymmetry_is_visible(self):
        # dst covering extra area inflates only the dst-to-src direction
        src = np.column_stack([np.linspace(0, 1, 20), np.zeros(20), np.zeros(20)])
        dst = np.vstack([src, [[5.0, 0.0, 0.0]]])
        assert chamfer_one_way(src, dst) == 0.0
        assert chamfer_one_way(dst, src) > 0.1

    def test_empty_cloud_rejected(self):
        with pytest.raises(InsufficientDataError):
            chamfer_one_way(np.zeros((0, 3)), np.zeros((1, 3)))

    @pytest.mark.parametrize("name", list(CHAMFER_CASES))
    def test_matches_kdtree_bit_for_bit(self, name):
        src, dst = CHAMFER_CASES[name]
        want = cKDTree(dst).query(src, k=1)[0]
        got = np.sqrt(_nearest_sq(src, dst))
        assert got.tobytes() == want.tobytes()
        assert chamfer_one_way(src, dst) == float(want.mean())

    @pytest.mark.parametrize("name", ["random-3d", "hole-in-destination", "all-identical-destination",
                                      "cluster-in-destination"])
    def test_chunk_size_does_not_change_distances(self, monkeypatch, name):
        # 7 pairs per pass: a strip's range longer than that is a pass of
        # its own, and queries span passes
        src, dst = CHAMFER_CASES[name]
        want = _nearest_sq(src, dst)
        monkeypatch.setattr(depth_prior, "_PAIR_CHUNK", 7)
        assert _nearest_sq(src, dst).tobytes() == want.tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("cloud", ["source", "destination"])
    def test_non_finite_coordinates_rejected(self, cloud, bad):
        pts = np.random.default_rng(2).normal(size=(20, 3))
        broken = pts.copy()
        broken[7, 1] = bad
        args = (broken, pts) if cloud == "source" else (pts, broken)
        with pytest.raises(StructuralError, match=f"{cloud} cloud has non-finite coordinates"):
            chamfer_one_way(*args)


class TestProjectiveError:
    def test_equal_maps(self):
        d = np.full((8, 8), 0.3)
        assert projective_error(d, d) == 0.0
        assert projective_error(d, d, erode=1) == 0.0

    def test_constant_offset(self):
        d = np.full((8, 8), 0.3)
        assert projective_error(d + 0.002, d) == pytest.approx(0.002)

    def test_erosion_trims_silhouette_spike(self):
        gt = np.full((12, 12), 0.3)
        recon = gt.copy()
        mask = np.zeros((12, 12), dtype=bool)
        mask[2:10, 2:10] = True
        ring = mask & ~erode_mask(mask, 1)
        recon[ring] += 0.05  # silhouette artifact on the boundary ring
        plain = projective_error(np.where(mask, recon, np.nan), np.where(mask, gt, np.nan))
        eroded = projective_error(np.where(mask, recon, np.nan), np.where(mask, gt, np.nan), erode=1)
        assert eroded < plain
        assert eroded == 0.0

    def test_zero_erosion_equals_plain_mean(self):
        rng = np.random.default_rng(1)
        a = rng.uniform(0.2, 0.4, (16, 16))
        b = rng.uniform(0.2, 0.4, (16, 16))
        assert projective_error(a, b, erode=0) == pytest.approx(np.abs(a - b).mean())

    def test_empty_mask_rejected(self):
        a = np.full((4, 4), np.nan)
        with pytest.raises(InsufficientDataError):
            projective_error(a, a)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(StructuralError):
            projective_error(np.zeros((4, 4)), np.zeros((5, 4)))

    def test_mask_dependence_removed_by_count_normalization(self):
        # Same object error, different amounts of invalid frame: identical P.
        small = np.full((6, 6), np.nan)
        small[2:4, 2:4] = 0.302
        big = np.full((20, 20), np.nan)
        big[9:11, 9:11] = 0.302
        gt_small = np.where(np.isfinite(small), 0.3, np.nan)
        gt_big = np.where(np.isfinite(big), 0.3, np.nan)
        assert projective_error(small, gt_small) == pytest.approx(projective_error(big, gt_big))


class TestErodeMask:
    def test_four_neighborhood(self):
        mask = np.zeros((5, 5), dtype=bool)
        mask[1:4, 1:4] = True
        out = erode_mask(mask, 1)
        assert out.sum() == 1 and out[2, 2]

    @pytest.mark.parametrize("shape", [(13, 17), (2, 9), (1, 6), (6, 1)])
    @pytest.mark.parametrize("iterations", [1, 2, 3, 10])
    def test_matches_scipy_binary_erosion(self, shape, iterations):
        cross = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=bool)
        rng = np.random.default_rng(shape[0] * 100 + shape[1] * 10 + iterations)
        for density in (0.6, 0.85, 1.0):  # masks that touch the border, a full one included
            mask = rng.random(shape) < density
            want = binary_erosion(mask, structure=cross, iterations=iterations, border_value=0)
            assert np.array_equal(erode_mask(mask, iterations), want)

    def test_huge_iteration_count_stops_once_empty(self):
        # Without the fixed-point stop, 10**9 steps would run for hours.
        t0 = time.perf_counter()
        out = erode_mask(np.ones((64, 64), dtype=bool), 10 ** 9)
        assert time.perf_counter() - t0 < 5.0
        assert out.shape == (64, 64) and not out.any()

    def test_non_2d_mask_rejected(self):
        with pytest.raises(StructuralError):
            erode_mask(np.ones(8, dtype=bool), 1)

    def test_zero_iterations_is_copy(self):
        mask = np.random.default_rng(0).random((6, 6)) < 0.5
        out = erode_mask(mask, 0)
        assert np.array_equal(out, mask) and out is not mask


class TestResampleGroundTruth:
    # evaluate_image resamples the ground truth as make_scene's cloud at the
    # image pitch and surface_depth on the image's pixel centres
    def test_plane_cloud_is_grid_regular(self):
        pts = make_scene("plane", {"depth": 0.3, "extent": 0.01, "spacing": 0.001}).positions
        assert pts.shape[0] == 121
        assert np.unique(np.round(np.diff(np.unique(pts[:, 0])), 12)).size == 1

    def test_sphere_cloud_satisfies_equation(self):
        pts = make_scene("sphere-cap", {"radius": 0.05, "center_z": 0.35, "extent": 0.05, "spacing": 0.002}).positions
        r2 = pts[:, 0] ** 2 + pts[:, 1] ** 2 + (pts[:, 2] - 0.35) ** 2
        assert np.abs(r2 - 0.0025).max() < 1e-12

    def test_density_doubling_quadruples_count(self):
        coarse = make_scene("plane", {"depth": 0.3, "extent": 0.04, "spacing": 0.002}).positions
        fine = make_scene("plane", {"depth": 0.3, "extent": 0.04, "spacing": 0.001}).positions
        assert fine.shape[0] == pytest.approx(4 * coarse.shape[0], rel=0.06)

    def test_depth_map_variant_matches_surface(self):
        grid = CandidateGrid.regular(16, 16, 0.002)
        depth = surface_depth("plane", {"depth": 0.31, "extent": 0.1}, *np.meshgrid(grid.x, grid.y))
        assert depth.shape == (16, 16) and np.nanmax(np.abs(depth - 0.31)) == 0.0


class TestEvaluateImage:
    def _perfect_image(self, grid, depth):
        d = np.full((grid.height, grid.width), depth)
        ones = np.ones_like(d)
        return RadarImage(x=grid.x, y=grid.y, depth=d, magnitude=ones, joint_magnitude=ones)

    def test_perfect_reconstruction_scores_zero_projective(self):
        grid = CandidateGrid.regular(21, 21, 0.002)
        params = {"depth": 0.3, "extent": 0.04, "spacing": 0.002}
        report = evaluate_image(self._perfect_image(grid, 0.3), "plane", params, label="plane")
        assert report.p_masked == 0.0
        assert report.p_eroded == 0.0
        assert report.c_gt_to_r == pytest.approx(0.0, abs=1e-12)

    def test_report_counts_filled(self):
        grid = CandidateGrid.regular(21, 21, 0.002)
        params = {"depth": 0.3, "extent": 0.04, "spacing": 0.002}
        report = evaluate_image(self._perfect_image(grid, 0.3), "plane", params, label="plane")
        assert report.n_points_recon == 441
        assert report.n_pixels_eroded < report.n_pixels_masked

    def test_negative_metric_rejected(self):
        with pytest.raises(StructuralError):
            EvalReport(c_gt_to_r=-1.0, c_r_to_gt=0.0, p_masked=0.0, p_eroded=0.0)

    def test_report_table_alignment(self):
        reports = [
            EvalReport(0.0072, 0.0214, 0.0215, 0.0169, label="a@d0.5"),
            EvalReport(0.0051, 0.0018, 0.0019, 0.0017, label="b@d10.0"),
        ]
        table = report_table(reports)
        lines = table.splitlines()
        assert len(lines) == 4
        assert len({len(ln) for ln in lines}) == 1  # aligned columns
        assert "0.720" in table and "0.190" in table


def test_spearman_rho_equals_scipy_bit_for_bit():
    rng = np.random.default_rng(21)
    cases = [
        ([1.0, 2.0], [3.0, 1.0]),  # n = 2
        ([4.0, 4.0, 4.0], [1.0, 2.0, 3.0]),  # a constant sample: NaN
        ([1.0, 2.0, 3.0], [5.0, 5.0, 5.0]),
        ([0.0, -0.0, 1.0, 1.0, 2.0], [3.0, 1.0, 1.0, 2.0, 2.0]),  # ties in both
        ([1.0, np.nan, 3.0], [1.0, 2.0, 3.0]),  # NaN propagates
        ([1.0], [2.0]),  # one observation: NaN
    ]
    for n in range(2, 40):
        cases.append((rng.normal(size=n), rng.normal(size=n)))
        cases.append((rng.integers(0, 3, n).astype(float), rng.normal(size=n).round(1)))
    for a, b in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # scipy warns on constant input
            expected = float(spearmanr(a, b).statistic)
        got = spearman_rho(a, b)
        assert got == expected or (np.isnan(got) and np.isnan(expected)), (a, b, got, expected)

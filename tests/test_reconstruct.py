import numpy as np
import pytest

from mmfsk import reconstruct
from mmfsk import (
    BasebandTensor,
    CandidateGrid,
    FrequencySet,
    Scene,
    VoxelGridSpec,
    backproject,
    fsk2_reconstruct,
    fsk3_reconstruct,
    correlate_grid,
    magnitude_filter,
    make_scene,
    max_unambiguous_depth,
    mimo_cross_array,
    simulate_baseband,
    surface_depth,
)
from mmfsk.errors import ConfigurationError, EmptyImageError
from mmfsk.reconstruct import RadarImage
from mmfsk.simulate import NoiseSpec
from scenarios import recovery_run


def single_target(pos):
    return Scene(np.asarray([pos], dtype=float), np.ones(1, complex), np.zeros(1))


def plane_setup(desk_array, depth=0.30, grid_n=48, extent=0.08):
    scene = make_scene("plane", {"depth": depth, "extent": extent, "spacing": 0.0015})
    grid = CandidateGrid.regular(grid_n, grid_n, 0.001)
    return scene, grid


class TestTwoFrequency:
    def test_perfect_prior_single_target_is_exact(self, desk_array):
        # Hypotheses that coincide with the only return leave zero residual
        # phase, so the correction is exactly zero at the target pixel.
        freqs = FrequencySet.from_pair_name("10.0")
        bb = simulate_baseband(single_target((0.0, 0.0, 0.30)), desk_array, freqs)
        grid = CandidateGrid.regular(1, 1, 1.0).with_scalar_prior(0.30)
        img = fsk2_reconstruct(bb, grid, desk_array, freqs)
        assert abs(img.depth[0, 0] - 0.30) < 1e-12

    def test_flat_plane_perfect_prior(self, desk_array):
        # Dense surface: every pixel carries its own return; residual errors
        # come only from coherent clutter of the neighboring targets.
        freqs = FrequencySet.from_pair_name("10.0")
        scene, grid = plane_setup(desk_array)
        bb = simulate_baseband(scene, desk_array, freqs)
        img = fsk2_reconstruct(bb, grid.with_scalar_prior(0.30), desk_array, freqs)
        err = np.abs(img.depth - 0.30)
        assert np.median(err) < 1e-4
        assert err.max() < 5e-4

    def test_coarse_prior_recovered_within_wide_window(self, desk_array):
        # Prior 10 cm off; the 0.55 GHz window (13.6 cm) covers the error.
        freqs = FrequencySet.from_pair_name("0.5")
        scene, grid = plane_setup(desk_array)
        bb = simulate_baseband(scene, desk_array, freqs)
        img = fsk2_reconstruct(bb, grid.with_scalar_prior(0.40), desk_array, freqs)
        assert np.abs(img.depth - 0.30).mean() < 0.002

    def test_coarse_prior_wraps_in_narrow_window(self, desk_array):
        # Same 10 cm error at 10 GHz difference: correction cannot leave the
        # +/- 7.5 mm window around the (wrong) prior.
        freqs = FrequencySet.from_pair_name("10.0")
        scene, grid = plane_setup(desk_array)
        bb = simulate_baseband(scene, desk_array, freqs)
        img = fsk2_reconstruct(bb, grid.with_scalar_prior(0.40), desk_array, freqs)
        window = max_unambiguous_depth(freqs.delta())
        assert np.abs(img.depth - 0.40).max() <= window + 1e-9
        assert np.abs(img.depth - 0.30).min() > 0.05  # nowhere near the truth

    def test_correction_is_bounded_for_any_input(self, desk_array):
        rng = np.random.default_rng(0)
        freqs = FrequencySet.from_pair_name("4.0")
        window = max_unambiguous_depth(freqs.delta())
        scene, grid = plane_setup(desk_array)
        bb = simulate_baseband(scene, desk_array, freqs)
        for _ in range(3):
            prior = 0.2 + 0.3 * rng.random((grid.height, grid.width))
            img = fsk2_reconstruct(bb, grid.with_prior(prior), desk_array, freqs)
            assert np.abs(img.depth - prior).max() <= window + 1e-9

    def test_wrap_shift_invariance_on_axis(self, monostatic):
        # Adding one full wrap (2 * window) to the prior shifts the corrected
        # depth by exactly that amount: the differential phasor cannot see it.
        freqs = FrequencySet.from_pair_name("10.0")
        window = max_unambiguous_depth(freqs.delta())
        bb = simulate_baseband(single_target((0.0, 0.0, 0.302)), monostatic, freqs)
        grid = CandidateGrid.regular(1, 1, 1.0)
        base = fsk2_reconstruct(bb, grid.with_scalar_prior(0.300), monostatic, freqs)
        moved = fsk2_reconstruct(bb, grid.with_scalar_prior(0.300 + 2 * window), monostatic, freqs)
        assert moved.depth[0, 0] - base.depth[0, 0] == pytest.approx(2 * window, abs=1e-9)

    def test_wrap_shift_invariance_on_grid(self, desk_array):
        freqs = FrequencySet.from_pair_name("10.0")
        window = max_unambiguous_depth(freqs.delta())
        scene, grid = plane_setup(desk_array, grid_n=24)
        bb = simulate_baseband(scene, desk_array, freqs)
        base = fsk2_reconstruct(bb, grid.with_scalar_prior(0.30), desk_array, freqs)
        moved = fsk2_reconstruct(bb, grid.with_scalar_prior(0.30 + 2 * window), desk_array, freqs)
        assert np.abs((moved.depth - base.depth) - 2 * window).max() < 1e-3

    def test_rejects_wrong_carrier_count(self, desk_array):
        freqs = FrequencySet((72e9, 77e9, 82e9))
        bb = simulate_baseband(single_target((0, 0, 0.3)), desk_array, freqs)
        grid = CandidateGrid.regular(2, 2, 0.002).with_scalar_prior(0.3)
        with pytest.raises(ConfigurationError):
            fsk2_reconstruct(bb, grid, desk_array, freqs)


class TestPerPixelPrior:
    def test_within_window_recovery(self, desk_array, desk_grid):
        # Ten randomized scenes here; the acceptance suite runs one hundred.
        worst = max(recovery_run(desk_array, desk_grid, seed) for seed in range(10))
        assert worst < 0.001

    def test_step_scene_against_scalar_prior(self, desk_array, desk_grid):
        # Two levels 2 cm apart: per-pixel priors recover both; one scalar
        # prior between them wraps at 10 GHz difference on both levels.
        params = {"levels": [0.28, 0.32], "extent": 0.08, "spacing": 0.0015}
        scene = make_scene("step", params)
        freqs = FrequencySet.from_pair_name("10.0")
        bb = simulate_baseband(scene, desk_array, freqs)
        gx, gy = np.meshgrid(desk_grid.x, desk_grid.y)
        truth = surface_depth("step", params, gx, gy)
        rng = np.random.default_rng(7)
        prior = truth + rng.uniform(-0.002, 0.002, truth.shape)

        per_pixel = fsk2_reconstruct(bb, desk_grid.with_prior(prior), desk_array, freqs)
        kept = magnitude_filter(per_pixel).valid
        err = np.abs(per_pixel.depth - truth)
        # Pixels within ~2 resolution cells of the jump blend both levels;
        # away from it the recovery is sub-millimeter.
        off_split = np.abs(gx) > 0.012
        assert np.median(err[kept]) < 0.0005
        assert err[kept & off_split].max() < 0.001

        scalar = fsk2_reconstruct(bb, desk_grid.with_scalar_prior(0.30), desk_array, freqs)
        scalar_err = np.abs(scalar.depth - truth)
        window = max_unambiguous_depth(freqs.delta())
        # 2 cm prior error exceeds the 7.5 mm window: both levels stay wrong.
        assert np.abs(scalar.depth - 0.30).max() <= window + 1e-9
        assert np.median(scalar_err[kept & off_split]) > 0.005

    def test_hole_filled_prior_covers_grid(self, desk_array, desk_grid):
        # Priors built from a depth map with dropouts still cover the hull,
        # and reconstruction stays valid there.
        from mmfsk import CameraIntrinsics, Extrinsics, OpticalDepthMap, build_prior, render_depth_map

        params = {"depth": 0.30, "extent": 0.12, "spacing": 0.0015}
        intr = CameraIntrinsics(216.0, 216.0, 35.5, 35.5)
        ext = Extrinsics.identity()
        dm = render_depth_map("plane", params, intr, ext, 72, 72)
        rng = np.random.default_rng(1)
        keep = rng.random(dm.depth.shape) >= 0.2
        holes = OpticalDepthMap(np.where(dm.valid & keep, dm.depth, np.nan))
        prior = build_prior(holes, intr, ext, desk_grid)
        assert prior.valid.mean() > 0.95

        freqs = FrequencySet.from_pair_name("10.0")
        scene = make_scene("plane", {"depth": 0.30, "extent": 0.08, "spacing": 0.0015})
        bb = simulate_baseband(scene, desk_array, freqs)
        img = fsk2_reconstruct(bb, prior, desk_array, freqs)
        assert img.valid.sum() == prior.valid.sum()
        assert np.abs(img.depth - 0.30)[img.valid].max() < 0.001


class TestThreeFrequency:
    def test_two_stage_recovers_coarse_prior(self, desk_array):
        freqs = FrequencySet.triple_from_pair_names("0.5", "10.0")
        scene, grid = plane_setup(desk_array)
        bb = simulate_baseband(scene, desk_array, freqs)
        img = fsk3_reconstruct(bb, grid.with_scalar_prior(0.40), desk_array, freqs)
        assert np.abs(img.depth - 0.30).max() < 0.001

    def test_wide_first_stage_required(self, desk_array):
        # 1.02 GHz first stage: 7.3 cm window < 10 cm prior error, so stage
        # one wraps and stage two cannot save it.
        freqs = FrequencySet.triple_from_pair_names("1.0", "10.0")
        scene, grid = plane_setup(desk_array)
        bb = simulate_baseband(scene, desk_array, freqs)
        img = fsk3_reconstruct(bb, grid.with_scalar_prior(0.40), desk_array, freqs)
        assert np.abs(img.depth - 0.30).min() > 0.01

    def test_perfect_prior_single_target_exact(self, desk_array):
        freqs = FrequencySet.triple_from_pair_names("0.5", "10.0")
        bb = simulate_baseband(single_target((0.0, 0.0, 0.30)), desk_array, freqs)
        grid = CandidateGrid.regular(1, 1, 1.0).with_scalar_prior(0.30)
        img = fsk3_reconstruct(bb, grid, desk_array, freqs)
        assert abs(img.depth[0, 0] - 0.30) < 1e-4

    def test_rejects_wrong_carrier_count(self, desk_array):
        freqs = FrequencySet((72e9, 82e9))
        bb = simulate_baseband(single_target((0, 0, 0.3)), desk_array, freqs)
        grid = CandidateGrid.regular(2, 2, 0.002).with_scalar_prior(0.3)
        with pytest.raises(ConfigurationError):
            fsk3_reconstruct(bb, grid, desk_array, freqs)

    def test_pair_field_equals_columns_of_full_field(self, desk_array):
        # Each carrier's column depends on that carrier alone, so stage one
        # may correlate just its pair.
        freqs = FrequencySet.triple_from_pair_names("0.5", "10.0")
        scene, grid = plane_setup(desk_array, grid_n=24)
        bb = simulate_baseband(scene, desk_array, freqs, NoiseSpec(snr_db=25, seed=3))
        grid = grid.with_scalar_prior(0.31)
        full = correlate_grid(bb, grid, desk_array, freqs)
        for i, j in [(0, 1), (0, 2), (1, 2)]:
            pair = FrequencySet((freqs[i], freqs[j]))
            two = correlate_grid(BasebandTensor(bb.data[..., [i, j]]), grid, desk_array, pair)
            assert np.array_equal(two, full[..., [i, j]], equal_nan=True)

    def test_stage_one_matches_full_carrier_field(self, desk_array, monkeypatch):
        # Feeding stage one the matching columns of the three-carrier field
        # instead of the pair-only correlation leaves the image bit-identical.
        freqs = FrequencySet.triple_from_pair_names("0.5", "10.0")
        scene, grid = plane_setup(desk_array, grid_n=24)
        bb = simulate_baseband(scene, desk_array, freqs, NoiseSpec(snr_db=25, seed=3))
        grid = grid.with_scalar_prior(0.31)
        got = fsk3_reconstruct(bb, grid, desk_array, freqs)

        real = reconstruct.correlate_grid
        stage_one = []

        def full_stage_one(band, g, array, fs, workers=None):
            if len(fs) == 3:
                return real(band, g, array, fs, workers=workers)
            cols = [freqs.frequencies.index(f) for f in fs.frequencies]
            stage_one.append(cols)
            return real(bb, g, array, freqs, workers=workers)[..., cols]

        monkeypatch.setattr(reconstruct, "correlate_grid", full_stage_one)
        want = fsk3_reconstruct(bb, grid, desk_array, freqs)
        assert len(stage_one) == 1
        for name in ("depth", "magnitude", "joint_magnitude", "valid"):
            assert np.array_equal(getattr(got, name), getattr(want, name), equal_nan=True)


class TestMethodsAgree:
    def test_single_target_perfect_prior(self, desk_array):
        # With the only return exactly on the hypothesis, every correction
        # method returns the prior untouched.
        target = (0.0, 0.0, 0.30)
        grid = CandidateGrid.regular(1, 1, 1.0).with_scalar_prior(0.30)
        pair = FrequencySet.from_pair_name("10.0")
        triple = FrequencySet.triple_from_pair_names("0.5", "10.0")
        bb2 = simulate_baseband(single_target(target), desk_array, pair)
        bb3 = simulate_baseband(single_target(target), desk_array, triple)
        d2 = fsk2_reconstruct(bb2, grid, desk_array, pair).depth[0, 0]
        dm = fsk2_reconstruct(bb2, grid, desk_array, pair).depth[0, 0]
        d3 = fsk3_reconstruct(bb3, grid, desk_array, triple).depth[0, 0]
        assert abs(d2 - dm) < 1e-12
        assert abs(d2 - d3) < 1e-6
        assert abs(d2 - 0.30) < 1e-9


def reference_backproject(baseband, spec, array, freqs, workers=None):
    """The per-plane loop: one correlation call per depth plane, in
    ascending depth, where a strictly larger score takes the column. The
    carrier mean is the same GEMV as ``backproject``'s, so only the runs
    and the argmax are under test here."""
    xs, ys, zs = spec.axis(0), spec.axis(1), spec.axis(2)
    gx, gy = np.meshgrid(xs, ys)
    best_mag = np.full(gx.shape, -1.0)
    best_z = np.full(gx.shape, zs[0])
    pts = np.empty((gx.size, 3))
    pts[:, 0], pts[:, 1] = gx.ravel(), gy.ravel()
    for z in zs:
        pts[:, 2] = z
        vals = reconstruct.mean_pair_phasors(pts, baseband, array, freqs, workers=workers)
        score = np.abs(vals @ np.ones(len(freqs)) / len(freqs)).reshape(gx.shape)
        upd = score > best_mag
        best_mag[upd] = score[upd]
        best_z[upd] = z
    return best_z, best_mag


@pytest.fixture(scope="module")
def bp_volume():
    """A noisy two-level step under a 33x33x40 volume at 16 carriers:
    1,089 points per plane, so runs of three planes and a short last run."""
    array = mimo_cross_array(16, 16, 0.20)
    freqs = FrequencySet(tuple(np.linspace(72e9, 82e9, 16)))
    scene = make_scene("step", {"levels": [0.2835, 0.3145], "split": 0.001, "extent": 0.08, "spacing": 0.0015})
    bb = simulate_baseband(scene, array, freqs, NoiseSpec(snr_db=25.0, seed=5))
    spec = VoxelGridSpec((0.064, 0.064, 0.078), (33, 33, 40), (0.0, 0.0, 0.30))
    return bb, spec, array, freqs, reference_backproject(bb, spec, array, freqs, workers=1)


class TestBackprojection:
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_runs_of_planes_match_per_plane_loop(self, bp_volume, workers):
        bb, spec, array, freqs, (ref_z, ref_mag) = bp_volume
        assert spec.resolution[2] % (reconstruct._BP_RUN_POINTS // (33 * 33)) != 0  # a short last run
        img = backproject(bb, spec, array, freqs, workers=workers)
        assert np.array_equal(img.depth, ref_z)
        assert np.array_equal(img.magnitude, ref_mag)
        assert np.array_equal(img.joint_magnitude, ref_mag)
        assert len(np.unique(img.depth)) > 2  # columns pick depths from several runs

    @pytest.mark.parametrize("resolution", [(33, 33, 40), (13, 13, 30), (1, 1, 9000), (70, 70, 3), (301, 2, 5)])
    def test_calls_are_runs_of_whole_planes_within_budget(self, monkeypatch, monostatic, resolution):
        # Record each call's points: every call is a run of whole planes of
        # at most the budget (or one plane over it), and the calls together
        # visit every voxel once, plane by plane in ascending depth.
        freqs = FrequencySet((76e9, 77e9))
        calls = []

        def record(pts, *args, **kwargs):
            calls.append(np.array(pts))
            return np.zeros((len(pts), len(freqs)), dtype=complex)

        monkeypatch.setattr(reconstruct, "mean_pair_phasors", record)
        spec = VoxelGridSpec((0.01, 0.01, 0.05), resolution, (0.0, 0.0, 0.3))
        backproject(BasebandTensor(np.zeros((1, 1, 2), dtype=complex)), spec, monostatic, freqs)
        plane = resolution[0] * resolution[1]
        for pts in calls:
            assert len(pts) % plane == 0
            assert len(pts) <= reconstruct._BP_RUN_POINTS or len(pts) == plane
        gz, gy, gx = np.meshgrid(spec.axis(2), spec.axis(1), spec.axis(0), indexing="ij")
        assert np.array_equal(np.concatenate(calls), np.column_stack([gx.ravel(), gy.ravel(), gz.ravel()]))

    def test_single_target_localization(self, desk_array):
        freqs = FrequencySet(tuple(np.linspace(72e9, 82e9, 16)))
        target = (0.004, -0.007, 0.303)
        bb = simulate_baseband(single_target(target), desk_array, freqs)
        spec = VoxelGridSpec((0.032, 0.032, 0.08), (33, 33, 81), (0.0, 0.0, 0.30))
        img = backproject(bb, spec, desk_array, freqs)
        v, u = np.unravel_index(img.magnitude.argmax(), img.magnitude.shape)
        assert img.x[u] == pytest.approx(target[0], abs=1e-12)
        assert img.y[v] == pytest.approx(target[1], abs=1e-12)
        assert abs(img.depth[v, u] - target[2]) <= 0.015  # range-resolution bound

    def test_single_frequency_is_degenerate_along_depth(self, monostatic):
        # One carrier and one pair: every voxel's mean phasor has unit
        # magnitude, so the depth axis carries no information at all.
        freqs = FrequencySet((76e9,))
        bb = simulate_baseband(single_target((0.0, 0.0, 0.3)), monostatic, freqs)
        spec = VoxelGridSpec((0.01, 0.01, 0.05), (3, 3, 21), (0.0, 0.0, 0.3))
        img = backproject(bb, spec, monostatic, freqs)
        assert np.abs(img.magnitude - 1.0).max() < 1e-12

    def test_two_separated_targets(self, desk_array):
        freqs = FrequencySet(tuple(np.linspace(72e9, 82e9, 8)))
        scene = single_target((0.010, 0.0, 0.30)).union(single_target((-0.010, 0.004, 0.31)))
        bb = simulate_baseband(scene, desk_array, freqs)
        spec = VoxelGridSpec((0.032, 0.032, 0.06), (33, 33, 31), (0.0, 0.0, 0.30))
        img = backproject(bb, spec, desk_array, freqs)
        mag = img.magnitude
        v1, u1 = np.unravel_index(mag.argmax(), mag.shape)
        masked = mag.copy()
        vv, uu = np.meshgrid(np.arange(33), np.arange(33), indexing="ij")
        masked[(np.abs(vv - v1) <= 5) & (np.abs(uu - u1) <= 5)] = 0
        v2, u2 = np.unravel_index(masked.argmax(), masked.shape)
        found = sorted([(img.x[u1], img.y[v1]), (img.x[u2], img.y[v2])])
        want = sorted([(0.010, 0.0), (-0.010, 0.004)])
        for (fx, fy), (wx, wy) in zip(found, want):
            assert fx == pytest.approx(wx, abs=0.002)
            assert fy == pytest.approx(wy, abs=0.002)

    def test_depth_error_shrinks_with_more_carriers(self, tiny_array):
        # Two carriers leave range aliases every 1.5 cm that measurement
        # noise promotes at random; denser carrier sampling pushes the
        # aliases out of the volume and the picked depth converges.
        target = (0.0, 0.0, 0.302)
        spec = VoxelGridSpec((0.008, 0.008, 0.16), (3, 3, 81), (0.0, 0.0, 0.30))
        med_err = []
        for n_f in (2, 4, 8, 16, 32):
            freqs = FrequencySet(tuple(np.linspace(72e9, 82e9, n_f)))
            errs = []
            for seed in range(9):
                bb = simulate_baseband(
                    single_target(target), tiny_array, freqs, NoiseSpec(snr_db=10.0, seed=seed)
                )
                img = backproject(bb, spec, tiny_array, freqs)
                v, u = np.unravel_index(img.magnitude.argmax(), img.magnitude.shape)
                errs.append(abs(img.depth[v, u] - target[2]))
            med_err.append(np.median(errs))
        assert all(b <= a + 1e-12 for a, b in zip(med_err, med_err[1:]))
        assert med_err[-1] < med_err[0]

    def test_tie_breaks_to_smallest_depth(self, monostatic):
        # An all-zero tensor scores every voxel identically; the projection
        # must then report the shallowest voxel everywhere.
        from mmfsk import BasebandTensor

        freqs = FrequencySet((76e9,))
        bb = BasebandTensor(np.zeros((1, 1, 1), dtype=complex))
        spec = VoxelGridSpec((0.01, 0.01, 0.05), (3, 3, 11), (0.0, 0.0, 0.3))
        img = backproject(bb, spec, monostatic, freqs)
        assert np.all(img.depth == spec.axis(2)[0])

    def test_tie_across_runs_breaks_to_smallest_depth(self, monostatic):
        # 1,000 planes of 3x3 voxels take three runs; the equal scores of
        # later runs must not displace the first plane.
        freqs = FrequencySet((76e9,))
        bb = BasebandTensor(np.zeros((1, 1, 1), dtype=complex))
        spec = VoxelGridSpec((0.01, 0.01, 0.05), (3, 3, 1000), (0.0, 0.0, 0.3))
        assert spec.resolution[2] > reconstruct._BP_RUN_POINTS // 9
        img = backproject(bb, spec, monostatic, freqs)
        assert np.all(img.depth == spec.axis(2)[0])
        assert np.all(img.magnitude == 0.0)

    @pytest.mark.parametrize("extents, resolution, center", [
        ((0.01, 0.01, 0.05), (5, 5, 2.7), (0.0, 0.0, 0.3)),
        ((0.01, 0.01, 0.05), (5, 5, True), (0.0, 0.0, 0.3)),
        ((0.01, 0.01, 0.05), (5, 5, "5"), (0.0, 0.0, 0.3)),
        ((0.01, 0.01, 0.05), (5, 5, 5), (0.0, 0.3)),
        ((0.01, 0.01, 0.05), (5, 5, 5), (0.0, 0.0, np.inf)),
        ((np.nan, 0.01, 0.05), (5, 5, 5), (0.0, 0.0, 0.3)),
        ((0.01, np.inf, 0.05), (5, 5, 5), (0.0, 0.0, 0.3)),
    ])
    def test_voxel_spec_rejects_bad_counts_extents_and_center(self, extents, resolution, center):
        # int() would read 2.7 and True as 2 and 1 planes, and a non-finite
        # extent or center would give NaN voxel axes.
        with pytest.raises(ConfigurationError):
            VoxelGridSpec(extents, resolution, center)


class TestMagnitudeFilter:
    def _image(self, mags):
        mags = np.asarray(mags, dtype=float)
        h, w = mags.shape
        return RadarImage(
            x=np.arange(w, dtype=float), y=np.arange(h, dtype=float),
            depth=np.full((h, w), 0.3), magnitude=mags, joint_magnitude=mags,
        )

    def test_uniform_keeps_everything(self):
        img = magnitude_filter(self._image(np.ones((4, 4))))
        assert img.valid.all()

    def test_twenty_db_below_peak_is_dropped(self):
        mags = np.full((3, 3), 0.1)
        mags[1, 1] = 1.0
        img = magnitude_filter(self._image(mags), threshold_db=-14.0)
        assert img.valid.sum() == 1 and img.valid[1, 1]

    def test_exact_threshold_survives(self):
        mags = np.array([[1.0, 10 ** (-14 / 20)]])
        img = magnitude_filter(self._image(mags))
        assert img.valid.all()

    def test_dropped_pixel_reads_nan(self):
        mags = np.array([[1.0, 0.05], [0.9, 1.0]])
        img = magnitude_filter(self._image(mags))
        for plane in (img.depth, img.magnitude, img.joint_magnitude):
            assert np.isnan(plane[0, 1])
            assert np.isfinite(np.delete(plane.ravel(), 1)).all()
        assert not img.valid[0, 1] and img.n_valid == 3

    @pytest.mark.parametrize("threshold_db", [5.0, 1e-9, np.nan])
    def test_positive_or_nan_threshold_rejected(self, threshold_db):
        with pytest.raises(ConfigurationError, match="filter threshold"):
            magnitude_filter(self._image(np.ones((2, 2))), threshold_db=threshold_db)

    def test_all_invalid_rejected(self):
        img = self._image(np.ones((2, 2)))
        img = RadarImage(x=img.x, y=img.y, depth=np.full((2, 2), np.nan), magnitude=img.magnitude,
                         joint_magnitude=img.joint_magnitude)
        with pytest.raises(EmptyImageError):
            magnitude_filter(img)

    def test_noisy_plane_footprint_survives(self, desk_array, desk_grid):
        freqs = FrequencySet.from_pair_name("10.0")
        scene = make_scene("plane", {"depth": 0.30, "extent": 0.08, "spacing": 0.0015})
        bb = simulate_baseband(scene, desk_array, freqs, NoiseSpec(snr_db=20.0, seed=0))
        img = fsk2_reconstruct(bb, desk_grid.with_scalar_prior(0.30), desk_array, freqs)
        kept = magnitude_filter(img)
        assert kept.valid.mean() >= 0.95  # grid lies inside the plane footprint

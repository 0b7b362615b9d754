import tracemalloc

import numpy as np
import pytest

from mmfsk import (
    SPEED_OF_LIGHT,
    AntennaArray,
    CameraIntrinsics,
    CandidateGrid,
    Extrinsics,
    FrequencySet,
    NoiseSpec,
    Scene,
    make_scene,
    mimo_cross_array,
    build_prior,
    render_depth_map,
    simulate_baseband,
    surface_depth,
)
from mmfsk.cli import _degrade_depth_map
from mmfsk.errors import ConfigurationError
from mmfsk.simulate import _TARGET_CHUNK, _lateral_samples
from test_correlate import distance_tables
from test_depth_prior import rotation_about


def reference_baseband(scene, array, freqs):
    """Independent oracle: plain nested loops over pairs, carriers, targets."""
    out = np.zeros((array.n_tx, array.n_rx, len(freqs)), dtype=np.complex128)
    for t in range(array.n_tx):
        for r in range(array.n_rx):
            for k, f in enumerate(freqs.frequencies):
                acc = 0j
                for n in range(scene.n_targets):
                    rho = np.linalg.norm(array.tx_positions[t] - scene.positions[n]) + np.linalg.norm(
                        array.rx_positions[r] - scene.positions[n]
                    )
                    acc += scene.reflectivities[n] * np.exp(
                        -2j * np.pi * f * rho / SPEED_OF_LIGHT + 1j * scene.phase_offsets[n]
                    )
                out[t, r, k] = acc
    return out


def reference_render(kind, params, intrinsics, extrinsics, width, height,
                     depth_range=(0.01, 3.0), iterations=60):
    """Renderer oracle: the same coarse scan, then all ``iterations``
    bisection steps over every ray, with misses masked out at the end."""
    gu, gv = np.meshgrid(np.arange(width, dtype=np.float64), np.arange(height, dtype=np.float64))
    dirs = np.stack([(gu - intrinsics.c_u) / intrinsics.f_u, (gv - intrinsics.c_v) / intrinsics.f_v,
                     np.ones_like(gu)], axis=-1)
    dirs_r = dirs @ extrinsics.rotation.T

    def gap(s):
        p = s[..., None] * dirs_r + extrinsics.translation
        return p[..., 2] - surface_depth(kind, params, p[..., 0], p[..., 1])

    steps = np.linspace(float(depth_range[0]), float(depth_range[1]), 64)
    lo = np.full((height, width), np.nan)
    hi = np.full((height, width), np.nan)
    g_prev = gap(np.full((height, width), steps[0]))
    for s in steps[1:]:
        g_cur = gap(np.full((height, width), s))
        crossing = np.isnan(lo) & (g_prev < 0.0) & (g_cur >= 0.0)
        lo[crossing] = s - (steps[1] - steps[0])
        hi[crossing] = s
        g_prev = g_cur
    valid = np.isfinite(lo)
    lo = np.where(valid, lo, steps[0])
    hi = np.where(valid, hi, steps[-1])
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        below = ~(gap(mid) >= 0.0)
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    depth = 0.5 * (lo + hi)
    valid &= np.isfinite(gap(depth))
    return np.where(valid, depth, np.nan), valid


# (intrinsics, width, height) of the renderer comparisons: a small camera, a
# wide-angle one, and the benchmark's 240 x 240 calibration (focal 3 px per
# pixel of width)
SMALL_CAMERA = (CameraIntrinsics(f_u=150.0, f_v=160.0, c_u=23.5, c_v=20.0), 48, 40)
WIDE_CAMERA = (CameraIntrinsics(f_u=40.0, f_v=48.0, c_u=23.5, c_v=20.0), 48, 40)
BENCH_CAMERA = (CameraIntrinsics(f_u=720.0, f_v=720.0, c_u=119.5, c_v=119.5), 240, 240)


# camera poses of the renderer comparisons: the benchmark's, 2 degrees about
# y, and one turned 12 degrees about a skew axis
_DESK_ANGLE = np.deg2rad(2.0)
DESK_POSE = Extrinsics(
    np.array([[np.cos(_DESK_ANGLE), 0, np.sin(_DESK_ANGLE)], [0, 1, 0],
              [-np.sin(_DESK_ANGLE), 0, np.cos(_DESK_ANGLE)]]),
    np.array([0.01, 0.005, -0.01]),
)
TURNED_POSE = Extrinsics(rotation_about([1.0, -1.0, 0.3], np.deg2rad(12.0)), np.array([0.02, -0.01, -0.02]))


def single_target(pos, amp=1.0, phase=0.0):
    return Scene(np.asarray([pos], dtype=float), np.array([amp], dtype=complex), np.array([phase]))


class TestSimulateBaseband:
    def test_single_target_monostatic_phase(self):
        zero = np.zeros((1, 3))
        array = AntennaArray(zero, zero)
        freqs = FrequencySet((82e9,))
        bb = simulate_baseband(single_target((0, 0, 0.3)), array, freqs)
        expect = np.exp(-2j * np.pi * 82e9 * 0.6 / SPEED_OF_LIGHT)
        assert abs(np.angle(bb.data[0, 0, 0]) - np.angle(expect)) < 1e-9
        assert abs(bb.data[0, 0, 0]) == pytest.approx(1.0, rel=1e-12)

    def test_two_target_superposition_is_exact(self, tiny_array):
        freqs = FrequencySet((72e9, 82e9))
        a = single_target((0.01, 0.0, 0.31))
        b = single_target((-0.02, 0.005, 0.29), amp=0.7, phase=0.4)
        both = a.union(b)
        lhs = simulate_baseband(both, tiny_array, freqs).data
        rhs = simulate_baseband(a, tiny_array, freqs).data + simulate_baseband(b, tiny_array, freqs).data
        assert np.array_equal(lhs, rhs)

    @pytest.mark.parametrize("n_carriers", [16, 128])
    def test_matches_nested_loop_reference(self, n_carriers):
        # Reduced-scale panel: 8x8 pairs, uniform carriers spanning 72-82 GHz
        # (the carrier recurrence's path).
        array = mimo_cross_array(8, 8, 0.1)
        freqs = FrequencySet(tuple(np.linspace(72e9, 82e9, n_carriers)))
        rng = np.random.default_rng(0)
        scene = Scene(
            rng.uniform(-0.03, 0.03, (7, 3)) + np.array([0, 0, 0.33]),
            rng.normal(1.0, 0.2, 7) * np.exp(1j * rng.uniform(-np.pi, np.pi, 7)),
            rng.uniform(-np.pi, np.pi, 7),
        )
        got = simulate_baseband(scene, array, freqs).data
        want = reference_baseband(scene, array, freqs)
        assert np.abs(got - want).max() / np.abs(want).max() < 1e-12

    def test_bits_match_promoted_exp_tables(self):
        # The chunked einsum over phasors built as exp(w * d) with the
        # distances promoted to complex: the forward model's bits before its
        # tables were written through phasor_table.
        array = mimo_cross_array(9, 7, 0.1)
        freqs = FrequencySet((72e9, 77.3e9, 82e9))
        rng = np.random.default_rng(12)
        n = 2 * _TARGET_CHUNK + 76  # three target chunks, the last one short
        scene = Scene(rng.uniform(-0.05, 0.05, (n, 3)) + [0, 0, 0.3],
                      rng.normal(1.0, 0.2, n) + 0j, rng.uniform(-np.pi, np.pi, n))
        want = np.zeros((array.n_tx, array.n_rx, len(freqs)), dtype=np.complex128)
        for start in range(0, n, _TARGET_CHUNK):
            sl = slice(start, start + _TARGET_CHUNK)
            amp = scene.reflectivities[sl] * np.exp(1j * scene.phase_offsets[sl])
            dtx, drx = (np.ascontiguousarray(d.T) for d in distance_tables(scene.positions[sl], array))
            for k, f in enumerate(freqs.frequencies):
                w = -2j * np.pi * f / SPEED_OF_LIGHT
                want[:, :, k] += np.einsum("tc,rc->tr", np.exp(w * dtx) * amp[None, :], np.exp(w * drx))
        assert np.array_equal(simulate_baseband(scene, array, freqs).data, want)

    def test_linearity_of_unions(self, tiny_array):
        freqs = FrequencySet((76e9, 78e9))
        rng = np.random.default_rng(1)
        make = lambda n, seed: Scene(
            np.random.default_rng(seed).uniform(-0.02, 0.02, (n, 3)) + np.array([0, 0, 0.3]),
            np.ones(n, complex),
            np.zeros(n),
        )
        a, b = make(600, 2), make(137, 3)
        lhs = simulate_baseband(a.union(b), tiny_array, freqs).data
        rhs = simulate_baseband(a, tiny_array, freqs).data + simulate_baseband(b, tiny_array, freqs).data
        assert np.abs(lhs - rhs).max() / np.abs(rhs).max() < 1e-12

    def test_frequency_shift_consistency(self, tiny_array):
        # Single target: the phase step between carriers encodes the round trip.
        freqs = FrequencySet((72e9, 82e9))
        pos = (0.004, -0.003, 0.35)
        bb = simulate_baseband(single_target(pos), tiny_array, freqs)
        for t in range(tiny_array.n_tx):
            for r in range(tiny_array.n_rx):
                rho = np.linalg.norm(tiny_array.tx_positions[t] - pos) + np.linalg.norm(
                    tiny_array.rx_positions[r] - pos
                )
                got = np.angle(bb.data[t, r, 1]) - np.angle(bb.data[t, r, 0])
                want = -2 * np.pi * freqs.delta() * rho / SPEED_OF_LIGHT
                diff = (got - want + np.pi) % (2 * np.pi) - np.pi
                assert abs(diff) < 1e-9

    def test_noise_determinism(self, tiny_array):
        freqs = FrequencySet((72e9, 82e9))
        scene = single_target((0, 0, 0.3))
        spec = NoiseSpec(snr_db=15.0, seed=42)
        a = simulate_baseband(scene, tiny_array, freqs, spec).data
        b = simulate_baseband(scene, tiny_array, freqs, spec).data
        assert np.array_equal(a, b)
        c = simulate_baseband(scene, tiny_array, freqs, NoiseSpec(snr_db=15.0, seed=43)).data
        assert not np.array_equal(a, c)

    def test_noise_power_calibration(self):
        array = mimo_cross_array(24, 24, 0.1)
        freqs = FrequencySet(tuple(np.linspace(72e9, 82e9, 8)))
        scene = single_target((0, 0, 0.3))
        clean = simulate_baseband(scene, array, freqs).data
        noisy = simulate_baseband(scene, array, freqs, NoiseSpec(snr_db=20.0, seed=0)).data
        snr = np.mean(np.abs(clean) ** 2) / np.mean(np.abs(noisy - clean) ** 2)
        assert 10 * np.log10(snr) == pytest.approx(20.0, abs=0.3)


class TestMakeScene:
    def test_plane_is_flat(self):
        scene = make_scene("plane", {"depth": 0.30, "extent": 0.02, "spacing": 0.005})
        assert np.all(scene.positions[:, 2] == 0.30)
        assert scene.n_targets == 25

    def test_step_two_levels(self):
        scene = make_scene("step", {"levels": [0.28, 0.32], "extent": 0.04, "spacing": 0.005})
        assert set(np.unique(scene.positions[:, 2])) == {0.28, 0.32}

    def test_sphere_cap_satisfies_sphere_equation(self):
        params = {"radius": 0.05, "center_z": 0.35, "extent": 0.06, "spacing": 0.004}
        scene = make_scene("sphere-cap", params)
        p = scene.positions
        radii = p[:, 0] ** 2 + p[:, 1] ** 2 + (p[:, 2] - 0.35) ** 2
        assert np.abs(radii - 0.05**2).max() < 1e-12
        assert np.all(p[:, 2] <= 0.35)  # near side faces the aperture

    def test_unknown_kind(self):
        with pytest.raises(ConfigurationError):
            make_scene("torus", {})

    def test_sample_count_past_the_float_range(self):
        # 1e308 / 1.5 mm overflows to inf, which no sample count can hold
        with pytest.raises(ConfigurationError, match="extent / spacing must be finite"):
            make_scene("plane", {"depth": 0.3, "extent": 1e308, "spacing": 0.0015})

    def test_sample_count_is_bounded_before_sampling(self):
        # 6 cm at 1e-300 m would ask numpy for 6e298 samples a side
        with pytest.raises(ConfigurationError, match=r"needs 6e\+298 samples per axis, more than 4096"):
            make_scene("plane", {"depth": 0.3, "extent": 0.06, "spacing": 1e-300})
        assert _lateral_samples(4095.0, 1.0).size == 4096
        with pytest.raises(ConfigurationError, match="more than 4096"):
            _lateral_samples(4096.0, 1.0)

    def test_deterministic_sampling(self):
        params = {"depth": 0.3, "extent": 0.03, "spacing": 0.002}
        assert np.array_equal(make_scene("plane", params).positions, make_scene("plane", params).positions)


class TestSurfaceDepth:
    def test_outside_footprint_is_nan(self):
        z = surface_depth("plane", {"depth": 0.3, "extent": 0.02}, 0.5, 0.0)
        assert np.isnan(z)

    def test_tilt(self):
        z = surface_depth("plane", {"depth": 0.3, "extent": 0.2, "tilt_x": 0.1}, 0.05, 0.0)
        assert z == pytest.approx(0.305)

    def test_random_cloud_has_no_surface(self):
        # a surfaceless point cloud is no scene kind: its ground truth would have no depth
        with pytest.raises(ConfigurationError, match="unknown scene kind 'random-cloud'"):
            surface_depth("random-cloud", {}, 0.0, 0.0)


class TestRenderDepthMap:
    def test_rendered_points_lie_on_surface(self):
        intr = CameraIntrinsics(f_u=200.0, f_v=200.0, c_u=31.5, c_v=31.5)
        ang = np.deg2rad(3.0)
        rot = np.array([[np.cos(ang), 0, np.sin(ang)], [0, 1, 0], [-np.sin(ang), 0, np.cos(ang)]])
        ext = Extrinsics(rot, np.array([0.02, -0.01, -0.015]))
        params = {"depth": 0.31, "extent": 0.12, "tilt_x": 0.06}
        dm = render_depth_map("plane", params, intr, ext, 64, 64)
        assert dm.valid.sum() > 1000
        vs, us = np.nonzero(dm.valid)
        d = dm.depth[vs, us]
        cam = np.column_stack([(us - intr.c_u) * d / intr.f_u, (vs - intr.c_v) * d / intr.f_v, d])
        radar = cam @ ext.rotation.T + ext.translation
        gap = radar[:, 2] - surface_depth("plane", params, radar[:, 0], radar[:, 1])
        assert np.abs(gap).max() < 1e-6

    @pytest.mark.parametrize(
        "kind, params, camera, pose",
        [
            pytest.param("plane", {"depth": 0.31, "extent": 0.12, "tilt_x": 0.06, "tilt_y": -0.03},
                         SMALL_CAMERA, DESK_POSE, id="plane-params0"),
            pytest.param("sphere-cap", {"radius": 0.05, "center_z": 0.35, "extent": 0.12},
                         SMALL_CAMERA, DESK_POSE, id="sphere-cap-params1"),
            pytest.param("step", {"levels": [0.28, 0.31], "split": 0.003, "extent": 0.08},
                         SMALL_CAMERA, DESK_POSE, id="step-params2"),
            # rays cross in 16 different coarse step intervals, between 0.3 and 1.25 m
            pytest.param("plane", {"depth": 0.5, "extent": 0.2, "tilt_x": 8.0},
                         SMALL_CAMERA, DESK_POSE, id="steep-tilt"),
            # the surface lies 4 cm in front of the camera: every crossing is in
            # the first step interval
            pytest.param("plane", {"depth": 0.03, "extent": 0.008, "center": (0.01, 0.005)},
                         SMALL_CAMERA, DESK_POSE, id="first-interval"),
            # every crossing is in the last step interval, from 2.95 to 3 m
            pytest.param("plane", {"depth": 2.97, "extent": 0.6},
                         SMALL_CAMERA, DESK_POSE, id="last-interval"),
            # the camera sits beside the footprint, so every ray starts with a
            # NaN gap; some enter in front of the surface and cross it, others
            # enter behind it and stay invalid
            pytest.param("plane", {"depth": 0.3, "extent": 0.04, "center": (0.04, 0.0), "tilt_x": 0.5},
                         SMALL_CAMERA, DESK_POSE, id="enters-footprint"),
            # rays that cross the near level at x < 0.02 go on into the far
            # level's half, in front of it, and cross again: the first
            # crossing must stay the bracket
            pytest.param("step", {"levels": [0.1, 0.6], "split": 0.02, "extent": 0.2},
                         SMALL_CAMERA, DESK_POSE, id="crosses-twice"),
            pytest.param("step", {"levels": [0.285, 0.315], "split": 0.003, "extent": 0.08},
                         BENCH_CAMERA, DESK_POSE, id="bench-camera-step"),
            # the camera sits over a small footprint and sees past it: rays
            # leave the footprint through all four sides
            pytest.param("plane", {"depth": 0.3, "extent": 0.1, "tilt_y": 0.2},
                         WIDE_CAMERA, DESK_POSE, id="leaves-on-four-sides"),
            pytest.param("sphere-cap", {"radius": 0.04, "center_z": 0.34, "extent": 0.1,
                                        "center": (0.015, -0.01)},
                         SMALL_CAMERA, DESK_POSE, id="off-centre-sphere-cap"),
            # the turned camera sits beside the footprint in y: rays enter it
            # across that side, and 689 of 1,920 leave it before they reach
            # the plane's depth
            pytest.param("plane", {"depth": 0.5, "extent": 0.15, "tilt_x": 0.1, "center": (0.0, -0.1)},
                         SMALL_CAMERA, TURNED_POSE, id="turned-camera"),
        ],
    )
    @pytest.mark.parametrize("iterations", [60, 20])
    def test_matches_fixed_step_bisection(self, monkeypatch, kind, params, camera, pose, iterations):
        intr, width, height = camera
        monkeypatch.setattr("mmfsk.simulate._BISECTIONS", iterations)
        dm = render_depth_map(kind, params, intr, pose, width, height)
        depth, valid = reference_render(kind, params, intr, pose, width, height, iterations=iterations)
        assert valid.any() and not valid.all()
        assert np.array_equal(dm.valid, valid)
        assert dm.depth.tobytes() == depth.tobytes()

    @pytest.mark.parametrize("kind, params", [
        ("plane", {"depth": 0.5, "extent": 0.15, "tilt_x": 0.1, "center": (0.0, -0.1)}),
        ("sphere-cap", {"radius": 0.05, "center_z": 0.4, "extent": 0.12, "center": (0.0, -0.05)}),
        ("step", {"levels": [0.38, 0.42], "split": 0.0, "extent": 0.12, "center": (0.0, -0.05)}),
    ])
    def test_pieces_do_not_change_bytes(self, monkeypatch, kind, params):
        intr, width, height = SMALL_CAMERA
        monkeypatch.setattr("mmfsk.simulate._SCAN_RAYS", width * height)
        monkeypatch.setattr("mmfsk.simulate._BISECT_RAYS", width * height)
        whole = render_depth_map(kind, params, intr, TURNED_POSE, width, height)
        assert whole.valid.any() and not whole.valid.all()
        # scan bands of 1 row (40 bands) and of 7 (6, the last one shorter);
        # bisection runs of 7 bracketed rays and of 100
        for rows, run in ((1, 7), (7, 100)):
            monkeypatch.setattr("mmfsk.simulate._SCAN_RAYS", rows * width)
            monkeypatch.setattr("mmfsk.simulate._BISECT_RAYS", run)
            assert render_depth_map(kind, params, intr, TURNED_POSE, width, height).depth.tobytes() == \
                whole.depth.tobytes()

    def test_rays_missing_surface_are_invalid(self):
        intr = CameraIntrinsics(f_u=40.0, f_v=40.0, c_u=31.5, c_v=31.5)  # wide FOV
        dm = render_depth_map("plane", {"depth": 0.3, "extent": 0.02}, intr, Extrinsics.identity(), 64, 64)
        assert dm.valid.any() and not dm.valid.all()


@pytest.mark.parametrize("split", [-0.003, 0.003])
def test_camera_prior_working_set(split):
    # A benchmark camera frame: render, 1 mm noise and 5 % dropout as the
    # CLI adds them, then the prior. Neither step may hold a temporary the
    # size of the image or the mesh (9.5 and 9.9 MiB before they were cut
    # into bands and chunks); numpy's allocations are the same on every run.
    intr, width, height = BENCH_CAMERA
    params = {"levels": [0.282, 0.312], "split": split, "extent": 0.08, "spacing": 0.0015}
    tracemalloc.start()
    try:
        dm = render_depth_map("step", params, intr, DESK_POSE, width, height)
        render_peak = tracemalloc.get_traced_memory()[1]
        dm = _degrade_depth_map(dm, 1.0, 0.05, 7)
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        build_prior(dm, intr, DESK_POSE, CandidateGrid.regular(64, 64, 0.001))
        prior_peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert render_peak < 4.5 * 2**20
    assert prior_peak < 7.5 * 2**20

"""Acceptance suite: one test per release criterion, each printing a
single PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Every tolerance is fixed here; nothing is calibrated at runtime. The
slowest entries are the full-profile runtime comparison and the 100-scene
closed-loop sweep; the whole module runs in a few minutes on a laptop.
"""

import time
from pathlib import Path

import numpy as np
from scipy.stats import spearmanr

from mmfsk import (
    FREQUENCY_PAIRS,
    CandidateGrid,
    FrequencySet,
    Scene,
    VoxelGridSpec,
    backproject,
    chamfer_one_way,
    fsk2_reconstruct,
    fsk3_reconstruct,
    magnitude_filter,
    make_scene,
    max_unambiguous_depth,
    mimo_cross_array,
    projective_error,
    rasterize_prior,
    simulate_baseband,
    surface_depth,
    triangulate,
)
from mmfsk.simulate import NoiseSpec
from corpus import artifacts, tree_digest
from scenarios import recovery_run
from test_correlate import random_instance, reference_correlation
from test_depth_prior import circumcircle_violations, lattice_pixels, scattered_mask
from test_metrics import brute_force_chamfer

DESK_ARRAY = mimo_cross_array(16, 16, 0.20)
PLANE = {"depth": 0.30, "extent": 0.08, "spacing": 0.0015}


def report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_correction_window_reference_values():
    """Six bundled frequency pairs reproduce the published windows."""
    expected_cm = {"0.5": 13.60, "1.0": 7.32, "2.0": 3.66, "4.0": 1.83, "8.0": 0.93, "10.0": 0.75}
    worst = 0.0
    for name, (f1, f2) in FREQUENCY_PAIRS.items():
        got = max_unambiguous_depth(f2 - f1) * 100
        worst = max(worst, abs(got - expected_cm[name]))
    report("correction-window-values", worst <= 0.05, f"max deviation {worst:.4f} cm (tol 0.05)")


def test_closed_loop_recovery_100_scenes():
    """Per-pixel priors inside 0.9x the window recover depth to < 1 mm."""
    grid = CandidateGrid.regular(64, 64, 0.001)
    start = time.perf_counter()
    worst = max(recovery_run(DESK_ARRAY, grid, seed) for seed in range(100))
    elapsed = time.perf_counter() - start
    ok = worst < 0.001 and elapsed < 120.0
    report("closed-loop-recovery", ok, f"worst {worst * 1000:.3f} mm over 100 scenes in {elapsed:.0f}s")


def test_wrap_failure_ordering():
    """Coarse scalar prior: wide window succeeds, narrow window wraps, and
    per-pixel priors rescue the narrow window."""
    grid = CandidateGrid.regular(48, 48, 0.001)
    scene = make_scene("plane", PLANE)
    truth = 0.30

    wide = FrequencySet.from_pair_name("0.5")
    img_wide = fsk2_reconstruct(simulate_baseband(scene, DESK_ARRAY, wide), grid.with_scalar_prior(0.40), DESK_ARRAY, wide)
    err_wide = float(np.abs(img_wide.depth - truth).mean())

    narrow = FrequencySet.from_pair_name("10.0")
    bb_narrow = simulate_baseband(scene, DESK_ARRAY, narrow)
    img_narrow = fsk2_reconstruct(bb_narrow, grid.with_scalar_prior(0.40), DESK_ARRAY, narrow)
    window = max_unambiguous_depth(narrow.delta())
    stuck = float(np.abs(img_narrow.depth - 0.40).max())
    err_narrow = float(np.abs(img_narrow.depth - truth).mean())

    rng = np.random.default_rng(0)
    prior = truth + rng.uniform(-0.002, 0.002, (48, 48))
    img_mm = fsk2_reconstruct(bb_narrow, grid.with_prior(prior), DESK_ARRAY, narrow)
    err_mm = float(np.abs(img_mm.depth - truth).max())

    ok = err_wide < 0.002 and stuck <= window + 1e-9 and err_narrow > 0.05 and err_mm < 0.002
    report(
        "wrap-failure-ordering", ok,
        f"2fsk d0.5 mean {err_wide * 1000:.2f} mm; 2fsk d10 stuck at prior +/-{stuck * 1000:.2f} mm"
        f" (err {err_narrow * 100:.1f} cm); mm2fsk d10 max {err_mm * 1000:.2f} mm",
    )


def test_error_trend_across_windows():
    """Median eroded projective error decreases with frequency difference
    under prior noise and measurement noise."""
    grid = CandidateGrid.regular(48, 48, 0.001)
    gx, gy = np.meshgrid(grid.x, grid.y)
    truth = surface_depth("plane", PLANE, gx, gy)
    scene = make_scene("plane", PLANE)
    deltas, medians = [], []
    for name in sorted(FREQUENCY_PAIRS, key=float):
        freqs = FrequencySet.from_pair_name(name)
        errors = []
        for seed in range(20):
            rng = np.random.default_rng(1000 + seed)
            prior = truth + rng.normal(0.0, 0.002, truth.shape)
            bb = simulate_baseband(scene, DESK_ARRAY, freqs, NoiseSpec(snr_db=20.0, seed=seed))
            img = fsk2_reconstruct(bb, grid.with_prior(prior), DESK_ARRAY, freqs)
            kept = magnitude_filter(img)
            depth = np.where(kept.valid, img.depth, np.nan)
            errors.append(projective_error(depth, truth, erode=1))
        deltas.append(freqs.delta())
        medians.append(float(np.median(errors)))
    rho = float(spearmanr(deltas, medians).statistic)
    detail = "medians(cm) " + " ".join(f"{m * 100:.3f}" for m in medians) + f"; spearman {rho:.2f}"
    report("error-vs-window-trend", rho <= -0.8, detail)


def test_three_frequency_two_stage():
    """Wide first stage fixes a 10 cm prior; a too-narrow first stage wraps
    and the refinement cannot recover."""
    grid = CandidateGrid.regular(48, 48, 0.001)
    scene = make_scene("plane", PLANE)

    good = FrequencySet.triple_from_pair_names("0.5", "10.0")
    img_good = fsk3_reconstruct(simulate_baseband(scene, DESK_ARRAY, good), grid.with_scalar_prior(0.40), DESK_ARRAY, good)
    err_good = float(np.abs(img_good.depth - 0.30).max())

    bad = FrequencySet.triple_from_pair_names("1.0", "10.0")
    img_bad = fsk3_reconstruct(simulate_baseband(scene, DESK_ARRAY, bad), grid.with_scalar_prior(0.40), DESK_ARRAY, bad)
    err_bad = float(np.abs(img_bad.depth - 0.30).min())

    ok = err_good < 0.001 and err_bad > 0.01
    report("three-frequency-staging", ok,
           f"wide stage max err {err_good * 1000:.2f} mm; narrow stage min err {err_bad * 100:.1f} cm")


def test_backprojection_localization():
    """Sixteen carriers across the 10 GHz band localize a point target
    within the range-resolution bound on a 1 mm voxel pitch."""
    freqs = FrequencySet(tuple(np.linspace(72e9, 82e9, 16)))
    target = (0.004, -0.007, 0.303)
    scene = Scene(np.array([target]), np.ones(1, complex), np.zeros(1))
    spec = VoxelGridSpec((0.032, 0.032, 0.08), (33, 33, 81), (0.0, 0.0, 0.30))
    img = backproject(simulate_baseband(scene, DESK_ARRAY, freqs), spec, DESK_ARRAY, freqs)
    v, u = np.unravel_index(img.magnitude.argmax(), img.magnitude.shape)
    lateral_ok = abs(img.x[u] - target[0]) < 1e-9 and abs(img.y[v] - target[1]) < 1e-9
    depth_err = abs(img.depth[v, u] - target[2])
    ok = lateral_ok and depth_err <= 0.015
    report("backprojection-localization", ok,
           f"column ({img.x[u] * 1000:.0f},{img.y[v] * 1000:.0f}) mm, depth err {depth_err * 1000:.1f} mm (bound 15)")


def test_correlation_matches_serial_reference():
    """The data-parallel engine agrees with a plain five-loop evaluation."""
    worst = 0.0
    for seed in range(10):
        baseband, grid, array, freqs = random_instance(seed)
        got = __import__("mmfsk").correlate_grid(baseband, grid, array, freqs)
        want = reference_correlation(baseband, grid, array, freqs)
        scale = np.abs(want[np.isfinite(want)]).max()
        worst = max(worst, float(np.abs(got - want)[grid.valid].max() / scale))
    report("correlation-oracle-equivalence", worst < 1e-12, f"worst relative deviation {worst:.2e}")


def test_geometry_oracles():
    """Delaunay circumcircles stay empty, planar rasterization matches the
    analytic plane, and the nearest-neighbor metric matches brute force."""
    rng = np.random.default_rng(0)
    violations = 0
    for _ in range(50):
        n = int(rng.integers(10, 501))
        mask = scattered_mask(n, 100, rng)
        pix = lattice_pixels(mask)
        pts = np.column_stack([pix * 0.001, rng.uniform(0.2, 0.4, n)])
        mesh = triangulate(pts, mask)
        violations += circumcircle_violations(pix, mesh.triangles)

    mask = scattered_mask(150, 48, rng)
    pix = lattice_pixels(mask)
    x = (pix[:, 0] - 24) * 0.003
    y = (pix[:, 1] - 24) * 0.003
    z = 0.3 + 0.17 * x - 0.04 * y
    mesh = triangulate(np.column_stack([x, y, z]), mask)
    grid = rasterize_prior(mesh, CandidateGrid.regular(32, 32, 0.002))
    want = 0.3 + 0.17 * np.meshgrid(grid.x, grid.y)[0] - 0.04 * np.meshgrid(grid.x, grid.y)[1]
    raster_err = float(np.abs(grid.prior_depth - want)[grid.valid].max())

    chamfer_dev = 0.0
    for n, m in ((100, 170), (1200, 800), (2000, 1500)):
        src = rng.normal(size=(n, 3))
        dst = rng.normal(size=(m, 3))
        chamfer_dev = max(chamfer_dev, abs(chamfer_one_way(src, dst) - brute_force_chamfer(src, dst)))

    ok = violations == 0 and raster_err < 1e-6 and chamfer_dev < 1e-12
    report("geometry-oracles", ok,
           f"circumcircle violations {violations}; raster err {raster_err:.1e} m; chamfer dev {chamfer_dev:.1e}")


def test_cli_pipeline_determinism(tmp_path):
    """Identical config and seed give byte-identical artifacts regardless
    of worker count."""
    import json

    from mmfsk.cli import main

    def run(outdir: Path, workers: int):
        cfg = {
            "seed": 3,
            "output_dir": str(outdir),
            "scene": {"kind": "step", "params": {"levels": [0.28, 0.32], "extent": 0.06, "spacing": 0.002}},
            "array": {"n_tx": 8, "n_rx": 8, "aperture": 0.2},
            "grid": {"width": 24, "height": 24, "spacing": 0.002},
            "frequencies": {"pair": "10.0"},
            "methods": ["mm2fsk"],
            "prior": {"mode": "camera"},
            "noise": {"snr_db": 25, "seed": 3},
        }
        path = outdir.parent / f"cfg_{outdir.name}.json"
        path.write_text(json.dumps(cfg))
        for cmd in ("simulate", "prior", "reconstruct", "eval"):
            assert main([cmd, "-c", str(path), "--workers", str(workers)]) == 0

    run(tmp_path / "a", workers=1)
    run(tmp_path / "b", workers=3)
    run(tmp_path / "c", workers=1)
    a, b, c = (artifacts(tree_digest(tmp_path / name)) for name in "abc")
    same_workers = a == c
    cross_workers = a == b
    ok = same_workers and cross_workers
    report("pipeline-determinism", ok,
           f"rerun identical: {same_workers}; across worker counts: {cross_workers}")


def test_runtime_ordering_full_profile():
    """At the full panel profile, the two-frequency correction is at least
    50x faster than full-volume backprojection. The backprojection time is
    measured on a 3-plane slab and scaled to 201 planes (the per-plane work
    is identical and independent)."""
    array = mimo_cross_array(94, 94, 0.50)
    freqs = FrequencySet.from_pair_name("10.0")
    scene = make_scene("plane", {"depth": 0.30, "extent": 0.32, "spacing": 0.003})
    baseband = simulate_baseband(scene, array, freqs)
    grid = CandidateGrid.regular(301, 301, 0.001).with_scalar_prior(0.30)

    start = time.perf_counter()
    fsk2_reconstruct(baseband, grid, array, freqs, workers=2)
    t_fsk = time.perf_counter() - start

    n_slab = 3
    slab = VoxelGridSpec((0.3, 0.3, 0.2 * (n_slab - 1) / 200), (301, 301, n_slab), (0.0, 0.0, 0.30))
    start = time.perf_counter()
    backproject(baseband, slab, array, freqs, workers=2)
    t_bp = (time.perf_counter() - start) * (201 / n_slab)

    ratio = t_bp / t_fsk
    report("runtime-ordering", ratio >= 50.0,
           f"2fsk {t_fsk:.1f}s vs backprojection est {t_bp:.0f}s; ratio {ratio:.0f}x (need >= 50)")

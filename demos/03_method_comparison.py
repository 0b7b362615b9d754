#! /usr/bin/env python3
"""Four imaging methods on one non-flat scene.

A two-level step breaks the radar-only methods' single scalar prior: at a
10 GHz carrier difference the 2 cm level split exceeds the 7.5 mm
correction window on both sides. Per-pixel priors from the camera pipeline
keep every pixel inside its window. Backprojection needs no prior at all
but two orders of magnitude more work.
"""

import time

import numpy as np

from mmfsk import (
    CameraIntrinsics,
    CandidateGrid,
    Extrinsics,
    FrequencySet,
    VoxelGridSpec,
    backproject,
    build_prior,
    evaluate_image,
    fsk2_reconstruct,
    fsk3_reconstruct,
    magnitude_filter,
    make_scene,
    mimo_cross_array,
    render_depth_map,
    simulate_baseband,
)
from mmfsk.metrics import report_table

array = mimo_cross_array(16, 16, 0.20)
grid = CandidateGrid.regular(64, 64, 0.001)
kind = "step"
params = {"levels": [0.285, 0.305], "extent": 0.08, "spacing": 0.0015}
scene = make_scene(kind, params)
scalar_prior = 0.33  # plausible guess, 2.5-4.5 cm off both levels

pair = FrequencySet.from_pair_name("10.0")
triple = FrequencySet.triple_from_pair_names("0.5", "10.0")
wideband = FrequencySet(tuple(np.linspace(72e9, 82e9, 16)))

# Camera-derived per-pixel prior for the multimodal method.
intr = CameraIntrinsics(216.0, 216.0, 35.5, 35.5)
ext = Extrinsics.identity()
camera_prior = build_prior(render_depth_map(kind, params, intr, ext, 72, 72), intr, ext, grid)

reports = []
timings = {}

# =============================================================================
# Radar-only two-frequency correction with the scalar prior.

bb = simulate_baseband(scene, array, pair)
t0 = time.perf_counter()
img = fsk2_reconstruct(bb, grid.with_scalar_prior(scalar_prior), array, pair)
timings["2fsk"] = time.perf_counter() - t0
reports.append(evaluate_image(magnitude_filter(img), kind, params, label="2fsk@d10.0"))

# =============================================================================
# Three carriers: the close pair (0.55 GHz apart) fixes the scalar prior
# coarsely, then the wide differences refine per pixel.

bb3 = simulate_baseband(scene, array, triple)
t0 = time.perf_counter()
img = fsk3_reconstruct(bb3, grid.with_scalar_prior(scalar_prior), array, triple)
timings["3fsk"] = time.perf_counter() - t0
reports.append(evaluate_image(magnitude_filter(img), kind, params, label="3fsk@t0.5-10.0"))

# =============================================================================
# The multimodal route: per-pixel camera priors, same two carriers.

t0 = time.perf_counter()
img = fsk2_reconstruct(bb, camera_prior, array, pair)
timings["mm2fsk"] = time.perf_counter() - t0
reports.append(evaluate_image(magnitude_filter(img), kind, params, label="mm2fsk@d10.0"))

# =============================================================================
# Backprojection with sixteen carriers for reference.

bb16 = simulate_baseband(scene, array, wideband)
spec = VoxelGridSpec((0.064, 0.064, 0.05), (65, 65, 26), (0.0, 0.0, 0.295))
t0 = time.perf_counter()
img = backproject(bb16, spec, array, wideband)
timings["bp"] = time.perf_counter() - t0
reports.append(evaluate_image(magnitude_filter(img), kind, params, label="bp@16f"))

# =============================================================================

print(report_table(reports))
print("\nwall time per reconstruction:")
for name, dt in timings.items():
    print(f"  {name:>7}: {dt * 1000:8.1f} ms")

by_label = {r.label: r.p_eroded for r in reports}
assert by_label["mm2fsk@d10.0"] < by_label["2fsk@d10.0"]
assert by_label["mm2fsk@d10.0"] < by_label["3fsk@t0.5-10.0"]
print("\nper-pixel priors beat the scalar-prior methods on this geometry,")
print("at a fraction of backprojection's cost.")

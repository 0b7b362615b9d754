#! /usr/bin/env python3
"""Accuracy versus carrier separation under realistic disturbances.

With per-pixel priors the correction window no longer constrains where the
object can be, so larger carrier differences are purely a win: the same
residual phase noise converts to proportionally less depth error. This
sweep adds 2 mm of prior noise and 20 dB SNR measurement noise and watches
the eroded projective error fall as the difference frequency grows.
"""

import numpy as np

from mmfsk import (
    FREQUENCY_PAIRS,
    CandidateGrid,
    FrequencySet,
    magnitude_filter,
    make_scene,
    mimo_cross_array,
    mm2fsk_reconstruct,
    projective_error,
    simulate_baseband,
    surface_depth,
)
from mmfsk.metrics import spearman_rho
from mmfsk.simulate import NoiseSpec

array = mimo_cross_array(16, 16, 0.20)
grid = CandidateGrid.regular(48, 48, 0.001)
params = {"depth": 0.30, "extent": 0.08, "spacing": 0.0015}
scene = make_scene("plane", params)
gx, gy = np.meshgrid(grid.x, grid.y)
truth = surface_depth("plane", params, gx, gy)

SEEDS = range(8)
print(f"{'pair':>6} {'window mm':>10} {'median P_eroded mm':>20}")
deltas, medians = [], []
for name in sorted(FREQUENCY_PAIRS, key=float):
    freqs = FrequencySet.from_pair_name(name)
    errs = []
    for seed in SEEDS:
        rng = np.random.default_rng(100 + seed)
        prior = truth + rng.normal(0.0, 0.002, truth.shape)
        bb = simulate_baseband(scene, array, freqs, NoiseSpec(snr_db=20.0, seed=seed))
        image = mm2fsk_reconstruct(bb, grid.with_prior(prior), array, freqs)
        kept = magnitude_filter(image)
        errs.append(projective_error(np.where(kept.valid, image.depth, np.nan), truth, erode=1))
    window = 299792458.0 / (4 * freqs.delta())
    deltas.append(freqs.delta())
    medians.append(float(np.median(errs)))
    print(f"{name:>6} {window * 1000:10.2f} {medians[-1] * 1000:20.4f}")

rho = spearman_rho(deltas, medians)
print(f"\nspearman(delta_f, median error) = {rho:.2f}")
assert rho <= -0.8
print("monotone improvement: the widest carrier separation is the most accurate,")
print("because per-pixel priors already solved the ambiguity problem for it.")

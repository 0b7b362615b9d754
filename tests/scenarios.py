"""Shared closed-loop scenarios used by module tests and the acceptance
suite: randomized single-surface scenes with per-pixel priors drawn inside
the unambiguous correction window."""

import numpy as np

from mmfsk import (
    CandidateGrid,
    FrequencySet,
    fsk2_reconstruct,
    magnitude_filter,
    make_scene,
    max_unambiguous_depth,
    simulate_baseband,
    surface_depth,
)

# Configurations whose windows keep the permitted prior error small enough
# that defocus and aperture averaging stay well under the recovery bound at
# desk scale; the wider windows admit multi-centimeter prior errors whose
# residual geometric bias alone exceeds a millimeter.
RECOVERY_PAIRS = ("8.0", "10.0")


def random_surface(rng):
    """Random plane or mildly tilted plane covering the desk grid."""
    depth = 0.28 + 0.06 * rng.random()
    params = {"depth": depth, "extent": 0.08, "spacing": 0.0015}
    if rng.random() < 0.5:
        params["tilt_x"] = (rng.random() - 0.5) * 0.06
        params["tilt_y"] = (rng.random() - 0.5) * 0.06
    return "plane", params


def recovery_run(array, grid: CandidateGrid, seed: int, pair: str | None = None,
                 margin: float = 0.9):
    """One closed-loop run: simulate, perturb priors inside the window,
    reconstruct, filter. Returns the max |depth error| in meters over the
    filtered pixels."""
    rng = np.random.default_rng(seed)
    kind, params = random_surface(rng)
    freqs = FrequencySet.from_pair_name(pair or RECOVERY_PAIRS[seed % len(RECOVERY_PAIRS)])
    window = max_unambiguous_depth(freqs.delta())
    gx, gy = np.meshgrid(grid.x, grid.y)
    truth = surface_depth(kind, params, gx, gy)
    ok = np.isfinite(truth)
    prior = truth + rng.uniform(-margin * window, margin * window, truth.shape)
    prior_grid = grid.with_prior(np.where(ok, prior, np.nan))
    baseband = simulate_baseband(make_scene(kind, params), array, freqs)
    image = fsk2_reconstruct(baseband, prior_grid, array, freqs)
    kept = magnitude_filter(image).valid & ok
    return float(np.abs(image.depth - truth)[kept].max())

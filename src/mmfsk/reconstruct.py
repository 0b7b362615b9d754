"""Depth imaging methods built on the correlation engine.

Every correction method uses one formula: the residual phase of a
differential phasor, scaled by c/(4 pi f_eff), is added to the depth prior
(``_corrected_image``). Two-frequency imaging applies it once; the math is
identical whether the prior is one scalar (radar-only mode) or per-pixel
values from the optical pipeline. The three-frequency variant is
two-frequency imaging on its closest carrier pair, followed by the same
correction on the averaged fine pairs. Backprojection sweeps a voxel volume
and keeps, per lateral column, the depth of the strongest mean phasor; it
needs no prior but two to three orders of magnitude more work.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .correlate import CandidateGrid, correlate_grid, mean_pair_phasors
from .errors import ConfigurationError, EmptyImageError, StructuralError
from .signal_core import (
    AntennaArray,
    BasebandTensor,
    FrequencySet,
    differential_phasor,
    freeze,
    phase_to_depth_correction,
    residual_phase,
)

DEFAULT_FILTER_DB = -14.0
_BP_RUN_POINTS = 4096  # voxels per backproject correlation call, rounded down to whole planes (one at least)


@dataclass(frozen=True)
class RadarImage:
    """Reconstructed depth map on a lateral grid.

    ``magnitude`` is the arithmetic mean of the per-carrier mean-phasor
    magnitudes; ``joint_magnitude`` is the magnitude of the mean phasor over
    carriers *and* pairs (the quantity the clutter filter thresholds). For
    backprojection both fields hold the max-projected voxel magnitude.
    NaN depth marks a pixel without a value, and all three planes read NaN
    there; ``valid`` is derived, not passed: the mask of finite depths. The
    planes and the mask are stored read-only.
    """

    x: np.ndarray                # (W,)
    y: np.ndarray                # (H,)
    depth: np.ndarray            # (H, W)
    magnitude: np.ndarray        # (H, W)
    joint_magnitude: np.ndarray  # (H, W)
    valid: np.ndarray = field(init=False)  # (H, W) bool, np.isfinite(depth)

    def __post_init__(self):
        shape = (np.size(self.y), np.size(self.x))
        planes = {name: np.asarray(getattr(self, name), dtype=np.float64)
                  for name in ("depth", "magnitude", "joint_magnitude")}
        for name, plane in planes.items():
            if plane.shape != shape:
                raise StructuralError(f"{name} must have shape {shape}")
        valid = np.isfinite(planes["depth"])
        freeze(self, valid=valid, **{name: np.where(valid, plane, np.nan) for name, plane in planes.items()})

    @property
    def n_valid(self) -> int:
        return int(self.valid.sum())

    def points(self) -> tuple:
        """Valid pixels as an (N, 3) cloud plus their magnitudes."""
        gx, gy = np.meshgrid(self.x, self.y)
        m = self.valid
        cloud = np.column_stack([gx[m], gy[m], self.depth[m]])
        return cloud, self.magnitude[m]


@dataclass(frozen=True)
class VoxelGridSpec:
    """Axis-aligned voxel volume: physical extents, voxel counts per axis,
    and center. Voxel centers span the extents inclusively."""

    extents: tuple    # (ex, ey, ez) meters
    resolution: tuple  # (nx, ny, nz)
    center: tuple     # (cx, cy, cz) meters

    def __post_init__(self):
        if len(self.extents) != 3 or not all(0.0 < e < np.inf for e in self.extents):
            raise ConfigurationError("extents must be three finite positive lengths")
        if len(self.resolution) != 3 or any(isinstance(n, bool) or n != int(n) or n < 1
                                            for n in self.resolution):
            raise ConfigurationError("resolution must be three integer counts >= 1")
        if len(self.center) != 3 or not np.isfinite(self.center).all():
            raise ConfigurationError("center must be three finite coordinates")
        freeze(self, extents=tuple(float(e) for e in self.extents),
               resolution=tuple(int(n) for n in self.resolution),
               center=tuple(float(c) for c in self.center))

    def axis(self, i: int) -> np.ndarray:
        n = self.resolution[i]
        if n == 1:
            return np.array([self.center[i]])
        half = self.extents[i] / 2.0
        return np.linspace(self.center[i] - half, self.center[i] + half, n)


def _corrected_image(grid: CandidateGrid, phasors: np.ndarray, diff: np.ndarray, f_eff: float) -> RadarImage:
    """Add the depth correction of the differential phasor ``diff`` at the
    effective difference frequency ``f_eff`` to the grid's priors. The
    magnitudes come from the per-carrier ``phasors``, which are NaN off the
    prior like ``diff``, so the corrected depth is NaN there too."""
    with np.errstate(invalid="ignore"):
        correction = phase_to_depth_correction(residual_phase(diff), f_eff)
    return RadarImage(
        x=grid.x,
        y=grid.y,
        depth=grid.prior_depth + correction,
        magnitude=np.abs(phasors).mean(axis=-1),
        joint_magnitude=np.abs(phasors.mean(axis=-1)),
    )


def fsk2_reconstruct(
    baseband: BasebandTensor,
    grid: CandidateGrid,
    array: AntennaArray,
    freqs: FrequencySet,
    workers: int | None = None,
) -> RadarImage:
    """Two-frequency depth correction of the grid's priors.

    Per valid pixel: correlate at both carriers, form the differential
    phasor, convert its residual phase at the difference frequency into a
    depth correction, and add it to the prior. Corrections are confined to
    the +/- c/(4 delta_f) window; a prior further off than that wraps to the
    wrong depth, which is the method's documented failure mode.
    """
    if len(freqs) != 2:
        raise ConfigurationError("two-frequency imaging needs exactly 2 carriers")
    phasors = correlate_grid(baseband, grid, array, freqs, workers=workers)
    diff = differential_phasor(phasors[..., 0], phasors[..., 1])
    return _corrected_image(grid, phasors, diff, freqs.delta())


def fsk3_reconstruct(
    baseband: BasebandTensor,
    grid: CandidateGrid,
    array: AntennaArray,
    freqs: FrequencySet,
    workers: int | None = None,
) -> RadarImage:
    """Three-frequency, two-stage depth correction.

    Stage one is two-frequency imaging on the most closely spaced carrier
    pair; its wide window tolerates a coarse (typically scalar) prior.
    Stage two re-correlates all three carriers at the corrected per-pixel
    depths and refines them with the two remaining, much larger frequency
    differences combined coherently.
    """
    if len(freqs) != 3:
        raise ConfigurationError("three-frequency imaging needs exactly 3 carriers")
    pairs = [(0, 1), (0, 2), (1, 2)]
    deltas = [freqs[j] - freqs[i] for i, j in pairs]
    coarse = int(np.argmin(deltas))
    fine_pairs = [p for n, p in enumerate(pairs) if n != coarse]
    fine_deltas = [d for n, d in enumerate(deltas) if n != coarse]

    i, j = pairs[coarse]
    coarse_band = BasebandTensor(baseband.data[..., [i, j]])
    stage1 = fsk2_reconstruct(coarse_band, grid, array, FrequencySet((freqs[i], freqs[j])), workers=workers)
    refined = grid.with_prior(stage1.depth)

    # Stage two averages the fine pairs' differential phasors; their
    # effective difference frequency is the mean of the pair differences.
    phasors = correlate_grid(baseband, refined, array, freqs, workers=workers)
    avg = sum(differential_phasor(phasors[..., i], phasors[..., j]) for i, j in fine_pairs)
    return _corrected_image(refined, phasors, avg / len(fine_pairs), float(np.mean(fine_deltas)))


def backproject(
    baseband: BasebandTensor,
    spec: VoxelGridSpec,
    array: AntennaArray,
    freqs: FrequencySet,
    workers: int | None = None,
) -> RadarImage:
    """Voxel-sweep imaging with maximum-intensity projection along depth.

    Every voxel scores the magnitude of its mean residual phasor over all
    pairs and carriers; each lateral column keeps the depth of its strongest
    voxel, one ``argmax`` over the score volume (ties: the smallest depth).
    Works with any number of carriers and no prior, at full voxel-grid
    cost; the volume is correlated in runs of whole depth planes of at most
    ``_BP_RUN_POINTS`` voxels (or one plane), which bounds each call's
    memory, and keeps one score per voxel.
    """
    xs, ys, zs = spec.axis(0), spec.axis(1), spec.axis(2)
    per_run = max(1, _BP_RUN_POINTS // (len(ys) * len(xs)))
    ones = np.ones(len(freqs))  # the carrier mean as a GEMV, not a pairwise row sum
    runs = []
    for lo in range(0, len(zs), per_run):  # ascending runs of whole depth planes, plane-major
        pts = np.stack(np.meshgrid(zs[lo:lo + per_run], ys, xs, indexing="ij")[::-1], axis=-1).reshape(-1, 3)
        runs.append(np.abs(mean_pair_phasors(pts, baseband, array, freqs, workers=workers) @ ones / len(freqs)))
    score = np.concatenate(runs).reshape(len(zs), len(ys), len(xs))
    best = score.max(axis=0)
    return RadarImage(
        x=xs,
        y=ys,
        depth=zs[score.argmax(axis=0)],  # argmax: the first, smallest-depth maximum
        magnitude=best,
        joint_magnitude=best,
    )


def magnitude_filter(image: RadarImage, threshold_db: float = DEFAULT_FILTER_DB) -> RadarImage:
    """Drop pixels whose joint mean-phasor magnitude falls below
    ``threshold_db`` (at most 0) relative to the image maximum: their depth
    becomes NaN."""
    if not threshold_db <= 0.0:
        raise ConfigurationError(f"filter threshold must be a number <= 0 dB, got {threshold_db!r}")
    if not image.valid.any():
        raise EmptyImageError("cannot filter an image with no valid pixels")
    floor = float(np.nanmax(image.joint_magnitude[image.valid])) * 10.0 ** (threshold_db / 20.0)
    return replace(image, depth=np.where(image.joint_magnitude >= floor, image.depth, np.nan))

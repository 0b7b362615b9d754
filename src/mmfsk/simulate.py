"""Forward model: synthetic scenes and the baseband tensors they produce.

The simulator replaces a physical radar capture: every TX-RX pair and
carrier receives the coherent sum of ideal point-target echoes, optionally
disturbed by seeded circular complex Gaussian noise. Scene builders sample
simple analytic surfaces (planes, sphere caps, two-level steps) so that the
ground truth is known in closed form, and a small ray-casting renderer
produces the matching optical depth maps for the prior pipeline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .correlate import precompute_distance_tables
from .depth_prior import CameraIntrinsics, Extrinsics, OpticalDepthMap
from .errors import ConfigurationError
from .signal_core import (
    SPEED_OF_LIGHT,
    AntennaArray,
    BasebandTensor,
    FrequencySet,
    Scene,
)

SCENE_KINDS = ("plane", "sphere-cap", "step", "random-cloud")

# Targets are accumulated in fixed-size chunks with a fixed-order einsum so
# the result never depends on threading or scheduling.
_TARGET_CHUNK = 512


@dataclass(frozen=True)
class NoiseSpec:
    """Measurement noise description: target SNR in dB (None = noise-free)
    and the PRNG seed. Generation uses the counter-based Philox algorithm,
    so a given (spec, scene) always yields a bit-identical tensor."""

    snr_db: float | None = None
    seed: int = 0

    algorithm = "philox"

    @property
    def enabled(self) -> bool:
        return self.snr_db is not None


def _lateral_samples(extent: float, spacing: float, center: float = 0.0) -> np.ndarray:
    if extent <= 0.0 or spacing <= 0.0:
        raise ConfigurationError("extent and spacing must be positive")
    n = int(math.floor(extent / spacing)) + 1
    return center + (np.arange(n) - (n - 1) / 2.0) * spacing


def surface_depth(kind: str, params: dict, x, y):
    """Analytic depth z(x, y) of a surface scene; NaN outside its footprint.

    Supported kinds: ``plane`` (optionally tilted), ``sphere-cap`` (near side
    of a sphere facing the aperture), ``step`` (two depth levels split along
    x). ``random-cloud`` has no surface and is rejected.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    cx, cy = params.get("center", (0.0, 0.0))
    extent = float(params.get("extent", 0.1))
    inside = (np.abs(x - cx) <= extent / 2.0) & (np.abs(y - cy) <= extent / 2.0)

    if kind == "plane":
        z = (
            float(params["depth"])
            + float(params.get("tilt_x", 0.0)) * (x - cx)
            + float(params.get("tilt_y", 0.0)) * (y - cy)
        )
        z = np.broadcast_to(np.asarray(z, dtype=np.float64), inside.shape).copy()
    elif kind == "sphere-cap":
        radius = float(params["radius"])
        center_z = float(params["center_z"])
        if radius <= 0.0:
            raise ConfigurationError("sphere-cap radius must be positive")
        lat2 = (x - cx) ** 2 + (y - cy) ** 2
        with np.errstate(invalid="ignore"):
            z = center_z - np.sqrt(radius**2 - lat2)
        inside = inside & (lat2 <= radius**2)
    elif kind == "step":
        lo, hi = (float(v) for v in params["levels"])
        split = float(params.get("split", cx))
        z = np.where(x < split, lo, hi).astype(np.float64)
    elif kind == "random-cloud":
        raise ConfigurationError("random-cloud scenes have no analytic surface")
    else:
        raise ConfigurationError(f"unknown scene kind {kind!r}")

    z = np.where(inside, z, np.nan)
    return float(z) if np.ndim(x) == 0 and np.ndim(y) == 0 else z


def make_scene(kind: str, params: dict) -> Scene:
    """Deterministic point-target set for a named scene kind.

    Surface kinds are sampled on a regular lateral grid at
    ``params["spacing"]``; ``random-cloud`` draws ``params["n"]`` targets
    uniformly inside ``params["bounds"]`` using the given seed. Common
    optional params: ``amplitude`` (default 1.0) and ``phase_offset``
    radians (default 0.0).
    """
    if kind not in SCENE_KINDS:
        raise ConfigurationError(f"unknown scene kind {kind!r} (known: {', '.join(SCENE_KINDS)})")

    amp = complex(params.get("amplitude", 1.0))
    phi = float(params.get("phase_offset", 0.0))

    if kind == "random-cloud":
        n = int(params.get("n", 64))
        bounds = np.asarray(params.get("bounds", [[-0.05, 0.05], [-0.05, 0.05], [0.25, 0.35]]), dtype=np.float64)
        if bounds.shape != (3, 2) or np.any(bounds[:, 1] <= bounds[:, 0]):
            raise ConfigurationError("bounds must be three (min, max) intervals")
        rng = np.random.Generator(np.random.Philox(int(params.get("seed", 0))))
        pos = bounds[:, 0] + rng.random((n, 3)) * (bounds[:, 1] - bounds[:, 0])
    else:
        spacing = float(params.get("spacing", 0.002))
        extent = float(params.get("extent", 0.1))
        cx, cy = params.get("center", (0.0, 0.0))
        xs = _lateral_samples(extent, spacing, cx)
        ys = _lateral_samples(extent, spacing, cy)
        gx, gy = np.meshgrid(xs, ys)
        gz = surface_depth(kind, params, gx, gy)
        keep = np.isfinite(gz)
        pos = np.column_stack([gx[keep], gy[keep], gz[keep]])
        if pos.shape[0] == 0:
            raise ConfigurationError("scene footprint contains no samples")

    n = pos.shape[0]
    return Scene(pos, np.full(n, amp, dtype=np.complex128), np.full(n, phi))


def simulate_baseband(
    scene: Scene,
    array: AntennaArray,
    freqs: FrequencySet,
    noise: NoiseSpec | None = None,
) -> BasebandTensor:
    """Coherent sum of point-target echoes for every pair and carrier.

    Entry (t, r, k) is sum over targets of
    ``A * exp(-j 2 pi f_k rho / c + j phi)`` with ``rho`` the exact bistatic
    round trip for that pair; optional noise is i.i.d. circular complex
    Gaussian scaled so mean clean power over noise power matches the
    requested SNR.
    """
    noise = noise or NoiseSpec()
    n_t, n_r, n_f = array.n_tx, array.n_rx, len(freqs)

    data = np.zeros((n_t, n_r, n_f), dtype=np.complex128)
    wavenumbers = [-2j * np.pi * f / SPEED_OF_LIGHT for f in freqs.frequencies]

    for start in range(0, scene.n_targets, _TARGET_CHUNK):
        sl = slice(start, start + _TARGET_CHUNK)
        pos = scene.positions[sl]
        amp = scene.reflectivities[sl] * np.exp(1j * scene.phase_offsets[sl])
        # (T, C) and (R, C) copies, so the einsum sums over contiguous targets
        dtx, drx = (np.ascontiguousarray(d.T) for d in precompute_distance_tables(pos, array))
        for k, wk in enumerate(wavenumbers):
            et = np.exp(wk * dtx) * amp[None, :]
            er = np.exp(wk * drx)
            data[:, :, k] += np.einsum("tc,rc->tr", et, er)

    if noise.enabled:
        power = float(np.mean(np.abs(data) ** 2))
        sigma = math.sqrt(power * 10.0 ** (-float(noise.snr_db) / 10.0))
        rng = np.random.Generator(np.random.Philox(noise.seed))
        draws = rng.standard_normal((n_t, n_r, n_f, 2))
        data = data + (sigma / math.sqrt(2.0)) * (draws[..., 0] + 1j * draws[..., 1])

    return BasebandTensor(data)


def render_depth_map(
    kind: str,
    params: dict,
    intrinsics: CameraIntrinsics,
    extrinsics: Extrinsics,
    width: int,
    height: int,
    iterations: int = 60,
) -> OpticalDepthMap:
    """Synthetic optical depth map of a surface scene.

    Casts one ray per pixel from a camera whose pose maps camera
    coordinates into the radar frame (p_radar = R p_cam + t) and intersects
    it with the analytic surface by bisection on camera depth. Pixels whose
    rays miss the surface footprint come back invalid, which is exactly how
    real depth cameras fail.

    The bracket comes from a coarse scan of 64 camera depths from 1 cm to
    3 m. The scan carries only the rays that have not yet crossed from in
    front of the surface to behind it: a ray leaves at its first crossing,
    and a ray that never crosses is scanned to the end and comes back
    invalid. Bisection then runs on the bracketed rays alone.
    """
    u = np.arange(width, dtype=np.float64)
    v = np.arange(height, dtype=np.float64)
    gu, gv = np.meshgrid(u, v)
    dirs = np.stack(
        [
            (gu - intrinsics.c_u) / intrinsics.f_u,
            (gv - intrinsics.c_v) / intrinsics.f_v,
            np.ones_like(gu),
        ],
        axis=-1,
    )  # camera-frame ray per unit camera depth
    # radar-frame direction per unit camera depth, one contiguous array per axis
    dirs_r = np.ascontiguousarray((dirs @ extrinsics.rotation.T).reshape(-1, 3).T)
    t_x, t_y, t_z = (float(t) for t in extrinsics.translation)

    def gap(s, d):
        return (s * d[2] + t_z) - surface_depth(kind, params, s * d[0] + t_x, s * d[1] + t_y)

    steps = np.linspace(0.01, 3.0, 64)
    hi = np.full(width * height, np.nan)
    ray = np.arange(width * height)  # rays not yet crossed, with their directions
    d = dirs_r
    g_prev = gap(steps[0], d)
    for s in steps[1:]:
        g_cur = gap(s, d)
        crossing = (g_prev < 0.0) & (g_cur >= 0.0)
        if crossing.any():
            hi[ray[crossing]] = s
            keep = ~crossing
            ray, d, g_cur = ray[keep], d[:, keep], g_cur[keep]
        g_prev = g_cur
    valid = np.isfinite(hi)
    hi = hi[valid]
    lo = hi - (steps[1] - steps[0])
    dirs_v = dirs_r[:, valid]
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        below = ~(gap(mid, dirs_v) >= 0.0)  # NaN mid-samples keep searching outward
        new_lo = np.where(below, mid, lo)
        new_hi = np.where(below, hi, mid)
        # The step is a function of (lo, hi) alone: once no bracket moves,
        # every later iteration would repeat this one.
        if np.array_equal(new_lo, lo) and np.array_equal(new_hi, hi):
            break
        lo, hi = new_lo, new_hi
    depth = np.full(width * height, np.nan)
    depth[valid] = 0.5 * (lo + hi)
    valid[valid] = np.isfinite(gap(depth[valid], dirs_v))
    depth[~valid] = np.nan
    return OpticalDepthMap(depth=depth.reshape(height, width), valid=valid.reshape(height, width))

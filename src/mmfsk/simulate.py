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

from .correlate import carrier_phasors, carrier_wavenumbers, distance_table
from .depth_prior import CameraIntrinsics, Extrinsics, OpticalDepthMap
from .errors import ConfigurationError
from .signal_core import (
    AntennaArray,
    BasebandTensor,
    FrequencySet,
    Scene,
)

# The parameters each scene kind reads; the CLI rejects any other key.
_SURFACE = ("center", "extent", "spacing", "amplitude", "phase_offset")
SCENE_PARAMS = {
    "plane": (*_SURFACE, "depth", "tilt_x", "tilt_y"),
    "sphere-cap": (*_SURFACE, "radius", "center_z"),
    "step": (*_SURFACE, "levels", "split"),
    "random-cloud": ("n", "bounds", "seed", "amplitude", "phase_offset"),
}

# Targets are accumulated in fixed-size chunks with a fixed-order einsum so
# the result never depends on threading or scheduling.
_TARGET_CHUNK = 512

_MAX_LATERAL_SAMPLES = 4096  # per axis of a surface scene: 4096**2 targets are 400 MB of (N, 3) float64
_BISECTIONS = 60  # most halvings of a render; a 47 mm bracket reaches its last ulp in about 50
RENDER_DEPTHS = (0.01, 3.0)  # the camera depths (m) a render scans: surfaces outside come back NaN
_SCAN_RAYS = 1 << 13  # rays of one band of the render's scan (whole rows, at least one): 64 KB an array
_BISECT_RAYS = 1 << 14  # bracketed rays one bisection pass halves: 128 KB an array


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
    """At most ``_MAX_LATERAL_SAMPLES`` samples, checked before any is made."""
    if extent <= 0.0 or spacing <= 0.0:
        raise ConfigurationError("extent and spacing must be positive")
    if not math.isfinite(extent / spacing):
        raise ConfigurationError(f"extent / spacing must be finite, got {extent!r} / {spacing!r}")
    if extent / spacing >= _MAX_LATERAL_SAMPLES:
        raise ConfigurationError(f"extent / spacing = {extent!r} / {spacing!r} needs {extent / spacing + 1:.3g} "
                                 f"samples per axis, more than {_MAX_LATERAL_SAMPLES}")
    n = int(math.floor(extent / spacing)) + 1
    return center + (np.arange(n) - (n - 1) / 2.0) * spacing


def _footprint(params: dict):
    """``(cx, cy, half)``: a surface scene's footprint is the square of
    half-width ``half`` around ``(cx, cy)``; every kind is NaN outside it."""
    cx, cy = params.get("center", (0.0, 0.0))
    return cx, cy, float(params.get("extent", 0.1)) / 2.0


def surface_depth(kind: str, params: dict, x, y):
    """Analytic depth z(x, y) of a surface scene; NaN outside its footprint.

    Supported kinds: ``plane`` (optionally tilted), ``sphere-cap`` (near side
    of a sphere facing the aperture), ``step`` (two depth levels split along
    x). ``random-cloud`` has no surface and is rejected.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    cx, cy, half = _footprint(params)
    inside = (np.abs(x - cx) <= half) & (np.abs(y - cy) <= half)

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
        z = np.where(x < split, lo, hi)
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
    if kind not in SCENE_PARAMS:
        raise ConfigurationError(f"unknown scene kind {kind!r} (known: {', '.join(SCENE_PARAMS)})")

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
    wavenumbers = carrier_wavenumbers(freqs, sign=-1.0)
    # Flat buffers for two tables a side, reused by every chunk: the README
    # scene on the full array took 3,400 minor page faults a call with fresh
    # tables, 900 with these.
    flat = [np.empty(2 * n * _TARGET_CHUNK, dtype=np.complex128) for n in (n_t, n_r)]

    for start in range(0, scene.n_targets, _TARGET_CHUNK):
        sl = slice(start, start + _TARGET_CHUNK)
        pos = scene.positions[sl]
        amp = scene.reflectivities[sl] * np.exp(1j * scene.phase_offsets[sl])
        # (T, C) and (R, C) tables, so the einsum sums over contiguous targets
        dtx, drx = (distance_table(e, pos) for e in (array.tx_positions, array.rx_positions))
        # next() binds no name to a table: the next draw overwrites it
        e_tx, e_rx = (carrier_phasors(d, *wavenumbers, f[:2 * d.size].reshape(2, *d.shape))
                      for d, f in zip((dtx, drx), flat))
        for k in range(n_f):
            data[:, :, k] += np.einsum("tc,rc->tr", next(e_tx) * amp, next(e_rx))

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
) -> OpticalDepthMap:
    """Synthetic optical depth map of a surface scene.

    Casts one ray per pixel from a camera whose pose maps camera
    coordinates into the radar frame (p_radar = R p_cam + t) and intersects
    it with the analytic surface by bisection on camera depth. Pixels whose
    rays miss the surface footprint come back NaN, which is exactly how
    real depth cameras fail.

    The bracket comes from a coarse scan of 64 camera depths over
    ``RENDER_DEPTHS``, 1 cm to 3 m. The scan carries only the rays that
    may still cross from in front of the surface to behind it. A ray
    leaves at its first crossing, or once it is outside the footprint
    square and moving away from it: its lateral position is monotone in
    depth, so every later gap is NaN. A ray that leaves without crossing
    comes back NaN. Bisection then runs on the bracketed rays alone, for
    at most ``_BISECTIONS`` halvings.

    Both work in cache-sized pieces, and every ray's result is the same in
    any piece: the scan in bands of whole rows, about ``_SCAN_RAYS`` rays
    each, which stops once the band has no ray left, and bisection in runs
    of ``_BISECT_RAYS`` bracketed rays, with the directions of those alone.
    """
    u, v = ((np.arange(n, dtype=np.float64) - c) / f for n, c, f in
            ((width, intrinsics.c_u, intrinsics.f_u), (height, intrinsics.c_v, intrinsics.f_v)))
    t_x, t_y, t_z = (float(t) for t in extrinsics.translation)
    cx, cy, half = _footprint(params)

    def gap(s, d):  # depth behind the surface at camera depth s, and the lateral position
        x, y = s * d[0] + t_x, s * d[1] + t_y
        return (s * d[2] + t_z) - surface_depth(kind, params, x, y), x, y

    steps = np.linspace(*RENDER_DEPTHS, 64)
    hi = np.full(width * height, np.nan)
    hits = [np.zeros((3, 0))]  # the bracketed rays' directions, band by band
    rows = max(1, _SCAN_RAYS // max(width, 1))
    for top in range(0, height, rows):
        cam = np.empty((min(rows, height - top), width, 3))  # camera-frame ray per unit camera depth
        cam[..., 0], cam[..., 1], cam[..., 2] = u, v[top:top + rows, None], 1.0
        # radar-frame direction per unit camera depth, one contiguous array per axis
        band = np.ascontiguousarray((cam @ extrinsics.rotation.T).reshape(-1, 3).T)
        first = top * width
        ray, d = np.arange(first, first + band.shape[1]), band  # rays still scanned, with their directions
        g_prev = np.full(ray.size, np.nan)
        for s in steps:
            g_cur, x, y = gap(s, d)
            crossing = (g_prev < 0.0) & (g_cur >= 0.0)
            hi[ray[crossing]] = s
            # beyond the footprint on the side the ray moves to (exact: the sign is +-1 or 0)
            gone = crossing | ((x - cx) * np.sign(d[0]) > half) | ((y - cy) * np.sign(d[1]) > half)
            if gone.any():
                keep = ~gone
                ray, d, g_cur = ray[keep], d[:, keep], g_cur[keep]
                if not ray.size:
                    break
            g_prev = g_cur
        hits.append(band[:, np.isfinite(hi[first:first + band.shape[1]])])
    valid = np.isfinite(hi)
    far, dirs = hi[valid], np.concatenate(hits, axis=1)  # the bracketed rays alone
    del hits  # the bands' pieces of dirs
    for piece in (slice(i, i + _BISECT_RAYS) for i in range(0, far.size, _BISECT_RAYS)):
        hi, d = far[piece], dirs[:, piece]
        lo = hi - (steps[1] - steps[0])
        for _ in range(_BISECTIONS):
            mid = 0.5 * (lo + hi)
            below = ~(gap(mid, d)[0] >= 0.0)  # NaN mid-samples keep searching outward
            new_lo = np.where(below, mid, lo)
            new_hi = np.where(below, hi, mid)
            # The step is a function of (lo, hi) alone: once no bracket of
            # the piece moves, every later iteration would repeat this one.
            if np.array_equal(new_lo, lo) and np.array_equal(new_hi, hi):
                break
            lo, hi = new_lo, new_hi
        mid = 0.5 * (lo + hi)
        far[piece] = np.where(np.isfinite(gap(mid, d)[0]), mid, np.nan)  # the piece's depths
    depth = np.full(width * height, np.nan)
    depth[valid] = far
    return OpticalDepthMap(depth.reshape(height, width))

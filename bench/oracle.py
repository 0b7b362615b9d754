"""Independent check of one frame's outputs, written with numpy alone.

Nothing here imports ``mmfsk``. The check reads the files the CLI wrote
(the ``FSKT`` baseband container, the PFM images and the prior-grid JSON)
with its own readers, rebuilds the crossed array from the profile numbers,
and recomputes a seeded sample of pixels from first principles:

- 2FSK and mm2FSK: the per-carrier mean pair phasor at the prior point, then
  the two-frequency correction. The result must match the depth PFM to
  float32 resolution.
- Backprojection: the score of every depth plane in a sampled column; its
  argmax must match the depth PFM.

It then checks a property of the method against the scene's closed-form
surface: a 2FSK pixel whose prior lies inside the c/(4 df) window of the
truth lands within ``fsk_bound``, and an interior backprojection column
lands within the range resolution c/(2B).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

SPEED_OF_LIGHT = 299_792_458.0
PROFILES = {"desk": (16, 16, 0.20), "full": (94, 94, 0.50)}
PAIRS = {"10.0": (72.00e9, 82.00e9)}
FILTER_DB = -14.0

# Pixels closer to a step's edge than this many lateral resolution cells
# see both levels through the aperture's sidelobes, which bends the phase;
# the window property is checked on the pixels beyond.
EDGE_CELLS = 3.0
# Share of the correction window allowed for the deterministic part of the
# per-pixel error, i.e. a residual phase error of pi/4: a prior that is off
# by up to a window correlates slightly out of focus, which biases the
# phase. The noise part is added on top, see fsk_bound().
MODEL_SHARE = 0.25


# ---------------------------------------------------------------------------
# readers


def read_fskt(path) -> np.ndarray:
    """``FSKT`` container: magic, u32 version, three u32 dims, complex64 data."""
    raw = Path(path).read_bytes()
    head = np.frombuffer(raw[:20], dtype="<u4")
    if raw[:4] != b"FSKT" or head[1] != 1:
        raise ValueError(f"{path}: not a version-1 FSKT container")
    dims = tuple(int(d) for d in head[2:5])
    body = np.frombuffer(raw[20:], dtype="<c8")
    if body.size != math.prod(dims):
        raise ValueError(f"{path}: payload does not match {dims}")
    return body.reshape(dims).astype(np.complex128)


def read_pfm(path) -> np.ndarray:
    """Grayscale little-endian PFM; rows come back top-down (row 0 = y[0])."""
    raw = Path(path).read_bytes()
    magic, dims, scale, body = raw.split(b"\n", 3)
    w, h = (int(v) for v in dims.split())
    if magic != b"Pf" or float(scale) >= 0.0 or len(body) != 4 * w * h:
        raise ValueError(f"{path}: not a little-endian grayscale PFM")
    return np.flipud(np.frombuffer(body, dtype="<f4").reshape(h, w)).astype(np.float64)


# ---------------------------------------------------------------------------
# physics


def crossed_array(profile: str):
    """TX along x, RX along y, both spanning the aperture at z = 0."""
    n_tx, n_rx, aperture = PROFILES[profile]
    half = aperture / 2.0
    tx = np.zeros((n_tx, 3))
    rx = np.zeros((n_rx, 3))
    tx[:, 0] = np.linspace(-half, half, n_tx)
    rx[:, 1] = np.linspace(-half, half, n_rx)
    return tx, rx


def carriers(cfg: dict) -> np.ndarray:
    spec = cfg["frequencies"]
    if "pair" in spec:
        return np.array(PAIRS[spec["pair"]])
    return np.array([float(v) * 1e9 for v in spec["values_ghz"]])


def surface_truth(scene: dict, x, y) -> np.ndarray:
    """Closed-form depth of a plane or step scene; NaN off the footprint."""
    p = scene["params"]
    x, y = np.broadcast_arrays(np.asarray(x, float), np.asarray(y, float))
    half = p["extent"] / 2.0
    inside = (np.abs(x) <= half) & (np.abs(y) <= half)
    if scene["kind"] == "plane":
        z = p["depth"] + p.get("tilt_x", 0.0) * x + p.get("tilt_y", 0.0) * y
    elif scene["kind"] == "step":
        lo, hi = p["levels"]
        z = np.where(x < p.get("split", 0.0), lo, hi)
    else:
        raise ValueError(f"no closed form for scene kind {scene['kind']!r}")
    return np.where(inside, z, np.nan)


def mean_phasors(data, tx, rx, freqs, points) -> np.ndarray:
    """(P, F) mean over all TX-RX pairs of measurement times the conjugated
    round-trip hypothesis exp(+j 2 pi f (|tx - p| + |p - rx|) / c)."""
    dtx = np.linalg.norm(points[:, None, :] - tx[None], axis=-1)  # (P, T)
    drx = np.linalg.norm(points[:, None, :] - rx[None], axis=-1)  # (P, R)
    out = np.empty((points.shape[0], freqs.size), dtype=np.complex128)
    for k, f in enumerate(freqs):
        w = 2j * np.pi * f / SPEED_OF_LIGHT
        et, er = np.exp(w * dtx), np.exp(w * drx)
        out[:, k] = np.einsum("pt,tr,pr->p", et, data[:, :, k], er)
    return out / (tx.shape[0] * rx.shape[0])


def fsk_depth(prior, phasors, freqs) -> np.ndarray:
    """prior + c/(4 pi df) * angle(conj(c2 conj(c1))), angle in (-pi, pi]."""
    phase = np.angle(np.conj(phasors[:, 1] * np.conj(phasors[:, 0])))
    phase = np.where(phase == -np.pi, np.pi, phase)
    return prior + SPEED_OF_LIGHT / (4.0 * np.pi * (freqs[1] - freqs[0])) * phase


def window(freqs) -> float:
    return SPEED_OF_LIGHT / (4.0 * (freqs[-1] - freqs[0]))


def fsk_bound(cfg: dict) -> float:
    """Largest |depth - truth| allowed for an in-window 2FSK pixel.

    A correct correction leaves the phase error of the differential phasor,
    scaled by window/pi. Its deterministic part gets MODEL_SHARE of the
    window. Its noise part is bounded at six standard deviations: the mean
    over N pairs of unit phasors with SNR s has a phase deviation of
    1/sqrt(2 s N) per carrier, and sqrt(2) times that for the difference.
    """
    freqs = carriers(cfg)
    n_tx, n_rx, _ = PROFILES[cfg["array"]["profile"]]
    snr = 10.0 ** (cfg["noise"]["snr_db"] / 10.0)
    sigma_phase = math.sqrt(2.0) / math.sqrt(2.0 * snr * n_tx * n_rx)
    w = window(freqs)
    return MODEL_SHARE * w + 6.0 * sigma_phase * w / math.pi


def edge_margin(cfg: dict, freqs) -> float:
    """EDGE_CELLS lateral resolution cells, lambda R / (2 D), at the step's
    mean depth R for an aperture D at the centre carrier."""
    _, _, aperture = PROFILES[cfg["array"]["profile"]]
    depth = float(np.mean(cfg["scene"]["params"]["levels"]))
    return EDGE_CELLS * SPEED_OF_LIGHT / float(np.mean(freqs)) * depth / (2.0 * aperture)


def away_from_edge(cfg: dict, freqs, x) -> np.ndarray:
    if cfg["scene"]["kind"] != "step":
        return np.ones(np.shape(x), dtype=bool)
    return np.abs(x - cfg["scene"]["params"].get("split", 0.0)) >= edge_margin(cfg, freqs)


def voxel_axes(cfg: dict):
    v = cfg["voxel"]
    return [np.linspace(c - e / 2.0, c + e / 2.0, n) if n > 1 else np.array([c])
            for e, n, c in zip(v["extents"], v["resolution"], v["center"])]


def close32(got, want) -> np.ndarray:
    """Equal to float32 resolution: within one float32 ulp of the reference."""
    want32 = np.asarray(want, dtype=np.float32)
    return np.abs(np.asarray(got) - want) <= np.spacing(np.abs(want32)).astype(np.float64)


# ---------------------------------------------------------------------------
# the check


@dataclass
class FrameCheck:
    failures: list = field(default_factory=list)
    sampled: int = 0
    property_pixels: int = 0
    worst_property_m: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.failures


def sample_pixels(valid: np.ndarray, n: int, seed: int) -> np.ndarray:
    """Seeded sample of up to ``n`` valid pixels as (row, column) pairs."""
    idx = np.argwhere(valid)
    rng = np.random.default_rng(seed)
    pick = rng.choice(idx.shape[0], size=min(n, idx.shape[0]), replace=False)
    return idx[np.sort(pick)]


def check_frame(cfg: dict, frame_dir, n_samples: int = 48, seed: int = 0) -> FrameCheck:
    frame_dir = Path(frame_dir)
    method = cfg["methods"][0]
    out = FrameCheck()
    data = read_fskt(frame_dir / "baseband.fskt")
    tx, rx = crossed_array(cfg["array"]["profile"])
    freqs = carriers(cfg)
    if data.shape != (tx.shape[0], rx.shape[0], freqs.size):
        out.failures.append(f"baseband shape {data.shape} does not match the array and carriers")
        return out
    depth = read_pfm(frame_dir / f"{method}_depth.pfm")
    joint = read_pfm(frame_dir / f"{method}_joint_magnitude.pfm")
    valid = np.isfinite(depth)
    if not valid.any():
        out.failures.append("no pixel survived the magnitude filter")
        return out
    if np.nanmin(joint) < np.nanmax(joint) * 10.0 ** (FILTER_DB / 20.0) * (1.0 - 1e-6):
        out.failures.append("a kept pixel lies below the magnitude filter's floor")
    if method == "bp":
        _check_bp(cfg, data, tx, rx, freqs, depth, joint, n_samples, seed, out)
    else:
        _check_fsk(cfg, frame_dir, data, tx, rx, freqs, depth, joint, n_samples, seed, out)
    return out


def _check_fsk(cfg, frame_dir, data, tx, rx, freqs, depth, joint, n_samples, seed, out):
    doc = json.loads((frame_dir / "prior_grid.json").read_text(encoding="utf-8"))
    x = doc["x0"] + np.arange(doc["width"]) * doc["dx"]
    y = doc["y0"] + np.arange(doc["height"]) * doc["dy"]
    prior = np.array([[np.nan if v is None else v for v in row] for row in doc["prior_depth"]])
    valid = np.isfinite(depth)
    if (valid & ~np.isfinite(prior)).any():
        out.failures.append("a pixel without a prior has a depth")
        return
    gx, gy = np.meshgrid(x, y)

    # recompute a seeded sample
    rows, cols = sample_pixels(valid, n_samples, seed).T
    pts = np.column_stack([gx[rows, cols], gy[rows, cols], prior[rows, cols]])
    ph = mean_phasors(data, tx, rx, freqs, pts)
    want = fsk_depth(pts[:, 2], ph, freqs)
    out.sampled = rows.size
    bad = ~close32(depth[rows, cols], want)
    if bad.any():
        r, c = rows[bad][0], cols[bad][0]
        out.failures.append(f"{int(bad.sum())}/{rows.size} sampled depths differ from the recomputation, "
                            f"e.g. pixel ({r},{c}): {float(depth[r, c])!r} vs {float(want[bad][0])!r}")
    bad_joint = ~close32(joint[rows, cols], np.abs(ph.mean(axis=1)))
    if bad_joint.any():
        out.failures.append(f"{int(bad_joint.sum())}/{rows.size} sampled joint magnitudes differ")

    # window property against the closed-form surface
    truth = surface_truth(cfg["scene"], gx, gy)
    in_window = valid & away_from_edge(cfg, freqs, gx) & (np.abs(prior - truth) <= window(freqs))
    err = np.abs(depth - truth)[in_window]
    out.property_pixels = int(err.size)
    if err.size == 0:
        out.failures.append("no filtered pixel has a prior inside the window")
        return
    out.worst_property_m = float(err.max())
    bound = fsk_bound(cfg)
    if out.worst_property_m > bound:
        out.failures.append(f"{int((err > bound).sum())} in-window pixels miss the truth by more than "
                            f"{bound * 1e3:.3f} mm (worst {out.worst_property_m * 1e3:.3f} mm)")


def _check_bp(cfg, data, tx, rx, freqs, depth, joint, n_samples, seed, out):
    xs, ys, zs = voxel_axes(cfg)
    valid = np.isfinite(depth)
    rows, cols = sample_pixels(valid, n_samples, seed).T
    out.sampled = rows.size
    mismatched = 0
    for r, c in zip(rows, cols):
        pts = np.column_stack([np.full(zs.size, xs[c]), np.full(zs.size, ys[r]), zs])
        score = np.abs(mean_phasors(data, tx, rx, freqs, pts).mean(axis=1))
        best = int(np.argmax(score))  # first maximum: the smallest depth wins ties
        # a plane whose score equals the best to rounding is an equally valid argmax
        tied = score >= score[best] * (1.0 - 1e-9)
        hit = tied & close32(depth[r, c], zs)
        if not hit.any() or not close32(joint[r, c], score[hit][0]):
            mismatched += 1
    if mismatched:
        out.failures.append(f"{mismatched}/{rows.size} sampled columns differ from the recomputed argmax")

    gx, gy = np.meshgrid(xs, ys)
    truth = surface_truth(cfg["scene"], gx, gy)
    interior = valid & np.isfinite(truth) & away_from_edge(cfg, freqs, gx)
    err = np.abs(depth - truth)[interior]
    out.property_pixels = int(err.size)
    if err.size == 0:
        out.failures.append("no interior column survived the magnitude filter")
        return
    out.worst_property_m = float(err.max())
    resolution = SPEED_OF_LIGHT / (2.0 * (freqs[-1] - freqs[0]))
    if out.worst_property_m > resolution:
        out.failures.append(f"{int((err > resolution).sum())} interior columns miss the truth by more "
                            f"than c/(2B) = {resolution * 1e3:.1f} mm")

"""The benchmark's workloads: what each one runs, and the inputs it writes.

A workload turns ``(seed, frame)`` into one experiment config for the
``mmfsk`` CLI, plus a camera calibration file for the camera-prior path.
Nothing else reaches the program. Each frame moves the scene and draws new
noise, so no frame repeats another; the same seed gives the same frames.

This module imports nothing from ``mmfsk``: the output check uses the same
scene description to compute the analytic truth on its own.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

BP_CARRIERS_GHZ = [float(v) for v in np.linspace(72.0, 82.0, 16)]

CAMERA_PX = 240  # synthetic depth camera, pixels per side
SNR_DB = 25.0

# One compute thread for every workload: --workers 1 and one BLAS thread.
# On the 2-vCPU reference machine the host steals time from one vCPU more
# than the other, and a two-thread pool waits for the slower one at every
# call: over six minutes, medians of six bp kernel calls spread 0.11
# (quartile distance over median) with two threads and 0.04 with one,
# while two threads were only 1.85x faster. OpenBLAS reads its variable
# only at import, so the workload process gets these in its environment.
WORKERS = 1
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

WORKLOADS = {
    "desk-mm2fsk-camera": {
        "why": "the paper's multimodal path: camera prior pipeline then 2FSK "
               "correction on the desk array; prior-layer changes show here",
        "method": "mm2fsk",
        "profile": "desk",
    },
    "full-2fsk": {
        "why": "94x94-pair aperture with a scalar prior: the correlation kernel "
               "and forward model dominate and there is no prior layer",
        "method": "2fsk",
        "profile": "full",
    },
    "desk-bp": {
        "why": "16-carrier voxel backprojection baseline: one small correlation "
               "call per depth plane, no prior",
        "method": "bp",
        "profile": "desk",
    },
}


def calibration_doc(px: int = CAMERA_PX) -> dict:
    """Camera of ``px`` x ``px`` pixels, slightly offset and rotated from
    the aperture; its field of view covers the grid at any ``px``."""
    focal = 3.0 * px
    centre = (px - 1) / 2.0
    angle = np.deg2rad(2.0)
    rot = [[np.cos(angle), 0.0, np.sin(angle)], [0.0, 1.0, 0.0], [-np.sin(angle), 0.0, np.cos(angle)]]
    return {
        "intrinsics": {"f_u": focal, "f_v": focal, "c_u": centre, "c_v": centre},
        "extrinsics": {"rotation": [[float(v) for v in row] for row in rot],
                       "translation": [0.01, 0.005, -0.01]},
    }


def _desk_step(rng) -> dict:
    """Two-level step for the camera path: 30 mm high, moving in depth and
    sideways from frame to frame. The edge moves in whole periods (3 mm) of
    the pattern the 1.5 mm target pitch and the 1 mm grid make together,
    midway between two grid columns, so the columns next to it see the same
    geometry in every frame."""
    lo = 0.285 + rng.uniform(-0.005, 0.005)
    return {"levels": [lo, lo + 0.030], "split": 0.003 * int(rng.integers(-1, 2)),
            "extent": 0.08, "spacing": 0.0015}


def _bp_step(rng) -> dict:
    """Two-level step for backprojection, 31 mm high, moving in depth. The
    levels sit 0.5 mm from the nearest of the 2 mm depth planes, so the
    plane quantization is the same in every frame. The edge stays midway
    between two columns next to the centre: where it falls across the
    aperture sets how many edge columns pick the other level, which moved
    the frame's depth error by 15 %."""
    k = int(rng.integers(7, 13))
    return {"levels": [0.261 + 0.002 * k + 0.0005, 0.261 + 0.002 * (k + 15) + 0.0015],
            "split": 0.001, "extent": 0.08, "spacing": 0.0015}


def frame_config(name: str, seed: int, frame: int, outdir: Path, calibration: Path | None) -> dict:
    """Config of one frame; the scene moves and the noise changes per frame."""
    spec = WORKLOADS[name]
    rng = np.random.default_rng([int(seed), int(frame)])
    frame_seed = int(rng.integers(1, 2**31 - 1))
    cfg = {
        "seed": frame_seed,
        "workers": WORKERS,
        "output_dir": str(outdir),
        "array": {"profile": spec["profile"]},
        "methods": [spec["method"]],
        "noise": {"snr_db": SNR_DB, "seed": frame_seed},
        "eval": {"erode": 1},
    }
    if name == "desk-mm2fsk-camera":
        cfg["scene"] = {"kind": "step", "params": _desk_step(rng)}
        cfg["grid"] = {"width": 64, "height": 64, "spacing": 0.001, "center": [0.0, 0.0]}
        cfg["frequencies"] = {"pair": "10.0"}
        cfg["prior"] = {"mode": "camera", "calibration": str(calibration),
                        "width": CAMERA_PX, "height": CAMERA_PX,
                        "noise_mm": 1.0, "dropout": 0.05}
    elif name == "full-2fsk":
        # ~11k targets on a tilted plane; its depth stays within 5.5 mm of
        # the scalar prior, most of the 7.5 mm window of the 10 GHz pair.
        tilt = rng.uniform(0.04, 0.05, 2) * rng.choice([-1.0, 1.0], 2)
        params = {"depth": 0.30 + rng.uniform(-0.0005, 0.0005), "tilt_x": float(tilt[0]),
                  "tilt_y": float(tilt[1]), "extent": 0.1, "spacing": 0.00095}
        cfg["scene"] = {"kind": "plane", "params": params}
        cfg["grid"] = {"width": 100, "height": 100, "spacing": 0.001, "center": [0.0, 0.0]}
        cfg["frequencies"] = {"pair": "10.0"}
        cfg["prior"] = {"mode": "scalar", "value": 0.30}
    elif name == "desk-bp":
        cfg["scene"] = {"kind": "step", "params": _bp_step(rng)}
        cfg["grid"] = {"width": 33, "height": 33, "spacing": 0.002, "center": [0.0, 0.0]}
        cfg["frequencies"] = {"values_ghz": BP_CARRIERS_GHZ}
        cfg["voxel"] = {"extents": [0.064, 0.064, 0.078], "resolution": [33, 33, 40],
                        "center": [0.0, 0.0, 0.30]}
    else:
        raise KeyError(name)
    return cfg


def write_inputs(name: str, root: Path) -> Path | None:
    """Per-run inputs shared by all frames; returns the calibration path."""
    root.mkdir(parents=True, exist_ok=True)
    if name != "desk-mm2fsk-camera":
        return None
    path = root / "calibration.json"
    path.write_text(json.dumps(calibration_doc(), indent=2) + "\n", encoding="utf-8")
    return path


def write_frame_config(name: str, seed: int, frame: int, root: Path, calibration: Path | None) -> Path:
    outdir = root / f"frame_{frame:03d}"
    path = root / f"frame_{frame:03d}.json"
    path.write_text(json.dumps(frame_config(name, seed, frame, outdir, calibration), indent=2) + "\n",
                    encoding="utf-8")
    return path

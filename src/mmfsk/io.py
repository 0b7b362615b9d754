"""File formats: the binary baseband container, PFM float images, ASCII
PLY point clouds, and the JSON documents used for configs and calibration.

The baseband container is little-endian: the 4-byte magic ``FSKT``, a u32
format version, the three u32 dimensions (T, R, F), then the complex64
payload in C (row-major) order. All writers are deterministic: identical
inputs produce identical bytes.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import fields
from pathlib import Path

import numpy as np

from .correlate import CandidateGrid
from .depth_prior import CameraIntrinsics, Extrinsics
from .errors import ConfigurationError, StructuralError
from .reconstruct import RadarImage
from .signal_core import BasebandTensor

MAGIC_BASEBAND = b"FSKT"
CONTAINER_VERSION = 1

_HEADER = struct.Struct("<4sIIII")
_PLY_ROWS = 1024  # rows formatted per write: bounds the text held in memory


def write_baseband(path, baseband: BasebandTensor) -> None:
    payload = np.ascontiguousarray(baseband.data.astype("<c8"))
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC_BASEBAND, CONTAINER_VERSION, *baseband.shape))
        fh.write(payload.tobytes())


def read_baseband(path) -> BasebandTensor:
    raw = Path(path).read_bytes()
    if len(raw) < _HEADER.size:
        raise StructuralError(f"{path}: truncated container header")
    magic, version, d0, d1, d2 = _HEADER.unpack_from(raw)
    if magic != MAGIC_BASEBAND:
        raise StructuralError(f"{path}: expected magic {MAGIC_BASEBAND!r}, found {magic!r}")
    if version != CONTAINER_VERSION:
        raise StructuralError(f"{path}: unsupported container version {version}")
    body = raw[_HEADER.size :]
    if len(body) != d0 * d1 * d2 * 8:
        raise StructuralError(f"{path}: payload size does not match dimensions")
    return BasebandTensor(np.frombuffer(body, dtype="<c8").reshape(d0, d1, d2).astype(np.complex128))


def write_pfm(path, image: np.ndarray) -> None:
    """Grayscale portable float map: little-endian float32, rows stored
    bottom-up per the format convention. NaN marks invalid pixels."""
    image = np.asarray(image, dtype=np.float64)
    if image.ndim != 2:
        raise StructuralError("PFM writer expects a 2-D array")
    h, w = image.shape
    with open(path, "wb") as fh:
        fh.write(b"Pf\n")
        fh.write(f"{w} {h}\n".encode("ascii"))
        fh.write(b"-1.0\n")
        fh.write(np.flipud(image).astype("<f4").tobytes())


def read_pfm(path) -> np.ndarray:
    raw = Path(path).read_bytes()
    parts = raw.split(b"\n", 3)
    if len(parts) < 4 or parts[0] not in (b"Pf", b"PF"):
        raise StructuralError(f"{path}: not a grayscale PFM file")
    if parts[0] == b"PF":
        raise StructuralError(f"{path}: color PFM not supported")
    w, h = (int(v) for v in parts[1].split())
    scale = float(parts[2])
    dtype = "<f4" if scale < 0 else ">f4"
    body = parts[3][: w * h * 4]
    if len(body) != w * h * 4:
        raise StructuralError(f"{path}: truncated PFM payload")
    data = np.frombuffer(body, dtype=dtype).reshape(h, w).astype(np.float64)
    return np.flipud(data).copy()


def write_ply(path, points: np.ndarray, magnitude: np.ndarray | None = None) -> None:
    """ASCII PLY point cloud with an optional per-vertex magnitude scalar."""
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if points.shape[1] != 3:
        raise StructuralError("PLY writer expects (N, 3) points")
    n = points.shape[0]
    header = ["ply", "format ascii 1.0", f"element vertex {n}",
              "property float x", "property float y", "property float z"]
    cols = [points]
    if magnitude is not None:
        header.append("property float magnitude")
        cols.append(np.asarray(magnitude, dtype=np.float64).reshape(n, 1))
    header.append("end_header")
    body = np.hstack(cols)
    row = " ".join(["%.10g"] * body.shape[1]) + "\n"
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(header) + "\n")
        for start in range(0, n, _PLY_ROWS):
            fh.write("".join([row % tuple(r) for r in body[start : start + _PLY_ROWS].tolist()]))


def read_ply(path):
    """Read an ASCII PLY vertex cloud; returns (points, extras) where
    extras maps any non-coordinate property name to its column."""
    lines = Path(path).read_text(encoding="ascii").splitlines()
    if not lines or lines[0].strip() != "ply":
        raise StructuralError(f"{path}: not a PLY file")
    n = None
    names = []
    idx = 0
    for idx, line in enumerate(lines[1:], start=1):
        tok = line.split()
        if tok[:2] == ["element", "vertex"]:
            n = int(tok[2])
        elif tok[:1] == ["property"] and n is not None:
            names.append(tok[2])
        elif tok[:1] == ["end_header"]:
            break
    if n is None:
        raise StructuralError(f"{path}: missing vertex element")
    rows = [list(map(float, ln.split())) for ln in lines[idx + 1 : idx + 1 + n]]
    data = np.asarray(rows, dtype=np.float64).reshape(n, len(names))
    cols = {name: data[:, i] for i, name in enumerate(names)}
    points = np.column_stack([cols.pop("x"), cols.pop("y"), cols.pop("z")])
    return points, cols


def save_candidate_grid(path, grid: CandidateGrid) -> None:
    """Persist a prior grid as a JSON document embedding geometry and the
    per-pixel prior (NaN encodes invalid pixels).

    The axes ``x`` and ``y`` are stored value by value, so they load back
    bit for bit. ``width``, ``height``, ``x0``, ``y0``, ``dx`` and ``dy``
    describe the same axes for readers that rebuild them from origin and
    pitch, such as the benchmark's output check; the loader ignores them.
    """
    doc = {
        "width": grid.width,
        "height": grid.height,
        "x": [float(v) for v in grid.x],
        "y": [float(v) for v in grid.y],
        "x0": float(grid.x[0]),
        "y0": float(grid.y[0]),
        "dx": grid.spacing[0],
        "dy": grid.spacing[1],
        "prior_depth": [
            [None if not np.isfinite(v) else float(v) for v in row]
            for row in grid.prior_depth
        ],
    }
    dump_json(path, doc)


def load_candidate_grid(path) -> CandidateGrid:
    doc = load_json(path)
    x, y, rows = (_require(doc, key, path) for key in ("x", "y", "prior_depth"))
    prior = np.array([[np.nan if v is None else float(v) for v in row] for row in rows])
    return CandidateGrid(np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64),
                         prior, np.isfinite(prior))


def save_calibration(path, intrinsics: CameraIntrinsics, extrinsics: Extrinsics) -> None:
    doc = {
        "intrinsics": {
            "f_u": intrinsics.f_u,
            "f_v": intrinsics.f_v,
            "c_u": intrinsics.c_u,
            "c_v": intrinsics.c_v,
        },
        "extrinsics": {
            "rotation": [[float(v) for v in row] for row in extrinsics.rotation],
            "translation": [float(v) for v in extrinsics.translation],
        },
    }
    dump_json(path, doc)


def load_calibration(path):
    doc = load_json(path)
    intr_doc = _require(doc, "intrinsics", path)
    names = [f.name for f in fields(CameraIntrinsics)]
    values = {k: float(_require(intr_doc, k, path)) for k in names}
    unknown = sorted(set(intr_doc) - set(names))
    if unknown:
        raise ConfigurationError(f"{path}: unknown intrinsics key(s) {unknown}; allowed: {names}")
    ext_doc = _require(doc, "extrinsics", path)
    ext = Extrinsics(
        np.asarray(_require(ext_doc, "rotation", path), dtype=np.float64),
        np.asarray(_require(ext_doc, "translation", path), dtype=np.float64),
    )
    return CameraIntrinsics(**values), ext


def _require(doc, key, path):
    """``doc[key]`` of a JSON document read from ``path``; a missing key is
    a validation error that names the file and the key."""
    if not isinstance(doc, dict) or key not in doc:
        raise ConfigurationError(f"{path}: missing key {key!r}")
    return doc[key]


def export_radar_image(outdir, stem: str, image: RadarImage) -> list:
    """Write an image as depth + magnitude PFM planes and a PLY cloud of
    its valid pixels; returns the created paths."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    depth = np.where(image.valid, image.depth, np.nan)
    mag = np.where(image.valid, image.magnitude, np.nan)
    joint = np.where(image.valid, image.joint_magnitude, np.nan)
    paths = [outdir / f"{stem}_depth.pfm", outdir / f"{stem}_magnitude.pfm",
             outdir / f"{stem}_joint_magnitude.pfm", outdir / f"{stem}_cloud.ply"]
    write_pfm(paths[0], depth)
    write_pfm(paths[1], mag)
    write_pfm(paths[2], joint)
    cloud, mags = image.points()
    write_ply(paths[3], cloud, mags)
    return paths


def dump_json(path, obj) -> None:
    """Canonical JSON: sorted keys, fixed separators, trailing newline."""
    Path(path).write_text(
        json.dumps(obj, sort_keys=True, indent=2, separators=(",", ": ")) + "\n",
        encoding="utf-8",
    )


def load_json(path):
    return json.loads(Path(path).read_text(encoding="utf-8"))


def config_hash(obj) -> str:
    """Stable hash of a JSON-serializable document."""
    canon = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]

"""File formats: the binary baseband container, PFM float images, binary
little-endian float64 PLY point clouds, and JSON documents.

The baseband container is little-endian: the 4-byte magic ``FSKT``, a u32
format version, the three u32 dimensions (T, R, F), then the complex64
payload in C (row-major) order. All writers are deterministic: identical
inputs produce identical bytes.
"""

from __future__ import annotations

import hashlib
import json
import struct
import sys
from dataclasses import fields
from itertools import chain
from pathlib import Path

import numpy as np

from .correlate import CandidateGrid
from .depth_prior import CameraIntrinsics, Extrinsics
from .errors import ConfigurationError, StructuralError, ValidationError
from .reconstruct import RadarImage
from .signal_core import BasebandTensor

MAGIC_BASEBAND = b"FSKT"
CONTAINER_VERSION = 1

_HEADER = struct.Struct("<4sIIII")
RADAR_PLANES = ("depth", "magnitude", "joint_magnitude")  # the PFM planes of an exported image


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
    try:
        w, h = (int(v) for v in parts[1].split())
        scale = float(parts[2])
    except ValueError:
        w = h = -1  # reported as a malformed size below
    if w < 0 or h < 0:
        raise StructuralError(f"{path}: malformed PFM header (size {parts[1]!r}, scale {parts[2]!r})")
    dtype = "<f4" if scale < 0 else ">f4"
    body = parts[3][: w * h * 4]
    if len(body) != w * h * 4:
        raise StructuralError(f"{path}: truncated PFM payload")
    data = np.frombuffer(body, dtype=dtype).reshape(h, w).astype(np.float64)
    return np.flipud(data).copy()


def write_ply(path, points: np.ndarray, magnitude: np.ndarray) -> None:
    """Binary little-endian float64 PLY cloud with a per-vertex magnitude."""
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if points.shape[1] != 3:
        raise StructuralError("PLY writer expects (N, 3) points")
    n = points.shape[0]
    body = np.hstack([points, np.asarray(magnitude, dtype=np.float64).reshape(n, 1)]).astype("<f8", copy=False)
    header = ["ply", "format binary_little_endian 1.0", f"element vertex {n}", "property double x",
              "property double y", "property double z", "property double magnitude", "end_header\n"]
    with open(path, "wb") as fh:
        fh.write("\n".join(header).encode("ascii"))
        fh.write(body.tobytes())


def save_candidate_grid(path, grid: CandidateGrid) -> None:
    """Persist a prior grid as one compact JSON document (sorted keys, no
    whitespace): its geometry and per-pixel prior, null where there is none.

    The axes ``x`` and ``y`` are stored value by value, so they load back
    bit for bit. ``width``, ``height``, ``x0``, ``y0``, ``dx`` and ``dy``
    describe the same axes for readers that rebuild them from origin and
    pitch, such as the benchmark's output check; the loader ignores them.
    """
    prior = grid.prior_depth.astype(object)
    prior[~grid.valid] = None
    doc = {
        "width": grid.width,
        "height": grid.height,
        "x": grid.x.tolist(),
        "y": grid.y.tolist(),
        "x0": float(grid.x[0]),
        "y0": float(grid.y[0]),
        "dx": grid.spacing[0],
        "dy": grid.spacing[1],
        "prior_depth": prior.tolist(),
    }
    Path(path).write_text(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n", encoding="utf-8")


def load_candidate_grid(path) -> CandidateGrid:
    doc = load_json(path)
    x, y = (_numbers(doc, key, path, 1) for key in ("x", "y"))
    prior = _numbers(doc, "prior_depth", path, 2, nulls=True)
    try:
        return CandidateGrid(x, y, prior)
    except StructuralError as exc:
        raise StructuralError(f"{path}: {exc}") from None


def load_calibration(path):
    doc = load_json(path)
    intr_doc = _require(doc, "intrinsics", path)
    names = [f.name for f in fields(CameraIntrinsics)]
    values = {k: float(_numbers(intr_doc, k, path, 0)) for k in names}
    unknown = sorted(set(intr_doc) - set(names))
    if unknown:
        raise ConfigurationError(f"{path}: unknown intrinsics key(s) {unknown}; allowed: {names}")
    ext_doc = _require(doc, "extrinsics", path)
    rotation, translation = _numbers(ext_doc, "rotation", path, 2), _numbers(ext_doc, "translation", path, 1)
    try:
        return CameraIntrinsics(**values), Extrinsics(rotation, translation)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None


def _require(doc, key, path):
    """``doc[key]`` of a JSON document read from ``path``; a missing key is
    a validation error that names the file and the key."""
    if not isinstance(doc, dict) or key not in doc:
        raise ConfigurationError(f"{path}: missing key {key!r}")
    return doc[key]


def _numbers(doc, key, path, ndim: int, nulls: bool = False) -> np.ndarray:
    """``doc[key]`` as float64: a JSON number (``ndim`` 0), a list of
    numbers (1) or a list of equal-length rows of numbers (2); with
    ``nulls`` a null stands for NaN. Any other JSON type or shape is a
    validation error that names the file and the key."""
    value = _require(doc, key, path)
    rows = [[value]] if ndim == 0 else [value] if ndim == 1 else value
    allowed = {int, float, type(None)} if nulls else {int, float}  # bool is not int here
    if not (isinstance(rows, list) and all(isinstance(row, list) for row in rows)
            and len({len(row) for row in rows}) <= 1
            and (types := set(map(type, chain.from_iterable(rows)))) <= allowed):
        what = ("a number", "a list of numbers", "a list of equal-length rows of numbers")[ndim]
        raise ConfigurationError(f"{path}: {key!r} must be {what}{' or null' if nulls else ''}")
    if int in types and any(type(v) is int and abs(v) > sys.float_info.max for v in chain.from_iterable(rows)):
        raise ConfigurationError(f"{path}: {key!r} holds an integer beyond the float64 range")
    return np.array(value, dtype=np.float64)


def export_radar_image(outdir, stem: str, image: RadarImage) -> list:
    """Write an image as depth + magnitude PFM planes (NaN where a pixel
    has no value) and a PLY cloud of its valid pixels; returns the created
    paths."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    paths = [outdir / f"{stem}_{name}.pfm" for name in RADAR_PLANES] + [outdir / f"{stem}_cloud.ply"]
    for name, path in zip(RADAR_PLANES, paths):
        write_pfm(path, getattr(image, name))
    write_ply(paths[3], *image.points())
    return paths


def read_radar_image(outdir, stem: str, x, y) -> RadarImage:
    """The image ``export_radar_image`` wrote under ``stem``, read back from
    its PFM planes onto the axes ``x`` and ``y``."""
    return RadarImage(x=x, y=y, **{name: read_pfm(Path(outdir) / f"{stem}_{name}.pfm") for name in RADAR_PLANES})


def dump_json(path, obj) -> None:
    """Canonical JSON: sorted keys, fixed separators, trailing newline."""
    Path(path).write_text(
        json.dumps(obj, sort_keys=True, indent=2, separators=(",", ": ")) + "\n",
        encoding="utf-8",
    )


def load_json(path):
    """A JSON document; bad syntax or text that is not UTF-8 is a
    validation error that names the file."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:
        raise ConfigurationError(f"{path} is not valid JSON: {exc}") from None


def config_hash(obj) -> str:
    """Stable hash of a JSON-serializable document."""
    canon = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]

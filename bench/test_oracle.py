"""The benchmark's output check accepts the program's outputs and rejects
tampered ones.

Each case runs one small frame through the ``mmfsk`` CLI (the workloads'
own configs, shrunk to run in a second or two), then checks the outputs as
written and after one deliberate fault: the depth map shifted by a fraction
of the correction window, the carrier order swapped in the baseband file,
and one sampled pixel moved by one column.
"""

import json
from pathlib import Path

import numpy as np
import pytest

import oracle
import workloads
from mmfsk.cli import main

SAMPLES = 48
SEED = 5

# method -> (workload whose frame config it uses, changes that shrink it)
CASES = {
    "mm2fsk": ("desk-mm2fsk-camera", {"prior": {"width": 96, "height": 96}}),
    "2fsk": ("full-2fsk", {"grid": {"width": 20, "height": 20, "spacing": 0.005, "center": [0.0, 0.0]}}),
    "bp": ("desk-bp", {"voxel": {"resolution": [17, 17, 40]}}),
}


def _merge(cfg: dict, changes: dict) -> None:
    for key, value in changes.items():
        if isinstance(value, dict) and key in cfg:
            _merge(cfg[key], value)
        else:
            cfg[key] = value


def write_pfm(path: Path, image: np.ndarray) -> None:
    h, w = image.shape
    path.write_bytes(b"Pf\n" + f"{w} {h}\n".encode() + b"-1.0\n"
                     + np.flipud(image).astype("<f4").tobytes())


@pytest.fixture(scope="module", params=sorted(CASES))
def frame(request, tmp_path_factory):
    """(config, output directory) of one frame the CLI ran to the end."""
    name, changes = CASES[request.param]
    root = tmp_path_factory.mktemp(request.param)
    calibration = root / "calibration.json"
    calibration.write_text(json.dumps(workloads.calibration_doc(96)))
    cfg = workloads.frame_config(name, SEED, 0, root / "out", calibration)
    _merge(cfg, changes)
    path = root / "frame.json"
    path.write_text(json.dumps(cfg))
    commands = ["simulate", "reconstruct", "eval"] if request.param == "bp" else \
        ["simulate", "prior", "reconstruct", "eval"]
    for cmd in commands:
        assert main([cmd, "-c", str(path)]) == 0
    return cfg, root / "out"


@pytest.fixture
def tampered(frame, tmp_path):
    """A writable copy of the frame's outputs."""
    cfg, out = frame
    for src in out.iterdir():
        (tmp_path / src.name).write_bytes(src.read_bytes())
    return cfg, tmp_path


def test_accepts_program_outputs(frame):
    cfg, out = frame
    res = oracle.check_frame(cfg, out, SAMPLES, SEED)
    assert res.ok, res.failures
    assert res.sampled == SAMPLES
    assert res.property_pixels > 0


def test_rejects_depth_shifted_by_fraction_of_window(tampered):
    cfg, out = tampered
    method = cfg["methods"][0]
    depth = oracle.read_pfm(out / f"{method}_depth.pfm")
    shift = 0.3 * oracle.window(oracle.carriers(cfg))
    write_pfm(out / f"{method}_depth.pfm", depth + shift)
    res = oracle.check_frame(cfg, out, SAMPLES, SEED)
    assert not res.ok
    assert any("differ" in f for f in res.failures)
    if method != "bp":  # the closed-form property catches it on its own too
        assert any("miss the truth" in f for f in res.failures), res.failures


def test_rejects_swapped_carrier_order(tampered):
    cfg, out = tampered
    raw = (out / "baseband.fskt").read_bytes()
    data = oracle.read_fskt(out / "baseband.fskt")
    swapped = np.ascontiguousarray(data[:, :, ::-1]).astype("<c8")
    (out / "baseband.fskt").write_bytes(raw[:20] + swapped.tobytes())
    res = oracle.check_frame(cfg, out, SAMPLES, SEED)
    assert not res.ok
    assert any("differ" in f for f in res.failures)


def test_rejects_sampled_pixel_moved_by_one_column(tampered):
    cfg, out = tampered
    method = cfg["methods"][0]
    planes = {kind: oracle.read_pfm(out / f"{method}_{kind}.pfm")
              for kind in ("depth", "magnitude", "joint_magnitude")}
    valid = np.isfinite(planes["depth"])
    # the first sampled pixel whose right-hand neighbour is also valid
    r, c = next((r, c) for r, c in oracle.sample_pixels(valid, SAMPLES, SEED)
                if c + 1 < valid.shape[1] and valid[r, c + 1])
    for kind, image in planes.items():
        image[r, c] = image[r, c + 1]
        write_pfm(out / f"{method}_{kind}.pfm", image)
    res = oracle.check_frame(cfg, out, SAMPLES, SEED)
    assert not res.ok
    assert any("1/" in f for f in res.failures), res.failures


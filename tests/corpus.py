"""The determinism corpus: a fixed list of CLI runs and the sha256 of every
file they write. ``python tests/corpus.py MANIFEST.json [WORKERS]`` runs
it in a fresh temporary directory against the ``mmfsk`` on ``PYTHONPATH``,
each command in this process through ``mmfsk.cli.main`` with ``--workers
WORKERS`` (default 1), and writes the manifest (path -> sha256). Paths in
the configs are relative to that directory, so the ``*_config.json``
snapshots hash the same in any tree: run it once per tree and ``diff`` the
manifests. Pytest does not collect this module.
"""

import hashlib
import json
import os
import re
import sys
import tempfile
from pathlib import Path

import numpy as np

from mmfsk import correlate_grid
from mmfsk import io as mio
from mmfsk.cli import _resolve, load_config
from mmfsk.cli import main as mmfsk

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "bench"))
import workloads  # noqa: E402  (bench/workloads.py, read only)

STAGES = ("simulate", "prior", "reconstruct", "eval")
BENCH_SEED = 1  # frame 0 of each benchmark workload at this seed


def readme_block(name: str) -> str:
    """The text the README writes with ``cat > name <<'JSON'``."""
    text = (REPO / "README.md").read_text(encoding="utf-8")
    return re.search(rf"^cat > {re.escape(name)} <<'JSON'\n(.*?)^JSON$", text, re.M | re.S).group(1)


def runs():
    """(output directory, config, commands) of each run; writes the
    calibration files the configs name."""
    Path("calibration.json").write_text(readme_block("calibration.json"), encoding="utf-8")
    readme = json.loads(readme_block("experiment.json"))
    camera, scalar = readme["prior"], {"mode": "scalar", "value": 0.40}
    yield "readme", readme, STAGES + ("report",)
    yield "calibrated", {**readme, "prior": {**camera, "calibration": "calibration.json"}}, ("prior",)
    yield "dropout", {**readme, "prior": {**camera, "dropout": 0.05}}, STAGES + ("report",)
    yield "2fsk", {**readme, "methods": ["2fsk"]}, STAGES
    yield "3fsk", {**readme, "methods": ["3fsk"], "frequencies": {"triple": ["0.5", "10.0"]}}, STAGES
    # 11 uniform carriers take the forward model's carrier recurrence
    yield "bp", {**readme, "methods": ["bp"], "frequencies": {"values_ghz": list(range(72, 83))},
                 "scene": {"kind": "step", "params": {"levels": [0.2835, 0.3145], "split": 0.001,
                                                      "extent": 0.08, "spacing": 0.0015}},
                 "grid": {"width": 33, "height": 33, "spacing": 0.002}, "noise": {"snr_db": 25, "seed": 3},
                 "voxel": {"extents": [0.064, 0.064, 0.078], "resolution": [33, 33, 40], "center": [0, 0, 0.3]},
                 }, ("simulate", "reconstruct")
    yield "sweep", {**readme, "sweep": {"seeds": 2, "runs": [
        {"method": "2fsk", "pair": "10.0", "prior": scalar},
        {"method": "3fsk", "triple": ["0.5", "10.0"], "prior": scalar},
        {"method": "mm2fsk", "pair": "10.0", "prior": {"mode": "camera"}}]}}, ("sweep",)
    for name, spec in workloads.WORKLOADS.items():
        outdir = Path("bench", name)
        cfg = workloads.frame_config(name, BENCH_SEED, 0, outdir, workloads.write_inputs(name, outdir))
        yield str(outdir), cfg, tuple(c for c in STAGES if not (c == "prior" and spec["method"] == "bp"))


def run_corpus(workers: int) -> None:
    """Every run, in the current directory; then the correlator's float64
    phasors on the README run. The artifacts keep depths and magnitudes to
    float32 or ten digits, so a drift of a few ulp (a one-row GEMM sums in
    another order) shows in that last file alone."""
    for outdir, cfg, commands in runs():
        config = Path(f"{outdir}.json")
        config.parent.mkdir(parents=True, exist_ok=True)
        config.write_text(json.dumps({**cfg, "output_dir": outdir}), encoding="utf-8")
        for command in commands:
            if (code := mmfsk([command, "-c", str(config), "--workers", str(workers)])) != 0:
                raise SystemExit(f"mmfsk {command} -c {config} --workers {workers} exited {code}")
    run = _resolve(load_config("readme.json", {}))
    baseband, grid = mio.read_baseband("readme/baseband.fskt"), mio.load_candidate_grid("readme/prior_grid.json")
    np.save("correlator_phasors.npy", correlate_grid(baseband, grid, run["array"], run["freqs"], workers=workers))


def tree_digest(root: Path) -> dict:
    """sha256 of every file under ``root``, by its path relative to it."""
    return {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


def artifacts(digest: dict) -> dict:
    """A digest without the ``*_config.json`` snapshots, which record the
    worker count and the output directory."""
    return {k: v for k, v in digest.items() if not k.endswith("_config.json")}


if __name__ == "__main__":
    manifest = Path(sys.argv[1]).resolve()
    with tempfile.TemporaryDirectory() as root:
        os.chdir(root)
        run_corpus(int(sys.argv[2]) if len(sys.argv) > 2 else 1)
        digest = tree_digest(Path(root))
        os.chdir(REPO)
    manifest.write_text(json.dumps(digest, indent=1, sort_keys=True) + "\n", encoding="utf-8")

"""The determinism corpus (``corpus.py``) writes the same bytes at one BLAS
thread and one worker as at two of each. OpenBLAS reads its thread count
only at import, so each side is a process of its own; the two run at once."""

import json
import os
import subprocess
import sys
from pathlib import Path

from corpus import artifacts

CORPUS = Path(__file__).with_name("corpus.py")
SRC = str(CORPUS.parents[1] / "src")


def test_artifacts_do_not_depend_on_blas_threads_or_workers(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    threads = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    procs = [subprocess.Popen([sys.executable, CORPUS, tmp_path / f"{n}.json", str(n)], text=True,
                              env={**env, **dict.fromkeys(threads, str(n))}, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE) for n in (1, 2)]
    for proc in procs:  # a log of a few kB: the other's pipe does not fill meanwhile
        _, log = proc.communicate(timeout=600)
        assert proc.returncode == 0, log[-3000:]
    one, two = (json.loads((tmp_path / f"{n}.json").read_text()) for n in (1, 2))
    assert one.keys() == two.keys()
    # the *_config.json snapshots differ: each records its --workers
    assert [name for name, digest in artifacts(one).items() if two[name] != digest] == []
    # the README's calibration file spells out the default camera
    assert all(one[f"calibrated/{f}"] == one[f"readme/{f}"] for f in ("optical_depth.pfm", "prior_grid.json"))

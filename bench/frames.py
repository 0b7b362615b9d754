"""One workload process: set up, then run frames through the CLI entry point.

Started by ``run.py`` with the thread variables and ``PYTHONPATH`` already
set. It imports ``mmfsk``, writes the run's shared inputs and prints
``ready``; the parent times set-up up to that line. Then it runs frames for
``--seconds`` seconds (at least ``--min-frames``). A frame is
``simulate -> prior -> reconstruct -> eval`` (``bp`` skips ``prior``), each
an in-process call of ``mmfsk.cli.main`` on the frame's generated config,
timed on its own. The frame's config is written before its clock starts.
A frame starts only if it is expected to end within ``--seconds``.

With ``--trace`` every layer's public functions are wrapped (see
``spans.py``) and the spans are written with the result. The outputs are
checked afterwards by the parent, outside this process, so neither the
check's time nor its memory is charged to the program.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

import workloads

COMMANDS = ("simulate", "prior", "reconstruct", "eval")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--root", type=Path, required=True)
    ap.add_argument("--min-frames", type=int, default=1)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    import mmfsk.cli

    calibration = workloads.write_inputs(args.workload, args.root)
    print("ready", flush=True)
    if args.setup_only:
        return 0
    os.dup2(sys.stderr.fileno(), sys.stdout.fileno())  # the parent reads nothing after "ready"

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    method = workloads.WORKLOADS[args.workload]["method"]
    commands = [c for c in COMMANDS if not (c == "prior" and method == "bp")]

    frames = []
    start = time.perf_counter()
    last = 0.0  # the previous frame's time estimates the next one's
    while len(frames) < args.min_frames or time.perf_counter() - start + last <= args.seconds:
        index = len(frames)
        config = workloads.write_frame_config(args.workload, args.seed, index, args.root, calibration)
        rec = {"frame": index, "config": config.name, "times": {}, "exit": 0}
        if tracer is not None:
            tracer.frame = index
        for cmd in commands:
            argv = [cmd, "-c", str(config)]
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    code = mmfsk.cli.main(argv)
                else:
                    with tracer.span(f"cli.{cmd}"):
                        code = mmfsk.cli.main(argv)
            except Exception:  # an escaped error fails this frame, not the run
                traceback.print_exc()
                code = "exception"
            rec["times"][cmd] = time.perf_counter() - t0
            if code != 0:
                rec["exit"] = code
                rec["failed_command"] = cmd
                break
        frames.append(rec)
        last = sum(rec["times"].values())

    doc = {
        "frames": frames,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "mmfsk_file": mmfsk.cli.__file__,
        "spans": tracer.spans if tracer is not None else None,
    }
    (args.root / "worker.json").write_text(json.dumps(doc) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

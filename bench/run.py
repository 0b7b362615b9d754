#!/usr/bin/env python3
"""Closed-loop benchmark of the mmfsk CLI pipeline.

    python3 bench/run.py --workload desk-mm2fsk-camera --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all            # every workload in turn

Run from the repository root. Each workload runs in its own process (see
``frames.py``) with ``--workers`` and the BLAS thread variables fixed per
workload. With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it runs the workload untraced and then traced, for half the
time each, and reports the per-layer metrics and the tracing overhead.
Every frame's outputs are checked by ``oracle.py`` after the workload
process has ended. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. Run records go under
``bench/runs/``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import oracle
import spans
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUNS = BENCH / "runs"

SETUP_SAMPLES = 3  # set-up is timed this many times per run; the median is reported
MIN_FRAMES = 3     # an untimed-out end-to-end run still has a median of three frames
CHECK_SAMPLES = 48  # pixels (or bp columns) recomputed per frame
GRACE_S = 150.0    # a workload process still running this long after --seconds is killed


def declared_units(kind: str) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them; ``kind`` is
    ``end_to_end`` or ``per_layer``."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in doc[kind]}


# ---------------------------------------------------------------------------
# workload processes


class RunError(RuntimeError):
    pass


def _env() -> dict:
    env = dict(os.environ)
    env.pop("MMFSK_OUT", None)  # would override the output directory of every frame
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    for var in workloads.THREAD_VARS:
        env[var] = str(workloads.BLAS_THREADS)
    return env


def run_worker(name: str, seed: int, seconds: float, root: Path, *, trace=False,
               setup_only=False, min_frames=1) -> tuple:
    """Start one workload process and wait for it. Returns (set-up seconds,
    its worker.json document or None for a set-up-only process)."""
    root.mkdir(parents=True, exist_ok=True)
    cmd = [sys.executable, str(BENCH / "frames.py"), "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--root", str(root), "--min-frames", str(min_frames)]
    cmd += ["--trace"] * trace + ["--setup-only"] * setup_only
    deadline = time.monotonic() + seconds + GRACE_S
    with open(root / "worker.log", "ab") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=log, cwd=ROOT,
                                env=_env())
        try:
            ready, _, _ = select.select([proc.stdout], [], [], GRACE_S)
            line = proc.stdout.readline() if ready else b""
            setup_s = time.perf_counter() - t0
            if line.strip() != b"ready":
                raise RunError(f"{name}: workload process did not get ready (see {root / 'worker.log'})")
            code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            raise RunError(f"{name}: workload process overran by {GRACE_S:.0f} s") from None
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            proc.stdout.close()
    if code != 0:
        raise RunError(f"{name}: workload process exited {code} (see {root / 'worker.log'})")
    if setup_only:
        return setup_s, None
    doc = json.loads((root / "worker.json").read_text(encoding="utf-8"))
    if not Path(doc["mmfsk_file"]).resolve().is_relative_to(ROOT / "src"):
        raise RunError(f"mmfsk was imported from {doc['mmfsk_file']}, not from {ROOT / 'src'}")
    return setup_s, doc


# ---------------------------------------------------------------------------
# checking and figures


def check_frames(name: str, seed: int, root: Path, doc: dict) -> list:
    """Check every frame's outputs; returns per-frame records with the
    eval figures of frames that ran to the end and passed."""
    method = workloads.WORKLOADS[name]["method"]
    out = []
    for rec in doc["frames"]:
        cfg = json.loads((root / rec["config"]).read_text(encoding="utf-8"))
        frame_dir = Path(cfg["output_dir"])
        row = {"frame": rec["frame"], "times": rec["times"], "exit": rec["exit"], "check": None}
        if rec["exit"] == 0:
            res = oracle.check_frame(cfg, frame_dir, CHECK_SAMPLES, seed=seed * 1000 + rec["frame"])
            row["check"] = {"ok": res.ok, "failures": res.failures, "sampled": res.sampled,
                            "property_pixels": res.property_pixels,
                            "worst_property_mm": res.worst_property_m * 1e3}
            ev = json.loads((frame_dir / f"eval_{method}.json").read_text(encoding="utf-8"))
            row["p_eroded"] = ev["p_eroded"]
            row["c_gt_to_r"] = ev["c_gt_to_r"]
        shutil.rmtree(frame_dir, ignore_errors=True)
        out.append(row)
    return out


def passed(rows) -> list:
    return [r for r in rows if r["exit"] == 0 and r["check"]["ok"]]


def frame_times(row) -> tuple:
    t = row["times"]
    return t.get("prior", 0.0) + t["reconstruct"], sum(t.values())


def end_to_end(setups: list, doc: dict, rows: list) -> dict:
    good = passed(rows)
    return {
        "setup_s": statistics.median(setups),
        "frame_s": statistics.median(frame_times(r)[0] for r in good),
        "closed_loop_s": statistics.median(frame_times(r)[1] for r in good),
        "peak_rss_mb": doc["peak_rss_mb"],
        "depth_err_mm": statistics.median(r["p_eroded"] for r in good) * 1e3,
        "coverage_err_mm": statistics.median(r["c_gt_to_r"] for r in good) * 1e3,
    }


def per_layer(plain_rows: list, traced_doc: dict, traced_rows: list) -> tuple:
    """Per-layer metrics of the traced frames, and how they reconcile with
    the untraced frame time: the layers' self times inside ``prior`` and
    ``reconstruct`` add up to the traced frame time, which exceeds the
    untraced ``frame_s`` by the part of the tracing overhead spent there."""
    good = {r["frame"] for r in passed(traced_rows)}
    by_frame = {}
    for s in traced_doc["spans"]:
        by_frame.setdefault(s["frame"], []).append(s)
    figures = [spans.layer_metrics(by_frame[f]) for f in sorted(good)]
    m = {k: statistics.median(f[k] for f in figures) for k in figures[0]}
    m["trace.overhead_s"] = (statistics.median(frame_times(r)[1] for r in passed(traced_rows))
                             - statistics.median(frame_times(r)[1] for r in passed(plain_rows)))
    reconcile = {
        "layer_self_sum_s": statistics.median(spans.subtree_self_sum(by_frame[f], ("cli.prior", "cli.reconstruct"))
                                              for f in sorted(good)),
        "traced_frame_s": statistics.median(frame_times(r)[0] for r in passed(traced_rows)),
        "untraced_frame_s": statistics.median(frame_times(r)[0] for r in passed(plain_rows)),
        "overhead_s": m["trace.overhead_s"],
    }
    return m, reconcile


# ---------------------------------------------------------------------------
# run records


def machine() -> dict:
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "git_sha": sha,
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "src_lines": sum(len(p.read_text(encoding="utf-8").splitlines())
                         for p in sorted((ROOT / "src").rglob("*.py"))),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    root = RUNS / f"{name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(root, ignore_errors=True)
    if trace:
        _, plain = run_worker(name, seed, seconds / 2, root / "plain")
        plain_rows = check_frames(name, seed, root / "plain", plain)
        _, traced = run_worker(name, seed, seconds / 2, root / "traced", trace=True)
        traced_rows = check_frames(name, seed, root / "traced", traced)
        rows = plain_rows + traced_rows
        (root / "spans.json").write_text(json.dumps(traced["spans"]) + "\n", encoding="utf-8")
        metrics, reconcile = (per_layer(plain_rows, traced, traced_rows)
                              if passed(plain_rows) and passed(traced_rows) else (None, None))
        units = declared_units("per_layer")
    else:
        setups = [run_worker(name, seed, seconds, root / f"setup{i}", setup_only=True)[0]
                  for i in range(SETUP_SAMPLES - 1)]
        setup_s, doc = run_worker(name, seed, seconds, root / "frames", min_frames=MIN_FRAMES)
        setups.append(setup_s)
        rows = check_frames(name, seed, root / "frames", doc)
        metrics = end_to_end(setups, doc, rows) if passed(rows) else None
        reconcile = None
        units = declared_units("end_to_end")
    if metrics is not None and set(metrics) != set(units):
        raise RunError(f"metrics {sorted(set(metrics) ^ set(units))} are not declared as in BENCHMARK.json")
    failed = len(rows) - len(passed(rows))
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "workers": workloads.WORKERS,
        "thread_vars": {v: str(workloads.BLAS_THREADS) for v in workloads.THREAD_VARS},
        "machine": machine(),
        "correct": all(r["check"]["ok"] for r in rows if r["check"] is not None),
        "attempted": len(rows),
        "failed": failed,
        "metrics": ({k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
                    if metrics else None),
        "trace_reconcile": reconcile,
        "frames": rows,
    }
    (root / "result.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return record


def print_record(rec: dict) -> None:
    m = rec["machine"]
    print(f"== {rec['workload']}  seed {rec['seed']}  {rec['seconds']:g} s  trace {int(rec['trace'])}: "
          f"frames attempted {rec['attempted']}, failed {rec['failed']}, "
          f"check {'ok' if rec['correct'] else 'FAILED'}")
    for r in rec["frames"]:
        for failure in (r["check"] or {}).get("failures", []):
            print(f"   frame {r['frame']}: {failure}")
        if r["exit"] != 0:
            print(f"   frame {r['frame']}: exit {r['exit']}")
    for k, v in (rec["metrics"] or {}).items():
        print(f"   {k:40s} {v['value']:>16.6g} {v['unit']}")
    if rec["trace_reconcile"]:
        r = rec["trace_reconcile"]
        print(f"   layer self times in prior+reconstruct sum to {r['layer_self_sum_s']:.4f} s per frame "
              f"(traced frame {r['traced_frame_s']:.4f} s, untraced frame_s {r['untraced_frame_s']:.4f} s, "
              f"closed-loop overhead {r['overhead_s']:+.4f} s)")
    print(f"   git {m['git_sha']}  cpus {m['cpu_count']} (usable {m['cpus_usable']})  "
          f"blas {m['blas']['name']} {m['blas']['version']}  numpy {m['numpy']}  scipy {m['scipy']}  "
          f"python {m['python']}  src lines {m['src_lines']}")
    print(f"   --workers {rec['workers']}  " + "  ".join(f"{k}={v}" for k, v in rec["thread_vars"].items()))


def summary(rec: dict) -> dict:
    return {k: rec[k] for k in ("correct", "attempted", "failed", "metrics")}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", default="all", choices=["all", *workloads.WORKLOADS])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "mmfsk" / "cli.py").is_file():
        print(f"mmfsk sources not found under {ROOT / 'src'}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        try:
            rec = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except RunError as exc:
            print(f"{name}: {exc}", file=sys.stderr)
            return 1
        print_record(rec)
        if rec["metrics"] is None:
            print(f"{name}: no frame ran to the end and passed the check", file=sys.stderr)
            return 1
        results[name] = summary(rec)
    print(json.dumps(results[names[0]] if len(names) == 1 else {"workloads": results}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Span recording for the traced run, from outside the program.

``Tracer.install()`` replaces the public function of each layer, at the
name its caller looks it up under, with a wrapper that records a span:
name, start, end, parent span and frame. Spans stay in memory and are
written out when the run ends. Work counts are taken at the same
boundaries, from the call's arguments and result, after the span's end
stamp, so counting is not charged to the layer.

``layer_metrics`` turns one frame's spans into the per-layer figures. A
span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import importlib
import os
import time

# Counters map a call's (args, kwargs, result) to a dict of counts.


def _file_bytes(key):
    def count(args, kwargs, result):
        path = kwargs.get("path", args[0] if args else None)
        try:
            return {key: os.path.getsize(path)}
        except (OSError, TypeError):
            return {}
    return count


def _echo_evals(args, kwargs, result):
    scene, array, freqs = args[:3]
    return {"echo_evals": scene.n_targets * array.n_pairs * len(freqs)}


def _rays(args, kwargs, result):
    return {"rays": int(result.depth.size)}


def _triangles(args, kwargs, result):
    return {"triangles": int(result.triangles.shape[0])}


def _coverage(args, kwargs, result):
    return {"covered": int(result.valid.sum()), "grid_pixels": int(result.valid.size)}


def _pair_evals(args, kwargs, result):
    points, _, array, freqs = args[:4]
    return {"calls": 1, "pair_evals": len(points) * array.n_pairs * len(freqs)}


def _keep(args, kwargs, result):
    return {"kept": result.n_valid, "filtered_in": args[0].n_valid}


def _chamfer(args, kwargs, result):
    return {"chamfer_points": result.n_points_gt + result.n_points_recon}


IO_READS = ("read_baseband", "read_pfm", "load_candidate_grid", "load_calibration", "load_json")
IO_WRITES = ("write_baseband", "write_pfm", "write_ply", "save_candidate_grid",
             "export_radar_image", "dump_json")
# functions that touch the file themselves; the others call these
IO_LEAVES = {"read_baseband": "bytes_read", "read_pfm": "bytes_read", "load_json": "bytes_read",
             "write_baseband": "bytes_written", "write_pfm": "bytes_written",
             "write_ply": "bytes_written", "dump_json": "bytes_written"}

# (module the caller looks the name up in, attribute, span name, counter)
HOOKS = [
    *(("mmfsk.io", fn, f"io.{fn}", _file_bytes(IO_LEAVES[fn]) if fn in IO_LEAVES else None)
      for fn in IO_READS + IO_WRITES),
    ("mmfsk.cli", "make_scene", "simulate.make_scene", None),
    ("mmfsk.cli", "surface_depth", "simulate.surface_depth", None),
    ("mmfsk.cli", "simulate_baseband", "simulate.simulate_baseband", _echo_evals),
    ("mmfsk.cli", "render_depth_map", "simulate.render_depth_map", _rays),
    ("mmfsk.cli", "build_prior", "depth_prior.build_prior", None),
    ("mmfsk.depth_prior", "triangulate", "depth_prior.triangulate", _triangles),
    ("mmfsk.depth_prior", "rasterize_prior", "depth_prior.rasterize_prior", _coverage),
    ("mmfsk.cli", "fsk2_reconstruct", "reconstruct.fsk2_reconstruct", None),
    ("mmfsk.cli", "mm2fsk_reconstruct", "reconstruct.mm2fsk_reconstruct", None),
    ("mmfsk.cli", "backproject", "reconstruct.backproject", None),
    ("mmfsk.reconstruct", "fsk2_reconstruct", "reconstruct.fsk2_reconstruct", None),
    ("mmfsk.cli", "magnitude_filter", "reconstruct.magnitude_filter", _keep),
    ("mmfsk.reconstruct", "correlate_grid", "correlate.correlate_grid", None),
    ("mmfsk.reconstruct", "mean_pair_phasors", "correlate.mean_pair_phasors", _pair_evals),
    ("mmfsk.correlate", "mean_pair_phasors", "correlate.mean_pair_phasors", _pair_evals),
    ("mmfsk.cli", "evaluate_image", "metrics.evaluate_image", _chamfer),
]


class Tracer:
    """In-memory span recorder. Spans are dicts with id, name, parent,
    frame, start and end (``time.perf_counter`` seconds) and counts."""

    def __init__(self):
        self.spans = []
        self.frame = None
        self._stack = []

    @contextlib.contextmanager
    def span(self, name: str):
        rec = {"id": len(self.spans), "name": name, "parent": self._stack[-1] if self._stack else None,
               "frame": self.frame, "start": time.perf_counter(), "end": None, "counts": {}}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, fn, name: str, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
            if counter is not None:
                rec["counts"] = counter(args, kwargs, result)
            return result
        return traced

    def install(self) -> None:
        """Wrap every hook; a function bound under two names is wrapped once
        per name, each wrapper calling the original."""
        originals = {}
        for module_name, attr, name, counter in HOOKS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr)
            fn = originals.setdefault((fn.__module__, fn.__qualname__), fn)
            setattr(module, attr, self._wrap(fn, name, counter))


def _self_times(spans) -> dict:
    by_id = {s["id"]: s for s in spans}
    self_s = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None and s["parent"] in by_id:
            self_s[s["parent"]] -= s["end"] - s["start"]
    return self_s


def subtree_self_sum(spans, roots) -> float:
    """Sum of the self times of every span under a root span named in
    ``roots`` (the roots included)."""
    by_id = {s["id"]: s for s in spans}
    self_s = _self_times(spans)
    total = 0.0
    for s in spans:
        top = s
        while top["parent"] is not None:
            top = by_id[top["parent"]]
        if top["name"] in roots:
            total += self_s[s["id"]]
    return total


def _outermost(span, by_id, layer):
    while span["parent"] is not None and by_id[span["parent"]]["name"].startswith(layer + "."):
        span = by_id[span["parent"]]
    return span


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans) -> dict:
    """Per-layer figures of one frame's spans. A layer that did not run in
    the frame reports 0 for its times and counts."""
    by_id = {s["id"]: s for s in spans}
    self_s = _self_times(spans)
    t = collections.defaultdict(float)  # self time per span name
    counts = collections.Counter()
    for s in spans:
        t[s["name"]] += self_s[s["id"]]
        counts.update(s["counts"])

    io_read = io_write = 0.0
    for s in spans:
        if s["name"].startswith("io."):
            top = _outermost(s, by_id, "io")["name"][3:]
            if top in IO_READS:
                io_read += self_s[s["id"]]
            else:
                io_write += self_s[s["id"]]
    recon = sum(v for k, v in t.items() if k.startswith("reconstruct.") and k != "reconstruct.magnitude_filter")
    return {
        "cli.self_s": sum(v for k, v in t.items() if k.startswith("cli.")),
        "io.read_s": io_read,
        "io.write_s": io_write,
        "io.bytes_read": counts["bytes_read"],
        "io.bytes_written": counts["bytes_written"],
        "simulate.simulate_baseband.self_s": t["simulate.simulate_baseband"],
        "simulate.echo_evals": counts["echo_evals"],
        "simulate.echo_evals_per_s": _ratio(counts["echo_evals"], t["simulate.simulate_baseband"]),
        "simulate.render_depth_map.self_s": t["simulate.render_depth_map"],
        "simulate.rays": counts["rays"],
        "depth_prior.build_prior.self_s": t["depth_prior.build_prior"],
        "depth_prior.triangulate.self_s": t["depth_prior.triangulate"],
        "depth_prior.rasterize_prior.self_s": t["depth_prior.rasterize_prior"],
        "depth_prior.triangles": counts["triangles"],
        "depth_prior.triangles_per_s": _ratio(counts["triangles"], t["depth_prior.rasterize_prior"]),
        "depth_prior.coverage": _ratio(counts["covered"], counts["grid_pixels"]),
        "correlate.mean_pair_phasors.self_s": t["correlate.mean_pair_phasors"],
        "correlate.correlate_grid.self_s": t["correlate.correlate_grid"],
        "correlate.calls": counts["calls"],
        "correlate.pair_evals": counts["pair_evals"],
        "correlate.pair_evals_per_s": _ratio(counts["pair_evals"], t["correlate.mean_pair_phasors"]),
        "reconstruct.self_s": recon,
        "reconstruct.magnitude_filter.self_s": t["reconstruct.magnitude_filter"],
        "reconstruct.filter_keep_ratio": _ratio(counts["kept"], counts["filtered_in"]),
        "metrics.evaluate_image.self_s": t["metrics.evaluate_image"],
        "metrics.chamfer_points": counts["chamfer_points"],
    }

"""Command-line experiment harness.

Subcommands cover the full pipeline: ``simulate`` writes a baseband tensor
and ground-truth geometry, ``prior`` produces a candidate grid (scalar,
synthetic-camera, or file), ``reconstruct`` runs any of the four imaging
methods, ``eval`` scores reconstructions, ``sweep`` repeats the pipeline
over frequency configurations and reports the error trend, and ``report``
renders collected evaluation records as one table.

Every run is deterministic given (config, seed): a resolved-config snapshot
with a content hash is written next to the outputs, and reruns produce
byte-identical artifacts regardless of worker count. Exit codes: 0 success,
1 validation error, 2 I/O error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from . import io as mio
from .correlate import CandidateGrid
from .depth_prior import CameraIntrinsics, Extrinsics, OpticalDepthMap, build_prior
from .errors import ConfigurationError, NumericalError
from .metrics import SCORES, EvalReport, evaluate_image, report_table, spearman_rho
from .reconstruct import (
    DEFAULT_FILTER_DB,
    RadarImage,
    VoxelGridSpec,
    backproject,
    fsk2_reconstruct,
    fsk3_reconstruct,
    magnitude_filter,
    mm2fsk_reconstruct,
)
from .signal_core import FrequencySet, mimo_cross_array
from .simulate import SCENE_PARAMS, NoiseSpec, make_scene, render_depth_map, simulate_baseband, surface_depth

log = logging.getLogger("mmfsk")

METHODS = ("2fsk", "mm2fsk", "3fsk", "bp")

ARRAY_PROFILES = {
    # n_tx, n_rx, aperture (m); "full" mirrors a 94x94-pair panel and is slow
    "desk": (16, 16, 0.20),
    "full": (94, 94, 0.50),
}

DEFAULT_CONFIG = {
    "seed": 0,
    "workers": None,
    "output_dir": "out",
    "scene": {"kind": "plane", "params": {"depth": 0.30, "extent": 0.08, "spacing": 0.0015}},
    "array": {"profile": "desk"},
    "grid": {"width": 64, "height": 64, "spacing": 0.001},
    "frequencies": {"pair": "10.0"},
    "methods": ["mm2fsk"],
    "prior": {"value": 0.40},
    "noise": None,
    "filter_db": DEFAULT_FILTER_DB,
    "voxel": None,
    "eval": {},
    "sweep": None,
}

# Allowed keys of each config section, with the defaults load_config fills
# in (None: no default). The selector sections, array and frequencies, get
# no defaults, so their alternatives never mix.
SECTION_KEYS = {
    "scene": {"kind": None, "params": None},
    "array": {"profile": None, "n_tx": None, "n_rx": None, "aperture": None},
    "grid": {"width": None, "height": None, "spacing": None, "center": [0.0, 0.0]},
    "frequencies": {"pair": None, "triple": None, "values_ghz": None},
    "prior": {"mode": "scalar", "value": None, "path": None, "calibration": None,
              "width": 72, "height": 72, "noise_mm": 0.0, "dropout": 0.0},
    "noise": {"snr_db": None, "seed": None},
    "voxel": {"extents": None, "resolution": None, "center": None},
    "eval": {"erode": 1},
    "sweep": {"method": None, "pairs": None, "seeds": None, "runs": None},
    "sweep.runs": {"method": None, "pair": None, "triple": None, "prior": None},
}


class _Section(dict):
    """One config section: reading a key it lacks is a validation error
    that names the section and the key."""

    def __init__(self, where: str, items: dict):
        super().__init__(items)
        self.where = where

    def __missing__(self, key):
        raise ConfigurationError(f"config {self.where}: missing key {key!r}")


def _check_section(where: str, spec, keys: dict) -> dict:
    """One config section with its defaults filled in; unknown keys are
    rejected."""
    if not isinstance(spec, dict):
        raise ConfigurationError(f"config {where} must be a JSON object")
    unknown = sorted(set(spec) - set(keys))
    if unknown:
        raise ConfigurationError(f"config {where}: unknown key(s) {unknown}; allowed: {sorted(keys)}")
    return _Section(where, {**{k: v for k, v in keys.items() if v is not None}, **spec})


def load_config(path: str | None, overrides: dict) -> dict:
    """Defaults, then the config file, then CLI flags. Sections replace
    wholesale so that selector keys (e.g. pair vs triple) never mix; then
    ``SECTION_KEYS`` checks each section and fills in its defaults. Unknown
    keys exit 1 at any level, and so does a missing key once it is read;
    the ``_meta`` block of a resolved-config snapshot is dropped, so a
    snapshot can be fed back."""
    cfg = dict(DEFAULT_CONFIG)
    if path is not None:
        try:
            loaded = mio.load_json(path)
        except FileNotFoundError:
            raise FileNotFoundError(f"config file not found: {path}")
        except ValueError as exc:
            raise ConfigurationError(f"config {path} is not valid JSON: {exc}")
        if not isinstance(loaded, dict):
            raise ConfigurationError(f"config {path} must be a JSON object")
        loaded.pop("_meta", None)
        unknown = sorted(set(loaded) - set(DEFAULT_CONFIG))
        if unknown:
            raise ConfigurationError(f"config {path}: unknown key(s) {unknown}; "
                                     f"allowed: {sorted(DEFAULT_CONFIG)}")
        cfg.update(loaded)
    cfg.update({k: v for k, v in overrides.items() if v is not None})
    for name, default in DEFAULT_CONFIG.items():
        if name in SECTION_KEYS and not (cfg[name] is None and default is None):
            cfg[name] = _check_section(name, cfg[name], SECTION_KEYS[name])
    scene = cfg["scene"]
    if "params" in scene:
        kind = scene["kind"]
        if kind not in SCENE_PARAMS:
            raise ConfigurationError(f"config scene: unknown kind {kind!r}; allowed: {list(SCENE_PARAMS)}")
        scene["params"] = _check_section("scene.params", scene["params"], dict.fromkeys(SCENE_PARAMS[kind]))
        _check_scene_params(scene["params"])
    runs = (cfg["sweep"] or {}).get("runs") or []
    for i, run in enumerate(runs):
        runs[i] = run = _check_section(f"sweep.runs[{i}]", run, SECTION_KEYS["sweep.runs"])
        if run.get("prior"):
            run["prior"] = _check_section(f"sweep.runs[{i}].prior", run["prior"], SECTION_KEYS["prior"])
    return cfg


def _number(where: str, value, ok=lambda v: True, what: str = "", kind=float):
    """A numeric config value as ``kind``: a JSON number (an integer when
    ``kind`` is int; never a bool or null) that passes ``ok``. Anything
    else is a validation error naming the key."""
    types = int if kind is int else (int, float)
    if isinstance(value, bool) or not isinstance(value, types) or not ok(value):
        what = what or ("an integer" if kind is int else "a number")
        raise ConfigurationError(f"config {where} must be {what}, got {value!r}")
    return kind(value)


def _count(where: str, value) -> int:
    return _number(where, value, lambda v: v >= 1, "an integer >= 1", kind=int)


def _list(where: str, value, length: int | None = None, item=_number) -> list:
    """A list-valued config value: a JSON list (of ``length`` items where
    the key has a fixed length), each item checked by ``item`` under the
    name ``where[i]``. Anything else is a validation error naming the key."""
    if not isinstance(value, list) or (length is not None and len(value) != length):
        what = "a list" if length is None else f"a list of {length} items"
        raise ConfigurationError(f"config {where} must be {what}, got {value!r}")
    return [item(f"{where}[{i}]", v) for i, v in enumerate(value)]


def _check_scene_params(params: dict) -> None:
    """The scene builders read their parameters with bare ``float``/``int``,
    so each given value must have its JSON shape before any of them runs."""
    for key, value in params.items():
        where = f"scene.params.{key}"
        if key in ("center", "levels"):
            _list(where, value, 2)
        elif key == "bounds":  # three (min, max) intervals
            _list(where, value, 3, lambda w, interval: _list(w, interval, 2))
        else:
            _number(where, value, kind=int if key in ("n", "seed") else float)


def _triple(spec: dict) -> list:
    """The two bundled pair names a three-carrier set is built from."""
    return _list("frequencies.triple", spec["triple"], 2, lambda where, name: name)


def _build_array(cfg: dict):
    spec = cfg["array"]
    if "profile" in spec:
        try:
            n_tx, n_rx, aperture = ARRAY_PROFILES[spec["profile"]]
        except KeyError:
            raise ConfigurationError(f"unknown array profile {spec['profile']!r}")
    else:
        n_tx, n_rx = _count("array.n_tx", spec["n_tx"]), _count("array.n_rx", spec["n_rx"])
        aperture = _number("array.aperture", spec["aperture"])
    return mimo_cross_array(n_tx, n_rx, aperture)


def _build_freqs(cfg: dict) -> FrequencySet:
    spec = cfg["frequencies"]
    if "pair" in spec:
        return FrequencySet.from_pair_name(spec["pair"])
    if "triple" in spec:
        return FrequencySet.triple_from_pair_names(*_triple(spec))
    if "values_ghz" in spec:
        return FrequencySet(tuple(v * 1e9 for v in _list("frequencies.values_ghz", spec["values_ghz"])))
    raise ConfigurationError("frequencies must give 'pair', 'triple', or 'values_ghz'")


def _grid_size(cfg: dict) -> tuple:
    """The grid's width and height in pixels and its spacing in meters."""
    g = cfg["grid"]
    return (_count("grid.width", g["width"]), _count("grid.height", g["height"]),
            _number("grid.spacing", g["spacing"]))


def _build_grid(cfg: dict) -> CandidateGrid:
    return CandidateGrid.regular(*_grid_size(cfg), tuple(_list("grid.center", cfg["grid"]["center"], 2)))


def _voxel_spec(cfg: dict) -> VoxelGridSpec:
    v = cfg["voxel"]
    if v is None:
        # default volume: grid footprint, 20 cm of depth around the scene
        width, height, spacing = _grid_size(cfg)
        center = _list("grid.center", cfg["grid"]["center"], 2)
        return VoxelGridSpec(
            extents=(width * spacing, height * spacing, 0.20),
            resolution=(width, height, 201),
            center=(center[0], center[1], 0.30),
        )
    return VoxelGridSpec(tuple(_list("voxel.extents", v["extents"], 3)),
                         tuple(_list("voxel.resolution", v["resolution"], 3, _count)),
                         tuple(_list("voxel.center", v["center"], 3)))


def _noise(cfg: dict) -> NoiseSpec:
    n = cfg["noise"]
    if not n or n.get("snr_db") in (None, "none"):
        return NoiseSpec()
    seed = _number("noise.seed" if "seed" in n else "seed", n.get("seed", cfg["seed"]), kind=int)
    return NoiseSpec(snr_db=_number("noise.snr_db", n["snr_db"]), seed=seed)


def _outdir(cfg: dict) -> Path:
    path = Path(cfg["output_dir"])
    path.mkdir(parents=True, exist_ok=True)
    return path


def _snapshot(cfg: dict, outdir: Path, command: str) -> None:
    resolved = dict(cfg)
    resolved["_meta"] = {
        "command": command,
        "version": __version__,
        "config_hash": mio.config_hash(cfg),
        "noise_algorithm": NoiseSpec.algorithm,
    }
    mio.dump_json(outdir / f"{command}_config.json", resolved)
    log.info("%s: version=%s seed=%s config_hash=%s", command, __version__,
             cfg["seed"], resolved["_meta"]["config_hash"])


def _default_calibration(width: int, height: int):
    """Synthetic camera of the configured size, slightly offset from the
    aperture, covering the grid."""
    focal = 3.0 * width
    intr = CameraIntrinsics(f_u=focal, f_v=focal, c_u=(width - 1) / 2.0, c_v=(height - 1) / 2.0)
    angle = np.deg2rad(2.0)
    rot = np.array(
        [
            [np.cos(angle), 0.0, np.sin(angle)],
            [0.0, 1.0, 0.0],
            [-np.sin(angle), 0.0, np.cos(angle)],
        ]
    )
    ext = Extrinsics(rot, np.array([0.01, 0.005, -0.01]))
    return intr, ext


# ---------------------------------------------------------------------------
# subcommands


def cmd_simulate(cfg: dict) -> int:
    outdir = _outdir(cfg)
    scene_cfg = cfg["scene"]
    scene = make_scene(scene_cfg["kind"], scene_cfg["params"])
    array = _build_array(cfg)
    freqs = _build_freqs(cfg)
    baseband = simulate_baseband(scene, array, freqs, _noise(cfg))
    mio.write_baseband(outdir / "baseband.fskt", baseband)
    mio.write_ply(outdir / "gt_targets.ply", scene.positions, np.abs(scene.reflectivities))
    grid = _build_grid(cfg)
    if scene_cfg["kind"] != "random-cloud":
        gx, gy = np.meshgrid(grid.x, grid.y)
        mio.write_pfm(outdir / "gt_depth.pfm", surface_depth(scene_cfg["kind"], scene_cfg["params"], gx, gy))
    _snapshot(cfg, outdir, "simulate")
    log.info("simulate: %d targets, tensor %s -> %s", scene.n_targets, baseband.shape, outdir)
    return 0


def cmd_prior(cfg: dict) -> int:
    outdir = _outdir(cfg)
    grid = _build_grid(cfg)
    spec = cfg["prior"]
    mode = spec["mode"]
    if mode == "scalar":
        prior = grid.with_scalar_prior(_number("prior.value", spec["value"]))
    elif mode == "camera":
        width, height = _count("prior.width", spec["width"]), _count("prior.height", spec["height"])
        noise_mm = _number("prior.noise_mm", spec["noise_mm"], lambda v: 0.0 <= v < np.inf, "a finite number >= 0")
        dropout = _number("prior.dropout", spec["dropout"], lambda v: 0.0 <= v < 1.0, "a number in [0, 1)")
        if spec.get("calibration"):
            intr, ext = mio.load_calibration(spec["calibration"])
        else:
            intr, ext = _default_calibration(width, height)
        scene_cfg = cfg["scene"]
        depth_map = render_depth_map(scene_cfg["kind"], scene_cfg["params"], intr, ext, width, height)
        depth_map = _degrade_depth_map(depth_map, noise_mm, dropout, _number("seed", cfg["seed"], kind=int))
        mio.write_pfm(outdir / "optical_depth.pfm", depth_map.depth)
        prior = build_prior(depth_map, intr, ext, grid)
    elif mode == "file":
        prior = mio.load_candidate_grid(spec["path"])
    else:
        raise ConfigurationError(f"unknown prior mode {mode!r}")
    mio.save_candidate_grid(outdir / "prior_grid.json", prior)
    _snapshot(cfg, outdir, "prior")
    log.info("prior: %d valid pixels -> %s", int(prior.valid.sum()), outdir)
    return 0


def _degrade_depth_map(depth_map, noise_mm: float, dropout: float, seed: int):
    """Optional sensor imperfections: per-pixel depth noise (standard
    deviation in mm) and dropout (the share of pixels turned into holes)."""
    if noise_mm == 0.0 and dropout == 0.0:
        return depth_map
    rng = np.random.Generator(np.random.Philox(seed))
    depth = depth_map.depth
    if noise_mm > 0.0:
        depth = depth + rng.normal(0.0, noise_mm / 1000.0, depth.shape)
    if dropout > 0.0:
        depth = np.where(rng.random(depth.shape) >= dropout, depth, np.nan)
    return OpticalDepthMap(depth)


def _load_prior_grid(outdir: Path) -> CandidateGrid:
    path = outdir / "prior_grid.json"
    if not path.exists():
        raise FileNotFoundError(f"prior grid not found: {path} (run 'prior' first)")
    return mio.load_candidate_grid(path)


def cmd_reconstruct(cfg: dict) -> int:
    filter_db = _number("filter_db", cfg["filter_db"], lambda v: v <= 0.0, "a number <= 0 (dB)")
    workers = None if cfg["workers"] is None else _count("workers", cfg["workers"])  # None: CPU count
    outdir = _outdir(cfg)
    bb_path = outdir / "baseband.fskt"
    if not bb_path.exists():
        raise FileNotFoundError(f"baseband tensor not found: {bb_path} (run 'simulate' first)")
    baseband = mio.read_baseband(bb_path)
    array = _build_array(cfg)
    freqs = _build_freqs(cfg)
    methods = cfg["methods"]
    unknown = [m for m in methods if m not in METHODS]
    if unknown:
        raise ConfigurationError(f"unknown method(s) {unknown}; choose from {METHODS}")
    for method in methods:
        if method == "bp":
            image = backproject(baseband, _voxel_spec(cfg), array, freqs, workers=workers)
        else:
            grid = _load_prior_grid(outdir)
            recon = {"2fsk": fsk2_reconstruct, "mm2fsk": mm2fsk_reconstruct, "3fsk": fsk3_reconstruct}[method]
            image = recon(baseband, grid, array, freqs, workers=workers)
        image = magnitude_filter(image, filter_db)
        mio.export_radar_image(outdir, method, image)
        log.info("reconstruct[%s]: %d valid pixels", method, image.n_valid)
    _snapshot(cfg, outdir, "reconstruct")
    return 0


def _load_image(outdir: Path, method: str, cfg: dict) -> RadarImage:
    if method == "bp":
        spec = _voxel_spec(cfg)
        x, y = spec.axis(0), spec.axis(1)
    else:
        grid = _build_grid(cfg)
        x, y = grid.x, grid.y
    planes = {name: mio.read_pfm(outdir / f"{method}_{name}.pfm")
              for name in ("depth", "magnitude", "joint_magnitude")}
    return RadarImage(x=x, y=y, **planes)


def cmd_eval(cfg: dict) -> int:
    outdir = _outdir(cfg)
    scene_cfg = cfg["scene"]
    erode = _number("eval.erode", cfg["eval"]["erode"], kind=int)
    reports = []
    for method in cfg["methods"]:
        path = outdir / f"{method}_depth.pfm"
        if not path.exists():
            raise FileNotFoundError(f"reconstruction not found: {path} (run 'reconstruct' first)")
        image = _load_image(outdir, method, cfg)
        label = f"{method}@{_freq_label(cfg['frequencies'])}"
        report = evaluate_image(image, scene_cfg["kind"], scene_cfg["params"], erode=erode, label=label)
        reports.append(report)
        mio.dump_json(outdir / f"eval_{method}.json", dataclasses.asdict(report))
    (outdir / "eval_table.txt").write_text(report_table(reports) + "\n", encoding="utf-8")
    _snapshot(cfg, outdir, "eval")
    for r in reports:
        log.info("eval[%s]: C(gt->r)=%.4fcm C(r->gt)=%.4fcm P=%.4fcm P_er=%.4fcm",
                 r.label, r.c_gt_to_r * 100, r.c_r_to_gt * 100, r.p_masked * 100, r.p_eroded * 100)
    return 0


def _freq_label(spec: dict) -> str:
    if "pair" in spec:
        return f"d{spec['pair']}"
    if "triple" in spec:
        return "t{}-{}".format(*_triple(spec))
    return "custom"


def _sweep_runs(sweep: dict, methods: list) -> list:
    """Normalize the sweep section into explicit run specs.

    The shorthand form sweeps one method over two-frequency configurations;
    the general form lists runs, each naming a method, a ``pair`` or
    ``triple``, and optionally a prior override.
    """
    if sweep.get("runs"):
        return sweep["runs"]
    method = sweep.get("method", methods[0])
    pairs = sweep.get("pairs")
    if not pairs:
        raise ConfigurationError("sweep needs 'pairs' or explicit 'runs'")
    return [{"method": method, "pair": p} for p in pairs]


def cmd_sweep(cfg: dict) -> int:
    """Run simulate->prior->reconstruct->eval per configuration, aggregate
    seed medians, and judge the error-vs-bandwidth trend."""
    outdir = _outdir(cfg)
    sweep = cfg["sweep"] or {}
    seeds = sweep.get("seeds", [cfg["seed"]])
    if isinstance(seeds, int):
        seeds = list(range(seeds))
    runs = _sweep_runs(sweep, cfg["methods"])

    records = []
    for run in runs:
        method = run["method"]
        freq_spec = {"triple": run["triple"]} if "triple" in run else {"pair": run["pair"]}
        label = f"{method}@{_freq_label(freq_spec)}"
        per_seed = []
        for seed in seeds:
            sub = {
                **cfg,
                "methods": [method],
                "seed": seed,
                "noise": (dict(cfg["noise"], seed=seed) if cfg["noise"] else None),
                "output_dir": str(outdir / label.replace("@", "_") / f"seed_{seed}"),
                "frequencies": freq_spec,
            }
            if run.get("prior"):
                sub["prior"] = run["prior"]
            cmd_simulate(sub)
            if method != "bp":
                cmd_prior(sub)
            cmd_reconstruct(sub)
            cmd_eval(sub)
            per_seed.append(mio.load_json(Path(sub["output_dir"]) / f"eval_{method}.json"))
        freqs = _build_freqs({"frequencies": freq_spec})
        record = {
            "label": label,
            "method": method,
            "delta_f_hz": freqs.delta(),
            **{f"median_{k}": float(np.median([r[k] for r in per_seed])) for k in SCORES},
            "runs": per_seed,
        }
        records.append(record)
        log.info("sweep[%s]: median P_eroded=%.4f cm over %d seeds",
                 label, record["median_p_eroded"] * 100, len(seeds))

    # Trend verdict applies to single-method ablations over Delta f.
    verdict = "single configuration: no trend"
    rho = None
    same_method = len({r["method"] for r in records}) == 1
    if len(records) >= 2 and same_method:
        deltas = [r["delta_f_hz"] for r in records]
        meds = [r["median_p_eroded"] for r in records]
        rho = spearman_rho(deltas, meds)
        trend = "non-increasing" if rho <= -0.8 else "not monotone"
        verdict = f"error vs frequency difference is {trend} (spearman={rho:.3f})"
    elif len(records) >= 2:
        best = min(records, key=lambda r: r["median_p_eroded"])
        verdict = f"best configuration: {best['label']}"
    doc = {"records": records, "spearman": rho, "verdict": verdict}
    mio.dump_json(outdir / "sweep_report.json", doc)
    reports = [EvalReport(label=r["label"], **{k: r[f"median_{k}"] for k in SCORES}) for r in records]
    (outdir / "sweep_table.txt").write_text(report_table(reports) + f"\n{verdict}\n", encoding="utf-8")
    _snapshot(cfg, outdir, "sweep")
    log.info("sweep: %s", verdict)
    return 0


def cmd_report(cfg: dict) -> int:
    outdir = _outdir(cfg)
    records = []
    for path in sorted(outdir.rglob("eval_*.json")):
        if path.name == "eval_config.json":  # run snapshot, not a record
            continue
        try:
            records.append(EvalReport(**mio.load_json(path)))
        except TypeError as exc:  # not a JSON object, or keys EvalReport does not have
            raise ConfigurationError(f"{path} is not an evaluation record: {exc}") from None
    if not records:
        raise FileNotFoundError(f"no eval_*.json records under {outdir}")
    table = report_table(records)
    (outdir / "report_table.txt").write_text(table + "\n", encoding="utf-8")
    print(table)
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mmfsk",
        description="Few-frequency MIMO radar depth imaging: simulation, priors, reconstruction, evaluation.",
    )
    parser.add_argument("--version", action="version", version=f"mmfsk {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in COMMANDS.items():
        p = sub.add_parser(name, help=fn.__doc__ or name)
        p.add_argument("-c", "--config", help="experiment config (JSON)")
        p.add_argument("-o", "--output-dir", help="output directory (overrides config and MMFSK_OUT)")
        p.add_argument("--seed", type=int, help="override config seed")
        p.add_argument("--workers", type=int, help="worker pool size (default: CPU count)")
        p.add_argument("--method", action="append", dest="methods",
                       help="imaging method (repeatable): 2fsk, mm2fsk, 3fsk, bp")
    return parser


COMMANDS = {
    "simulate": cmd_simulate,
    "prior": cmd_prior,
    "reconstruct": cmd_reconstruct,
    "eval": cmd_eval,
    "sweep": cmd_sweep,
    "report": cmd_report,
}


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s", stream=sys.stderr)
    parser = build_parser()
    args = parser.parse_args(argv)
    overrides = {
        "seed": args.seed,
        "workers": args.workers,
        "methods": args.methods,
        "output_dir": args.output_dir or os.environ.get("MMFSK_OUT") or None,
    }
    try:
        cfg = load_config(args.config, overrides)
        return COMMANDS[args.command](cfg)
    except ValueError as exc:
        log.error("validation: %s", exc)
        return 1
    except OSError as exc:
        log.error("i/o: %s", exc)
        return 2
    except NumericalError as exc:
        log.error("numerical: %s", exc)
        return 3


if __name__ == "__main__":
    sys.exit(main())

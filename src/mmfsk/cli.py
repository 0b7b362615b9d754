"""Command-line experiment harness.

Subcommands cover the full pipeline: ``simulate`` writes a baseband tensor
and ground-truth geometry, ``prior`` produces a candidate grid (scalar,
synthetic-camera, or file), ``reconstruct`` runs any of the four imaging
methods, ``eval`` scores reconstructions, ``sweep`` repeats the pipeline
over frequency configurations and reports the error trend, and ``report``
renders collected evaluation records as one table.

``CONFIG`` is the one table of config keys: each key's type, range and
default. Every subcommand checks the whole config, flags included, against
it, then builds the run's library objects once (``_resolve``), so every
rule fails before the first write. Each stage reads and computes all it
needs before it writes.

Every run is deterministic given (config, seed): a resolved-config snapshot
with a content hash is written next to the outputs, and reruns produce
byte-identical artifacts regardless of worker count. Exit codes: 0 success,
1 validation error (a run too large for memory too), 2 I/O error, 3 numerical
failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import logging
import sys
from pathlib import Path

import numpy as np

from . import __version__
from . import io as mio
from .correlate import EXACT_PHASE, CandidateGrid, carrier_wavenumbers
from .depth_prior import CameraIntrinsics, Extrinsics, OpticalDepthMap, build_prior
from .errors import ConfigurationError, InsufficientDataError, NumericalError
from .metrics import SCORES, EvalReport, evaluate_image, report_table, resample_pitch, spearman_rho
from .reconstruct import (
    DEFAULT_FILTER_DB,
    VoxelGridSpec,
    backproject,
    fsk2_reconstruct,
    fsk3_reconstruct,
    magnitude_filter,
)
from .reconstruct import fsk2_reconstruct as mm2fsk_reconstruct  # bench/spans.py HOOKS traces this name here
from .signal_core import FREQUENCY_PAIRS, FrequencySet, mimo_cross_array
from .simulate import (RENDER_DEPTHS, SCENE_PARAMS, NoiseSpec, make_scene, render_depth_map, simulate_baseband,
                       surface_depth)

log = logging.getLogger("mmfsk")

METHODS = ("2fsk", "mm2fsk", "3fsk", "bp")
CARRIERS = {"2fsk": 2, "mm2fsk": 2, "3fsk": 3}  # the carriers a method needs; bp takes any number

ARRAY_PROFILES = {
    # n_tx, n_rx, aperture (m); "full" mirrors a 94x94-pair panel and is slow
    "desk": (16, 16, 0.20),
    "full": (94, 94, 0.50),
}

# ---------------------------------------------------------------------------
# the config table
#
# A check takes a key's dotted name and its value. It returns the value as
# given, a section with its defaults filled in, or raises
# ConfigurationError("config <key> must be <what>, got <value>"). Types are
# compared with type(), so a bool is neither a number nor an integer.


def _rule(test, what: str, most=None):
    """A value passing ``test``. With ``most``, an integer of greater
    magnitude is too large, as it would overflow wherever it is used; the
    message shows it cut short."""
    def check(where, value):
        if most is not None and type(value) is int and abs(value) > most:
            digits = str(abs(value))
            raise ConfigurationError(f"config {where} must be {what} of magnitude at most {most!r}, got "
                                     f"{'-' * (value < 0)}{digits[:6]}...{digits[-3:]} ({len(digits)} digits): "
                                     "too large")
        if not test(value):
            raise ConfigurationError(f"config {where} must be {what}, got {value!r}")
        return value
    return check


def _number(ok=lambda v: True, what: str = "a number"):
    """A JSON number passing ``ok``; an integer must lie in the float64 range."""
    return _rule(lambda v: type(v) in (float, int) and ok(v), what, most=sys.float_info.max)


def _or_null(check):
    return lambda where, value: None if value is None else check(where, value)


def _one_of(names):
    return _rule(lambda v: isinstance(v, str) and v in names, f"one of {list(names)}")


def _list(item, n=None, least=0):
    """A JSON list of ``n`` items (of at least ``least`` if ``n`` is None),
    each checked by ``item`` as ``<key>[i]``."""
    shape = _rule(lambda v: isinstance(v, list) and len(v) >= least and (n is None or len(v) == n),
                  f"a list of {n} items" if n else "a non-empty list" if least else "a list")
    return lambda where, value: [item(f"{where}[{i}]", v) for i, v in enumerate(shape(where, value))]


def _section(table: str):
    """A JSON object checked against ``CONFIG[table]``: no unknown key, keys
    of at most one of its ``SELECTORS`` groups, every required key, then the
    defaults filled in and every value checked."""
    def check(where, spec):
        keys, groups = CONFIG[table], SELECTORS.get(table, [()])
        at = f"config {where}" if where else "config"
        if not isinstance(spec, dict):
            raise ConfigurationError(f"{at} must be a JSON object, got {spec!r}")
        unknown = sorted(set(spec) - set(keys))
        if unknown:
            raise ConfigurationError(f"{at}: unknown key(s) {unknown}; allowed: {sorted(keys)}")
        given = [g for g in groups if not set(g).isdisjoint(spec)] or groups[:1]
        if len(given) > 1:
            mixed = " and ".join(repr(k) for g in given for k in g if k in spec)
            raise ConfigurationError(f"{at}: {mixed} exclude each other")
        spec = {**{k: d for k, (_, d) in keys.items() if not callable(d)}, **spec}
        excused = set().union(*groups) - set(given[0])
        for key, (_, default) in keys.items():
            if key not in spec and key not in excused and callable(default) and default(spec):
                raise ConfigurationError(f"{at}: missing key {key!r}")
        return {k: keys[k][0](f"{where}.{k}" if where else k, v) for k, v in spec.items()}
    return check


def _scene(where, spec):
    """The scene section, then its params against the keys its kind reads."""
    spec = _section("scene")(where, spec)
    return {**spec, "params": _section(f"scene.params.{spec['kind']}")(f"{where}.params", spec["params"])}


NUMBER = _number()
FINITE = _number(lambda v: abs(v) <= sys.float_info.max, "a finite number")  # NaN compares False
NATURAL = _rule(lambda v: type(v) is int and v >= 0, "an integer >= 0")  # seeds and erosion steps
# A count sizes an array or a list, so it must fit in a C ssize_t.
COUNT = _rule(lambda v: type(v) is int and v >= 1, "an integer >= 1", most=sys.maxsize)
TEXT = _rule(lambda v: isinstance(v, str), "a string")
METHOD, PAIR = _one_of(METHODS), _one_of(FREQUENCY_PAIRS)
REQUIRED, OPTIONAL = (lambda section: True), (lambda section: False)


# Each section maps its keys to (check, default). A default that is a
# function of the section (its other defaults filled in) says whether the
# key must be given; one left out is then not filled in. Any other default
# is filled in where the key is left out. "" is the top level.
CONFIG = {
    "": {
        "seed": (NATURAL, 0),
        "workers": (_or_null(COUNT), None),  # null: the CPU count
        "output_dir": (TEXT, "out"),
        "scene": (_scene, {"kind": "plane", "params": {"depth": 0.30, "extent": 0.08, "spacing": 0.0015}}),
        "array": (_section("array"), {"profile": "desk"}),
        "grid": (_section("grid"), {"width": 64, "height": 64, "spacing": 0.001}),
        "frequencies": (_section("frequencies"), {"pair": "10.0"}),
        "methods": (_list(METHOD, least=1), ["mm2fsk"]),
        "prior": (_section("prior"), {"value": 0.40}),
        "noise": (_or_null(_section("noise")), None),
        "filter_db": (_number(lambda v: v <= 0.0, "a number <= 0 (dB)"), DEFAULT_FILTER_DB),
        "voxel": (_or_null(_section("voxel")), None),  # null: the grid's footprint, 20 cm deep
        "eval": (_section("eval"), {}),
        "sweep": (_or_null(_section("sweep")), None),
    },
    "scene": {"kind": (_one_of(SCENE_PARAMS), REQUIRED), "params": (lambda where, value: value, REQUIRED)},
    "array": {"profile": (_one_of(ARRAY_PROFILES), REQUIRED),
              "n_tx": (COUNT, REQUIRED), "n_rx": (COUNT, REQUIRED), "aperture": (NUMBER, REQUIRED)},
    "grid": {"width": (COUNT, REQUIRED), "height": (COUNT, REQUIRED), "spacing": (NUMBER, REQUIRED),
             "center": (_list(NUMBER, 2), [0.0, 0.0])},
    "frequencies": {"pair": (PAIR, REQUIRED), "triple": (_list(PAIR, 2), REQUIRED),
                    "values_ghz": (_list(NUMBER), REQUIRED)},
    "prior": {
        "mode": (_one_of(("scalar", "camera", "file")), "scalar"),
        "value": (NUMBER, lambda prior: prior["mode"] == "scalar"),
        "path": (TEXT, lambda prior: prior["mode"] == "file"),
        "calibration": (_or_null(TEXT), OPTIONAL),
        "width": (COUNT, 72),
        "height": (COUNT, 72),
        "noise_mm": (_number(lambda v: 0.0 <= v < np.inf, "a finite number >= 0"), 0.0),
        "dropout": (_number(lambda v: 0.0 <= v < 1.0, "a number in [0, 1)"), 0.0),
    },
    "noise": {"snr_db": (_or_null(_number(lambda v: v < np.inf and -v / 10 < np.log10(sys.float_info.max),
                                          "a finite number at which 10 ** (-snr_db / 10) is finite")), OPTIONAL),
              "seed": (NATURAL, OPTIONAL)},  # seed: else the config's
    "voxel": {"extents": (_list(NUMBER, 3), REQUIRED), "resolution": (_list(COUNT, 3), REQUIRED),
              "center": (_list(NUMBER, 3), REQUIRED)},
    "eval": {"erode": (NATURAL, 1)},
    "sweep": {  # method: the first of methods; seeds: [seed], or a count n for 0..n-1
        "method": (METHOD, OPTIONAL),
        "pairs": (_list(PAIR, least=1), REQUIRED),
        "seeds": (_rule(lambda v: (type(v) is int and v >= 1
                                   or type(v) is list and v and all(type(i) is int and i >= 0 for i in v)),
                        "an integer >= 1 or a non-empty list of integers >= 0", most=sys.maxsize), OPTIONAL),
        "runs": (_list(_section("sweep.runs"), least=1), REQUIRED),
    },
    "sweep.runs": {"method": (METHOD, REQUIRED), "pair": (PAIR, REQUIRED), "triple": (_list(PAIR, 2), REQUIRED),
                   "prior": (_or_null(_section("prior")), OPTIONAL)},
    # scene.params.<kind>: the keys SCENE_PARAMS says the kind reads, each a
    # finite number unless named here; a surface kind needs the keys of its shape
    **{f"scene.params.{kind}": {
        key: ({"center": _list(FINITE, 2), "levels": _list(FINITE, 2)}.get(key, FINITE),
              REQUIRED if key in {"plane": ("depth",), "sphere-cap": ("radius", "center_z"),
                                  "step": ("levels",)}.get(kind, ()) else OPTIONAL)
        for key in keys} for kind, keys in SCENE_PARAMS.items()},
}

# Alternatives within a section: keys of one group only, and that group's
# required keys (the first group's where none is given).
SELECTORS = {
    "array": [("profile",), ("n_tx", "n_rx", "aperture")],
    "frequencies": [("pair",), ("triple",), ("values_ghz",)],
    "sweep": [("method", "pairs"), ("runs",)],
    "sweep.runs": [("pair",), ("triple",)],
}


def load_config(path: str | None, overrides: dict) -> dict:
    """The config file, then the CLI flags over it, checked as a whole
    against ``CONFIG`` before any stage runs, with the defaults filled in.
    A section given replaces the default section wholesale. No value is
    converted, so a snapshot holds the values as given; the ``_meta`` block
    of a resolved-config snapshot is dropped, so a snapshot can be fed
    back."""
    cfg = {}
    if path is not None:
        try:
            cfg = mio.load_json(path)
        except FileNotFoundError:
            raise FileNotFoundError(f"config file not found: {path}")
        if not isinstance(cfg, dict):
            raise ConfigurationError(f"config {path} must be a JSON object")
        cfg.pop("_meta", None)
    cfg.update({k: v for k, v in overrides.items() if v is not None})
    return _section("")("", cfg)


def _check_exact_range(axes, array, freqs, what: str) -> None:
    """Fail unless every phase the correlator forms toward the box spanned
    by ``axes`` (x, y, z), |b*d| at the highest carrier for d from any
    antenna, is within its exact range. The farthest point of a box is one
    of its corners; ``what`` names the config key and the point."""
    corners = np.stack(np.meshgrid(*(axis[[0, -1]] for axis in axes)), axis=-1).reshape(-1, 3)
    diff = corners[:, None] - np.concatenate([array.tx_positions, array.rx_positions])
    far = np.hypot(np.hypot(diff[..., 0], diff[..., 1]), diff[..., 2]).max()  # hypot: no overflow
    phase = np.abs(carrier_wavenumbers(freqs)[0]).max() * far
    if not phase < EXACT_PHASE:
        raise ConfigurationError(
            f"{what} {far:.4g} m from an antenna: a phase of {phase:.3g} rad at "
            f"{max(freqs.frequencies) / 1e9:g} GHz, beyond the correlator's exact range of {EXACT_PHASE:.3g} rad")


def _check_prior_range(prior: CandidateGrid, run: dict, source: str) -> None:
    """``_check_exact_range`` over the prior's grid and finite depths, naming ``source``."""
    depth = prior.prior_depth[prior.valid]
    if depth.size:  # a prior without depths forms no phase
        _check_exact_range((prior.x, prior.y, np.array([depth.min(), depth.max()])), run["array"], run["freqs"],
                           f"{source}: a prior depth puts the grid's farthest candidate")


def _resolve(cfg: dict) -> dict:
    """The run's library objects, built once before any stage reads or
    writes a file, so every rule they own fails first: the array, the
    carriers, the candidate grid, the scalar prior (``None`` unless
    ``prior.mode`` is scalar), the voxel volume and the noise. Each method
    is listed once, and three rules span sections: each method needs the
    carriers ``CARRIERS`` gives it, ``eval`` must be able to resample the
    scene at the pitch of each method's image (the grid's, or bp's voxel
    columns), and a scalar prior and bp's volume must keep every phase the
    correlator forms within its exact range (``_check_exact_range``)."""
    a, f, g, v, n = cfg["array"], cfg["frequencies"], cfg["grid"], cfg["voxel"], cfg["noise"]
    if v is None:  # the grid's footprint, 20 cm of depth around the scene
        v = {"extents": [g["width"] * g["spacing"], g["height"] * g["spacing"], 0.20],
             "resolution": [g["width"], g["height"], 201], "center": [*g["center"], 0.30]}
    array = mimo_cross_array(*(ARRAY_PROFILES[a["profile"]] if "profile" in a
                               else (a["n_tx"], a["n_rx"], a["aperture"])))
    freqs = (FrequencySet.from_pair_name(f["pair"]) if "pair" in f
             else FrequencySet.triple_from_pair_names(*f["triple"]) if "triple" in f
             else FrequencySet(tuple(x * 1e9 for x in f["values_ghz"])))
    for i, method in enumerate(cfg["methods"]):
        if method in cfg["methods"][:i]:  # it would run twice and fill two rows of eval_table.txt
            raise ConfigurationError(f"config methods: {method} is listed twice")
        if method in CARRIERS and len(freqs) != CARRIERS[method]:
            raise ConfigurationError(f"config methods: {method} needs {CARRIERS[method]} carriers, got {len(freqs)}")
    grid = CandidateGrid.regular(g["width"], g["height"], g["spacing"], tuple(g["center"]))
    prior = None
    if cfg["prior"]["mode"] == "scalar":
        value = cfg["prior"]["value"]
        prior = grid.with_scalar_prior(value)
        _check_exact_range((grid.x, grid.y, np.array([value])), array, freqs,
                           f"config prior.value {value!r} m puts the grid's farthest candidate")
    voxel = VoxelGridSpec(tuple(v["extents"]), tuple(v["resolution"]), tuple(v["center"]))
    params = cfg["scene"]["params"]
    if set(cfg["methods"]) - {"bp"}:  # eval scores these on the grid
        resample_pitch(params, grid.x, grid.y, "config grid.spacing")
    if "bp" in cfg["methods"]:  # and bp on the voxel columns, which the grid sets in the default volume
        key = "config grid.spacing" if cfg["voxel"] is None else "config voxel"
        resample_pitch(params, voxel.axis(0), voxel.axis(1), key)
        _check_exact_range([voxel.axis(i) for i in range(3)], array, freqs, f"{key} puts the volume's farthest voxel")
    return {
        "array": array,
        "freqs": freqs,
        "grid": grid,
        "prior": prior,
        "voxel": voxel,
        "noise": (NoiseSpec(snr_db=n["snr_db"], seed=n.get("seed", cfg["seed"]))
                  if n and n.get("snr_db") is not None else NoiseSpec()),
    }


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


def cmd_simulate(cfg: dict, run: dict) -> int:
    scene_cfg = cfg["scene"]
    scene = make_scene(scene_cfg["kind"], scene_cfg["params"])
    baseband = simulate_baseband(scene, run["array"], run["freqs"], run["noise"])
    gx, gy = np.meshgrid(run["grid"].x, run["grid"].y)
    gt_depth = surface_depth(scene_cfg["kind"], scene_cfg["params"], gx, gy)
    outdir = _outdir(cfg)
    mio.write_baseband(outdir / "baseband.fskt", baseband)
    mio.write_ply(outdir / "gt_targets.ply", scene.positions, np.abs(scene.reflectivities))
    mio.write_pfm(outdir / "gt_depth.pfm", gt_depth)
    _snapshot(cfg, outdir, "simulate")
    log.info("simulate: %d targets, tensor %s -> %s", scene.n_targets, baseband.shape, outdir)
    return 0


def cmd_prior(cfg: dict, run: dict) -> int:
    spec, grid, depth_map = cfg["prior"], run["grid"], None
    if spec["mode"] == "scalar":
        prior = run["prior"]
    elif spec["mode"] == "camera":
        size = spec["width"], spec["height"]
        if spec.get("calibration"):
            intr, ext = mio.load_calibration(spec["calibration"])
        else:
            intr, ext = _default_calibration(*size)
        scene_cfg = cfg["scene"]
        depth_map = render_depth_map(scene_cfg["kind"], scene_cfg["params"], intr, ext, *size)
        depth_map = _degrade_depth_map(depth_map, spec["noise_mm"], spec["dropout"], cfg["seed"])
        try:
            prior = build_prior(depth_map, intr, ext, grid)
        except InsufficientDataError as exc:
            raise InsufficientDataError(
                f"{exc}, got {depth_map.valid.sum()} of {depth_map.valid.size} (prior.dropout {spec['dropout']}; "
                "the camera renders surfaces at camera depths of {}-{} m only)".format(*RENDER_DEPTHS)) from exc
    else:
        prior = _load_prior_grid(spec["path"], grid)
    _check_prior_range(prior, run, spec["path"] if spec["mode"] == "file" else "config prior")
    outdir = _outdir(cfg)
    if depth_map is not None:
        mio.write_pfm(outdir / "optical_depth.pfm", depth_map.depth)
    mio.save_candidate_grid(outdir / "prior_grid.json", prior)
    _snapshot(cfg, outdir, "prior")
    log.info("prior: %d valid pixels -> %s", int(prior.valid.sum()), outdir)
    return 0


def _load_prior_grid(path, grid: CandidateGrid) -> CandidateGrid:
    """A saved candidate grid, which must lie on the config's grid: the
    image takes its axes, and ``eval`` scores it on the config's."""
    prior = mio.load_candidate_grid(path)
    if not (np.array_equal(prior.x, grid.x) and np.array_equal(prior.y, grid.y)):
        raise ConfigurationError(f"{path}: x and y axes differ from the config's grid")
    return prior


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


def cmd_reconstruct(cfg: dict, run: dict) -> int:
    outdir = Path(cfg["output_dir"])
    bb_path, grid_path = outdir / "baseband.fskt", outdir / "prior_grid.json"
    if not bb_path.exists():
        raise FileNotFoundError(f"baseband tensor not found: {bb_path} (run 'simulate' first)")
    baseband = mio.read_baseband(bb_path)
    grid = None
    if set(cfg["methods"]) - {"bp"}:
        if not grid_path.exists():
            raise FileNotFoundError(f"prior grid not found: {grid_path} (run 'prior' first)")
        grid = _load_prior_grid(grid_path, run["grid"])
        _check_prior_range(grid, run, grid_path)
    # built per call, so the module names bench/spans.py wraps are looked up now
    recon = {"2fsk": fsk2_reconstruct, "mm2fsk": mm2fsk_reconstruct, "3fsk": fsk3_reconstruct}
    images = []
    for method in cfg["methods"]:
        if method == "bp":
            image = backproject(baseband, run["voxel"], run["array"], run["freqs"], workers=cfg["workers"])
        else:
            image = recon[method](baseband, grid, run["array"], run["freqs"], workers=cfg["workers"])
        images.append((method, magnitude_filter(image, cfg["filter_db"])))
    for method, image in images:
        mio.export_radar_image(outdir, method, image)
        log.info("reconstruct[%s]: %d valid pixels", method, image.n_valid)
    _snapshot(cfg, outdir, "reconstruct")
    return 0


def cmd_eval(cfg: dict, run: dict) -> int:
    outdir = Path(cfg["output_dir"])
    scene_cfg = cfg["scene"]
    reports = []
    for method in cfg["methods"]:
        path = outdir / f"{method}_depth.pfm"
        if not path.exists():
            raise FileNotFoundError(f"reconstruction not found: {path} (run 'reconstruct' first)")
        x, y = (run["voxel"].axis(0), run["voxel"].axis(1)) if method == "bp" else (run["grid"].x, run["grid"].y)
        image = mio.read_radar_image(outdir, method, x, y)
        label = f"{method}@{_freq_label(cfg['frequencies'])}"
        reports.append(evaluate_image(image, scene_cfg["kind"], scene_cfg["params"], erode=cfg["eval"]["erode"],
                                      label=label))
    for method, report in zip(cfg["methods"], reports):
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
        return "t{}-{}".format(*spec["triple"])
    return "custom"


def cmd_sweep(cfg: dict, run: dict) -> int:
    """Run simulate->prior->reconstruct->eval per configuration and seed,
    aggregate seed medians, and judge the error-vs-bandwidth trend. Every
    entry is resolved before any run, so each rule fails before the first
    write, naming the entry. Each run is resolved just before its stages
    and only its eval record is kept: memory does not grow with the seed
    count beyond those records."""
    sweep = cfg["sweep"]
    if sweep is None:
        raise ConfigurationError("sweep needs a 'sweep' section with 'pairs' or 'runs'")
    outdir = Path(cfg["output_dir"])
    seeds = sweep.get("seeds", [cfg["seed"]])
    if isinstance(seeds, int):
        seeds = range(seeds)
    # the shorthand form sweeps one method over bundled pairs; the general
    # form lists runs, each with a method, a pair or triple and maybe a prior
    entries = sweep.get("runs") or [{"method": sweep.get("method", cfg["methods"][0]), "pair": p}
                                    for p in sweep["pairs"]]
    subs = []  # (sub-config, label, Δf) per entry, all resolved before any run; the seed enters no rule
    for entry in entries:
        method = entry["method"]
        freq_spec = {"triple": entry["triple"]} if "triple" in entry else {"pair": entry["pair"]}
        sub = {**cfg, "methods": [method], "frequencies": freq_spec, "prior": entry.get("prior") or cfg["prior"]}
        label = f"{method}@{_freq_label(freq_spec)}"
        if label in [other for _, other, _ in subs]:  # its runs would overwrite the earlier entry's
            raise ConfigurationError(f"sweep entry {label}: an earlier entry has the same method and frequencies")
        try:
            freqs = _resolve(sub)["freqs"]
        except ValueError as exc:
            raise ConfigurationError(f"sweep entry {label}: {exc}") from exc
        subs.append((sub, label, freqs.delta()))

    records = []
    for sub, label, delta_f in subs:
        method, per_seed = sub["methods"][0], []
        for seed in seeds:
            seed_cfg = {**sub, "seed": seed, "noise": dict(cfg["noise"], seed=seed) if cfg["noise"] else None,
                        "output_dir": str(outdir / label.replace("@", "_") / f"seed_{seed}")}
            seed_run = _resolve(seed_cfg)
            cmd_simulate(seed_cfg, seed_run)
            if method != "bp":
                cmd_prior(seed_cfg, seed_run)
            cmd_reconstruct(seed_cfg, seed_run)
            cmd_eval(seed_cfg, seed_run)
            per_seed.append(mio.load_json(Path(seed_cfg["output_dir"]) / f"eval_{method}.json"))
        records.append({
            "label": label,
            "method": method,
            "delta_f_hz": delta_f,
            **{f"median_{k}": float(np.median([r[k] for r in per_seed])) for k in SCORES},
            "runs": per_seed,
        })
        log.info("sweep[%s]: median P_eroded=%.4f cm over %d seeds",
                 label, records[-1]["median_p_eroded"] * 100, len(seeds))

    # the trend verdict applies to single-method ablations over Δf
    verdict, rho = "single configuration: no trend", None
    if len(records) >= 2 and len({r["method"] for r in records}) == 1:
        rho = spearman_rho([r["delta_f_hz"] for r in records], [r["median_p_eroded"] for r in records])
        trend = "non-increasing" if rho <= -0.8 else "not monotone"
        verdict = f"error vs frequency difference is {trend} (spearman={rho:.3f})"
    elif len(records) >= 2:
        verdict = f"best configuration: {min(records, key=lambda r: r['median_p_eroded'])['label']}"
    mio.dump_json(outdir / "sweep_report.json", {"records": records, "spearman": rho, "verdict": verdict})
    reports = [EvalReport(label=r["label"], **{k: r[f"median_{k}"] for k in SCORES}) for r in records]
    (outdir / "sweep_table.txt").write_text(report_table(reports) + f"\n{verdict}\n", encoding="utf-8")
    _snapshot(cfg, outdir, "sweep")
    log.info("sweep: %s", verdict)
    return 0


def cmd_report(cfg: dict, run: dict) -> int:
    outdir = Path(cfg["output_dir"])
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


def _int_flag(text: str):
    """A flag's integer, or its text for the config table to reject by name."""
    try:
        return int(text)
    except ValueError:
        return text


@functools.cache  # built once per process: every main() call in it parses with the same parser
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
        p.add_argument("-o", "--output-dir", help="output directory (overrides config)")
        p.add_argument("--workers", type=_int_flag, help="worker pool size (default: CPU count)")
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
    try:
        cfg = load_config(args.config, {"workers": args.workers, "output_dir": args.output_dir or None})
        return COMMANDS[args.command](cfg, _resolve(cfg))
    except ValueError as exc:
        log.error("validation: %s", exc)
        return 1
    except MemoryError:
        log.error("validation: mmfsk %s: the run does not fit in memory", args.command)
        return 1
    except OSError as exc:
        log.error("i/o: %s", exc)
        return 2
    except NumericalError as exc:
        log.error("numerical: %s", exc)
        return 3


if __name__ == "__main__":
    sys.exit(main())

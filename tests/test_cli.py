import copy
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mmfsk import io as mio
from mmfsk.cli import CONFIG, SELECTORS, load_config, main
from mmfsk.simulate import SCENE_PARAMS


def write_config(path: Path, **overrides) -> Path:
    cfg = {
        "seed": 7,
        "output_dir": str(path.parent / "out"),
        "scene": {"kind": "plane", "params": {"depth": 0.30, "extent": 0.06, "spacing": 0.002}},
        "array": {"n_tx": 8, "n_rx": 8, "aperture": 0.2},
        "grid": {"width": 24, "height": 24, "spacing": 0.002},
        "frequencies": {"pair": "10.0"},
        "methods": ["mm2fsk"],
        "prior": {"mode": "scalar", "value": 0.30},
        "noise": {"snr_db": 25, "seed": 7},
    }
    cfg.update(overrides)  # wholesale replacement: selector keys must not mix
    path.write_text(json.dumps(cfg))
    return path


def tree_digest(root: Path) -> dict:
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file() and not p.name.endswith("_config.json")
    }


class TestSimulate:
    def test_reruns_are_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")
        assert main(["simulate", "-c", str(cfg)]) == 0
        first = (tmp_path / "out" / "baseband.fskt").read_bytes()
        assert main(["simulate", "-c", str(cfg)]) == 0
        assert (tmp_path / "out" / "baseband.fskt").read_bytes() == first

    def test_header_matches_configured_shape(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", array={"n_tx": 16, "n_rx": 16, "aperture": 0.2},
                           frequencies={"values_ghz": list(np.linspace(72, 82, 8))})
        assert main(["simulate", "-c", str(cfg)]) == 0
        raw = (tmp_path / "out" / "baseband.fskt").read_bytes()
        assert list(np.frombuffer(raw[8:20], dtype="<u4")) == [16, 16, 8]

    def test_missing_config_path_exits_2(self, tmp_path, capsys):
        assert main(["simulate", "-c", str(tmp_path / "nope.json")]) == 2

    def test_misspelled_top_level_key_exits_1(self, tmp_path, caplog):
        cfg = write_config(tmp_path / "cfg.json", methds=["2fsk"])
        assert main(["simulate", "-c", str(cfg)]) == 1
        assert "methds" in caplog.text
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("overrides,key", [
        ({"noise": {"snr": 10}}, "snr"),
        ({"grid": {"widht": 64}}, "widht"),
        ({"sweep": {"seeds": 1, "runs": [{"method": "2fsk", "pari": "10.0"}]}}, "pari"),
        ({"sweep": {"runs": [{"method": "mm2fsk", "pair": "10.0", "prior": {"mode": "camera", "nosie_mm": 1}}]}},
         "nosie_mm"),
        ({"eval": 3}, "eval"),
        ({"scene": {"kind": "plane", "params": {"depth": 0.3, "spacng": 0.002}}}, "spacng"),
        ({"scene": {"kind": "step", "params": {"levels": [0.28, 0.32], "tilt_x": 0.1}}}, "tilt_x"),
        ({"scene": {"kind": "random-cloud", "params": {"n": 8, "spacing": 0.002}}}, "spacing"),
        ({"scene": {"kind": "torus", "params": {"depth": 0.3}}}, "torus"),
    ])
    def test_misspelled_section_key_exits_1(self, tmp_path, caplog, overrides, key):
        cfg = write_config(tmp_path / "cfg.json", **overrides)
        assert main(["simulate", "-c", str(cfg)]) == 1
        assert key in caplog.text
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("overrides,command,key", [
        ({"grid": {"width": 8, "height": 8}}, "simulate", "spacing"),
        ({"methods": ["bp"], "voxel": {"extents": [0.02, 0.02, 0.02], "center": [0, 0, 0.3]}},
         "reconstruct", "resolution"),
        ({"scene": {"kind": "plane"}}, "simulate", "params"),
        ({"scene": {"kind": "plane", "params": {"extent": 0.06}}}, "simulate", "depth"),
        ({"scene": {"kind": "step", "params": {"extent": 0.06}}}, "simulate", "levels"),
        ({"array": {"n_tx": 4, "n_rx": 4}}, "simulate", "aperture"),
        ({"sweep": {"runs": [{"method": "2fsk"}]}}, "sweep", "pair"),
    ])
    def test_missing_section_key_exits_1(self, tmp_path, caplog, overrides, command, key):
        cfg = write_config(tmp_path / "cfg.json", **overrides)
        if command == "reconstruct":  # simulate checks the voxel section too
            assert main(["simulate", "-c", str(cfg)]) == 1
        assert main([command, "-c", str(cfg)]) == 1
        assert "validation: config " in caplog.text and f"missing key '{key}'" in caplog.text
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, overrides, where, keys", [
        ("simulate", {"array": {"profile": "desk", "n_tx": 4}}, "array", "'profile' and 'n_tx'"),
        ("simulate", {"frequencies": {"pair": "10.0", "values_ghz": [72.0, 82.0]}}, "frequencies",
         "'pair' and 'values_ghz'"),
        ("sweep", {"sweep": {"runs": [{"method": "3fsk", "pair": "10.0", "triple": ["0.5", "10.0"]}]}},
         "sweep.runs[0]", "'pair' and 'triple'"),
    ], ids=["array", "frequencies", "sweep-run"])
    def test_mixed_selectors_exit_1(self, tmp_path, caplog, command, overrides, where, keys):
        cfg = write_config(tmp_path / "cfg.json", **overrides)
        assert main([command, "-c", str(cfg)]) == 1
        assert f"validation: config {where}: {keys} exclude each other" in caplog.text
        assert not (tmp_path / "out").exists()

    def test_non_object_config_exits_1(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("[1, 2]")
        assert main(["simulate", "-c", str(path)]) == 1

    def test_resolved_snapshot_feeds_back(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")
        assert main(["simulate", "-c", str(cfg)]) == 0
        snapshot = tmp_path / "out" / "simulate_config.json"
        first = json.loads(snapshot.read_text())
        assert main(["simulate", "-c", str(snapshot)]) == 0
        assert json.loads(snapshot.read_text()) == first

    def test_bad_scene_kind_exits_1(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", scene={"kind": "torus", "params": {}})
        assert main(["simulate", "-c", str(cfg)]) == 1

    def test_ground_truth_artifacts(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")
        main(["simulate", "-c", str(cfg)])
        assert (tmp_path / "out" / "gt_targets.ply").exists()
        assert (tmp_path / "out" / "gt_depth.pfm").exists()
        assert (tmp_path / "out" / "simulate_config.json").exists()


class TestPrior:
    def test_scalar_prior_is_constant(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", prior={"mode": "scalar", "value": 0.40})
        assert main(["prior", "-c", str(cfg)]) == 0
        grid = mio.load_candidate_grid(tmp_path / "out" / "prior_grid.json")
        assert grid.valid.all()
        assert np.all(grid.prior_depth == 0.40)

    def test_camera_prior_produces_per_pixel_depths(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json",
                           scene={"kind": "step", "params": {"levels": [0.28, 0.32], "extent": 0.1, "spacing": 0.002}},
                           prior={"mode": "camera"})
        assert main(["prior", "-c", str(cfg)]) == 0
        grid = mio.load_candidate_grid(tmp_path / "out" / "prior_grid.json")
        assert grid.valid.sum() > 100
        levels = np.unique(np.round(grid.prior_depth[grid.valid], 3))
        assert 0.28 in levels and 0.32 in levels
        assert (tmp_path / "out" / "optical_depth.pfm").exists()

    def test_camera_size_without_calibration(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json",
                           scene={"kind": "step", "params": {"levels": [0.28, 0.32], "extent": 0.1, "spacing": 0.002}},
                           prior={"mode": "camera", "width": 40, "height": 30})
        assert main(["prior", "-c", str(cfg)]) == 0
        depth = mio.read_pfm(tmp_path / "out" / "optical_depth.pfm")
        assert depth.shape == (30, 40)
        assert np.isfinite(depth).sum() > 100

    def test_invalid_calibration_exits_1(self, tmp_path):
        bad = tmp_path / "cal.json"
        bad.write_text(json.dumps({
            "intrinsics": {"f_u": 100.0, "f_v": 100.0, "c_u": 32.0, "c_v": 32.0},
            "extrinsics": {"rotation": [[2, 0, 0], [0, 1, 0], [0, 0, 1]], "translation": [0, 0, 0]},
        }))
        cfg = write_config(tmp_path / "cfg.json", prior={"mode": "camera", "calibration": str(bad)})
        assert main(["prior", "-c", str(cfg)]) == 1

    @pytest.mark.parametrize("intrinsics, message", [
        ({"f_u": 100.0, "f_v": 100.0, "c_u": 32.0}, "missing key 'c_v'"),
        ({"f_u": 100.0, "f_v": 100.0, "c_u": 32.0, "c_v": 32.0, "skew": 0.0},
         "unknown intrinsics key(s) ['skew']"),
    ], ids=["missing", "unknown"])
    def test_calibration_intrinsics_keys_exit_1(self, tmp_path, caplog, intrinsics, message):
        cal = tmp_path / "cal.json"
        cal.write_text(json.dumps({
            "intrinsics": intrinsics,
            "extrinsics": {"rotation": [[1, 0, 0], [0, 1, 0], [0, 0, 1]], "translation": [0, 0, 0]},
        }))
        cfg = write_config(tmp_path / "cfg.json", prior={"mode": "camera", "calibration": str(cal)})
        assert main(["prior", "-c", str(cfg)]) == 1
        assert f"validation: {cal}: {message}" in caplog.text

    def test_prior_grid_without_axis_exits_1(self, tmp_path, caplog):
        # a grid document that gives the x axis only as origin and pitch
        cfg = write_config(tmp_path / "cfg.json")
        assert main(["prior", "-c", str(cfg)]) == 0
        grid_path = tmp_path / "grid.json"
        doc = mio.load_json(tmp_path / "out" / "prior_grid.json")
        del doc["x"]
        mio.dump_json(grid_path, doc)
        cfg = write_config(tmp_path / "cfg.json", prior={"mode": "file", "path": str(grid_path)})
        assert main(["prior", "-c", str(cfg)]) == 1
        assert f"validation: {grid_path}: missing key 'x'" in caplog.text

    @pytest.mark.parametrize("section, key, value, message", [
        ("intrinsics", "f_u", None, "'f_u' must be a number"),
        ("intrinsics", "f_u", "100.0", "'f_u' must be a number"),
        ("extrinsics", "rotation", [[1, 0, 0], [0, None, 0], [0, 0, 1]],
         "'rotation' must be a list of equal-length rows of numbers"),
    ], ids=["null", "string", "null-in-rotation"])
    def test_calibration_value_of_wrong_type_exits_1(self, tmp_path, caplog, section, key, value, message):
        doc = {
            "intrinsics": {"f_u": 100.0, "f_v": 100.0, "c_u": 32.0, "c_v": 32.0},
            "extrinsics": {"rotation": [[1, 0, 0], [0, 1, 0], [0, 0, 1]], "translation": [0, 0, 0]},
        }
        doc[section][key] = value
        cal = tmp_path / "cal.json"
        cal.write_text(json.dumps(doc))
        cfg = write_config(tmp_path / "cfg.json", prior={"mode": "camera", "calibration": str(cal)})
        assert main(["prior", "-c", str(cfg)]) == 1
        assert f"validation: {cal}: {message}" in caplog.text

    @pytest.mark.parametrize("key, edit, message", [
        ("x", lambda v: v[:1] + [None] + v[2:], "'x' must be a list of numbers"),
        ("y", lambda v: [None] + v[1:], "'y' must be a list of numbers"),
        ("prior_depth", lambda v: v[0], "'prior_depth' must be a list of equal-length rows"),
        ("prior_depth", lambda v: 0.3, "'prior_depth' must be a list of equal-length rows"),
        ("prior_depth", lambda v: [v[0], v[1][:-1]] + v[2:], "'prior_depth' must be a list of equal-length rows"),
        ("prior_depth", lambda v: [["0.3"] + v[0][1:]] + v[1:], "'prior_depth' must be a list of equal-length rows"),
        ("x", lambda v: v[:-1], "prior_depth must have shape (H, W)"),
        ("y", lambda v: v[::-1], "grid spacing must be uniform and increasing"),
    ], ids=["null-in-x", "null-in-y", "flat-prior", "scalar-prior", "ragged-prior", "string-in-prior",
            "short-axis", "reversed-axis"])
    def test_prior_grid_of_wrong_type_exits_1(self, tmp_path, caplog, key, edit, message):
        cfg = write_config(tmp_path / "cfg.json")
        assert main(["prior", "-c", str(cfg)]) == 0
        grid_path = tmp_path / "grid.json"
        doc = mio.load_json(tmp_path / "out" / "prior_grid.json")
        doc[key] = edit(doc[key])
        mio.dump_json(grid_path, doc)
        cfg = write_config(tmp_path / "cfg.json", prior={"mode": "file", "path": str(grid_path)})
        assert main(["prior", "-c", str(cfg)]) == 1
        assert f"validation: {grid_path}: {message}" in caplog.text

    def test_unknown_mode_exits_1(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", prior={"mode": "telepathy"})
        assert main(["prior", "-c", str(cfg)]) == 1

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_scalar_prior_exits_1(self, tmp_path, caplog, value):
        cfg = write_config(tmp_path / "cfg.json", prior={"mode": "scalar", "value": value})
        assert main(["prior", "-c", str(cfg)]) == 1
        assert "prior depth must be finite" in caplog.text
        assert not (tmp_path / "out" / "prior_grid.json").exists()

    @pytest.mark.parametrize("key, value", [
        ("width", 0), ("width", 40.5), ("height", -3), ("height", True),
        ("noise_mm", -1.0), ("noise_mm", float("nan")),
        ("dropout", -0.1), ("dropout", 1.0),
    ])
    def test_camera_setting_out_of_range_exits_1(self, tmp_path, caplog, key, value):
        cfg = write_config(tmp_path / "cfg.json",
                           scene={"kind": "step", "params": {"levels": [0.28, 0.32], "extent": 0.1, "spacing": 0.002}},
                           prior={"mode": "camera", "width": 40, "height": 30, key: value})
        assert main(["prior", "-c", str(cfg)]) == 1
        assert f"validation: config prior.{key} must be" in caplog.text
        assert not (tmp_path / "out" / "optical_depth.pfm").exists()


class TestReconstructAndEval:
    def run_pipeline(self, tmp_path, **overrides):
        cfg = write_config(tmp_path / "cfg.json", **overrides)
        for cmd in ("simulate", "prior", "reconstruct", "eval"):
            assert main([cmd, "-c", str(cfg)]) == 0, cmd
        return cfg

    def test_full_pipeline_all_methods(self, tmp_path):
        self.run_pipeline(
            tmp_path,
            methods=["2fsk", "mm2fsk"],
        )
        out = tmp_path / "out"
        for method in ("2fsk", "mm2fsk"):
            for suffix in ("depth.pfm", "magnitude.pfm", "joint_magnitude.pfm", "cloud.ply"):
                assert (out / f"{method}_{suffix}").exists()
            rec = mio.load_json(out / f"eval_{method}.json")
            assert rec["p_eroded"] < 0.002
        assert (out / "eval_table.txt").exists()

    def test_three_frequency_method(self, tmp_path):
        self.run_pipeline(
            tmp_path,
            frequencies={"triple": ["0.5", "10.0"]},
            methods=["3fsk"],
            prior={"mode": "scalar", "value": 0.40},
        )
        rec = mio.load_json(tmp_path / "out" / "eval_3fsk.json")
        assert rec["p_eroded"] < 0.002

    def test_backprojection_method(self, tmp_path):
        self.run_pipeline(
            tmp_path,
            methods=["bp"],
            frequencies={"values_ghz": list(np.linspace(72, 82, 8))},
            voxel={"extents": [0.048, 0.048, 0.04], "resolution": [13, 13, 21], "center": [0, 0, 0.30]},
            scene={"kind": "plane", "params": {"depth": 0.30, "extent": 0.06, "spacing": 0.002}},
        )
        rec = mio.load_json(tmp_path / "out" / "eval_bp.json")
        assert rec["p_eroded"] < 0.01

    def test_sparse_random_cloud_evaluates(self, tmp_path):
        # 64 points on a 32x32 grid bin to isolated pixels, which the
        # default erosion would remove entirely.
        self.run_pipeline(
            tmp_path,
            scene={"kind": "random-cloud", "params": {"n": 64, "seed": 3}},
            grid={"width": 32, "height": 32, "spacing": 0.001},
            prior={"mode": "scalar", "value": 0.40},
        )
        rec = mio.load_json(tmp_path / "out" / "eval_mm2fsk.json")
        assert rec["n_pixels_eroded"] == rec["n_pixels_masked"] > 0
        assert rec["p_eroded"] == rec["p_masked"]

    @pytest.mark.parametrize("command, methods, message", [
        ("reconstruct", "2fsk", "config methods must be a non-empty list, got '2fsk'"),
        ("eval", ["hologram"], "config methods[0] must be one of ['2fsk', 'mm2fsk', '3fsk', 'bp'], got 'hologram'"),
        ("simulate", [], "config methods must be a non-empty list, got []"),
    ])
    def test_methods_are_known_names_checked_on_load(self, tmp_path, caplog, command, methods, message):
        cfg = write_config(tmp_path / "cfg.json", methods=methods)
        assert main([command, "-c", str(cfg)]) == 1
        assert f"validation: {message}" in caplog.text
        assert not (tmp_path / "out").exists()

    def test_unknown_method_exits_1(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", methods=["hologram"])
        main(["simulate", "-c", str(cfg)])
        main(["prior", "-c", str(cfg)])
        assert main(["reconstruct", "-c", str(cfg)]) == 1

    @pytest.mark.parametrize("filter_db", [5.0, float("nan")])
    def test_filter_db_above_zero_or_nan_exits_1(self, tmp_path, caplog, filter_db):
        cfg = write_config(tmp_path / "cfg.json", filter_db=filter_db)
        for cmd in ("simulate", "prior"):  # each checks the whole config
            assert main([cmd, "-c", str(cfg)]) == 1, cmd
        assert main(["reconstruct", "-c", str(cfg)]) == 1
        assert "validation: config filter_db must be" in caplog.text
        assert not (tmp_path / "out").exists()

    def test_reconstruct_without_baseband_exits_2(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")
        assert main(["reconstruct", "-c", str(cfg)]) == 2

    def test_eval_grid_mismatch_exits_1(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")
        for cmd in ("simulate", "prior", "reconstruct"):
            assert main([cmd, "-c", str(cfg)]) == 0
        bad = write_config(tmp_path / "bad.json", grid={"width": 10, "height": 10, "spacing": 0.002},
                           output_dir=str(tmp_path / "out"))
        assert main(["eval", "-c", str(bad)]) == 1

    def test_worker_count_does_not_change_artifacts(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", output_dir=str(tmp_path / "w1"))
        for cmd in ("simulate", "prior", "reconstruct", "eval"):
            assert main([cmd, "-c", str(cfg), "--workers", "1"]) == 0
        cfg2 = write_config(tmp_path / "cfg2.json", output_dir=str(tmp_path / "w3"))
        for cmd in ("simulate", "prior", "reconstruct", "eval"):
            assert main([cmd, "-c", str(cfg2), "--workers", "3"]) == 0
        assert tree_digest(tmp_path / "w1") == tree_digest(tmp_path / "w3")

    def test_bp_worker_count_does_not_change_bp_bytes(self, tmp_path):
        # 33x33x9 voxels: three runs of three planes, 13 blocks each, so
        # two and three workers split every run's blocks differently.
        digests = []
        for workers in ("1", "2", "3"):
            out = tmp_path / f"w{workers}"
            cfg = write_config(tmp_path / f"cfg{workers}.json", output_dir=str(out), methods=["bp"],
                               frequencies={"values_ghz": list(np.linspace(72, 82, 8))},
                               voxel={"extents": [0.064, 0.064, 0.016], "resolution": [33, 33, 9],
                                      "center": [0, 0, 0.30]})
            for cmd in ("simulate", "reconstruct"):
                assert main([cmd, "-c", str(cfg), "--workers", workers]) == 0, cmd
            digests.append({k: v for k, v in tree_digest(out).items() if k.startswith("bp_")})
        assert len(digests[0]) == 4
        assert digests[0] == digests[1] == digests[2]

    @pytest.mark.parametrize("where, value", [
        ("config", "two"), ("config", 1.5), ("config", True), ("config", 0), ("config", -3),
        ("flag", "0"), ("flag", "-3"), ("flag", "two"), ("flag", "1.5"),
    ])
    def test_bad_worker_count_exits_1(self, tmp_path, caplog, where, value):
        cfg = write_config(tmp_path / "cfg.json", **({"workers": value} if where == "config" else {}))
        flag = ["--workers", value] if where == "flag" else []
        for cmd in ("simulate", "prior"):  # a bad config value stops every subcommand
            assert main([cmd, "-c", str(cfg)]) == (1 if where == "config" else 0), cmd
        assert main(["reconstruct", "-c", str(cfg), *flag]) == 1
        assert "validation: config workers must be an integer >= 1" in caplog.text
        assert not (tmp_path / "out" / "mm2fsk_depth.pfm").exists()
        if where == "config":
            assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, flag, value, message", [
        ("simulate", "--seed", "x", "config seed must be an integer"),
        ("simulate", "--seed", "1.5", "config seed must be an integer"),
        ("reconstruct", "--workers", "two", "config workers must be an integer >= 1"),
    ])
    def test_bad_flag_value_exits_1_naming_the_key(self, tmp_path, caplog, command, flag, value, message):
        # not argparse's exit 2, which the CLI keeps for I/O errors
        cfg = write_config(tmp_path / "cfg.json")
        assert main([command, "-c", str(cfg), flag, value]) == 1
        assert f"validation: {message}, got '{value}'" in caplog.text
        assert not (tmp_path / "out").exists()

    def test_flag_integers_reach_the_snapshot_as_integers(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")
        assert main(["simulate", "-c", str(cfg), "--seed", "11", "--workers", "2"]) == 0
        snapshot = mio.load_json(tmp_path / "out" / "simulate_config.json")
        assert (snapshot["seed"], snapshot["workers"]) == (11, 2)

    def test_null_worker_count_means_cpu_count(self, tmp_path):
        self.run_pipeline(tmp_path, workers=None)
        assert (tmp_path / "out" / "mm2fsk_depth.pfm").exists()

    def test_output_dir_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("MMFSK_OUT", str(tmp_path / "envout"))
        cfg = write_config(tmp_path / "cfg.json")
        assert main(["simulate", "-c", str(cfg)]) == 0
        assert (tmp_path / "envout" / "baseband.fskt").exists()

    @pytest.mark.parametrize("via", ["flag", "env"])
    def test_snapshot_records_output_dir(self, tmp_path, monkeypatch, via):
        cfg = write_config(tmp_path / "cfg.json")
        moved = tmp_path / "moved"
        if via == "env":
            monkeypatch.setenv("MMFSK_OUT", str(moved))
        for cmd in ("simulate", "prior", "reconstruct", "eval"):
            assert main([cmd, "-c", str(cfg)] + (["-o", str(moved)] if via == "flag" else [])) == 0
        monkeypatch.delenv("MMFSK_OUT", raising=False)
        for cmd in ("simulate", "prior", "reconstruct", "eval"):
            snapshot = moved / f"{cmd}_config.json"
            assert mio.load_json(snapshot)["output_dir"] == str(moved)
            (moved / "eval_table.txt").unlink()
            assert main(["eval", "-c", str(snapshot)]) == 0
            assert (moved / "eval_table.txt").exists()
        assert not (tmp_path / "out").exists()


class TestSweepAndReport:
    def test_ablation_sweep_trend(self, tmp_path):
        cfg = write_config(
            tmp_path / "cfg.json",
            grid={"width": 16, "height": 16, "spacing": 0.002},
            scene={"kind": "plane", "params": {"depth": 0.30, "extent": 0.05, "spacing": 0.002}},
            prior={"mode": "scalar", "value": 0.302},
            noise={"snr_db": 20},
            sweep={"pairs": ["0.5", "10.0"], "seeds": 2, "method": "mm2fsk"},
        )
        assert main(["sweep", "-c", str(cfg)]) == 0
        report = mio.load_json(tmp_path / "out" / "sweep_report.json")
        assert len(report["records"]) == 2
        assert report["spearman"] is not None
        assert (tmp_path / "out" / "sweep_table.txt").exists()

    def test_single_config_sweep_has_no_trend(self, tmp_path):
        cfg = write_config(
            tmp_path / "cfg.json",
            grid={"width": 12, "height": 12, "spacing": 0.002},
            prior={"mode": "scalar", "value": 0.30},
            sweep={"pairs": ["10.0"], "seeds": 1, "method": "mm2fsk"},
        )
        assert main(["sweep", "-c", str(cfg)]) == 0
        report = mio.load_json(tmp_path / "out" / "sweep_report.json")
        assert report["verdict"] == "single configuration: no trend"

    def test_method_comparison_runs(self, tmp_path):
        cfg = write_config(
            tmp_path / "cfg.json",
            grid={"width": 12, "height": 12, "spacing": 0.002},
            scene={"kind": "plane", "params": {"depth": 0.30, "extent": 0.04, "spacing": 0.002}},
            sweep={
                "seeds": 1,
                "runs": [
                    {"method": "2fsk", "pair": "10.0", "prior": {"mode": "scalar", "value": 0.40}},
                    {"method": "mm2fsk", "pair": "10.0", "prior": {"mode": "camera"}},
                ],
            },
        )
        assert main(["sweep", "-c", str(cfg)]) == 0
        report = mio.load_json(tmp_path / "out" / "sweep_report.json")
        assert report["verdict"].startswith("best configuration")
        # scalar prior 10 cm off wraps at 10 GHz; the camera prior does not
        by_label = {r["label"]: r["median_p_eroded"] for r in report["records"]}
        assert by_label["mm2fsk@d10.0"] < by_label["2fsk@d10.0"]

    @pytest.mark.parametrize("sweep, key", [
        ({"pairs": ["10.0"], "seeds": "ab"}, "sweep.seeds"),
        ({"pairs": ["10.0"], "seeds": 0}, "sweep.seeds"),
        ({"pairs": ["10.0"], "seeds": []}, "sweep.seeds"),
        ({"pairs": ["10.0"], "seeds": [1, 2.5]}, "sweep.seeds"),
        ({"pairs": ["10.0"], "method": "hologram"}, "sweep.method"),
        ({"pairs": []}, "sweep.pairs"),
        ({"pairs": ["10.0", "10.5"]}, "sweep.pairs[1]"),
        ({"runs": [{"method": "2fsk", "pair": "10.0"}, {"method": "hologram", "pair": "10.0"}]},
         "sweep.runs[1].method"),
        ({"runs": [{"method": "2fsk", "pair": "10.0", "prior": {"mode": "camera", "dropout": 1.0}}]},
         "sweep.runs[0].prior.dropout"),
    ])
    def test_bad_sweep_value_exits_1_before_any_file(self, tmp_path, caplog, sweep, key):
        cfg = write_config(tmp_path / "cfg.json", sweep=sweep)
        assert main(["sweep", "-c", str(cfg)]) == 1
        assert f"validation: config {key} must be" in caplog.text
        assert not (tmp_path / "out").exists()

    def test_sweep_without_section_exits_1(self, tmp_path, caplog):
        cfg = write_config(tmp_path / "cfg.json")
        assert main(["sweep", "-c", str(cfg)]) == 1
        assert "validation: sweep needs a 'sweep' section" in caplog.text
        assert not (tmp_path / "out").exists()

    def test_report_collects_records(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json")
        for cmd in ("simulate", "prior", "reconstruct", "eval"):
            assert main([cmd, "-c", str(cfg)]) == 0
        assert main(["report", "-c", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "P_eroded cm" in out
        assert (tmp_path / "out" / "report_table.txt").exists()

    def test_report_rejects_unknown_record_key(self, tmp_path, caplog):
        out = tmp_path / "out"
        out.mkdir()
        (out / "eval_x.json").write_text(json.dumps({"c_gt_to_r": 0.1, "c_r_to_gt": 0.1, "p_masked": 0.1,
                                                     "p_eroded": 0.1, "label": "x", "note": "edited"}))
        cfg = write_config(tmp_path / "cfg.json")
        assert main(["report", "-c", str(cfg)]) == 1
        assert "note" in caplog.text

    def test_report_without_records_exits_2(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", output_dir=str(tmp_path / "empty"))
        (tmp_path / "empty").mkdir()
        assert main(["report", "-c", str(cfg)]) == 2


def small_config(path: Path, **overrides) -> Path:
    """A 4x4 array and an 8x8 grid: the smallest run each stage accepts."""
    return write_config(path, **{"array": {"n_tx": 4, "n_rx": 4, "aperture": 0.2},
                                 "grid": {"width": 8, "height": 8, "spacing": 0.002}, **overrides})


def written(root: Path) -> dict:
    """Every file under ``root`` with its bytes and modification time, so a
    rewrite with the same bytes shows too."""
    return {str(p.relative_to(root)): (p.read_bytes(), p.stat().st_mtime_ns)
            for p in root.rglob("*") if p.is_file()}


NAN = float("nan")
SMALL_VOXEL = {"extents": [0.016, 0.016, 0.02], "resolution": [8, 8, 5], "center": [0.0, 0.0, 0.30]}


class TestNothingWrittenOnFailure:
    """Every stage resolves its run and reads and computes all of its
    inputs before it writes, so a failure leaves no partial output."""

    @pytest.mark.parametrize("command", ["simulate", "prior", "reconstruct", "eval", "report"])
    @pytest.mark.parametrize("overrides, message", [
        ({"grid": {"width": 8, "height": 8, "spacing": -0.001}}, "grid needs positive dimensions and spacing"),
        ({"array": {"n_tx": 4, "n_rx": 4, "aperture": -0.05}}, "array needs n_tx, n_rx >= 1 and a positive aperture"),
        ({"frequencies": {"values_ghz": [82, 72]}}, "carrier frequencies must be strictly increasing"),
        ({"frequencies": {"triple": ["0.5", "0.5"]}}, "pair combination does not yield three carriers"),
        ({"voxel": {**SMALL_VOXEL, "extents": [NAN, 0.016, 0.02]}}, "extents must be three finite positive"),
        ({"voxel": {**SMALL_VOXEL, "center": [0.0, 0.0, NAN]}}, "center must be three finite coordinates"),
        ({"prior": {"mode": "scalar", "value": NAN}}, "scalar prior depth must be finite"),
    ], ids=["negative-pitch", "negative-aperture", "decreasing-carriers", "triple-without-three-carriers",
            "nan-voxel-extent", "nan-voxel-center", "nan-scalar-prior"])
    def test_library_rule_exits_1_before_any_file(self, tmp_path, caplog, command, overrides, message):
        cfg = small_config(tmp_path / "cfg.json", **overrides)
        assert main([command, "-c", str(cfg)]) == 1
        assert f"validation: {message}" in caplog.text
        assert not (tmp_path / "out").exists()

    def test_sweep_resolves_every_run_before_the_first(self, tmp_path, caplog):
        cfg = small_config(tmp_path / "cfg.json", sweep={"seeds": 1, "runs": [
            {"method": "2fsk", "pair": "10.0"}, {"method": "3fsk", "triple": ["0.5", "0.5"]}]})
        assert main(["sweep", "-c", str(cfg)]) == 1
        assert "validation: pair combination does not yield three carriers" in caplog.text
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, methods, stages, bad, code", [
        ("reconstruct", ["2fsk", "bp"], ("simulate", "prior"),
         {"voxel": {**SMALL_VOXEL, "extents": [NAN, 0.016, 0.02]}}, 1),
        ("reconstruct", ["bp", "2fsk"], ("simulate",), {}, 2),  # no prior grid
        ("eval", ["bp", "2fsk"], ("simulate", "reconstruct"), {}, 2),  # no 2fsk image
    ], ids=["nan-voxel-after-2fsk", "no-prior-grid-after-bp", "no-2fsk-image-after-bp"])
    def test_failing_method_leaves_no_output_of_the_others(self, tmp_path, command, methods, stages, bad, code):
        good = small_config(tmp_path / "good.json", methods=[methods[0]], voxel=SMALL_VOXEL)
        for stage in stages:
            assert main([stage, "-c", str(good)]) == 0, stage
        before = written(tmp_path / "out")
        cfg = small_config(tmp_path / "cfg.json", methods=methods, **{"voxel": SMALL_VOXEL, **bad})
        assert main([command, "-c", str(cfg)]) == code
        assert written(tmp_path / "out") == before

    def test_camera_prior_without_enough_depth_writes_no_depth_map(self, tmp_path, caplog):
        cfg = small_config(tmp_path / "cfg.json", prior={"mode": "camera", "width": 40, "height": 30,
                                                         "dropout": 0.9999})
        assert main(["prior", "-c", str(cfg)]) == 1
        assert "need at least 3 valid depth pixels" in caplog.text
        assert not (tmp_path / "out").exists()

    def test_file_prior_off_the_config_grid_exits_1(self, tmp_path, caplog):
        # a prior grid centred 1 cm off the config's grid would be scored
        # on the config grid's axes by eval
        scene = {"kind": "plane", "params": {"depth": 0.30, "tilt_x": 0.1, "extent": 0.06, "spacing": 0.002}}
        grid = {"width": 12, "height": 12, "spacing": 0.002}
        for name, center in (("shifted", [0.01, 0.0]), ("centred", [0.0, 0.0])):
            cfg = write_config(tmp_path / f"{name}.json", scene=scene, grid={**grid, "center": center},
                               output_dir=str(tmp_path / name))
            assert main(["prior", "-c", str(cfg)]) == 0
        for name, code in (("shifted", 1), ("centred", 0)):
            path = tmp_path / name / "prior_grid.json"
            cfg = write_config(tmp_path / "cfg.json", scene=scene, grid={**grid, "center": [0.0, 0.0]},
                               prior={"mode": "file", "path": str(path)}, output_dir=str(tmp_path / f"from_{name}"))
            assert main(["prior", "-c", str(cfg)]) == code
        assert f"validation: {tmp_path / 'shifted' / 'prior_grid.json'}: x and y axes differ" in caplog.text
        assert not (tmp_path / "from_shifted").exists()
        assert ((tmp_path / "from_centred" / "prior_grid.json").read_bytes()
                == (tmp_path / "centred" / "prior_grid.json").read_bytes())


class TestExitCodes:
    def test_numerical_failure_maps_to_3(self, monkeypatch):
        from mmfsk import cli
        from mmfsk.errors import EmptyImageError

        def boom(cfg, run):
            raise EmptyImageError("nothing left")

        monkeypatch.setitem(cli.COMMANDS, "report", boom)
        assert main(["report"]) == 3

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0

    @pytest.mark.parametrize("command, overrides, key", [
        ("reconstruct", {"filter_db": None}, "filter_db"),
        ("prior", {"prior": {"mode": "camera", "noise_mm": None}}, "prior.noise_mm"),
        ("prior", {"prior": {"mode": "scalar", "value": None}}, "prior.value"),
    ])
    def test_null_number_exits_1(self, tmp_path, caplog, command, overrides, key):
        cfg = write_config(tmp_path / "cfg.json", **overrides)
        assert main(["simulate", "-c", str(cfg)]) == 1  # simulate checks the whole config
        assert main([command, "-c", str(cfg)]) == 1
        assert f"validation: config {key} must be" in caplog.text
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_carrier_exits_1(self, tmp_path, caplog, bad):
        # json reads NaN and Infinity: the set must fail before the forward model runs.
        cfg = write_config(tmp_path / "cfg.json", frequencies={"values_ghz": [72, bad]})
        assert main(["simulate", "-c", str(cfg)]) == 1
        assert "validation: carrier frequencies must be finite" in caplog.text
        assert not any(p.is_file() for p in (tmp_path / "out").rglob("*"))

    @pytest.mark.parametrize("command, overrides, key", [
        ("reconstruct", {"voxel": {"extents": None, "resolution": [5, 5, 5], "center": [0, 0, 0.3]}},
         "voxel.extents"),
        ("reconstruct", {"voxel": {"extents": ["0.01", 0.01, 0.01], "resolution": [5, 5, 5], "center": [0, 0, 0.3]}},
         "voxel.extents[0]"),
        ("reconstruct", {"voxel": {"extents": [0.01] * 3, "resolution": [5, 5, 2.7], "center": [0, 0, 0.3]}},
         "voxel.resolution[2]"),
        ("reconstruct", {"voxel": {"extents": [0.01] * 3, "resolution": [5, 5, True], "center": [0, 0, 0.3]}},
         "voxel.resolution[2]"),
        ("reconstruct", {"voxel": {"extents": [0.01] * 3, "resolution": [5, 5, 5], "center": None}},
         "voxel.center"),
        ("reconstruct", {"voxel": {"extents": [0.01] * 3, "resolution": [5, 5, 5], "center": [0, 0.3]}},
         "voxel.center"),
        ("simulate", {"grid": {"width": 8, "height": 8, "spacing": 0.002, "center": None}}, "grid.center"),
        ("simulate", {"grid": {"width": 8, "height": 8, "spacing": 0.002, "center": [0, None]}}, "grid.center[1]"),
        ("simulate", {"frequencies": {"values_ghz": None}}, "frequencies.values_ghz"),
        ("simulate", {"frequencies": {"values_ghz": [72, "77"]}}, "frequencies.values_ghz[1]"),
        ("simulate", {"frequencies": {"triple": None}}, "frequencies.triple"),
        ("simulate", {"frequencies": {"triple": ["0.5", "10.0", "2.0"]}}, "frequencies.triple"),
        ("simulate", {"scene": {"kind": "plane", "params": {"depth": None}}}, "scene.params.depth"),
        ("simulate", {"scene": {"kind": "plane", "params": {"depth": 0.3, "center": [0.0]}}}, "scene.params.center"),
        ("simulate", {"scene": {"kind": "step", "params": {"levels": [0.3, None]}}}, "scene.params.levels[1]"),
        ("simulate", {"scene": {"kind": "random-cloud", "params": {"n": 6.5}}}, "scene.params.n"),
        ("simulate", {"scene": {"kind": "random-cloud", "params": {"bounds": [[0, 1], [0, 1], [0]]}}},
         "scene.params.bounds[2]"),
        # null means no noise; the string "none" is no alias for it
        ("simulate", {"noise": {"snr_db": "none"}}, "noise.snr_db"),
    ])
    def test_bad_list_or_scene_value_exits_1(self, tmp_path, caplog, command, overrides, key):
        if command == "reconstruct":
            overrides["methods"] = ["bp"]
        cfg = write_config(tmp_path / "cfg.json", **overrides)
        if command != "simulate":  # simulate checks the voxel section too
            assert main(["simulate", "-c", str(cfg)]) == 1
        assert main([command, "-c", str(cfg)]) == 1
        assert f"validation: config {key} must be" in caplog.text
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("table, key", [(t, k) for t, keys in CONFIG.items() for k in keys])
    def test_wrong_json_type_of_any_table_key_exits_1(self, tmp_path, caplog, table, key):
        cfg, name = _config_with_wrong_type(table, key)
        out = tmp_path / "out"
        if key != "output_dir":
            cfg["output_dir"] = str(out)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["simulate", "-c", str(path)]) == 1
        assert f"validation: config {name}" in caplog.text
        assert not any(p.is_file() for p in out.rglob("*"))

# A config that gives every key of the CLI's config table a valid value.
# Each selector section holds one alternative; SELECTOR_VALUES has the rest.
FULL_CONFIG = {
    "seed": 7, "workers": 1, "output_dir": "out",
    "scene": {"kind": "plane", "params": {"depth": 0.30, "extent": 0.06, "spacing": 0.002}},
    "array": {"n_tx": 8, "n_rx": 8, "aperture": 0.2},
    "grid": {"width": 8, "height": 8, "spacing": 0.002, "center": [0.0, 0.0]},
    "frequencies": {"pair": "10.0"},
    "methods": ["2fsk"],
    "prior": {"mode": "scalar", "value": 0.30, "path": "grid.json", "calibration": "cal.json",
              "width": 8, "height": 8, "noise_mm": 0.0, "dropout": 0.0},
    "noise": {"snr_db": 25, "seed": 7},
    "filter_db": -20.0,
    "voxel": {"extents": [0.01, 0.01, 0.01], "resolution": [5, 5, 5], "center": [0.0, 0.0, 0.3]},
    "eval": {"erode": 1},
    "sweep": {"method": "2fsk", "pairs": ["10.0"], "seeds": 2},
}
SELECTOR_VALUES = {"profile": "desk", "n_tx": 8, "n_rx": 8, "aperture": 0.2, "pair": "10.0",
                   "triple": ["0.5", "10.0"], "values_ghz": [72.0, 82.0], "method": "2fsk", "pairs": ["10.0"],
                   "runs": [{"method": "3fsk", "pair": "10.0", "prior": {"value": 0.3}}]}
SCENE_VALUES = {"center": [0.0, 0.0], "extent": 0.06, "spacing": 0.002, "amplitude": 1.0, "phase_offset": 0.0,
                "depth": 0.30, "tilt_x": 0.1, "tilt_y": 0.0, "radius": 0.1, "center_z": 0.4,
                "levels": [0.28, 0.32], "split": 0.0, "n": 8, "seed": 1,
                "bounds": [[-0.01, 0.01], [-0.01, 0.01], [0.28, 0.32]]}


def _config_with_wrong_type(table: str, key: str):
    """FULL_CONFIG with ``key`` of ``CONFIG[table]`` given a value of the
    wrong JSON type, and the key's dotted name."""
    cfg = copy.deepcopy(FULL_CONFIG)
    if table.startswith("scene.params."):
        kind = table.removeprefix("scene.params.")
        cfg["scene"] = {"kind": kind, "params": {k: SCENE_VALUES[k] for k in SCENE_PARAMS[kind]}}
        path = ["scene", "params"]
    elif table == "sweep.runs":
        cfg["sweep"] = {"runs": copy.deepcopy(SELECTOR_VALUES["runs"])}
        path = ["sweep", "runs", 0]
    else:
        path = table.split(".") if table else []
    section = cfg
    for step in path:
        section = section[step]
    group = next((g for g in SELECTORS.get(table, ()) if key in g), None)
    if group:  # the alternative that holds the key
        for k in [k for g in SELECTORS[table] for k in g]:
            section.pop(k, None)
        section.update({k: copy.deepcopy(SELECTOR_VALUES[k]) for k in group})
    assert load_config(None, cfg)
    section[key] = 1 if isinstance(section[key], str) else "x"
    name = "".join(f"[{s}]" if isinstance(s, int) else f".{s}" for s in [*path, key]).lstrip(".")
    return cfg, name


def _scipy_modules_after(script: str) -> list:
    """The scipy modules a fresh interpreter holds after running ``script``."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    script += "\nimport json, sys\nprint(json.dumps(sorted(m for m in sys.modules if m.startswith('scipy'))))\n"
    run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True,
                         timeout=120, check=True)
    return json.loads(run.stdout.splitlines()[-1])


class TestImports:
    """A process that never triangulates, evaluates or sweeps starts on
    numpy alone: scipy loads only where it is used."""

    def test_import_loads_no_scipy(self):
        assert _scipy_modules_after("import mmfsk.cli") == []

    def test_simulate_and_scalar_prior_2fsk_load_no_scipy(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", methods=["2fsk"],
                           grid={"width": 8, "height": 8, "spacing": 0.002})
        script = ("from mmfsk.cli import main\n"
                  "for cmd in ('simulate', 'prior', 'reconstruct'):\n"
                  f"    assert main([cmd, '-c', {str(cfg)!r}]) == 0, cmd\n")
        assert _scipy_modules_after(script) == []
        assert (tmp_path / "out" / "2fsk_depth.pfm").exists()

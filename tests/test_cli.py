import copy
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mmfsk import (CandidateGrid, FrequencySet, VoxelGridSpec, backproject, fsk2_reconstruct, fsk3_reconstruct,
                   magnitude_filter, mimo_cross_array)
from mmfsk import io as mio
from mmfsk.cli import CONFIG, SELECTORS, build_parser, load_config, main
from mmfsk.simulate import SCENE_PARAMS
from corpus import artifacts, readme_block, tree_digest


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


class TestSimulate:
    def test_reruns_are_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")
        assert main(["simulate", "-c", str(cfg)]) == 0
        first = (tmp_path / "out" / "baseband.fskt").read_bytes()
        assert main(["simulate", "-c", str(cfg)]) == 0
        assert (tmp_path / "out" / "baseband.fskt").read_bytes() == first

    def test_header_matches_configured_shape(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", array={"n_tx": 16, "n_rx": 16, "aperture": 0.2},
                           frequencies={"values_ghz": list(np.linspace(72, 82, 8))}, methods=["bp"])
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
        # a scene needs a surface, its ground truth: no kind draws a point cloud
        ({"scene": {"kind": "random-cloud", "params": {"n": 8}}}, "config scene.kind must be one of"),
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
        ("intrinsics", "f_u", float("nan"), "intrinsics must be finite"),
        ("intrinsics", "c_v", float("inf"), "intrinsics must be finite"),
        ("extrinsics", "rotation", [[2, 0, 0], [0, 1, 0], [0, 0, 1]], "rotation is not orthonormal"),
        ("intrinsics", "f_u", 10 ** 400, "'f_u' holds an integer beyond the float64 range"),
    ], ids=["null", "string", "null-in-rotation", "nan-focal-length", "inf-principal-point", "scaled-rotation",
            "huge-integer"])
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
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key, edit, message", [
        ("x", lambda v: v[:1] + [None] + v[2:], "'x' must be a list of numbers"),
        ("y", lambda v: [None] + v[1:], "'y' must be a list of numbers"),
        ("prior_depth", lambda v: v[0], "'prior_depth' must be a list of equal-length rows"),
        ("prior_depth", lambda v: 0.3, "'prior_depth' must be a list of equal-length rows"),
        ("prior_depth", lambda v: [v[0], v[1][:-1]] + v[2:], "'prior_depth' must be a list of equal-length rows"),
        ("prior_depth", lambda v: [["0.3"] + v[0][1:]] + v[1:], "'prior_depth' must be a list of equal-length rows"),
        ("x", lambda v: v[:-1], "prior_depth must have shape (H, W)"),
        ("y", lambda v: v[::-1], "grid spacing must be uniform and increasing"),
        ("prior_depth", lambda v: [[None] + v[0][1:-1] + [10 ** 400]] + v[1:],
         "'prior_depth' holds an integer beyond the float64 range"),
    ], ids=["null-in-x", "null-in-y", "flat-prior", "scalar-prior", "ragged-prior", "string-in-prior",
            "short-axis", "reversed-axis", "huge-integer-among-depths"])
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

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), 0.0, -0.3])
    def test_non_finite_or_non_positive_scalar_prior_exits_1(self, tmp_path, caplog, value):
        # a depth at or behind the array would image the mirror scene
        cfg = write_config(tmp_path / "cfg.json", prior={"mode": "scalar", "value": value})
        assert main(["prior", "-c", str(cfg)]) == 1
        assert "prior depth must be finite and positive" in caplog.text
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

    @pytest.mark.parametrize("method, overrides", [
        ("2fsk", {}),
        ("3fsk", {"frequencies": {"triple": ["0.5", "10.0"]}, "prior": {"mode": "scalar", "value": 0.40}}),
        ("bp", {"frequencies": {"values_ghz": [72.0, 75.0, 78.0, 82.0]},
                "voxel": {"extents": [0.048, 0.048, 0.04], "resolution": [13, 13, 21], "center": [0, 0, 0.30]}}),
        ("mm2fsk", {"prior": {"mode": "camera", "width": 40, "height": 30}}),
    ])
    def test_depth_map_equals_the_library_image(self, tmp_path, method, overrides):
        # The library runs on the files the CLI wrote, so the FSKT's complex64
        # payload is the input of both sides.
        cfg = write_config(tmp_path / "cfg.json", methods=[method], **overrides)
        for cmd in ("simulate", "prior", "reconstruct"):
            assert main([cmd, "-c", str(cfg)]) == 0, cmd
        out = tmp_path / "out"
        baseband = mio.read_baseband(out / "baseband.fskt")
        array = mimo_cross_array(8, 8, 0.2)
        f = overrides.get("frequencies", {"pair": "10.0"})
        if method == "bp":
            v = overrides["voxel"]
            spec = VoxelGridSpec(tuple(v["extents"]), tuple(v["resolution"]), tuple(v["center"]))
            image = backproject(baseband, spec, array, FrequencySet(tuple(g * 1e9 for g in f["values_ghz"])))
        else:
            freqs = (FrequencySet.triple_from_pair_names(*f["triple"]) if "triple" in f
                     else FrequencySet.from_pair_name(f["pair"]))
            recon = fsk3_reconstruct if method == "3fsk" else fsk2_reconstruct
            image = recon(baseband, mio.load_candidate_grid(out / "prior_grid.json"), array, freqs)
        want = magnitude_filter(image).depth.astype(np.float32)
        assert np.array_equal(mio.read_pfm(out / f"{method}_depth.pfm"), want, equal_nan=True)

    def test_huge_erosion_count_exits_1_at_once(self, tmp_path, caplog):
        # Erosion stops at its fixed point, the empty mask, so 10**9 steps
        # end at once and the empty joint mask fails the evaluation.
        cfg = write_config(tmp_path / "cfg.json", eval={"erode": 10 ** 9})
        for cmd in ("simulate", "prior", "reconstruct"):
            assert main([cmd, "-c", str(cfg)]) == 0, cmd
        assert main(["eval", "-c", str(cfg)]) == 1
        assert "joint validity mask is empty" in caplog.text
        assert not list((tmp_path / "out").glob("eval_*"))

    @pytest.mark.parametrize("command", ["simulate", "prior", "reconstruct", "eval"])
    def test_grid_spacing_too_fine_to_resample_exits_1_naming_it(self, tmp_path, caplog, command):
        # eval resamples the 6 cm scene at the grid's pitch: 6e298 samples a
        # side; every stage resolves that rule before its first write
        cfg = write_config(tmp_path / "cfg.json", grid={"width": 24, "height": 24, "spacing": 1e-300})
        assert main([command, "-c", str(cfg)]) == 1
        assert "validation: config grid.spacing gives a pitch of " in caplog.text
        assert "needs 6e+298 samples per axis, more than 4096" in caplog.text
        assert not (tmp_path / "out").exists()

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
        assert artifacts(tree_digest(tmp_path / "w1")) == artifacts(tree_digest(tmp_path / "w3"))

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
        ("simulate", "--workers", "x", "config workers must be an integer >= 1"),
        ("simulate", "--workers", "1.5", "config workers must be an integer >= 1"),
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
        assert main(["simulate", "-c", str(cfg), "--workers", "2"]) == 0
        workers = mio.load_json(tmp_path / "out" / "simulate_config.json")["workers"]
        assert type(workers) is int and workers == 2

    def test_null_worker_count_means_cpu_count(self, tmp_path):
        self.run_pipeline(tmp_path, workers=None)
        assert (tmp_path / "out" / "mm2fsk_depth.pfm").exists()

    @pytest.mark.parametrize("via", ["flag", "config"])
    def test_snapshot_records_output_dir(self, tmp_path, via):
        # -o if given, else the config's output_dir
        moved = tmp_path / "moved"
        cfg = write_config(tmp_path / "cfg.json", **({"output_dir": str(moved)} if via == "config" else {}))
        for cmd in ("simulate", "prior", "reconstruct", "eval"):
            assert main([cmd, "-c", str(cfg)] + (["-o", str(moved)] if via == "flag" else [])) == 0
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
        ({"pairs": ["10.0"], "seeds": [0, -1]}, "sweep.seeds"),
        # a count n lists the seeds 0..n-1, so it must fit in a C ssize_t
        ({"pairs": ["10.0"], "seeds": 10 ** 400}, "sweep.seeds"),
        ({"pairs": ["10.0"], "seeds": 10 ** 300}, "sweep.seeds"),
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
        ({"prior": {"mode": "scalar", "value": -0.3}}, "scalar prior depth must be finite and positive"),
        # not the uniform-spacing rule, nor the rule of a voxel section never given
        ({"grid": {"width": 8, "height": 8, "spacing": 0.002, "center": [NAN, 0.0]}}, "grid axes must be finite"),
        ({"grid": {"width": 1, "height": 1, "spacing": NAN}}, "grid axes must be finite"),
        # rules across sections: each method's carriers, eval's resampling pitch of each method's image,
        # the correlator's exact phase range
        ({"methods": ["3fsk"]}, "config methods: 3fsk needs 3 carriers, got 2"),
        ({"methods": ["bp", "mm2fsk"], "frequencies": {"triple": ["0.5", "10.0"]}},
         "config methods: mm2fsk needs 2 carriers, got 3"),
        ({"grid": {"width": 8, "height": 8, "spacing": 1e-300}},
         "config grid.spacing gives a pitch of 1.0000000000000002e-300 m, at which the ground truth cannot be"),
        # bp's image has the voxel columns: 80 um across 8 of them puts the 6 cm scene at 5,251 samples a side
        ({"methods": ["bp"], "voxel": {"extents": [8e-5, 8e-5, 0.02], "resolution": [8, 8, 5],
                                       "center": [0.0, 0.0, 0.3]}},
         "config voxel gives a pitch of 1.1428571428571429e-05 m, at which the ground truth cannot be"),
        ({"methods": ["bp"], "grid": {"width": 8, "height": 8, "spacing": 1e-5}},  # the default volume spans the grid
         "config grid.spacing gives a pitch of 1.1428571428571429e-05 m, at which the ground truth cannot be"),
        ({"prior": {"mode": "scalar", "value": 1e300}}, "config prior.value 1e+300 m puts the grid's farthest"),
        ({"prior": {"mode": "scalar", "value": 1000.0}}, "config prior.value 1000.0 m puts the grid's farthest"),
        # bp's volume at 1 km: |b*d| = 1.72e6 rad at 82 GHz
        ({"methods": ["bp"], "frequencies": {"values_ghz": [72, 77, 82]}, "voxel": {**SMALL_VOXEL, "center": [0, 0, 1000]}},
         "config voxel puts the volume's farthest voxel 1000 m from an antenna"),
        ({"methods": ["bp"], "frequencies": {"values_ghz": [72, 77, 82]}, "prior": {"mode": "camera"},
          "grid": {"width": 8, "height": 8, "spacing": 100.0}},  # the default volume spans the grid
         "config grid.spacing puts the volume's farthest voxel 565.8 m from an antenna"),
        # each method once: 2fsk twice would correlate twice and fill two rows of eval_table.txt
        ({"methods": ["2fsk", "bp", "2fsk"]}, "config methods: 2fsk is listed twice"),
    ], ids=["negative-pitch", "negative-aperture", "decreasing-carriers", "triple-without-three-carriers",
            "nan-voxel-extent", "nan-voxel-center", "nan-scalar-prior", "negative-scalar-prior",
            "nan-grid-center", "nan-pitch-one-pixel", "3fsk-on-a-pair", "mm2fsk-on-a-triple",
            "pitch-too-fine-to-resample", "bp-voxel-pitch-too-fine", "bp-default-volume-pitch-too-fine",
            "prior-past-the-exact-range", "prior-at-1-km", "bp-volume-at-1-km",
            "bp-default-volume-past-the-exact-range", "repeated-method"])
    def test_library_rule_exits_1_before_any_file(self, tmp_path, caplog, command, overrides, message):
        cfg = small_config(tmp_path / "cfg.json", **overrides)
        assert main([command, "-c", str(cfg)]) == 1
        assert f"validation: {message}" in caplog.text
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("text", [b'{"intrinsics": {\n', b'{"x": "\xff"}'], ids=["truncated", "not-utf-8"])
    @pytest.mark.parametrize("document, command, stages", [
        ("cfg.json", "simulate", ()),
        ("cal.json", "prior", ()),
        ("out/prior_grid.json", "reconstruct", ("simulate",)),
        ("out/eval_2fsk.json", "report", ()),
    ], ids=["config", "calibration", "prior-grid", "eval-record"])
    def test_unreadable_json_exits_1_naming_the_file(self, tmp_path, caplog, document, command, stages, text):
        cfg = small_config(tmp_path / "cfg.json", prior={"mode": "camera", "calibration": str(tmp_path / "cal.json")})
        for stage in stages:
            assert main([stage, "-c", str(cfg)]) == 0
        (tmp_path / "out").mkdir(exist_ok=True)
        path = tmp_path / document
        path.write_bytes(text)
        files = written(tmp_path / "out")
        assert main([command, "-c", str(cfg)]) == 1
        assert f"validation: {path} is not valid JSON" in caplog.text
        assert written(tmp_path / "out") == files

    def test_sweep_resolves_every_run_before_the_first(self, tmp_path, caplog):
        cfg = small_config(tmp_path / "cfg.json", sweep={"seeds": 1, "runs": [
            {"method": "2fsk", "pair": "10.0"}, {"method": "3fsk", "triple": ["0.5", "0.5"]}]})
        assert main(["sweep", "-c", str(cfg)]) == 1
        assert "validation: sweep entry 3fsk@t0.5-0.5: pair combination does not yield three carriers" in caplog.text
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("sweep, message", [
        ({"runs": [{"method": "2fsk", "pair": "10.0"}, {"method": "3fsk", "pair": "10.0"}]},
         "sweep entry 3fsk@d10.0: config methods: 3fsk needs 3 carriers, got 2"),
        ({"method": "3fsk", "pairs": ["10.0"]}, "sweep entry 3fsk@d10.0: config methods: 3fsk needs 3 carriers, got 2"),
        ({"runs": [{"method": "mm2fsk", "triple": ["0.5", "10.0"]}]},
         "sweep entry mm2fsk@t0.5-10.0: config methods: mm2fsk needs 2 carriers, got 3"),
    ], ids=["3fsk-run-on-a-pair", "3fsk-shorthand", "mm2fsk-on-a-triple"])
    def test_sweep_method_without_its_carriers_exits_1_before_any_file(self, tmp_path, caplog, sweep, message):
        cfg = small_config(tmp_path / "cfg.json", sweep=sweep)
        assert main(["sweep", "-c", str(cfg)]) == 1
        assert f"validation: {message}" in caplog.text
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["simulate", "prior", "reconstruct", "eval", "report", "sweep"])
    @pytest.mark.parametrize("snr_db", [-4000, NAN], ids=["noise-power-overflows", "nan"])
    def test_snr_db_without_a_finite_noise_power_exits_1(self, tmp_path, caplog, command, snr_db):
        # not an OverflowError from 10 ** (-snr_db / 10) in simulate, nor
        # "baseband entries must be finite", which names no key
        cfg = small_config(tmp_path / "cfg.json", noise={"snr_db": snr_db}, sweep={"pairs": ["10.0"]})
        assert main([command, "-c", str(cfg)]) == 1
        assert ("validation: config noise.snr_db must be a finite number at which 10 ** (-snr_db / 10) is finite, "
                f"got {snr_db!r}") in caplog.text
        assert not (tmp_path / "out").exists()

    # 10 ** 308.25 is below the largest float and 10 ** 308.26 above it
    @pytest.mark.parametrize("snr_db, ok", [(-3082.5, True), (-3082.6, False), (float("inf"), False),
                                            (-sys.float_info.max, False), (sys.float_info.max, True)])
    def test_snr_db_bound_is_where_the_noise_power_overflows(self, tmp_path, snr_db, ok):
        cfg = small_config(tmp_path / "cfg.json", noise={"snr_db": snr_db})
        if ok:
            assert load_config(str(cfg), {})["noise"]["snr_db"] == snr_db
        else:
            with pytest.raises(ValueError, match="config noise.snr_db must be a finite number"):
                load_config(str(cfg), {})

    @pytest.mark.parametrize("sweep", [
        {"runs": [{"method": "2fsk", "pair": "10.0", "prior": {"mode": "scalar", "value": 0.30}},
                  {"method": "2fsk", "pair": "10.0", "prior": {"mode": "scalar", "value": 0.31}}]},
        {"method": "2fsk", "pairs": ["8.0", "10.0", "10.0"]},
    ], ids=["two-priors", "shorthand"])
    def test_repeated_sweep_label_exits_1_before_any_file(self, tmp_path, caplog, sweep):
        # the second run of a label would overwrite the first's 2fsk_d10.0/seed_<n> directory
        cfg = small_config(tmp_path / "cfg.json", sweep={**sweep, "seeds": 1})
        assert main(["sweep", "-c", str(cfg)]) == 1
        assert "validation: sweep entry 2fsk@d10.0: an earlier entry has the same method and frequencies" in caplog.text
        assert not (tmp_path / "out").exists()

    def test_sweep_resolves_each_entry_once_before_the_first_run(self, tmp_path, monkeypatch):
        # main resolves the whole config, the sweep each entry, then each
        # run just before its stages: the first simulate follows four calls,
        # however many seeds there are
        from mmfsk import cli

        calls, resolve = [], cli._resolve

        def counted(cfg):
            calls.append(cfg["seed"])
            return resolve(cfg)

        class FirstSimulate(Exception):
            pass

        def stop(cfg, run):
            raise FirstSimulate

        monkeypatch.setattr(cli, "_resolve", counted)
        monkeypatch.setattr(cli, "cmd_simulate", stop)
        cfg = small_config(tmp_path / "cfg.json", sweep={"seeds": 1000, "runs": [
            {"method": "2fsk", "pair": "10.0"}, {"method": "3fsk", "triple": ["0.5", "10.0"]}]})
        with pytest.raises(FirstSimulate):
            main(["sweep", "-c", str(cfg)])
        assert calls == [7, 7, 7, 0]  # the config's seed three times, then the first run's
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
        assert "need at least 3 valid depth pixels, got " in caplog.text
        assert "of 1200 (prior.dropout 0.9999; the camera renders" in caplog.text
        assert not (tmp_path / "out").exists()

    def test_camera_prior_past_the_render_range_names_the_range(self, tmp_path, caplog):
        # the renderer scans camera depths up to 3 m: a plane at 4 m leaves every pixel NaN
        cfg = small_config(tmp_path / "cfg.json", prior={"mode": "camera", "width": 40, "height": 30},
                           scene={"kind": "plane", "params": {"depth": 4.0, "extent": 0.06, "spacing": 0.002}})
        assert main(["prior", "-c", str(cfg)]) == 1
        assert ("validation: need at least 3 valid depth pixels, got 0 of 1200 (prior.dropout 0.0; the camera "
                "renders surfaces at camera depths of 0.01-3.0 m only)") in caplog.text
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


    def test_file_prior_past_the_exact_range_exits_1(self, tmp_path, caplog):
        # 1000 m is past the correlator's exact range: the image would put every pixel about 1 km off
        far = tmp_path / "far.json"
        mio.save_candidate_grid(far, CandidateGrid.regular(8, 8, 0.002, (0.0, 0.0)).with_scalar_prior(1000.0))
        cfg = small_config(tmp_path / "cfg.json", prior={"mode": "file", "path": str(far)})
        assert main(["prior", "-c", str(cfg)]) == 1
        assert f"validation: {far}: a prior depth puts the grid's farthest candidate 1000 m from" in caplog.text
        assert not (tmp_path / "out").exists()

    def test_prior_grid_past_the_exact_range_stops_reconstruct(self, tmp_path, caplog):
        cfg = small_config(tmp_path / "cfg.json")
        for stage in ("simulate", "prior"):
            assert main([stage, "-c", str(cfg)]) == 0, stage
        grid_path = tmp_path / "out" / "prior_grid.json"
        near = mio.load_candidate_grid(grid_path)
        mio.save_candidate_grid(grid_path, CandidateGrid(near.x, near.y, np.where(np.eye(8), 1000.0, 0.3)))
        before = written(tmp_path / "out")
        assert main(["reconstruct", "-c", str(cfg)]) == 1
        assert f"validation: {grid_path}: a prior depth puts the grid's farthest candidate" in caplog.text
        assert written(tmp_path / "out") == before

    def test_prior_grid_off_the_config_grid_stops_reconstruct(self, tmp_path, caplog):
        # reconstruct would take the file's axes and eval score the image
        # on the config's
        shifted = write_config(tmp_path / "shifted.json", grid={"width": 12, "height": 12, "spacing": 0.002,
                                                                 "center": [0.01, 0.0]})
        for stage in ("simulate", "prior"):
            assert main([stage, "-c", str(shifted)]) == 0, stage
        before = written(tmp_path / "out")
        cfg = write_config(tmp_path / "cfg.json", grid={"width": 12, "height": 12, "spacing": 0.002})
        assert main(["reconstruct", "-c", str(cfg)]) == 1
        assert f"validation: {tmp_path / 'out' / 'prior_grid.json'}: x and y axes differ" in caplog.text
        assert written(tmp_path / "out") == before


class TestExitCodes:
    def test_numerical_failure_maps_to_3(self, monkeypatch):
        from mmfsk import cli
        from mmfsk.errors import EmptyImageError

        def boom(cfg, run):
            raise EmptyImageError("nothing left")

        monkeypatch.setitem(cli.COMMANDS, "report", boom)
        assert main(["report"]) == 3

    def test_out_of_memory_maps_to_1(self, monkeypatch, tmp_path, caplog):
        # Stands in for a scene too large to sample; nothing is allocated.
        from mmfsk import cli

        def too_large(kind, params):
            raise MemoryError

        monkeypatch.setattr(cli, "make_scene", too_large)
        cfg = write_config(tmp_path / "cfg.json")
        assert main(["simulate", "-c", str(cfg)]) == 1
        assert "validation: mmfsk simulate: the run does not fit in memory" in caplog.text
        assert not (tmp_path / "out").exists()

    def test_integer_beyond_float64_exits_1(self, tmp_path, caplog):
        # json reads any integer; one that overflows a float64 is no number.
        cfg = write_config(tmp_path / "cfg.json", grid={"width": 24, "height": 24, "spacing": 10 ** 400})
        assert main(["simulate", "-c", str(cfg)]) == 1
        assert "validation: config grid.spacing must be a number" in caplog.text
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, overrides, message", [
        ("simulate", {"grid": {"width": 10 ** 400, "height": 8, "spacing": 0.002}},
         "config grid.width must be an integer >= 1 of magnitude at most 9223372036854775807, "
         "got 100000...000 (401 digits): too large"),
        ("simulate", {"grid": {"width": 8, "height": 8, "spacing": -10 ** 400}},
         "config grid.spacing must be a number of magnitude at most 1.7976931348623157e+308, "
         "got -100000...000 (401 digits): too large"),
        ("sweep", {"sweep": {"pairs": ["10.0"], "seeds": 2 ** 63}},
         "config sweep.seeds must be an integer >= 1 or a non-empty list of integers >= 0 of magnitude at most "
         "9223372036854775807, got 922337...808 (19 digits): too large"),
    ])
    def test_over_large_integer_is_reported_too_large_and_cut_short(self, tmp_path, caplog, command, overrides,
                                                                    message):
        cfg = write_config(tmp_path / "cfg.json", **overrides)
        assert main([command, "-c", str(cfg)]) == 1
        assert f"validation: {message}\n" in caplog.text
        assert not (tmp_path / "out").exists()

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0

    def test_one_parser_serves_every_call_without_carrying_flags_over(self):
        parser = build_parser()
        assert build_parser() is parser
        args = parser.parse_args(["reconstruct", "-o", "moved", "--workers", "2"])
        assert (args.output_dir, args.workers) == ("moved", 2)
        args = parser.parse_args(["eval", "--workers", "3"])
        assert (args.command, args.output_dir, args.workers) == ("eval", None, 3)
        assert parser.parse_args(["reconstruct", "-o", "other"]).workers is None

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
        # json reads NaN and Infinity; no scene value may be either
        ("simulate", {"scene": {"kind": "plane", "params": {"depth": 0.3, "extent": float("inf")}}},
         "scene.params.extent"),
        ("simulate", {"scene": {"kind": "step", "params": {"levels": [NAN, 0.3]}}}, "scene.params.levels[0]"),
        ("simulate", {"scene": {"kind": "step", "params": {"levels": [0.28, 0.32], "split": NAN}}},
         "scene.params.split"),
        ("simulate", {"scene": {"kind": "sphere-cap", "params": {"radius": 0.05, "center_z": 0.35,
                                                                 "center": [0.0, -float("inf")]}}},
         "scene.params.center[1]"),
        # null means no noise; the string "none" is no alias for it
        ("simulate", {"noise": {"snr_db": "none"}}, "noise.snr_db"),
        # seeds feed numpy's Philox, which takes no negative seed; a
        # negative erosion would skip erosion silently
        ("simulate", {"seed": -1}, "seed"),
        ("simulate", {"noise": {"snr_db": 25, "seed": -1}}, "noise.seed"),
        ("eval", {"eval": {"erode": -2}}, "eval.erode"),
        # a count sizes an array: one beyond a C ssize_t (here beyond the
        # float64 range too) would overflow where it is used
        ("simulate", {"grid": {"width": 10 ** 400, "height": 8, "spacing": 0.002}}, "grid.width"),
        ("prior", {"prior": {"mode": "camera", "width": 10 ** 400}}, "prior.width"),
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
                "levels": [0.28, 0.32], "split": 0.0}


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


def _scipy_modules_after(cfg: Path | None = None, commands=()) -> list:
    """The scipy modules a fresh interpreter holds after importing
    ``mmfsk.cli`` and running ``commands`` on ``cfg``, each to exit 0."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    script = (f"import json, sys\nfrom mmfsk.cli import main\nfor cmd in {tuple(commands)!r}:\n"
              f"    assert main([cmd, '-c', {str(cfg)!r}]) == 0, cmd\n"
              "print(json.dumps(sorted(m for m in sys.modules if m.startswith('scipy'))))\n")
    run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True,
                         timeout=120, check=True)
    return json.loads(run.stdout.splitlines()[-1])


class TestImports:
    """Every stage starts and runs on numpy alone, the camera prior's
    triangulation included; scipy is a test dependency only."""

    def test_import_loads_no_scipy(self):
        assert _scipy_modules_after() == []

    @pytest.mark.parametrize("method,overrides", [
        ("2fsk", {}),
        ("bp", {"frequencies": {"values_ghz": [72.0, 75.0, 78.0, 81.0]},
                "voxel": {"extents": [0.016, 0.016, 0.02], "resolution": [9, 9, 5], "center": [0, 0, 0.30]}}),
    ])
    def test_closed_loop_loads_no_scipy(self, tmp_path, method, overrides):
        # simulate -> prior -> reconstruct -> eval; a scalar prior, and bp reads none
        cfg = write_config(tmp_path / "cfg.json", methods=[method],
                           grid={"width": 8, "height": 8, "spacing": 0.002}, **overrides)
        assert _scipy_modules_after(cfg, ("simulate", "prior", "reconstruct", "eval", "report")) == []
        assert (tmp_path / "out" / f"eval_{method}.json").exists()

    def test_stages_after_a_camera_prior_load_no_scipy(self, tmp_path):
        # the camera prior triangulates on numpy alone, in a fresh
        # interpreter as in the rest of the mm2fsk loop
        cfg = write_config(tmp_path / "cfg.json", grid={"width": 8, "height": 8, "spacing": 0.002},
                           prior={"mode": "camera", "noise_mm": 1.0})
        assert _scipy_modules_after(cfg, ("prior",)) == []
        assert _scipy_modules_after(cfg, ("simulate", "reconstruct", "eval", "report")) == []
        assert (tmp_path / "out" / "eval_mm2fsk.json").exists()


def _run_loop(root: Path, block_scipy: bool) -> dict:
    """The README's camera loop and a camera sweep entry, run in a fresh
    interpreter under ``root``; ``import scipy`` fails there when
    ``block_scipy``. The sha256 of every file written, snapshots aside."""
    readme = json.loads(readme_block("experiment.json"))
    configs = {"loop": (readme, ("simulate", "prior", "reconstruct", "eval", "report")),
               "sweep": ({**readme, "sweep": {"seeds": [1], "runs": [
                   {"method": "mm2fsk", "pair": "10.0", "prior": {"mode": "camera", "noise_mm": 1.0}}]}}, ("sweep",))}
    root.mkdir()
    script = "import sys\n" + ("sys.modules['scipy'] = None\n" if block_scipy else "") + "from mmfsk.cli import main\n"
    for name, (cfg, commands) in configs.items():
        (root / f"{name}.json").write_text(json.dumps({**cfg, "output_dir": name}), encoding="utf-8")
        script += "".join(f"assert main([{c!r}, '-c', {name + '.json'!r}]) == 0, {c!r}\n" for c in commands)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    subprocess.run([sys.executable, "-c", script], cwd=root, env=env, capture_output=True, text=True,
                   timeout=300, check=True)
    return artifacts(tree_digest(root))


def test_camera_loop_and_sweep_run_without_scipy(tmp_path):
    # the package's one former scipy use was the camera prior's Qhull step
    blocked = _run_loop(tmp_path / "blocked", block_scipy=True)
    assert {"loop/prior_grid.json", "loop/eval_mm2fsk.json", "sweep/sweep_report.json"} <= set(blocked)
    assert blocked == _run_loop(tmp_path / "plain", block_scipy=False)

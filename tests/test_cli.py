import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from mmfsk import io as mio
from mmfsk.cli import main


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
        if command == "reconstruct":
            assert main(["simulate", "-c", str(cfg)]) == 0
        assert main([command, "-c", str(cfg)]) == 1
        assert "validation: config " in caplog.text and f"missing key '{key}'" in caplog.text

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

    def test_unknown_mode_exits_1(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", prior={"mode": "telepathy"})
        assert main(["prior", "-c", str(cfg)]) == 1


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

    def test_unknown_method_exits_1(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", methods=["hologram"])
        main(["simulate", "-c", str(cfg)])
        main(["prior", "-c", str(cfg)])
        assert main(["reconstruct", "-c", str(cfg)]) == 1

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

    def test_output_dir_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("MMFSK_OUT", str(tmp_path / "envout"))
        cfg = write_config(tmp_path / "cfg.json")
        assert main(["simulate", "-c", str(cfg)]) == 0
        assert (tmp_path / "envout" / "baseband.fskt").exists()


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


class TestExitCodes:
    def test_numerical_failure_maps_to_3(self, monkeypatch):
        from mmfsk import cli
        from mmfsk.errors import EmptyImageError

        def boom(cfg, args):
            raise EmptyImageError("nothing left")

        monkeypatch.setitem(cli.COMMANDS, "report", boom)
        assert main(["report"]) == 3

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0

import json
import re
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from mmfsk import BasebandTensor, CameraIntrinsics, CandidateGrid, Extrinsics, RadarImage
from mmfsk.errors import StructuralError
from mmfsk import io as mio
from mmfsk.cli import main

# Round-trip properties: derandomized, so every run checks the same examples.
PROPERTY = settings(derandomize=True, deadline=None, max_examples=60,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])


FMAX = np.finfo(np.float64).max


def shapes(dims):
    return hnp.array_shapes(min_dims=dims, max_dims=dims, min_side=0, max_side=5)


def write_twice(write, path, *args) -> None:
    """Write the same input twice; both writes must give the same bytes."""
    write(path, *args)
    first = path.read_bytes()
    write(path, *args)
    assert path.read_bytes() == first


def same_complex(a, b) -> bool:
    """Equal real and imaginary parts, NaN matching NaN."""
    return (a.shape == b.shape and np.array_equal(a.real, b.real, equal_nan=True)
            and np.array_equal(a.imag, b.imag, equal_nan=True))


def complex64_grid(shape, seed=0):
    rng = np.random.default_rng(seed)
    data = rng.normal(size=shape + (2,)).astype(np.float32)
    return (data[..., 0] + 1j * data[..., 1]).astype(np.complex64).astype(np.complex128)


class TestBinaryContainers:
    def test_baseband_round_trip(self, tmp_path):
        data = complex64_grid((4, 5, 3))
        path = tmp_path / "t.fskt"
        mio.write_baseband(path, BasebandTensor(data))
        back = mio.read_baseband(path)
        assert back.data.shape == (4, 5, 3)
        assert np.array_equal(back.data, data)  # payload is float32-exact

    def test_header_dimensions(self, tmp_path):
        path = tmp_path / "t.fskt"
        mio.write_baseband(path, BasebandTensor(complex64_grid((2, 7, 4))))
        raw = path.read_bytes()
        assert raw[:4] == b"FSKT"
        dims = np.frombuffer(raw[8:20], dtype="<u4")
        assert list(dims) == [2, 7, 4]
        assert len(raw) == 20 + 2 * 7 * 4 * 8

    def test_magic_mismatch(self, tmp_path):
        path = tmp_path / "t.fskt"
        mio.write_baseband(path, BasebandTensor(complex64_grid((2, 2, 1))))
        path.write_bytes(b"FSKC" + path.read_bytes()[4:])
        with pytest.raises(StructuralError, match="magic"):
            mio.read_baseband(path)

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "t.fskt"
        mio.write_baseband(path, BasebandTensor(complex64_grid((2, 2, 1))))
        raw = path.read_bytes()
        path.write_bytes(raw[:4] + struct.pack("<I", mio.CONTAINER_VERSION + 1) + raw[8:])
        with pytest.raises(StructuralError, match="version"):
            mio.read_baseband(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "t.fskt"
        mio.write_baseband(path, BasebandTensor(complex64_grid((2, 2, 2))))
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(StructuralError):
            mio.read_baseband(path)

    def test_deterministic_bytes(self, tmp_path):
        data = complex64_grid((3, 3, 2), seed=5)
        a, b = tmp_path / "a.fskt", tmp_path / "b.fskt"
        mio.write_baseband(a, BasebandTensor(data))
        mio.write_baseband(b, BasebandTensor(data))
        assert a.read_bytes() == b.read_bytes()

    @PROPERTY
    @given(hnp.arrays(np.complex128, shapes(3),
                      elements=st.complex_numbers(max_magnitude=1e30, allow_nan=False, allow_infinity=False)))
    def test_baseband_round_trip_property(self, tmp_path, data):
        # a baseband tensor must be finite, so magnitudes stay inside complex64
        path = tmp_path / "t.fskt"
        write_twice(mio.write_baseband, path, BasebandTensor(data))
        assert same_complex(mio.read_baseband(path).data, data.astype(np.complex64))


class TestPfm:
    def test_round_trip_with_nan(self, tmp_path):
        img = np.arange(12, dtype=float).reshape(3, 4)
        img[1, 2] = np.nan
        path = tmp_path / "d.pfm"
        mio.write_pfm(path, img)
        back = mio.read_pfm(path)
        assert back.shape == img.shape
        assert np.array_equal(np.isnan(back), np.isnan(img))
        assert np.array_equal(back[~np.isnan(img)], img[~np.isnan(img)])

    def test_bottom_up_storage(self, tmp_path):
        img = np.array([[1.0, 2.0], [3.0, 4.0]])
        path = tmp_path / "d.pfm"
        mio.write_pfm(path, img)
        raw = path.read_bytes()
        floats = np.frombuffer(raw[-16:], dtype="<f4")
        assert list(floats) == [3.0, 4.0, 1.0, 2.0]  # last row first

    @PROPERTY
    @given(hnp.arrays(np.float64, shapes(2), elements=st.floats(allow_nan=True, allow_infinity=True)))
    def test_round_trip_property(self, tmp_path, img):
        with np.errstate(over="ignore"):  # values beyond float32 become inf
            want = img.astype(np.float32)
            path = tmp_path / "d.pfm"
            write_twice(mio.write_pfm, path, img)
        back = mio.read_pfm(path)
        assert back.shape == img.shape
        assert np.array_equal(back, want, equal_nan=True)

    def test_rejects_color(self, tmp_path):
        path = tmp_path / "c.pfm"
        path.write_bytes(b"PF\n2 2\n-1.0\n" + b"\x00" * 48)
        with pytest.raises(StructuralError):
            mio.read_pfm(path)

    @pytest.mark.parametrize("header", [b"2.5 2\n-1.0", b"2 2 2\n-1.0", b"-1 -1\n-1.0", b"2 -2\n-1.0", b"2 2\nx"],
                             ids=["non-integer-size", "three-sizes", "unknown-sizes", "negative-size", "bad-scale"])
    def test_malformed_header_is_reported_naming_the_file(self, tmp_path, header):
        path = tmp_path / "bad.pfm"
        path.write_bytes(b"Pf\n" + header + b"\n" + b"\x00" * 64)
        with pytest.raises(StructuralError, match=re.escape(f"{path}: malformed PFM header")):
            mio.read_pfm(path)


def reference_write_ply(path, points, magnitude) -> None:
    """One ``struct.pack`` per row: the writer ``mio.write_ply`` must match
    byte for byte."""
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    n = points.shape[0]
    header = ["ply", "format binary_little_endian 1.0", f"element vertex {n}", "property double x",
              "property double y", "property double z", "property double magnitude", "end_header"]
    with open(path, "wb") as fh:
        fh.write(("\n".join(header) + "\n").encode("ascii"))
        for row in np.hstack([points, np.asarray(magnitude, dtype=np.float64).reshape(n, 1)]).tolist():
            fh.write(struct.pack("<dddd", *row))


def ply_rows(path) -> np.ndarray:
    """The (N, 4) vertex rows (x, y, z, magnitude) of a cloud ``mio.write_ply``
    wrote, read from the body its header's vertex count declares."""
    head, body = path.read_bytes().split(b"end_header\n", 1)
    n = int(re.search(rb"^element vertex (\d+)$", head, re.M).group(1))
    assert len(body) == n * 32
    return np.frombuffer(body, dtype="<f8").reshape(n, 4)


def same_bits(a, b) -> bool:
    """Equal values, NaN matching NaN and -0.0 told from 0.0."""
    return (a.shape == b.shape and np.array_equal(a, b, equal_nan=True)
            and np.array_equal(np.signbit(a), np.signbit(b)))


class TestPly:
    def test_bytes_match_reference_writer(self, tmp_path):
        rng = np.random.default_rng(9)
        rows = rng.normal(size=(2500, 4)) * 10.0 ** rng.integers(-12, 12, (2500, 4))
        special = [np.nan, np.inf, -np.inf, -0.0, 0.0, 1e300, -1e300, 5e-324, -5e-324, 0.1, 123456789012.0,
                   FMAX, -FMAX]
        rows.flat[rng.choice(rows.size, 1500, replace=False)] = rng.choice(special, 1500)
        mio.write_ply(tmp_path / "got.ply", rows[:, :3], rows[:, 3])
        reference_write_ply(tmp_path / "want.ply", rows[:, :3], rows[:, 3])
        got = (tmp_path / "got.ply").read_bytes()
        assert got == (tmp_path / "want.ply").read_bytes()
        assert same_bits(ply_rows(tmp_path / "got.ply"), rows)
        mio.write_ply(tmp_path / "empty.ply", np.zeros((0, 3)), np.zeros(0))
        reference_write_ply(tmp_path / "want.ply", np.zeros((0, 3)), np.zeros(0))
        assert (tmp_path / "empty.ply").read_bytes() == (tmp_path / "want.ply").read_bytes()

    def test_round_trip_with_magnitude(self, tmp_path):
        rng = np.random.default_rng(3)
        pts = rng.normal(size=(17, 3))
        mag = rng.uniform(0, 2, 17)
        path = tmp_path / "c.ply"
        mio.write_ply(path, pts, mag)
        back = ply_rows(path)
        assert np.array_equal(back[:, :3], pts)
        assert np.array_equal(back[:, 3], mag)

    @PROPERTY
    @given(hnp.arrays(np.float64, st.tuples(st.integers(0, 8), st.just(4)), elements=st.floats()))
    @example(np.array([[np.nan, np.inf, -np.inf, -0.0], [5e-324, -5e-324, FMAX, -FMAX]]))
    def test_round_trip_property(self, tmp_path, rows):
        # every float64 comes back with its bits: NaN, both infinities,
        # -0.0, subnormals and the largest finite values included
        pts, mag = rows[:, :3], rows[:, 3]
        path = tmp_path / "c.ply"
        write_twice(mio.write_ply, path, pts, mag)
        assert same_bits(ply_rows(path), rows)

    def test_header_declares_properties(self, tmp_path):
        path = tmp_path / "c.ply"
        mio.write_ply(path, np.zeros((2, 3)), np.ones(2))
        head = path.read_bytes().split(b"end_header\n", 1)[0].decode("ascii").splitlines()
        assert head[:3] == ["ply", "format binary_little_endian 1.0", "element vertex 2"]
        assert head[3:] == [f"property double {name}" for name in ("x", "y", "z", "magnitude")]


def special_prior_grid() -> CandidateGrid:
    """A 41x37 prior grid with holes, both infinities, -0.0, 1e300 and the
    smallest subnormal among its depths."""
    rng = np.random.default_rng(14)
    prior = rng.uniform(0.2, 0.4, (37, 41))
    prior[rng.random(prior.shape) < 0.2] = np.nan
    prior[0, :3] = [np.inf, -np.inf, -0.0]
    prior[1, :2] = [1e300, 5e-324]
    return CandidateGrid.regular(41, 37, 0.001, center=(0.003, -0.002)).with_prior(prior)


def reference_grid_doc(grid: CandidateGrid) -> dict:
    """The prior grid document built value by value and pixel by pixel,
    without the writer's array pass."""
    return {
        "width": grid.width, "height": grid.height,
        "x": [float(v) for v in grid.x], "y": [float(v) for v in grid.y],
        "x0": float(grid.x[0]), "y0": float(grid.y[0]),
        "dx": grid.spacing[0], "dy": grid.spacing[1],
        "prior_depth": [[None if not np.isfinite(v) else float(v) for v in row] for row in grid.prior_depth],
    }


class TestGridAndCalibration:
    def test_grid_round_trip(self, tmp_path):
        grid = CandidateGrid.regular(6, 4, 0.002, center=(0.01, -0.02))
        prior = np.full((4, 6), 0.31)
        prior[0, 0] = np.nan
        grid = grid.with_prior(prior)
        path = tmp_path / "g.json"
        mio.save_candidate_grid(path, grid)
        back = mio.load_candidate_grid(path)
        assert np.array_equal(back.x, grid.x)
        assert np.array_equal(back.y, grid.y)
        assert np.array_equal(back.valid, grid.valid)
        assert np.array_equal(back.prior_depth, grid.prior_depth, equal_nan=True)

    @PROPERTY
    @given(st.integers(1, 6), st.integers(1, 6), st.floats(1e-4, 0.01),
           st.tuples(st.floats(-0.1, 0.1), st.floats(-0.1, 0.1)), st.data())
    def test_grid_round_trip_property(self, tmp_path, width, height, spacing, center, data):
        prior = data.draw(hnp.arrays(np.float64, (height, width),
                                     elements=st.floats(allow_nan=True, allow_infinity=False)))
        grid = CandidateGrid.regular(width, height, spacing, center).with_prior(prior)
        path = tmp_path / "g.json"
        write_twice(mio.save_candidate_grid, path, grid)
        back = mio.load_candidate_grid(path)
        # the document stores the prior and both axes exactly
        assert np.array_equal(back.prior_depth, grid.prior_depth, equal_nan=True)
        assert np.array_equal(np.signbit(back.prior_depth[grid.valid]), np.signbit(prior[grid.valid]))
        assert np.array_equal(back.valid, grid.valid)
        assert np.array_equal(back.x, grid.x)
        assert np.array_equal(back.y, grid.y)

    def test_grid_bytes_match_reference_writer(self, tmp_path):
        grid = special_prior_grid()
        mio.save_candidate_grid(tmp_path / "new.json", grid)
        (tmp_path / "ref.json").write_text(json.dumps(reference_grid_doc(grid), sort_keys=True,
                                                      separators=(",", ":")) + "\n", encoding="utf-8")
        assert (tmp_path / "new.json").read_bytes() == (tmp_path / "ref.json").read_bytes()

    def test_indented_grid_loads_as_the_compact_one(self, tmp_path, caplog):
        # a prior_grid.json written in the earlier indented layout stays
        # readable, to the bit, by the loader and by a file-prior run. The
        # grid's 1e300 m depth is past the correlator's exact range, so its
        # run exits 1 naming the file; with that depth at 0.3 m it writes
        special = special_prior_grid()
        for far in (1e300, 0.3):
            root = tmp_path / str(far)
            root.mkdir()
            grid = special.with_prior(np.where(special.prior_depth == 1e300, far, special.prior_depth))
            mio.save_candidate_grid(root / "compact.json", grid)
            mio.dump_json(root / "indented.json", reference_grid_doc(grid))
            assert b"\n  " in (root / "indented.json").read_bytes()
            want = mio.load_candidate_grid(root / "compact.json")
            assert same_bits(want.x, grid.x) and same_bits(want.y, grid.y) and np.array_equal(want.valid, grid.valid)
            for name in ("compact", "indented"):
                back = mio.load_candidate_grid(root / f"{name}.json")
                assert same_bits(back.x, want.x) and same_bits(back.y, want.y), name
                assert same_bits(back.prior_depth, want.prior_depth), name
                cfg = root / f"{name}_cfg.json"
                cfg.write_text(json.dumps({
                    "seed": 7, "output_dir": str(root / name),
                    "scene": {"kind": "plane", "params": {"depth": 0.30, "extent": 0.06, "spacing": 0.002}},
                    "array": {"n_tx": 8, "n_rx": 8, "aperture": 0.2}, "frequencies": {"pair": "10.0"},
                    "grid": {"width": grid.width, "height": grid.height, "spacing": 0.001, "center": [0.003, -0.002]},
                    "prior": {"mode": "file", "path": str(root / f"{name}.json")}}))
                if far == 1e300:
                    assert main(["prior", "-c", str(cfg)]) == 1, name
                    assert (f"validation: {root / name}.json: a prior depth puts the grid's farthest candidate "
                            "1e+300 m from") in caplog.text
                    assert not (root / name).exists()
                else:
                    assert main(["prior", "-c", str(cfg)]) == 0, name
                    assert (root / name / "prior_grid.json").read_bytes() == (root / "compact.json").read_bytes()

    def test_calibration_round_trip(self, tmp_path):
        intr = CameraIntrinsics(200.0, 210.0, 32.0, 24.0)
        ang = 0.3
        rot = np.array([[np.cos(ang), -np.sin(ang), 0], [np.sin(ang), np.cos(ang), 0], [0, 0, 1.0]])
        ext = Extrinsics(rot, np.array([0.01, 0.02, -0.03]))
        path = tmp_path / "cal.json"
        mio.dump_json(path, {"intrinsics": {"f_u": 200.0, "f_v": 210.0, "c_u": 32.0, "c_v": 24.0},
                             "extrinsics": {"rotation": rot.tolist(), "translation": [0.01, 0.02, -0.03]}})
        intr2, ext2 = mio.load_calibration(path)
        assert intr2 == intr
        assert np.abs(ext2.rotation - rot).max() < 1e-15
        assert np.abs(ext2.translation - ext.translation).max() < 1e-15

    def test_config_hash_is_order_insensitive(self):
        a = {"x": 1, "y": [1, 2], "z": {"a": 1, "b": 2}}
        b = {"z": {"b": 2, "a": 1}, "y": [1, 2], "x": 1}
        assert mio.config_hash(a) == mio.config_hash(b)
        assert mio.config_hash(a) != mio.config_hash({**a, "x": 2})


class TestImageExport:
    def test_export_and_reload(self, tmp_path):
        rng = np.random.default_rng(0)
        h, w = 5, 7
        valid = rng.random((h, w)) < 0.7
        valid[0, 0] = True
        depth = np.where(valid, 0.3 + rng.normal(0, 0.001, (h, w)), np.nan)
        mag = np.where(valid, rng.uniform(0.5, 1.0, (h, w)), np.nan)
        image = RadarImage(
            x=np.arange(w) * 0.001, y=np.arange(h) * 0.001,
            depth=depth, magnitude=mag, joint_magnitude=mag,
        )
        paths = mio.export_radar_image(tmp_path, "test", image)
        assert all(p.exists() for p in paths)
        back_depth = mio.read_pfm(tmp_path / "test_depth.pfm")
        assert np.array_equal(np.isfinite(back_depth), valid)
        rows = ply_rows(tmp_path / "test_cloud.ply")
        assert rows.shape[0] == valid.sum()
        assert b"property double magnitude\n" in (tmp_path / "test_cloud.ply").read_bytes()

    def test_read_radar_image_reads_back_what_export_wrote(self, tmp_path):
        rng = np.random.default_rng(3)
        h, w = 4, 6
        planes = {name: rng.uniform(0.1, 1.0, (h, w)).astype(np.float32).astype(np.float64)
                  for name in mio.RADAR_PLANES}
        planes["depth"][1, 2] = np.nan
        x, y = np.arange(w) * 0.002, np.arange(h) * 0.002 - 0.003
        mio.export_radar_image(tmp_path, "m", RadarImage(x=x, y=y, **planes))
        back = mio.read_radar_image(tmp_path, "m", x, y)
        assert np.array_equal(back.x, x) and np.array_equal(back.y, y)
        for name in mio.RADAR_PLANES:  # NaN in every plane where the depth has none
            expected = np.where(np.isfinite(planes["depth"]), planes[name], np.nan)
            assert np.array_equal(getattr(back, name), expected, equal_nan=True), name

import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from mmfsk import BasebandTensor, CameraIntrinsics, CandidateGrid, Extrinsics, RadarImage
from mmfsk.errors import StructuralError
from mmfsk import io as mio

# Round-trip properties: derandomized, so every run checks the same examples.
PROPERTY = settings(derandomize=True, deadline=None, max_examples=60,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])


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


def reference_write_ply(path, points, magnitude=None) -> None:
    """One f-string per value: the writer ``mio.write_ply`` must match byte
    for byte."""
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    n = points.shape[0]
    header = ["ply", "format ascii 1.0", f"element vertex {n}",
              "property float x", "property float y", "property float z"]
    cols = [points]
    if magnitude is not None:
        header.append("property float magnitude")
        cols.append(np.asarray(magnitude, dtype=np.float64).reshape(n, 1))
    header.append("end_header")
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(header) + "\n")
        for row in np.hstack(cols):
            fh.write(" ".join(f"{v:.10g}" for v in row) + "\n")


class TestPly:
    @pytest.mark.parametrize("with_magnitude", [False, True])
    def test_bytes_match_reference_writer(self, tmp_path, with_magnitude):
        rng = np.random.default_rng(9)
        rows = rng.normal(size=(2500, 4)) * 10.0 ** rng.integers(-12, 12, (2500, 4))  # several writes
        special = [np.nan, np.inf, -np.inf, -0.0, 0.0, 1e300, -1e300, 5e-324, -5e-324, 0.1, 123456789012.0]
        rows.flat[rng.choice(rows.size, 1500, replace=False)] = rng.choice(special, 1500)
        mag = rows[:, 3] if with_magnitude else None
        mio.write_ply(tmp_path / "got.ply", rows[:, :3], mag)
        reference_write_ply(tmp_path / "want.ply", rows[:, :3], mag)
        got = (tmp_path / "got.ply").read_bytes()
        assert got == (tmp_path / "want.ply").read_bytes()
        tokens = set(got.split())
        assert {b"nan", b"inf", b"-inf", b"-0", b"1e+300", b"4.940656458e-324"} <= tokens
        mio.write_ply(tmp_path / "empty.ply", np.zeros((0, 3)), np.zeros(0) if with_magnitude else None)
        reference_write_ply(tmp_path / "want.ply", np.zeros((0, 3)), np.zeros(0) if with_magnitude else None)
        assert (tmp_path / "empty.ply").read_bytes() == (tmp_path / "want.ply").read_bytes()

    def test_round_trip_with_magnitude(self, tmp_path):
        rng = np.random.default_rng(3)
        pts = rng.normal(size=(17, 3))
        mag = rng.uniform(0, 2, 17)
        path = tmp_path / "c.ply"
        mio.write_ply(path, pts, mag)
        back, extras = mio.read_ply(path)
        assert np.abs(back - pts).max() < 1e-9
        assert np.abs(extras["magnitude"] - mag).max() < 1e-9

    @PROPERTY
    @given(hnp.arrays(np.float64, st.tuples(st.integers(0, 8), st.just(4)), elements=st.floats(-1e300, 1e300)))
    def test_round_trip_property(self, tmp_path, rows):
        # values are written with 10 significant digits: each comes back
        # within half a unit of the tenth digit (the bound keeps rounding
        # from carrying a value past the float64 maximum)
        pts, mag = rows[:, :3], rows[:, 3]
        path = tmp_path / "c.ply"
        write_twice(mio.write_ply, path, pts, mag)
        back, extras = mio.read_ply(path)
        assert back.shape == pts.shape
        np.testing.assert_allclose(back, pts, rtol=5.000001e-10, atol=0.0)
        np.testing.assert_allclose(extras["magnitude"], mag, rtol=5.000001e-10, atol=0.0)

    def test_header_declares_properties(self, tmp_path):
        path = tmp_path / "c.ply"
        mio.write_ply(path, np.zeros((2, 3)), np.ones(2))
        text = path.read_text()
        assert "element vertex 2" in text
        assert "property float magnitude" in text

    def test_points_only(self, tmp_path):
        path = tmp_path / "c.ply"
        mio.write_ply(path, np.ones((3, 3)))
        back, extras = mio.read_ply(path)
        assert back.shape == (3, 3) and not extras


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

    def test_calibration_round_trip(self, tmp_path):
        intr = CameraIntrinsics(200.0, 210.0, 32.0, 24.0)
        ang = 0.3
        rot = np.array([[np.cos(ang), -np.sin(ang), 0], [np.sin(ang), np.cos(ang), 0], [0, 0, 1.0]])
        ext = Extrinsics(rot, np.array([0.01, 0.02, -0.03]))
        path = tmp_path / "cal.json"
        mio.save_calibration(path, intr, ext)
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
            depth=depth, magnitude=mag, joint_magnitude=mag, valid=valid,
        )
        paths = mio.export_radar_image(tmp_path, "test", image)
        assert all(p.exists() for p in paths)
        back_depth = mio.read_pfm(tmp_path / "test_depth.pfm")
        assert np.array_equal(np.isfinite(back_depth), valid)
        pts, extras = mio.read_ply(tmp_path / "test_cloud.ply")
        assert pts.shape[0] == valid.sum()
        assert "magnitude" in extras

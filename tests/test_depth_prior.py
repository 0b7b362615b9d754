import hashlib
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from scipy.spatial import ConvexHull, Delaunay

from mmfsk import (
    CameraIntrinsics,
    CandidateGrid,
    Extrinsics,
    OpticalDepthMap,
    TriangleMesh,
    backproject_depth,
    build_prior,
    rasterize_prior,
    render_depth_map,
    surface_depth,
    transform_mesh,
    triangulate,
)
from mmfsk import depth_prior
from mmfsk.cli import _default_calibration
from mmfsk.errors import (
    DegenerateGeometryError,
    InsufficientDataError,
    StructuralError,
    ValidationError,
)


def rotation_about(axis, angle):
    axis = np.asarray(axis, dtype=float)
    axis /= np.linalg.norm(axis)
    k = np.array([[0, -axis[2], axis[1]], [axis[2], 0, -axis[0]], [-axis[1], axis[0], 0]])
    return np.eye(3) + np.sin(angle) * k + (1 - np.cos(angle)) * (k @ k)


def circumcircle_violations(pixels, triangles, tol=1e-9):
    """Brute-force empty-circumcircle check: count interior points."""
    bad = 0
    for tri in triangles:
        a, b, c = pixels[tri]
        # circumcenter from the perpendicular-bisector linear system
        m = 2 * np.array([[b[0] - a[0], b[1] - a[1]], [c[0] - a[0], c[1] - a[1]]])
        rhs = np.array([b @ b - a @ a, c @ c - a @ a])
        try:
            center = np.linalg.solve(m, rhs)
        except np.linalg.LinAlgError:
            continue
        radius = np.linalg.norm(a - center)
        dists = np.linalg.norm(pixels - center, axis=1)
        inside = dists < radius - tol
        inside[tri] = False
        bad += int(inside.any())
    return bad


def _edge(ax, ay, bx, by, px, py):
    return (bx - ax) * (py - ay) - (by - ay) * (px - ax)


MIN_TRIANGLE_AREA = 1e-12  # squared pixels: Qhull's flat slivers on collinear hull points


def qhull_triangulate(points, pixels):
    """Plain Qhull over every pixel, degenerate slivers dropped: the
    reference mesh."""
    simplices = Delaunay(pixels).simplices
    a, b, c = (pixels[simplices[:, i]] for i in range(3))
    keep = np.abs(_edge(*a.T, *b.T, *c.T)) > MIN_TRIANGLE_AREA
    return TriangleMesh(points, simplices[keep], pixels)


def triangle_area2(pixels, triangles):
    a, b, c = (pixels[triangles[:, i]] for i in range(3))
    return _edge(*a.T, *b.T, *c.T)


def max_cover(pixels, triangles, probes):
    """Most triangles any probe point lies strictly inside: 1 on a mesh
    whose triangles do not overlap."""
    a, b, c = (pixels[triangles[:, i]][:, None, :] for i in range(3))
    sign = np.sign(triangle_area2(pixels, triangles))[:, None]
    px, py = probes[None, :, 0], probes[None, :, 1]
    inside = np.ones((triangles.shape[0], probes.shape[0]), dtype=bool)
    for p, q in ((a, b), (b, c), (c, a)):
        inside &= sign * _edge(p[..., 0], p[..., 1], q[..., 0], q[..., 1], px, py) > 0.0
    return int(inside.sum(axis=0).max())


def exact_hull(pix):
    """The distinct pixels as exact fractions, and their convex hull's
    corners counter-clockwise (Andrew's monotone chain)."""
    points = sorted({(Fraction(x), Fraction(y)) for x, y in pix})

    def turn(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    def chain(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and turn(out[-2], out[-1], p) <= 0:
                out.pop()
            out.append(p)
        return out[:-1]

    return points, chain(points) + chain(points[::-1]), turn


def assert_delaunay_oracles(pix, tri):
    """Delaunay (no point inside any circumcircle) and covering the convex
    hull once, with the triangle count of every triangulation of the
    distinct pixels: 2n - 2 - h for n of them, h on the hull's boundary.
    The hull is exact: Qhull rounds it on input spread over 2^40 px."""
    assert circumcircle_violations(pix, tri) == 0
    points, hull, turn = exact_hull(pix)
    edges = list(zip(hull, hull[1:] + hull[:1]))
    area = sum(a[0] * b[1] - b[0] * a[1] for a, b in edges) / 2
    on_hull = sum(any(turn(a, b, p) == 0 and min(a, b) <= p <= max(a, b) for a, b in edges) for p in points)
    assert tri.shape[0] == 2 * len(points) - 2 - on_hull
    assert np.abs(triangle_area2(pix, tri)).sum() / 2.0 == pytest.approx(float(area), rel=1e-12)
    corners = np.array(hull, dtype=np.float64)
    probes = np.random.default_rng(0).dirichlet(np.ones(len(corners)), 2000) @ corners  # inside the hull
    assert max_cover(pix, tri, probes) == 1


def lattice_pixels(mask, offset=(0, 0)):
    v, u = np.nonzero(mask)
    return np.column_stack([u + offset[0], v + offset[1]]).astype(np.float64)


def dropout_mask(fraction, shape=(36, 44), seed=0):
    return np.random.default_rng(seed).random(shape) >= fraction


def disk_with_slot(n=41):
    """A round footprint with a slot cut across it: long straight hole
    edges, concave corners and a hull that bridges the slot's mouth."""
    v, u = np.mgrid[:n, :n] - (n - 1) / 2.0
    mask = u**2 + v**2 <= ((n - 1) / 2.0) ** 2
    mask &= ~((np.abs(v) <= 2) & (u > -8))
    return mask


LATTICE_MASKS = {
    "dropout-5%": (dropout_mask(0.05, seed=1), (0, 0)),
    "dropout-30%": (dropout_mask(0.30, seed=2), (0, 0)),
    "dropout-60%": (dropout_mask(0.60, seed=3), (0, 0)),
    "disk-with-slot": (disk_with_slot(), (0, 0)),
    "full-rectangle": (np.ones((17, 23), dtype=bool), (0, 0)),
    "2xN": (np.ones((2, 31), dtype=bool), (0, 0)),
    "Nx2-with-gaps": (dropout_mask(0.2, shape=(29, 2), seed=4), (0, 0)),
    "negative-offset": (dropout_mask(0.30, seed=5), (-80, -23)),
}


def domino_hole():
    mask = np.ones((7, 8), dtype=bool)
    mask[3, 3:5] = False  # the ring around two missing pixels holds a cocircular 1 x 2 rectangle
    return mask


def trapezoid_notch():
    mask = np.ones((5, 8), dtype=bool)
    mask[0, 3:5] = False  # (2, 0), (5, 0), (4, 1), (3, 1): an isosceles trapezoid on the border
    return mask


def circle_of_radius_5(interior=True):
    v, u = np.mgrid[-5:6, -5:6]
    r2 = u**2 + v**2
    return r2 <= 25 if interior else r2 == 25  # the 12 lattice points on x^2 + y^2 = 25


TIE_MASKS = {
    "domino-hole": (domino_hole(), (0, 0)),
    "trapezoid-notch": (trapezoid_notch(), (0, 0)),
    "circle-of-radius-5": (circle_of_radius_5(), (-5, -5)),
    "ring-of-radius-5": (circle_of_radius_5(interior=False), (-5, -5)),  # one cocircular face: a fan
}


# sha256 of _lattice_cells' (cells, remainder) on each LATTICE_MASKS entry and
# on a 240 x 240 camera-like mask, recorded from the sort-and-search
# implementation that the index image replaced. The inputs are integers, so
# the digests hold on any machine.
LATTICE_DIGESTS = {
    "dropout-5%": (
        "5fcb73db5922a46f6cffb61da9f2bfbda552332c11d310e16f1ca8eac97c2abf",
        "13b795b6e854cf7432e219535ae02ebe11c2d164821b1c7e294d6d8f7880f2d8",
    ),
    "dropout-30%": (
        "3de75e1499c761272351c13f633ae957951799c66bebae1dc1143879fa3f21bf",
        "7e9e073a5a1e9e298c90bdc5831a8217a3d6e8c6980deac2f62b2dbd93b85ef9",
    ),
    "dropout-60%": (
        "b51cd7ad77c5d47d3d0908339dcbc4da297d0815803f78f177eb6305ae4776f5",
        "690c61f8b61995cb75356a79f2aa417022b1e3f1296d0a9b4271b4d8aff27623",
    ),
    "disk-with-slot": (
        "ea14a82f48c4e14ea73a85c558d499ecbbc8623c200ad0bd07c9274499c79e0f",
        "be7800791284c357d27c4a47899be81adc5a4138b97c1e4dad8411ea94dc1fa7",
    ),
    "full-rectangle": (
        "727ce824f6ae82e7cc9bf2ebca6f3cc1bcd123418edda59f90147c57db30349f",
        "8da083d814adfef1bc1d7c8c371d71e8b023b5716bf26a339459d26cb8887508",
    ),
    "2xN": (
        "fe3f695ceba6359ba91810861cc09826e01281dcf667a53196f6a15af7794aa6",
        "332810fe8e8b97f1876829fbe078b05d4ecdacaa0c35ca00c0857ac1f3d82f64",
    ),
    "Nx2-with-gaps": (
        "7f35326bebb1a6c3a9533e166b4bf6878d2802eb825b8df05da367aaa9e778b2",
        "769feed6b846a2e7f082745c1d83af0073ae48344cc0a50b623843ceedd3c764",
    ),
    "negative-offset": (
        "6de71deced177db0f5d4a8f7f8ec639e06e75401f9340e6b8bb8dc828f17cec2",
        "561e421dd2e6f5f47eed83b6623dad0db25433d4e3e85712b989da1e4e112c54",
    ),
    "camera-240-dropout-5%": (
        "42aecfc912e1516a0c51072901a6fa2308415974979884244c0b7d7c56f87681",
        "2b83e75f9e9fd95f10bc91dd9e0dcd822582f9e3af7c69992aa0acda0d455be6",
    ),
}


DIGEST_MASKS = {**LATTICE_MASKS, "camera-240-dropout-5%": (dropout_mask(0.05, shape=(240, 240), seed=8), (0, 0))}


def lattice_digests(pixels):
    cells, remainder, _ = depth_prior._lattice_cells(pixels)
    return tuple(hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()
                 for a in (cells.astype("<i8"), remainder))


def reference_rasterize(mesh, grid):
    """Per-triangle loop rasterizer: the oracle that ``rasterize_prior`` must
    match bit for bit (same pixel-center rule, half-open edges, smallest
    depth wins, earliest triangle on exact ties)."""
    dx = grid.x[1] - grid.x[0] if grid.width > 1 else 1.0
    dy = grid.y[1] - grid.y[0] if grid.height > 1 else 1.0
    x0, y0 = grid.x[0], grid.y[0]

    zbuf = np.full((grid.height, grid.width), np.inf)
    verts = mesh.vertices
    for tri in mesh.triangles:
        vx = (verts[tri, 0] - x0) / dx
        vy = (verts[tri, 1] - y0) / dy
        vz = verts[tri, 2]
        area2 = _edge(vx[0], vy[0], vx[1], vy[1], vx[2], vy[2])
        if area2 == 0.0:
            continue
        if area2 < 0.0:
            vx, vy, vz = vx[[0, 2, 1]], vy[[0, 2, 1]], vz[[0, 2, 1]]
            area2 = -area2

        u_lo = max(0, int(np.ceil(vx.min() - 1e-12)))
        u_hi = min(grid.width - 1, int(np.floor(vx.max() + 1e-12)))
        v_lo = max(0, int(np.ceil(vy.min() - 1e-12)))
        v_hi = min(grid.height - 1, int(np.floor(vy.max() + 1e-12)))
        if u_lo > u_hi or v_lo > v_hi:
            continue
        pu, pv = np.meshgrid(np.arange(u_lo, u_hi + 1), np.arange(v_lo, v_hi + 1))

        cover = np.ones(pu.shape, dtype=bool)
        bary = []
        for i, j in ((1, 2), (2, 0), (0, 1)):
            e = _edge(vx[i], vy[i], vx[j], vy[j], pu, pv)
            ddx, ddy = vx[j] - vx[i], vy[j] - vy[i]
            boundary_in = ddy > 0.0 or (ddy == 0.0 and ddx < 0.0)
            cover &= (e > 0.0) | ((e == 0.0) & boundary_in)
            bary.append(e / area2)
        if not cover.any():
            continue
        z = bary[0] * vz[0] + bary[1] * vz[1] + bary[2] * vz[2]
        sub = zbuf[v_lo : v_hi + 1, u_lo : u_hi + 1]
        upd = cover & (z < sub)
        sub[upd] = z[upd]

    valid = np.isfinite(zbuf)
    return grid.with_prior(np.where(valid, zbuf, np.nan))


def random_mesh(rng, grid, spacing, n_tri, snapped=False):
    """Triangles over random vertices that reach a little past the grid, so
    they overlap one another and the grid border. Snapped meshes put every
    vertex on a half-pixel lattice (exact in binary for a power-of-two
    pitch) and draw depths from a few values, signed zeros included, so
    edges pass exactly through pixel centers and depths tie exactly."""
    n_v = max(3, n_tri)
    lo = np.array([grid.x[0], grid.y[0]]) - 2.0 * spacing
    hi = np.array([grid.x[-1], grid.y[-1]]) + 2.0 * spacing
    xy = lo + rng.random((n_v, 2)) * (hi - lo)
    z = rng.uniform(0.2, 0.5, n_v)
    if snapped:
        xy = np.round(xy / (spacing / 2.0)) * (spacing / 2.0)
        z = rng.choice([-0.0, 0.0, 0.25, 0.5], n_v)
    tris = rng.integers(0, n_v, (n_tri, 3))
    return TriangleMesh(np.column_stack([xy, z]), tris, np.zeros((n_v, 2)))


def assert_matches_reference(mesh, grid):
    got = rasterize_prior(mesh, grid)
    want = reference_rasterize(mesh, grid)
    assert np.array_equal(got.valid, want.valid)
    assert got.prior_depth.tobytes() == want.prior_depth.tobytes()
    return got


class TestIntrinsicsExtrinsics:
    def test_focal_lengths_must_be_positive(self):
        with pytest.raises(ValidationError):
            CameraIntrinsics(0.0, 100.0, 32.0, 32.0)

    @pytest.mark.parametrize("index", range(4))
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_intrinsics_must_be_finite(self, index, bad):
        values = [100.0, 100.0, 32.0, 32.0]
        values[index] = bad
        with pytest.raises(ValidationError, match="intrinsics must be finite"):
            CameraIntrinsics(*values)

    def test_rotation_must_be_orthonormal(self):
        with pytest.raises(ValidationError):
            Extrinsics(np.eye(3) * 1.01, np.zeros(3))

    def test_rotation_must_be_proper(self):
        flip = np.diag([1.0, 1.0, -1.0])
        with pytest.raises(ValidationError):
            Extrinsics(flip, np.zeros(3))


class TestBackprojectDepth:
    def test_principal_point_maps_to_axis(self):
        intr = CameraIntrinsics(100.0, 100.0, 32.0, 24.0)
        depth = np.full((48, 64), np.nan)
        for u, v in [(32, 24), (10, 5), (60, 40)]:
            depth[v, u] = 0.5
        pts, pix = backproject_depth(OpticalDepthMap(depth), intr)
        on_axis = pts[(pix[:, 0] == 32) & (pix[:, 1] == 24)][0]
        assert on_axis == pytest.approx([0.0, 0.0, 0.5])

    def test_unit_tangent(self):
        intr = CameraIntrinsics(100.0, 100.0, 32.0, 24.0)
        depth = np.full((48, 164), np.nan)
        for u, v in [(132, 24), (0, 0), (5, 40)]:
            depth[v, u] = 1.0
        pts, pix = backproject_depth(OpticalDepthMap(depth), intr)
        tangent = pts[(pix[:, 0] == 132) & (pix[:, 1] == 24)][0]
        assert tangent == pytest.approx([1.0, 0.0, 1.0])

    def test_reprojection_round_trip(self):
        rng = np.random.default_rng(0)
        intr = CameraIntrinsics(*rng.uniform(80, 300, 2), *rng.uniform(20, 40, 2))
        h, w = 48, 56
        depth = rng.uniform(0.2, 1.5, (h, w))
        valid = rng.random((h, w)) < 0.3
        pts, pix = backproject_depth(OpticalDepthMap(np.where(valid, depth, np.nan)), intr)
        u = intr.f_u * pts[:, 0] / pts[:, 2] + intr.c_u
        v = intr.f_v * pts[:, 1] / pts[:, 2] + intr.c_v
        assert np.abs(u - pix[:, 0]).max() < 1e-9
        assert np.abs(v - pix[:, 1]).max() < 1e-9
        assert np.abs(pts[:, 2] - depth[valid.nonzero()]).max() < 1e-12

    def test_too_few_pixels(self):
        intr = CameraIntrinsics(100.0, 100.0, 8.0, 8.0)
        depth = np.full((16, 16), np.nan)
        depth[3, 3] = 0.4
        with pytest.raises(InsufficientDataError):
            backproject_depth(OpticalDepthMap(depth), intr)


class TestTriangulate:
    def test_square_yields_two_triangles(self):
        pix = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        pts = np.column_stack([pix, np.full(4, 0.3)])
        mesh = triangulate(pts, pix)
        assert mesh.triangles.shape[0] == 2
        assert sorted(np.unique(mesh.triangles)) == [0, 1, 2, 3]

    def test_hole_in_grid_is_covered(self):
        # Remove an interior sample; the triangulation still covers its spot.
        u, v = np.meshgrid(np.arange(5.0), np.arange(5.0))
        pix = np.column_stack([u.ravel(), v.ravel()])
        keep = ~((pix[:, 0] == 2) & (pix[:, 1] == 2))
        pix = pix[keep]
        pts = np.column_stack([pix, np.full(len(pix), 0.3)])
        mesh = triangulate(pts, pix)
        probe = np.array([2.0, 2.0])
        covered = False
        for tri in mesh.triangles:
            a, b, c = mesh.source_pixels[tri]
            m = np.column_stack([b - a, c - a])
            try:
                lam = np.linalg.solve(m, probe - a)
            except np.linalg.LinAlgError:
                continue
            if lam.min() >= -1e-12 and lam.sum() <= 1 + 1e-12:
                covered = True
                break
        assert covered

    def test_empty_circumcircle_property(self):
        rng = np.random.default_rng(1)
        pix = rng.uniform(0, 64, (200, 2))
        pts = np.column_stack([pix, rng.uniform(0.2, 0.4, 200)])
        mesh = triangulate(pts, pix)
        assert circumcircle_violations(mesh.source_pixels, mesh.triangles) == 0

    def test_collinear_input_rejected(self):
        pix = np.column_stack([np.arange(5.0), np.arange(5.0)])
        pts = np.column_stack([pix, np.full(5, 0.3)])
        with pytest.raises(DegenerateGeometryError):
            triangulate(pts, pix)

    def test_non_finite_pixels_rejected(self):
        pix = lattice_pixels(np.ones((3, 3), dtype=bool))
        pix[4, 0] = np.nan
        with pytest.raises(ValidationError, match="pixels must be finite"):
            triangulate(np.zeros((9, 3)), pix)

    def test_too_few_points_rejected(self):
        with pytest.raises(DegenerateGeometryError):
            triangulate(np.zeros((2, 3)), np.array([[0.0, 0.0], [1.0, 1.0]]))

    @pytest.mark.parametrize("name", sorted(LATTICE_MASKS))
    def test_lattice_mesh_is_delaunay_and_fills_the_hull(self, name):
        mask, offset = LATTICE_MASKS[name]
        pix = lattice_pixels(mask, offset)
        pts = np.column_stack([pix, np.linspace(0.2, 0.4, len(pix))])
        mesh = triangulate(pts, pix)
        assert depth_prior._lattice_cells(pix)[0].shape[0] > 0  # the lattice did real work
        tri = mesh.triangles
        assert circumcircle_violations(pix, tri) == 0
        assert tri.shape[0] == qhull_triangulate(pts, pix).triangles.shape[0]
        assert np.abs(triangle_area2(pix, tri)).sum() / 2.0 == pytest.approx(
            ConvexHull(pix).volume, rel=1e-12)
        assert np.array_equal(np.unique(tri), np.arange(len(pix)))
        probes = np.random.default_rng(0).uniform(pix.min(axis=0), pix.max(axis=0), (2000, 2))
        assert max_cover(pix, tri, probes) == 1
        assert np.array_equal(mesh.vertices, pts) and np.array_equal(mesh.source_pixels, pix)

    @pytest.mark.parametrize("name", list(DIGEST_MASKS))
    def test_lattice_cells_keep_their_bytes(self, name):
        assert lattice_digests(lattice_pixels(*DIGEST_MASKS[name])) == LATTICE_DIGESTS[name]

    def test_most_points_skip_qhull_on_a_camera_like_mask(self):
        pix = lattice_pixels(dropout_mask(0.05, shape=(120, 120), seed=6))
        cells, remainder, _ = depth_prior._lattice_cells(pix)
        assert remainder.mean() < 0.25
        assert cells.shape[0] > 0.9 * 2 * len(pix)

    def test_single_row_image_is_collinear(self):
        pix = lattice_pixels(np.ones((1, 12), dtype=bool))
        pts = np.column_stack([pix, np.full(len(pix), 0.3)])
        assert depth_prior._lattice_cells(pix)[0].shape[0] == 0
        with pytest.raises(DegenerateGeometryError):
            triangulate(pts, pix)

    @pytest.mark.parametrize("kind", ["non-integer", "duplicated", "far-out", "sparse"])
    def test_off_lattice_input_meets_the_oracles(self, kind):
        pix = lattice_pixels(dropout_mask(0.1, shape=(15, 18), seed=7))
        if kind == "non-integer":
            pix[5, 0] += 0.5
        elif kind == "duplicated":
            pix = np.vstack([pix, pix[10:12]])
        elif kind == "far-out":
            pix[0] = [2.0**40, 0.0]
        else:  # two 5 x 5 blocks 10^6 px apart: their box would hold 10^12 entries
            block = lattice_pixels(np.ones((5, 5), dtype=bool))
            pix = np.vstack([block, block + 1e6])
        pts = np.column_stack([pix, np.linspace(0.2, 0.4, len(pix))])
        tracemalloc.start()
        try:
            cells, remainder, _ = depth_prior._lattice_cells(pix)
            mesh = triangulate(pts, pix)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10e6  # no index image over the box
        assert cells.shape[0] == 0 and remainder.all()
        assert_delaunay_oracles(pix, mesh.triangles)
        if kind == "duplicated":  # a repeated pixel's first point takes part, its copies none
            assert not np.isin([len(pix) - 2, len(pix) - 1], mesh.triangles).any()

    def test_random_float_pixels_meet_the_oracles(self, monkeypatch):
        # off the lattice the front buckets its candidates in cells of about
        # their mean spacing: each edge meets a few of them, not all 4,000
        pix = np.random.default_rng(3).uniform(0.0, 200.0, (4000, 2))
        pairs, search = [0], depth_prior._Front.pairs

        def counted(front, k, reach):
            for e, pos in search(front, k, reach):
                pairs[0] += e.size
                yield e, pos

        monkeypatch.setattr(depth_prior._Front, "pairs", counted)
        tri = triangulate(np.zeros((len(pix), 3)), pix).triangles
        assert pairs[0] < 200 * len(pix)  # 107 a point; every candidate for every edge was 9,944
        assert circumcircle_violations(pix, tri) == 0
        assert (triangle_area2(pix, tri) > 0.0).all()  # counter-clockwise, none flat
        points, hull, turn = exact_hull(pix)
        area = sum(a[0] * b[1] - b[0] * a[1] for a, b in zip(hull, hull[1:] + hull[:1])) / 2
        assert tri.shape[0] == 2 * len(points) - 2 - len(hull)  # random: no third point on a hull edge
        assert triangle_area2(pix, tri).sum() / 2.0 == pytest.approx(float(area), rel=1e-12)
        assert tri.shape[0] == qhull_triangulate(np.zeros((len(pix), 3)), pix).triangles.shape[0]

    @pytest.mark.parametrize("shuffled", [False, True])
    @pytest.mark.parametrize("name", sorted(TIE_MASKS))
    def test_cocircular_ties_meet_the_oracles(self, name, shuffled):
        pix = lattice_pixels(*TIE_MASKS[name])
        if shuffled:  # the tie rule follows point indices, whatever their order
            pix = pix[np.random.default_rng(5).permutation(len(pix))]
        mesh = triangulate(np.column_stack([pix, np.full(len(pix), 0.3)]), pix)
        assert_delaunay_oracles(pix, mesh.triangles)
        assert mesh.triangles.shape[0] == qhull_triangulate(mesh.vertices, pix).triangles.shape[0]
        assert np.array_equal(np.unique(mesh.triangles), np.arange(len(pix)))

    def test_trapezoid_notch_is_a_fan_from_its_smallest_index(self):
        # (2, 0), (5, 0), (4, 1) and (3, 1) lie on one circle that holds no
        # other pixel: the two triangles between them share its smallest index
        pix = lattice_pixels(*TIE_MASKS["trapezoid-notch"])
        corners = [int(np.flatnonzero((pix == c).all(axis=1))[0]) for c in ([2, 0], [5, 0], [4, 1], [3, 1])]
        tri = triangulate(np.column_stack([pix, np.full(len(pix), 0.3)]), pix).triangles
        notch = tri[np.isin(tri, corners).all(axis=1)]
        assert notch.shape[0] == 2 and (notch == min(corners)).any(axis=1).all()

    def test_camera_step_frame_matches_qhull(self):
        # a 240 x 240 frame of a 30 mm step with 1 mm depth noise and 5 %
        # dropout: its valid pixels leave pockets between their outer border
        # and their convex hull, where the front searches far
        intr, ext = _default_calibration(240, 240)
        params = {"levels": [0.285, 0.315], "split": 0.0, "extent": 0.08, "spacing": 0.0015}
        dm = render_depth_map("step", params, intr, ext, 240, 240)
        rng = np.random.default_rng(11)
        depth = dm.depth + rng.normal(0.0, 0.001, dm.depth.shape)
        holes = OpticalDepthMap(np.where(rng.random(depth.shape) >= 0.05, depth, np.nan))
        pts, pix = backproject_depth(holes, intr)
        mesh = triangulate(pts, pix)
        want = qhull_triangulate(pts, pix)
        assert mesh.triangles.shape[0] == want.triangles.shape[0]
        assert np.abs(triangle_area2(pix, mesh.triangles)).sum() / 2.0 == pytest.approx(
            ConvexHull(pix).volume, rel=1e-12)
        grid = CandidateGrid.regular(64, 64, 0.001)
        got = build_prior(holes, intr, ext, grid)
        assert got.valid.sum() > 3000
        assert np.array_equal(got.valid, rasterize_prior(transform_mesh(want, ext), grid).valid)


class TestTransformMesh:
    def _mesh(self, n=20, seed=3):
        rng = np.random.default_rng(seed)
        pix = rng.uniform(0, 32, (n, 2))
        pts = np.column_stack([pix * 0.01, rng.uniform(0.2, 0.5, n)])
        return triangulate(pts, pix)

    def test_identity_is_bitwise(self):
        mesh = self._mesh()
        out = transform_mesh(mesh, Extrinsics.identity())
        assert np.array_equal(out.vertices, mesh.vertices)
        assert np.array_equal(out.triangles, mesh.triangles)

    def test_topology_is_shared_not_copied(self):
        mesh = self._mesh()
        out = transform_mesh(mesh, Extrinsics(rotation_about([0, 1, 0], 0.1), np.array([0.0, 0.0, 0.1])))
        assert out.triangles is mesh.triangles and out.source_pixels is mesh.source_pixels
        assert not out.vertices.flags.writeable

    def test_pure_translation(self):
        mesh = self._mesh()
        out = transform_mesh(mesh, Extrinsics(np.eye(3), np.array([0.0, 0.0, 0.1])))
        assert np.abs(out.vertices[:, 2] - mesh.vertices[:, 2] - 0.1).max() < 1e-15
        assert np.array_equal(out.vertices[:, :2], mesh.vertices[:, :2])

    def test_rigid_motion_preserves_distances(self):
        mesh = self._mesh(n=30)
        rot = rotation_about([0.3, -1.0, 0.2], 0.7)
        out = transform_mesh(mesh, Extrinsics(rot, np.array([0.05, -0.02, 0.3])))
        d_in = np.linalg.norm(mesh.vertices[:, None] - mesh.vertices[None], axis=-1)
        d_out = np.linalg.norm(out.vertices[:, None] - out.vertices[None], axis=-1)
        assert np.abs(d_in - d_out).max() < 1e-9


class TestRasterizePrior:
    def _grid(self, n=32, spacing=0.002):
        return CandidateGrid.regular(n, n, spacing)

    def test_constant_triangle(self):
        mesh = TriangleMesh(
            np.array([[-0.05, -0.05, 0.3], [0.05, -0.05, 0.3], [0.0, 0.06, 0.3]]),
            np.array([[0, 1, 2]]),
            np.zeros((3, 2)),
        )
        grid = rasterize_prior(mesh, self._grid())
        assert grid.valid.sum() > 100
        assert np.abs(grid.prior_depth[grid.valid] - 0.3).max() < 1e-12

    def test_centroid_is_barycentric_mean(self):
        verts = np.array([[-0.03, -0.03, 0.2], [0.03, -0.03, 0.3], [0.0, 0.05, 0.4]])
        mesh = TriangleMesh(verts, np.array([[0, 1, 2]]), np.zeros((3, 2)))
        grid = CandidateGrid(
            np.array([verts[:, 0].mean()]), np.array([verts[:, 1].mean()]),
            np.full((1, 1), np.nan),
        )
        out = rasterize_prior(mesh, grid)
        assert out.valid[0, 0]
        assert out.prior_depth[0, 0] == pytest.approx(0.3, abs=1e-6)

    def test_tilted_plane_matches_analytic(self):
        rng = np.random.default_rng(2)
        pix = rng.uniform(0, 48, (120, 2))
        x = (pix[:, 0] - 24) * 0.003
        y = (pix[:, 1] - 24) * 0.003
        z = 0.3 + np.tan(np.deg2rad(10.0)) * x
        mesh = triangulate(np.column_stack([x, y, z]), pix)
        grid = rasterize_prior(mesh, self._grid())
        want = 0.3 + np.tan(np.deg2rad(10.0)) * np.meshgrid(grid.x, grid.y)[0]
        assert grid.valid.sum() > 200
        assert np.abs(grid.prior_depth - want)[grid.valid].max() < 1e-6

    def test_shared_edge_assigned_once(self):
        # Two triangles sharing a diagonal: every covered pixel must get a
        # depth from exactly one of them (no seams of invalid pixels).
        verts = np.array(
            [[-0.02, -0.02, 0.3], [0.02, -0.02, 0.3], [0.02, 0.02, 0.3], [-0.02, 0.02, 0.3]]
        )
        mesh = TriangleMesh(verts, np.array([[0, 1, 2], [0, 2, 3]]), np.zeros((4, 2)))
        grid = rasterize_prior(mesh, self._grid(n=21, spacing=0.002))
        inside = (np.abs(np.meshgrid(grid.x, grid.y)[0]) <= 0.02 - 1e-12) & (
            np.abs(np.meshgrid(grid.x, grid.y)[1]) <= 0.02 - 1e-12
        )
        assert grid.valid[inside].all()

    def test_overlap_takes_front_most(self):
        verts = np.array(
            [
                [-0.05, -0.05, 0.40], [0.05, -0.05, 0.40], [0.0, 0.06, 0.40],  # far sheet
                [-0.05, -0.05, 0.30], [0.05, -0.05, 0.30], [0.0, 0.06, 0.30],  # near sheet
            ]
        )
        mesh = TriangleMesh(verts, np.array([[0, 1, 2], [3, 4, 5]]), np.zeros((6, 2)))
        grid = rasterize_prior(mesh, self._grid())
        assert np.abs(grid.prior_depth[grid.valid] - 0.30).max() < 1e-12

    @pytest.mark.parametrize("snapped", [False, True])
    def test_random_meshes_match_reference(self, snapped):
        rng = np.random.default_rng(11 + snapped)
        for _ in range(100):
            w, h = (int(n) for n in rng.integers(1, 24, 2))
            spacing = 0.25 if snapped else rng.uniform(0.001, 0.003)
            grid = CandidateGrid.regular(w, h, spacing)
            assert_matches_reference(random_mesh(rng, grid, spacing, int(rng.integers(1, 40)), snapped), grid)

    def test_snapped_meshes_hit_edges_and_tie(self):
        # The snapped case must really exercise the exact rules it claims to.
        rng = np.random.default_rng(5)
        grid = CandidateGrid.regular(16, 16, 0.25)
        mesh = random_mesh(rng, grid, 0.25, 60, snapped=True)
        tri = mesh.triangles
        vx = (mesh.vertices[tri, 0] - grid.x[0]) / 0.25
        vy = (mesh.vertices[tri, 1] - grid.y[0]) / 0.25
        assert (vx == np.round(vx)).any() and (vy == np.round(vy)).any()
        out = assert_matches_reference(mesh, grid)
        assert np.signbit(out.prior_depth[out.valid]).any()
        assert (out.prior_depth[out.valid] == 0.0).sum() > 1

    def test_self_overlapping_mesh_after_rigid_transform(self):
        # A Delaunay mesh is disjoint in its pixel domain; a steep rotation
        # folds it over itself so many pixels see several triangles.
        rng = np.random.default_rng(4)
        pix = rng.uniform(0, 40, (150, 2))
        pts = np.column_stack([(pix - 20) * 0.001, 0.3 + 0.02 * np.sin(pix[:, 0] / 3.0)])
        mesh = triangulate(pts, pix)
        rot = rotation_about([0.2, 1.0, 0.0], 1.3)
        moved = transform_mesh(mesh, Extrinsics(rot, -rot @ pts.mean(axis=0) + [0.0, 0.0, 0.3]))
        grid = self._grid(n=40, spacing=0.0005)
        tri = moved.triangles
        e1 = moved.vertices[tri[:, 1], :2] - moved.vertices[tri[:, 0], :2]
        e2 = moved.vertices[tri[:, 2], :2] - moved.vertices[tri[:, 0], :2]
        winding = np.sign(e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])
        assert (winding > 0).any() and (winding < 0).any()  # folded: both windings occur
        assert assert_matches_reference(moved, grid).valid.sum() > 100

    @pytest.mark.parametrize("shape", [(1, 17), (17, 1), (1, 1)])
    def test_single_row_and_column_grids(self, shape):
        rng = np.random.default_rng(shape[0] * 31 + shape[1])
        w, h = shape
        for snapped in (False, True):
            grid = CandidateGrid.regular(w, h, 0.25)
            for _ in range(20):
                assert_matches_reference(random_mesh(rng, grid, 0.25, 12, snapped), grid)

    def test_triangle_larger_than_grid(self):
        verts = np.array([[-1.0, -1.0, 0.3], [1.0, -1.0, 0.35], [0.0, 1.5, 0.4]])
        mesh = TriangleMesh(verts, np.array([[0, 1, 2]]), np.zeros((3, 2)))
        grid = self._grid(n=20)
        assert assert_matches_reference(mesh, grid).valid.all()

    def test_triangle_box_larger_than_a_piece(self, monkeypatch):
        # 400 candidates against pieces of 7: the triangle is a piece of its own
        verts = np.array([[-1.0, -1.0, 0.3], [1.0, -1.0, 0.35], [0.0, 1.5, 0.4]])
        mesh = TriangleMesh(verts, np.array([[0, 1, 2]]), np.zeros((3, 2)))
        monkeypatch.setattr(depth_prior, "_PAIR_CHUNK", 7)
        assert assert_matches_reference(mesh, self._grid(n=20)).valid.all()

    def test_chunk_boundaries_do_not_matter(self, monkeypatch):
        rng = np.random.default_rng(8)
        grid = CandidateGrid.regular(12, 9, 0.25)
        mesh = random_mesh(rng, grid, 0.25, 80, snapped=True)
        whole = rasterize_prior(mesh, grid)
        for chunk in (1, 7, 64):  # pieces of whole triangles: one each at 1, a few at 7 and 64
            monkeypatch.setattr(depth_prior, "_PAIR_CHUNK", chunk)
            split = assert_matches_reference(mesh, grid)
            assert split.prior_depth.tobytes() == whole.prior_depth.tobytes()

    def test_triangle_chunks_do_not_change_bytes(self, monkeypatch):
        # snapped: edges through pixel centres and exact depth ties, signed zeros included
        rng = np.random.default_rng(8)
        grid = CandidateGrid.regular(12, 9, 0.25)
        mesh = random_mesh(rng, grid, 0.25, 80, snapped=True)
        monkeypatch.setattr(depth_prior, "_TRIANGLE_CHUNK", 80)
        whole = assert_matches_reference(mesh, grid)
        for chunk in (1, 5):  # 80 chunks, and 16
            monkeypatch.setattr(depth_prior, "_TRIANGLE_CHUNK", chunk)
            assert assert_matches_reference(mesh, grid).prior_depth.tobytes() == whole.prior_depth.tobytes()

    @pytest.mark.parametrize("first", [-0.0, 0.0])
    @pytest.mark.parametrize("chunk", [1, 2])
    def test_exact_tie_keeps_the_earliest_triangle_across_chunks(self, monkeypatch, first, chunk):
        # one triangle twice, at depth -0.0 and at 0.0: equal depths, different bytes
        corners = np.array([[-0.05, -0.05], [0.05, -0.05], [0.0, 0.06]])
        verts = np.column_stack([np.vstack([corners, corners]), np.repeat([first, -first], 3)])
        mesh = TriangleMesh(verts, np.array([[0, 1, 2], [3, 4, 5]]), np.zeros((6, 2)))
        monkeypatch.setattr(depth_prior, "_TRIANGLE_CHUNK", chunk)
        out = assert_matches_reference(mesh, self._grid())
        assert out.valid.sum() > 100
        assert (np.signbit(out.prior_depth[out.valid]) == np.signbit(first)).all()

    def test_degenerate_and_off_grid_triangles_are_skipped(self):
        verts = np.array(
            [[0.0, 0.0, 0.3], [0.01, 0.0, 0.3], [0.02, 0.0, 0.3],   # collinear
             [1.0, 1.0, 0.3], [1.1, 1.0, 0.3], [1.0, 1.1, 0.3]]     # far off the grid
        )
        mesh = TriangleMesh(verts, np.array([[0, 1, 2], [3, 4, 5], [0, 0, 1]]), np.zeros((6, 2)))
        out = assert_matches_reference(mesh, self._grid())
        assert not out.valid.any()
        empty = TriangleMesh(verts, np.zeros((0, 3), dtype=int), np.zeros((6, 2)))
        assert not assert_matches_reference(empty, self._grid()).valid.any()


class TestBuildPrior:
    def _camera(self):
        intr = CameraIntrinsics(216.0, 216.0, 35.5, 35.5)
        rot = rotation_about([0, 1, 0], np.deg2rad(2.0))
        return intr, Extrinsics(rot, np.array([0.01, 0.005, -0.01]))

    def test_plane_prior_is_exact(self):
        intr, ext = self._camera()
        params = {"depth": 0.30, "extent": 0.12, "spacing": 0.0015, "tilt_x": 0.05}
        dm = render_depth_map("plane", params, intr, ext, 72, 72)
        grid = CandidateGrid.regular(64, 64, 0.001)
        prior = build_prior(dm, intr, ext, grid)
        gx, gy = np.meshgrid(grid.x, grid.y)
        truth = surface_depth("plane", params, gx, gy)
        m = prior.valid & np.isfinite(truth)
        assert m.sum() > 3000
        assert np.abs(prior.prior_depth - truth)[m].max() < 1e-4

    def test_dropout_holes_are_filled(self):
        intr, ext = self._camera()
        params = {"depth": 0.30, "extent": 0.12, "spacing": 0.0015}
        dm = render_depth_map("plane", params, intr, ext, 72, 72)
        rng = np.random.default_rng(0)
        keep = rng.random(dm.depth.shape) >= 0.2
        holes = OpticalDepthMap(np.where(dm.valid & keep, dm.depth, np.nan))
        grid = CandidateGrid.regular(64, 64, 0.001)
        full = build_prior(dm, intr, ext, grid)
        holey = build_prior(holes, intr, ext, grid)
        # Interior coverage identical: triangulation spans the convex hull.
        assert holey.valid.sum() >= 0.99 * full.valid.sum()

    def test_translation_offset_biases_prior_by_same_amount(self):
        intr, ext = self._camera()
        params = {"depth": 0.30, "extent": 0.12, "spacing": 0.0015}
        dm = render_depth_map("plane", params, intr, ext, 72, 72)
        grid = CandidateGrid.regular(48, 48, 0.001)
        exact = build_prior(dm, intr, ext, grid)
        off = Extrinsics(ext.rotation, ext.translation + [0.0, 0.0, 0.001])
        biased = build_prior(dm, intr, off, grid)
        m = exact.valid & biased.valid
        bias = (biased.prior_depth - exact.prior_depth)[m]
        assert bias.mean() == pytest.approx(0.001, abs=1e-4)

    def test_tilted_plane_prior_matches_qhull_mesh(self):
        # Both meshes interpolate the same plane, so only rounding may
        # differ; both cover the hull, so the validity masks are equal.
        intr, ext = self._camera()
        params = {"depth": 0.30, "extent": 0.12, "spacing": 0.0015, "tilt_x": 0.2, "tilt_y": -0.1}
        dm = render_depth_map("plane", params, intr, ext, 72, 72)
        keep = dm.valid & (np.random.default_rng(3).random(dm.depth.shape) >= 0.15)
        holes = OpticalDepthMap(np.where(keep, dm.depth, np.nan))
        grid = CandidateGrid.regular(64, 64, 0.001)
        got = build_prior(holes, intr, ext, grid)
        pts, pix = backproject_depth(holes, intr)
        want = rasterize_prior(transform_mesh(qhull_triangulate(pts, pix), ext), grid)
        assert got.valid.sum() > 3000
        assert np.array_equal(got.valid, want.valid)
        assert np.abs(got.prior_depth - want.prior_depth)[got.valid].max() <= 1e-12

    def test_mismatched_pixel_count_rejected(self):
        with pytest.raises(StructuralError):
            triangulate(np.zeros((4, 3)), np.zeros((3, 2)))

"""From an optical depth map to per-pixel depth priors on the radar grid.

The pipeline back-projects valid depth pixels through the camera
intrinsics, triangulates them in the 2-D pixel domain (which also fills
holes, since the triangulation covers the convex hull), rigidly transforms
the mesh into the radar frame, and rasterizes it orthographically onto the
candidate grid with barycentric depth interpolation. Where triangles
overlap after the transform, the front-most surface (smallest depth) wins.

A depth camera's pixels sit on an integer lattice, and most Delaunay
faces of a lattice are known without computing anything: every complete
unit quad, every quad with three valid corners, and the diamond around a
lone missing pixel. ``triangulate`` finds them by gathers from one index
image over the pixels' bounding box and gives only the points along
irregular holes and the outer border to Qhull, keeping the Qhull
triangles that fall where no lattice cell lies. Input off the lattice
(non-integer or repeated pixels), or so sparse on it that the index image
would exceed ``_LATTICE_ENTRIES`` entries, goes to Qhull whole.

Rasterization is one array pass over all triangles rather than a loop per
triangle. Each triangle's integer bounding box expands into (triangle,
pixel) candidates, evaluated in pieces of whole triangles (``_runs``) so
the temporaries stay at a few MB on any mesh; ``np.minimum.at`` keeps the
nearest candidate per pixel. The result does not depend on where pieces split.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .correlate import CandidateGrid
from .errors import (
    DegenerateGeometryError,
    InsufficientDataError,
    StructuralError,
    ValidationError,
)
from .signal_core import freeze

_ORTHONORMAL_TOL = 1e-9
_MIN_TRIANGLE_AREA = 1e-12  # squared pixels; drops numerically degenerate slivers
_LATTICE_ENTRIES = 1 << 23  # largest index image, 15 bytes an entry across its images; 1920 x 1080 needs 2.1M
_PAIR_CHUNK = 1 << 16  # (triangle, pixel), (query, strip) or (query, point) pairs a pass: a few MB of temporaries


@dataclass(frozen=True)
class CameraIntrinsics:
    """Pinhole parameters: focal lengths and principal point, in pixels."""

    f_u: float
    f_v: float
    c_u: float
    c_v: float

    def __post_init__(self):
        if not np.isfinite([self.f_u, self.f_v, self.c_u, self.c_v]).all():
            raise ValidationError("intrinsics must be finite")
        if self.f_u <= 0.0 or self.f_v <= 0.0:
            raise ValidationError("focal lengths must be positive")


@dataclass(frozen=True)
class Extrinsics:
    """Rigid camera-to-radar transform: p_radar = R p_cam + t."""

    rotation: np.ndarray     # (3, 3)
    translation: np.ndarray  # (3,)

    def __post_init__(self):
        rot = np.asarray(self.rotation, dtype=np.float64)
        t = np.asarray(self.translation, dtype=np.float64).reshape(3)
        if rot.shape != (3, 3) or not np.isfinite(rot).all() or not np.isfinite(t).all():
            raise ValidationError("extrinsics need a finite 3x3 rotation and 3-vector")
        if not np.allclose(rot.T @ rot, np.eye(3), atol=_ORTHONORMAL_TOL):
            raise ValidationError("rotation is not orthonormal")
        if abs(np.linalg.det(rot) - 1.0) > _ORTHONORMAL_TOL:
            raise ValidationError("rotation must be proper (det = +1)")
        freeze(self, rotation=rot, translation=t)

    @classmethod
    def identity(cls) -> "Extrinsics":
        return cls(np.eye(3), np.zeros(3))


@dataclass(frozen=True)
class OpticalDepthMap:
    """Per-pixel depth from the secondary sensor. NaN marks the holes real
    depth cameras produce on dark or reflective material; every other
    pixel must hold a positive, finite depth. ``valid`` is derived, not
    passed: the read-only mask of the non-NaN pixels."""

    depth: np.ndarray  # (H, W) meters, NaN in holes
    valid: np.ndarray = field(init=False)  # (H, W) bool, np.isfinite(depth)

    def __post_init__(self):
        depth = np.asarray(self.depth, dtype=np.float64)
        if depth.ndim != 2:
            raise StructuralError("depth must be an (H, W) array")
        valid = np.isfinite(depth)
        if np.isinf(depth).any() or (depth[valid] <= 0.0).any():
            raise StructuralError("depth pixels must be positive and finite, or NaN in holes")
        freeze(self, depth=depth, valid=valid)


@dataclass(frozen=True)
class TriangleMesh:
    """Triangulated point cloud; ``source_pixels`` remembers each vertex's
    (u, v) origin so topology built in the pixel domain survives the 3-D
    transform."""

    vertices: np.ndarray       # (N, 3)
    triangles: np.ndarray      # (M, 3) int
    source_pixels: np.ndarray  # (N, 2)

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=np.float64)
        t = np.asarray(self.triangles, dtype=np.int64)
        s = np.asarray(self.source_pixels, dtype=np.float64)
        if v.ndim != 2 or v.shape[1] != 3:
            raise StructuralError("vertices must be (N, 3)")
        if t.ndim != 2 or t.shape[1] != 3:
            raise StructuralError("triangles must be (M, 3) index triples")
        if s.shape != (v.shape[0], 2):
            raise StructuralError("source_pixels must be (N, 2)")
        if t.size and (t.min() < 0 or t.max() >= v.shape[0]):
            raise StructuralError("triangle indices out of range")
        freeze(self, vertices=v, triangles=t, source_pixels=s)


def backproject_depth(depth_map: OpticalDepthMap, intrinsics: CameraIntrinsics):
    """Lift every valid (u, v, d) pixel to a 3-D camera-frame point.

    Returns the point cloud and the matching (u, v) source pixels; invalid
    pixels are simply skipped.
    """
    vs, us = np.nonzero(depth_map.valid)
    if us.size < 3:
        raise InsufficientDataError("need at least 3 valid depth pixels")
    d = depth_map.depth[vs, us]
    points = np.column_stack(
        [
            (us - intrinsics.c_u) * d / intrinsics.f_u,
            (vs - intrinsics.c_v) * d / intrinsics.f_v,
            d,
        ]
    )
    pixels = np.column_stack([us, vs]).astype(np.float64)
    return points, pixels


def _lattice_cells(pixels: np.ndarray):
    """Delaunay cells read off the integer pixel lattice, without Qhull.

    Returns ``(cells, remainder, covered)``: the cell triangles as point
    indices, a mask of the points that touch ground no cell covers, and a
    function telling whether an integer point sum ``a + b + c`` (three
    times a triangle's centroid) falls in ground a cell covers.

    Neighbours are found in one index image over the pixels' bounding box
    with a margin of one on every side: each entry holds its pixel's point
    index, or -1 for a hole. A key is an entry's flat position, and the
    unit quad at key k has k as its lower-left corner. Coverage is kept per
    quad quarter: the two diagonals cut each quad (corners c00, c10, c11,
    c01, counter-clockwise) into quarters 0-3, and quarter k lies between
    corners k and k + 1. Every cell is a union of whole quarters.
    Non-integer or repeated pixels give no cells and send every point to
    Qhull, as does a box of more than ``_LATTICE_ENTRIES`` entries (points
    sparse on their lattice).
    """
    n = pixels.shape[0]
    no_cells = np.zeros((0, 3), dtype=np.int64), np.ones(n, dtype=bool), None
    if not (np.isfinite(pixels).all() and (pixels == np.round(pixels)).all()):
        return no_cells
    u, v = pixels.T  # one column each: reducing (N, 2) rows over axis 0 is ~25x slower
    u0, v0 = u.min(), v.min()
    width, height = u.max() - u0 + 3, v.max() - v0 + 3  # the box and its margins
    if width * height > _LATTICE_ENTRIES:
        return no_cells
    width, height = int(width), int(height)
    lo = int(u0) - 1, int(v0) - 1
    keys = (v.astype(np.int64) - lo[1]) * width + (u.astype(np.int64) - lo[0])
    index = np.full(width * height, -1)
    index[keys] = np.arange(n)
    if (index[keys] != np.arange(n)).any():  # a repeated pixel kept only its last point
        return no_cells

    occupied = index >= 0
    # quads with a point at any corner; a shift past a row's end reads the next row's empty margin
    quad = occupied.copy()
    for shift in (1, width, width + 1):
        quad[:-shift] |= occupied[shift:]
    quads = np.flatnonzero(quad)  # lower-left keys, ascending
    corner_keys = quads + np.array([[0], [1], [width + 1], [width]])  # (4, Q)
    corner = index[corner_keys]
    valid = corner >= 0
    count = valid.sum(axis=0)

    has3 = count == 3
    three = corner[:, has3].T[valid[:, has3].T].reshape(-1, 3)  # the valid corners, in order

    centers = keys + 1  # every diamond center has a valid left neighbour
    # (4, N) counter-clockwise; a right neighbour past the last column reads the next row's empty margin
    ring = index[centers + np.array([[-1], [-width], [1], [width]])]
    diamond = (index[centers] < 0) & (ring >= 0).all(axis=0)
    # Complete quads and diamonds both have four corners counter-clockwise;
    # each splits on its corner 0 - corner 2 diagonal. (np.compress takes
    # the columns ~3x faster than a boolean index.)
    four = np.concatenate([np.compress(count == 4, corner, axis=1), ring[:, diamond]], axis=1)
    cells = np.concatenate([four[[0, 1, 2]].T, four[[0, 2, 3]].T, three])

    at_diamond = np.zeros(width * height, dtype=bool)
    at_diamond[centers[diamond]] = True
    at_diamond = at_diamond[corner_keys]
    pair = np.roll(np.arange(4), -1)  # quarter k lies between corners k and pair[k]
    filled = ((count >= 3) & valid & valid[pair]) | at_diamond | at_diamond[pair]  # (4, Q) quarters
    open_beside = ~filled | ~np.roll(filled, 1, axis=0)  # quarters k - 1 and k touch corner k
    remainder = np.zeros(n, dtype=bool)
    remainder[corner[valid & open_beside]] = True
    quarters = np.zeros((4, width * height), dtype=bool)  # filled quarters of the quad at each key
    quarters[:, quads] = filled

    def covered(triple_sum):
        cell, frac = np.divmod(triple_sum, 3)  # quad of the centroid, position in thirds
        k = (cell[:, 1] - lo[1]) * width + (cell[:, 0] - lo[0])
        along, across = frac[:, 0] - frac[:, 1], frac[:, 0] + frac[:, 1] - 3
        q = np.where(along > 0, np.where(across < 0, 0, 1), np.where(across > 0, 2, 3))
        return quarters[q, k]

    return cells, remainder, covered


def triangulate(points: np.ndarray, pixels: np.ndarray) -> TriangleMesh:
    """Delaunay-triangulate the cloud in its 2-D pixel domain.

    The triangulation spans the convex hull of the source pixels, which is
    what fills depth holes. Most triangles come straight from the pixel
    lattice: two per complete unit quad, one per quad with three valid
    corners (the half away from the missing one), and two per diamond
    around a missing pixel whose four axis neighbours are valid. Each of
    these is a whole face of the Delaunay subdivision, since its
    circumcircle passes through its corners and holds no other lattice
    point but a missing one. So every other Delaunay face has its vertices
    among the points that touch ground no cell covers, and is a Delaunay
    face of those points alone: only they go to Qhull, and of its
    triangles only those outside every cell are kept.

    Collinear input cannot be triangulated.
    """
    points = np.asarray(points, dtype=np.float64)
    pixels = np.asarray(pixels, dtype=np.float64)
    if pixels.ndim != 2 or pixels.shape[1] != 2 or pixels.shape[0] != points.shape[0]:
        raise StructuralError("pixels must be (N, 2) matching the point cloud")
    if pixels.shape[0] < 3:
        raise DegenerateGeometryError("triangulation needs at least 3 points")
    cells, remainder, covered = _lattice_cells(pixels)
    subset = np.flatnonzero(remainder)
    # scipy is imported here, its one use in the package, so that a process
    # that never triangulates (simulate, reconstruct, eval, report, a scalar
    # or file prior) runs on numpy alone.
    from scipy.spatial import Delaunay, QhullError

    try:
        tri = Delaunay(pixels[subset])
    except QhullError as exc:
        raise DegenerateGeometryError(f"input cannot be triangulated: {exc}") from exc
    simplices = subset[tri.simplices]
    a, b, c = (pixels[simplices[:, i]] for i in range(3))
    area2 = (b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1]) - (b[:, 1] - a[:, 1]) * (c[:, 0] - a[:, 0])
    keep = np.abs(area2) > _MIN_TRIANGLE_AREA
    if cells.size:
        keep &= ~covered((a + b + c).astype(np.int64))
    triangles = np.concatenate([cells, simplices[keep]])
    if not triangles.size:
        raise DegenerateGeometryError("all triangles are degenerate (collinear input)")
    return TriangleMesh(points, triangles, pixels)


def transform_mesh(mesh: TriangleMesh, extrinsics: Extrinsics) -> TriangleMesh:
    """Apply the rigid camera-to-radar transform to every vertex; topology
    is untouched."""
    moved = mesh.vertices @ extrinsics.rotation.T + extrinsics.translation
    return TriangleMesh(moved, mesh.triangles, mesh.source_pixels)


def _edge(ax, ay, bx, by, px, py):
    return (bx - ax) * (py - ay) - (by - ay) * (px - ax)


def _runs(lo: np.ndarray, hi: np.ndarray):
    """The integers of the non-empty ranges ``lo[k]:hi[k]`` in pieces of
    whole ranges, each at most ``_PAIR_CHUNK`` integers plus one range, as
    ``(k, integers)``: each integer's ``k`` and the integer."""
    n = hi - lo
    end = np.cumsum(n)
    shift = lo - (end - n)  # each range's first integer less its position in the run
    cut = np.flatnonzero(np.diff((end - 1) // _PAIR_CHUNK, prepend=-1))
    for x, y in zip(cut, [*cut[1:], n.size]):
        yield (np.repeat(np.arange(x, y), n[x:y]),
               np.arange(end[x] - n[x], end[y - 1]) + np.repeat(shift[x:y], n[x:y]))


def rasterize_prior(mesh: TriangleMesh, grid: CandidateGrid) -> CandidateGrid:
    """Orthographically rasterize the mesh onto the candidate grid.

    A pixel is covered when its center lies inside a triangle's lateral
    (x, y) footprint, with a half-open boundary rule so pixels on a shared
    edge belong to exactly one triangle. Depth is barycentrically
    interpolated; overlapping triangles resolve to the smallest depth, and
    exact depth ties keep the earliest triangle.

    All triangles are handled as arrays: every (triangle, pixel) pair of a
    triangle's integer bounding box is one candidate, and candidates are
    evaluated in pieces of whole triangles (``_runs``). ``np.minimum.at``
    lowers each candidate's pixel in a z-buffer, so piece boundaries never
    change the result.
    """
    dx, dy = (step or 1.0 for step in grid.spacing)  # a one-pixel axis has no pitch
    x0, y0 = grid.x[0], grid.y[0]

    # one row per corner (reducing (M, 3) rows is ~50x slower); last-first: np.minimum keeps the later tie
    tri = np.ascontiguousarray(mesh.triangles[::-1].T)
    vx = (mesh.vertices[tri, 0] - x0) / dx  # (3, M) continuous pixel coordinates
    vy = (mesh.vertices[tri, 1] - y0) / dy
    area2 = _edge(vx[0], vy[0], vx[1], vy[1], vx[2], vy[2])
    u_lo = np.maximum(np.ceil(vx.min(axis=0) - 1e-12), 0.0)
    u_hi = np.minimum(np.floor(vx.max(axis=0) + 1e-12), grid.width - 1)
    v_lo = np.maximum(np.ceil(vy.min(axis=0) - 1e-12), 0.0)
    v_hi = np.minimum(np.floor(vy.max(axis=0) + 1e-12), grid.height - 1)
    keep = (area2 != 0.0) & (u_lo <= u_hi) & (v_lo <= v_hi)  # NaN vertices drop here
    vx, vy, vz, area2 = vx[:, keep], vy[:, keep], mesh.vertices[tri[:, keep], 2], area2[keep]
    del tri  # a copy of the mesh's indices: free it before the candidate passes
    flip = area2 < 0.0  # normalize winding so edge functions are >= 0 inside
    for a in (vx, vy, vz):
        a[1:, flip] = a[2:0:-1, flip]
    area2 = np.abs(area2)
    u_lo, v_lo = u_lo[keep].astype(np.int64), v_lo[keep].astype(np.int64)
    box_w = u_hi[keep].astype(np.int64) - u_lo + 1
    count = box_w * (v_hi[keep].astype(np.int64) - v_lo + 1)

    edges = []
    for i, j in ((1, 2), (2, 0), (0, 1)):
        ddx, ddy = vx[j] - vx[i], vy[j] - vy[i]
        boundary_in = (ddy > 0.0) | ((ddy == 0.0) & (ddx < 0.0))
        edges.append((vx[i], vy[i], ddx, ddy, boundary_in))

    zbuf = np.full(grid.height * grid.width, np.inf)
    for t, k in _runs(np.zeros_like(count), count):  # each candidate's triangle and place in its box
        row, col = np.divmod(k, box_w[t])
        pu, pv = u_lo[t] + col, v_lo[t] + row

        cover = np.ones(k.size, dtype=bool)
        bary = []
        for ax, ay, ddx, ddy, boundary_in in edges:
            e = ddx[t] * (pv - ay[t]) - ddy[t] * (pu - ax[t])
            cover &= (e > 0.0) | ((e == 0.0) & boundary_in[t])
            bary.append(e / area2[t])
        z = bary[0] * vz[0, t] + bary[1] * vz[1, t] + bary[2] * vz[2, t]
        cover &= z < np.inf  # NaN would spread through np.minimum; inf is the empty buffer
        np.minimum.at(zbuf, (pv * grid.width + pu)[cover], z[cover])

    zbuf[np.isinf(zbuf)] = np.nan  # pixels no triangle covered
    return grid.with_prior(zbuf.reshape(grid.height, grid.width))


def build_prior(
    depth_map: OpticalDepthMap,
    intrinsics: CameraIntrinsics,
    extrinsics: Extrinsics,
    grid: CandidateGrid,
) -> CandidateGrid:
    """Full prior pipeline: back-project, triangulate, transform, rasterize.
    Hole-filling triangles across depth gaps are kept: they are a feature,
    not noise."""
    points, pixels = backproject_depth(depth_map, intrinsics)
    mesh = triangulate(points, pixels)
    mesh = transform_mesh(mesh, extrinsics)
    return rasterize_prior(mesh, grid)

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
image over the pixels' bounding box; an advancing Delaunay front in numpy
(``_Front``) fills the rest of the hull from the cells' boundary edges,
with the points along irregular holes and the outer border as its
candidates. Input off the lattice (non-integer or repeated pixels), or so
sparse on it that the index image would exceed ``_LATTICE_ENTRIES``
entries, runs the front from one convex-hull edge over every point. The
package needs no scipy.

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
_LATTICE_ENTRIES = 1 << 23  # largest index image, 15 bytes an entry across its images; 1920 x 1080 needs 2.1M
_PAIR_CHUNK = 1 << 16  # (triangle, pixel), (query, strip), (query, point) or (edge, candidate) pairs a pass: a few MB of temporaries
_REACH = 2.0  # px: how far the first search for an edge's apex looks


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
    """Delaunay cells read off the integer pixel lattice.

    Returns ``(cells, remainder, lattice)``: the cell triangles as point
    indices, counter-clockwise; a mask of the points that touch ground no
    cell covers; and whether the pixels could be read off the lattice.

    Neighbours are found in one index image over the pixels' bounding box
    with a margin of one on every side: each entry holds its pixel's point
    index, or -1 for a hole. A key is an entry's flat position, and the
    unit quad at key k has k as its lower-left corner. Coverage is judged
    per quad quarter: the two diagonals cut each quad (corners c00, c10,
    c11, c01, counter-clockwise) into quarters 0-3, and quarter k lies
    between corners k and k + 1. Every cell is a union of whole quarters.
    Non-integer or repeated pixels give no cells and a remainder of every
    point, as does a box of more than ``_LATTICE_ENTRIES`` entries (points
    sparse on their lattice).
    """
    n = pixels.shape[0]
    no_cells = np.zeros((0, 3), dtype=np.int64), np.ones(n, dtype=bool), False
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
    return cells, remainder, True


def _member(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Whether each of the integers ``x`` is among the non-empty ``y``."""
    y = np.sort(y)
    return y.take(np.searchsorted(y, x), mode="clip") == x


class _Front:
    """An advancing Delaunay front over the candidate points ``cand``.

    Each round gives every directed front edge a -> b the candidate c on
    its left with the largest angle a-c-b: circles through a and b are
    nested on the left of ab, so c's holds no point there and (a, b, c)
    is Delaunay. An edge with nothing on its left lies on the hull. The
    predicates are exact on integer pixels spread over less than 4,096
    px, since every product is an integer below 2^53 and cotangents
    ``dot / cross`` that differ as fractions differ as doubles; beyond
    that they round. Cocircular ties become a fan from the smallest
    point index of the tie set and the edge, the same split from every
    edge of the cell. On the lattice an edge searches the candidates
    within ``_REACH`` px on its left (rows of candidates sorted by
    position), then, if the circle through it and its best one leaves
    that window, the circle's left part, or the whole box if the window
    held none. Off the lattice every edge searches every candidate.
    """

    def __init__(self, pixels: np.ndarray, cand: np.ndarray, lattice: bool):
        self.x, self.y = (np.ascontiguousarray(c) for c in pixels.T)
        self.lo, self.hi = (np.array([f(self.x), f(self.y)]) for f in (np.min, np.max))
        self.span = float(np.hypot(*(self.hi - self.lo))) + 1.0  # a reach that covers the whole box
        self.width, self.cand = 0, cand  # width 0: off the lattice
        if lattice:
            self.width = int(self.hi[0] - self.lo[0]) + 1
            key = ((self.y.take(cand) - self.lo[1]) * self.width + (self.x.take(cand) - self.lo[0])).astype(np.int64)
            order = np.argsort(key, kind="stable")
            self.cand, self.keys = cand.take(order), key.take(order)

    def triangles(self, front: np.ndarray) -> np.ndarray:
        """Advance ``front`` (E, 2) until it closes; the new triangles."""
        n, out, total = self.x.size, [], 0
        while front.size:
            a, b = front.T
            c = self.apexes(a, b)
            tri = np.column_stack([a, b, c])[c >= 0]
            if not tri.size:
                break
            # front edges of one triangle each find it: keep one row per triangle
            r = tri.argmin(axis=1)
            at = np.arange(tri.shape[0])
            tri = tri[np.unique(tri[at, r] * n + tri[at, (r + 1) % 3], return_index=True)[1]]
            out.append(tri)
            total += tri.shape[0]
            if total > 2 * n:  # more than any triangulation of n points has
                raise DegenerateGeometryError("pixel coordinates too far apart to triangulate exactly")
            e = tri[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2)
            own, back = e[:, 0] * n + e[:, 1], e[:, 1] * n + e[:, 0]
            front = e[~_member(back, own) & ~_member(own, a * n + b)][:, ::-1]
        return np.concatenate(out) if out else np.zeros((0, 3), dtype=np.int64)

    def apexes(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Each edge's apex, or -1 for an edge with no candidate on its left."""
        x, y = self.x, self.y
        self.ax, self.ay = x.take(a), y.take(a)
        self.dx, self.dy = x.take(b) - self.ax, y.take(b) - self.ay
        self.length = np.hypot(self.dx, self.dy)
        best = np.full(a.size, np.inf)  # per edge, the least cot(a-c-b) over c on its left
        found = []  # (edge, c) at the edge's best, for settled edges
        k, reach, last = np.arange(a.size), np.full(a.size, _REACH), not self.width
        while k.size:
            best[k] = np.inf
            hits = [(np.zeros(0, dtype=np.int64),) * 2 + (np.zeros(0),)]
            for e, pos in self.pairs(k, reach):
                c = self.cand.take(pos)
                ux, uy = x.take(c) - self.ax.take(e), y.take(c) - self.ay.take(e)
                dx, dy = self.dx.take(e), self.dy.take(e)
                cross = dx * uy - dy * ux
                left = cross > 0.0
                e, c, ux, uy, dx, dy, cross = (v[left] for v in (e, c, ux, uy, dx, dy, cross))
                cot = (ux * (ux - dx) + uy * (uy - dy)) / cross
                np.minimum.at(best, e, cot)
                keep = cot <= best.take(e)
                hits.append((e[keep], c[keep], cot[keep]))
            e, c, cot = (np.concatenate(v) for v in zip(*hits))
            # how far the left part of the circle through a, b and the best candidate reaches from ab
            cot_k = best.take(k)
            rho = np.sqrt(1.0 + cot_k * cot_k) / 2.0  # radius over |ab|; inf with no candidate
            need = self.length.take(k) * np.maximum(rho - 0.5, cot_k / 2.0 + rho)
            settled = last | (need <= reach)
            done = np.zeros(a.size, dtype=bool)
            done[k[settled]] = True
            keep = done.take(e) & (cot == best.take(e))
            found.append((e[keep], c[keep]))
            k, reach, last = k[~settled], np.where(need < np.inf, need * (1 + 1e-9) + 1e-9, self.span)[~settled], True
        apex = np.full(a.size, -1)
        e, c = (np.concatenate(f) for f in zip(*found))
        if not e.size:
            return apex
        order = np.argsort(e, kind="stable")
        e, c = e.take(order), c.take(order)
        first = np.flatnonzero(np.diff(e, prepend=-1))
        size = np.diff(first, append=e.size)
        # the fan's pivot: the smallest index of the tie set and the edge;
        # from an edge end, the apex is the tie point next to the other end
        ea, eb = a.take(e), b.take(e)
        pivot = np.repeat(np.minimum(np.minimum.reduceat(c, first), np.minimum(ea[first], eb[first])), size)
        at_end = (pivot == ea) | (pivot == eb)
        other = np.where(pivot == ea, eb, ea)
        vx, vy = x.take(other) - x.take(pivot), y.take(other) - y.take(pivot)
        wx, wy = x.take(c) - x.take(pivot), y.take(c) - y.take(pivot)
        turn = np.divide(vx * wx + vy * wy, np.abs(vx * wy - vy * wx),
                         out=np.where(c == pivot, np.inf, -np.inf), where=at_end)
        chosen = turn == np.repeat(np.maximum.reduceat(turn, first), size)
        apex[e[chosen]] = c[chosen]
        return apex

    def pairs(self, k: np.ndarray, reach: np.ndarray):
        """(edge, candidate position) pairs in pieces of ``_PAIR_CHUNK``:
        each edge of ``k`` against the candidates in the box around its
        left within ``reach`` px; against all of them off the lattice."""
        if not self.width:
            for i, pos in _runs(np.zeros_like(k), np.full(k.size, self.cand.size)):
                yield k.take(i), pos
            return
        # the box of a + s (b - a) + t n, n = (b - a) turned left, s in [-mu, 1 + mu],
        # t in [1 / |ab|^2, mu]: no lattice point on the left lies nearer ab than 1 / |ab|
        length = self.length.take(k)
        mu, inner = reach / length, 1.0 / (length * length)
        box = []
        for p, d, n, lo, hi in ((self.ax, self.dx, -self.dy, self.lo[0], self.hi[0]),
                                (self.ay, self.dy, self.dx, self.lo[1], self.hi[1])):
            p, d, n = p.take(k), d.take(k), n.take(k)
            s, t = (-mu * d, (1.0 + mu) * d), (inner * n, mu * n)
            box.append((np.maximum(np.ceil(p + np.minimum(*s) + np.minimum(*t) - 1e-9), lo) - lo).astype(np.int64))
            box.append((np.minimum(np.floor(p + np.maximum(*s) + np.maximum(*t) + 1e-9), hi) - lo).astype(np.int64))
        x0, x1, y0, y1 = box
        for j, row in _runs(y0, np.where(x1 >= x0, np.maximum(y1 + 1, y0), y0)):  # (edge, row) pairs
            start = np.searchsorted(self.keys, row * self.width + x0.take(j))
            stop = np.maximum(np.searchsorted(self.keys, row * self.width + x1.take(j), "right"), start)
            for i, pos in _runs(start, stop):
                yield k.take(j.take(i)), pos


def _hull_edge(pixels: np.ndarray, cand: np.ndarray) -> np.ndarray:
    """A hull edge p -> q with every candidate on its left or its line, or
    none for candidates on one vertical line."""
    x, y = pixels[cand].T
    p = np.lexsort((y, x))[0]  # the lowest of the leftmost: a hull vertex
    dx, dy = x - x[p], y - y[p]
    right = np.flatnonzero(dx > 0.0)
    if not right.size:
        return np.zeros((0, 2), dtype=np.int64)
    q = right[np.lexsort((dx[right], dy[right] / dx[right]))[0]]  # the least slope, the nearest on it
    return cand[[[p, q]]]


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
    among the points that touch ground no cell covers, and ``_Front``
    fills that ground from the cells' boundary edges. Without cells (input
    off the lattice, or too sparse on it) the front starts from one hull
    edge over every distinct pixel, the first of a repeated one. Collinear
    input cannot be triangulated.
    """
    points = np.asarray(points, dtype=np.float64)
    pixels = np.asarray(pixels, dtype=np.float64)
    if pixels.ndim != 2 or pixels.shape[1] != 2 or pixels.shape[0] != points.shape[0]:
        raise StructuralError("pixels must be (N, 2) matching the point cloud")
    if pixels.shape[0] < 3:
        raise DegenerateGeometryError("triangulation needs at least 3 points")
    if not np.isfinite(pixels).all():
        raise ValidationError("pixels must be finite")
    cells, remainder, lattice = _lattice_cells(pixels)
    if cells.size:
        n = pixels.shape[0]
        r = remainder.view(np.uint8)  # a sum per column: reducing (M, 3) rows is ~5x slower
        rim = cells[r.take(cells[:, 0]) + r.take(cells[:, 1]) + r.take(cells[:, 2]) >= 2]
        edges = rim[:, [1, 0, 2, 1, 0, 2]].reshape(-1, 2)  # each cell edge reversed: the cell on its right
        edges = edges[remainder[edges].all(axis=1)]  # an edge with ground open beside it
        front = edges[~_member(edges[:, 0] * n + edges[:, 1], edges[:, 1] * n + edges[:, 0])]
        cand = np.flatnonzero(remainder)
    else:
        cand = np.arange(pixels.shape[0]) if lattice else np.unique(pixels, axis=0, return_index=True)[1]
        front = _hull_edge(pixels, cand)
    triangles = np.concatenate([cells, _Front(pixels, cand, lattice).triangles(front)])
    if not triangles.size:
        raise DegenerateGeometryError("the pixels are collinear: no triangle has area")
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

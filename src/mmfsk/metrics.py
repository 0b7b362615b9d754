"""Reconstruction quality metrics: one-directional Chamfer distances and
the projective (per-pixel absolute depth) error, with optional mask erosion
against silhouette artifacts.

Both metrics compare a reconstruction against ground truth resampled to a
similar density: a surface point cloud for the Chamfer distances, a depth
map rasterized on the radar grid for the projective error.

Scoring runs on numpy alone. Nearest neighbours come from an exact search
over a grid of cells (``_Buckets``, ``_nearest_sq``) that rounds every
distance as ``scipy.spatial.cKDTree`` does, and erosion is array shifts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .correlate import CandidateGrid
from .depth_prior import front_most_per_pixel
from .errors import InsufficientDataError, StructuralError
from .reconstruct import RadarImage
from .simulate import make_scene, surface_depth

_PAIR_CHUNK = 1 << 16  # cell rows, or (query, point) pairs, per array pass: a few MB of temporaries
_EPS = np.finfo(np.float64).eps

# the four scores of an evaluation record, in meters
SCORES = ("c_gt_to_r", "c_r_to_gt", "p_masked", "p_eroded")


@dataclass(frozen=True)
class EvalReport:
    """One evaluation record: Chamfer distances in both directions, masked
    projective error with and without erosion, and the sample counts each
    value was computed over."""

    c_gt_to_r: float
    c_r_to_gt: float
    p_masked: float
    p_eroded: float
    n_points_recon: int = 0
    n_points_gt: int = 0
    n_pixels_masked: int = 0
    n_pixels_eroded: int = 0
    label: str = ""

    def __post_init__(self):
        for name in SCORES:
            v = getattr(self, name)
            if not np.isfinite(v) or v < 0.0:
                raise StructuralError(f"{name} must be finite and non-negative")


def _cloud(points, name: str) -> np.ndarray:
    """A point cloud as a finite (N, 3) float64 array."""
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if points.shape[0] < 1:
        raise InsufficientDataError("point clouds must be non-empty")
    if points.shape[1] != 3:
        raise StructuralError("point clouds must be (N, 3)")
    if not np.isfinite(points).all():
        raise StructuralError(f"{name} cloud has non-finite coordinates")
    return points


class _Buckets:
    """A cloud sorted into square cells of side ``h`` on the two axes it
    spreads widest along (x and y for a depth surface), about one point per
    cell over its footprint. A point lies in the cell that the floor of its
    unit coordinates ``(p - lo) / h``, as computed, names; searches bound
    distances in those computed units, less a slack for their rounding.
    """

    def __init__(self, points: np.ndarray):
        m = points.shape[0]
        lo = np.array([points[:, k].min() for k in range(3)])  # per column: faster than axis=0
        hi = np.array([points[:, k].max() for k in range(3)])
        # the two axes with the widest 1st-99th percentile range of a stride
        # of about 1,024 points, widest extent on ties: a few far-off
        # points, such as depth outliers, cannot choose them
        sample = points[:: max(1, m // 1024)]
        k = sample.shape[0] // 100
        ranked = np.partition(sample, [k, -1 - k], axis=0)
        self.axes = np.lexsort((lo - hi, ranked[k] - ranked[-1 - k]))
        self.lo = lo[self.axes[:2]]
        self.third = lo[self.axes[2]], hi[self.axes[2]]
        wa, wb = (hi - lo)[self.axes[:2]]
        # at least the wider extent / N, so a line or a point still has at
        # most N + 1 cells per axis and 3N + 1 in all
        self.h = max(np.sqrt(wa * wb / m), max(wa, wb) / m) or 1.0
        u, v = self.units(points)
        self.nx, self.ny = int(u.max()) + 1, int(v.max()) + 1
        self.v_max = v.max()
        key = v.astype(np.int64) * self.nx + u.astype(np.int64)
        # one contiguous row per axis: per-axis gathers run about twice as
        # fast as gathering (N, 3) rows
        self.coords = np.ascontiguousarray(points.take(np.argsort(key), axis=0).T)
        counts = np.bincount(key, minlength=self.nx * self.ny)
        self.start = np.concatenate([[0], np.cumsum(counts)])  # cell c holds points start[c]:start[c + 1]

    def units(self, points: np.ndarray):
        return ((points[:, self.axes[0]] - self.lo[0]) / self.h,
                (points[:, self.axes[1]] - self.lo[1]) / self.h)

    def third_gap_sq(self, points: np.ndarray) -> np.ndarray:
        """Squared distance from each point to the cloud's range on the
        third axis: a floor under its squared distance to any point."""
        z = points[:, self.axes[2]]
        gap = np.maximum(np.maximum(self.third[0] - z, z - self.third[1]), 0.0)
        return gap * gap

    def scan(self, src: np.ndarray, best: np.ndarray, q: np.ndarray, j0, j1, columns) -> None:
        """Lower ``best[q[i]]`` to the squared distance from source point
        ``q[i]`` to every point in cell rows ``j0[i]..j1[i]``, each row from
        column to column as ``columns(i, row)`` gives them. ``src`` holds
        the source points one row per axis. Queries go ``_PAIR_CHUNK`` cell
        rows at a time, and their (query, point) pairs ``_PAIR_CHUNK`` at a
        time."""
        rows = j1 - j0 + 1
        for a, b in _chunks(rows):
            i = np.repeat(np.arange(a, b), rows[a:b])
            row = j0[i] + np.arange(i.size) - np.repeat(np.cumsum(rows[a:b]) - rows[a:b], rows[a:b])
            c0, c1 = columns(i, row)
            lo, hi = self.start[row * self.nx + c0], self.start[row * self.nx + c1 + 1]
            keep = hi > lo
            self._pairs(src, best, q[i[keep]], lo[keep], hi[keep])

    def _pairs(self, src, best, q, lo, hi) -> None:
        """Lower ``best[q[k]]`` over the sorted points ``lo[k]:hi[k]``. Each
        query's ranges are consecutive and every range is non-empty."""
        length = hi - lo
        if length.size and length.max() > _PAIR_CHUNK:  # split ranges longer than a chunk
            pieces = -(-length // _PAIR_CHUNK)
            k = np.repeat(np.arange(q.size), pieces)
            lo = lo[k] + (np.arange(k.size) - np.repeat(np.cumsum(pieces) - pieces, pieces)) * _PAIR_CHUNK
            q, hi = q[k], np.minimum(hi[k], lo + _PAIR_CHUNK)
            length = hi - lo
        for a, b in _chunks(length):
            n, first = length[a:b], lo[a:b]
            start = np.cumsum(n) - n
            step = np.ones(start[-1] + n[-1], dtype=np.int64)  # point index = cumsum(step)
            step[start] = first - np.concatenate([[0], first[:-1] + n[:-1] - 1])
            index, d2 = np.cumsum(step), 0.0
            for axis in range(3):  # cKDTree's order: (dx*dx + dy*dy) + dz*dz
                d = np.repeat(src[axis].take(q[a:b]), n)
                d -= self.coords[axis].take(index)
                d *= d
                d2 = d2 + d
            new = np.flatnonzero(q[a:b] != np.concatenate([[-1], q[a:b - 1]]))  # each query's first range
            qs = q[a:b][new]
            best[qs] = np.minimum(best[qs], np.minimum.reduceat(d2, start[new]))


def _chunks(sizes: np.ndarray):
    """Consecutive index ranges whose sizes sum to at most ``_PAIR_CHUNK``,
    or to one size when that alone exceeds it."""
    end = np.cumsum(sizes)
    if not end.size or end[-1] <= _PAIR_CHUNK:
        return [(0, sizes.size)] if end.size else []
    group = (end - 1) // _PAIR_CHUNK
    starts = np.flatnonzero(np.diff(group, prepend=-1))
    return zip(starts, np.append(starts[1:], sizes.size))


def _nearest_sq(src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Squared distance from each source point to its nearest destination
    point, each summed as ``(dx*dx + dy*dy) + dz*dz``.

    The destination cloud is bucketed into cells (``_Buckets``). A query
    first searches the 3x3 cells around its own, clamped into the grid, and
    is done when its best distance is within its distance to that square's
    edge. A query with no point there doubles the square until it finds
    one. Every query left then searches each cell row's column range that
    lies within its best distance: a disk, not a square. A query off the
    cloud's range on the third axis is at least that far from every point,
    which narrows both the stopping test and the disk.
    """
    grid = _Buckets(dst)
    u, v = grid.units(src)
    cu = np.clip(np.floor(u), 0, grid.nx - 1).astype(np.int64)
    cv = np.clip(np.floor(v), 0, grid.ny - 1).astype(np.int64)
    # a generous bound, in cells, on the rounding error of unit coordinates
    # and of the distances compared with them
    slack = 32 * _EPS * (np.abs(u) + np.abs(v) + grid.nx + grid.ny + 1)
    gap2 = grid.third_gap_sq(src)
    src_axes = np.ascontiguousarray(src.T)
    best = np.full(src.shape[0], np.inf)

    todo, disk, k = np.arange(src.shape[0]), [], 1
    while todo.size:
        x0, x1, y0, y1 = cu[todo] - k, cu[todo] + k, cv[todo] - k, cv[todo] + k
        grid.scan(src_axes, best, todo, np.maximum(y0, 0), np.minimum(y1, grid.ny - 1),
                  lambda i, row: (np.maximum(x0[i], 0), np.minimum(x1[i], grid.nx - 1)))
        ut, vt = u[todo], v[todo]
        edge = np.minimum.reduce([  # sides on the grid's border have nothing beyond
            np.where(x0 > 0, ut - x0, np.inf), np.where(x1 < grid.nx - 1, x1 + 1 - ut, np.inf),
            np.where(y0 > 0, vt - y0, np.inf), np.where(y1 < grid.ny - 1, y1 + 1 - vt, np.inf),
        ])
        edge = np.maximum(edge - slack[todo], 0.0) * grid.h
        found = best[todo] < np.inf
        disk.append(todo[found & (best[todo] > (edge * edge + gap2[todo]) * (1 - 64 * _EPS))])
        todo, k = todo[~found], 2 * k

    q = np.concatenate(disk)
    if q.size:
        uq, vq = u[q], v[q]
        r = np.sqrt(np.maximum(best[q] * (1 + 64 * _EPS) - gap2[q], 0.0)) / grid.h + slack[q]
        j0 = np.clip(np.floor(vq - r), 0, grid.ny - 1).astype(np.int64)
        j1 = np.clip(np.floor(vq + r), 0, grid.ny - 1).astype(np.int64)

        def columns(i, row):
            gap = np.maximum(np.maximum(row - vq[i], vq[i] - np.minimum(row + 1, grid.v_max)), 0.0)
            w = np.sqrt(np.maximum(r[i] * r[i] - gap * gap, 0.0))
            # a disk that misses the grid's columns gets an empty range (first = last + 1)
            return (np.clip(np.floor(uq[i] - w), 0, grid.nx).astype(np.int64),
                    np.clip(np.floor(uq[i] + w), -1, grid.nx - 1).astype(np.int64))

        grid.scan(src_axes, best, q, j0, j1, columns)
    return best


def chamfer_one_way(src: np.ndarray, dst: np.ndarray) -> float:
    """Mean distance from every source point to its nearest destination
    point. Report it in both directions; the two values differ whenever one
    cloud covers regions the other misses.

    Nearest neighbours are exact (``_nearest_sq``) and each distance is
    rounded as ``cKDTree`` rounds it, so the value equals the mean of a
    ``cKDTree(dst).query(src)`` bit for bit. Non-finite coordinates in
    either cloud raise ``StructuralError`` naming the cloud."""
    src, dst = _cloud(src, "source"), _cloud(dst, "destination")
    return float(np.sqrt(_nearest_sq(src, dst)).mean())


def erode_mask(mask: np.ndarray, iterations: int) -> np.ndarray:
    """Shrink a 2-D validity mask by 4-neighborhood erosion, ``iterations``
    times; pixels outside the mask count as invalid."""
    out = np.array(mask, dtype=bool)
    if iterations > 0 and out.ndim != 2:
        raise StructuralError("masks must be 2-D")
    for _ in range(iterations):
        core = np.zeros_like(out)
        core[1:-1, 1:-1] = (out[1:-1, 1:-1] & out[:-2, 1:-1] & out[2:, 1:-1]
                            & out[1:-1, :-2] & out[1:-1, 2:])
        out = core
    return out


def projective_error(
    depth_r: np.ndarray,
    depth_gt: np.ndarray,
    valid: np.ndarray | None = None,
    erode: int = 0,
) -> float:
    """Mean absolute depth difference over the jointly valid pixels.

    The mask is the intersection of both maps' finite pixels (and ``valid``
    when given), optionally eroded; the mean is taken over the masked pixel
    count, so the value does not depend on how much dead frame surrounds
    the object.
    """
    depth_r = np.asarray(depth_r, dtype=np.float64)
    depth_gt = np.asarray(depth_gt, dtype=np.float64)
    if depth_r.shape != depth_gt.shape:
        raise StructuralError("depth maps must share their grid")
    mask = np.isfinite(depth_r) & np.isfinite(depth_gt)
    if valid is not None:
        mask &= np.asarray(valid, dtype=bool)
    mask = erode_mask(mask, erode)
    if not mask.any():
        raise InsufficientDataError("joint validity mask is empty")
    return float(np.abs(depth_r - depth_gt)[mask].mean())


def resample_gt_cloud(kind: str, params: dict, spacing: float) -> np.ndarray:
    """Ground-truth surface samples at the requested lateral spacing."""
    resampled = dict(params)
    if kind != "random-cloud":
        resampled["spacing"] = float(spacing)
    return make_scene(kind, resampled).positions.copy()


def resample_gt_depth(kind: str, params: dict, grid: CandidateGrid) -> np.ndarray:
    """Ground-truth depth rasterized on the radar pixel grid (NaN outside
    the surface footprint)."""
    if kind == "random-cloud":
        return _bin_cloud_depth(make_scene(kind, params).positions, grid)
    gx, gy = np.meshgrid(grid.x, grid.y)
    return surface_depth(kind, params, gx, gy)


def _pitch(grid: CandidateGrid) -> float:
    """Lateral pitch of a grid: its coarser axis, or 1 mm on a 1x1 grid."""
    return max(grid.spacing) or 0.001


def _bin_cloud_depth(points: np.ndarray, grid: CandidateGrid) -> np.ndarray:
    """Nearest-pixel binning for surfaceless clouds; the front-most point
    per pixel wins, the earliest point on exact ties. A one-pixel axis is
    binned with the grid's pitch."""
    dx, dy = grid.spacing
    pitch = _pitch(grid)
    u = np.round((points[:, 0] - grid.x[0]) / (dx or pitch)).astype(int)
    v = np.round((points[:, 1] - grid.y[0]) / (dy or pitch)).astype(int)
    ok = (u >= 0) & (u < grid.width) & (v >= 0) & (v < grid.height)
    pix, z = front_most_per_pixel(v[ok] * grid.width + u[ok], points[ok, 2])
    depth = np.full(grid.height * grid.width, np.nan)
    depth[pix] = z
    return depth.reshape(grid.height, grid.width)


def evaluate_image(
    image: RadarImage,
    kind: str,
    params: dict,
    erode: int = 1,
    label: str = "",
) -> EvalReport:
    """Score one reconstruction against its scene's ground truth.

    The image's own axes are the grid: the ground-truth cloud is resampled
    near its pixel pitch so both clouds have comparable density, and the
    projective error uses the analytic ground-truth depth on its pixels. A
    ``random-cloud`` scene has no surface: its ground-truth depth is binned
    points, isolated pixels that any erosion would remove, so ``erode`` is
    ignored there and the eroded values equal the masked ones.
    """
    recon_cloud, _ = image.points()
    if recon_cloud.shape[0] == 0:
        raise InsufficientDataError("reconstruction has no valid pixels")
    grid = CandidateGrid(image.x, image.y, image.depth)
    gt_cloud = resample_gt_cloud(kind, params, _pitch(grid))
    gt_depth = resample_gt_depth(kind, params, grid)
    joint = np.isfinite(gt_depth) & image.valid
    eroded = erode_mask(joint, 0 if kind == "random-cloud" else erode)
    return EvalReport(
        c_gt_to_r=chamfer_one_way(gt_cloud, recon_cloud),
        c_r_to_gt=chamfer_one_way(recon_cloud, gt_cloud),
        p_masked=projective_error(image.depth, gt_depth, joint),
        p_eroded=projective_error(image.depth, gt_depth, eroded),
        n_points_recon=recon_cloud.shape[0],
        n_points_gt=gt_cloud.shape[0],
        n_pixels_masked=int(joint.sum()),
        n_pixels_eroded=int(eroded.sum()),
        label=label,
    )


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks; tied values share the mean of their positions."""
    _, group, counts = np.unique(x, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)
    return ((2 * ends - counts + 1) / 2.0)[group]


def spearman_rho(a, b) -> float:
    """Spearman rank correlation of two equal-length samples: the Pearson
    correlation of their average ranks. NaN for fewer than two
    observations, a constant sample or a NaN value. The arithmetic is that
    of ``scipy.stats.spearmanr`` (``np.corrcoef`` of the stacked ranks,
    element ``[1, 0]``), so the value agrees with it bit for bit."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.size < 2 or np.isnan(a).any() or np.isnan(b).any():
        return float("nan")
    ranks = np.column_stack([_average_ranks(a), _average_ranks(b)])
    with np.errstate(invalid="ignore", divide="ignore"):
        return float(np.corrcoef(ranks, rowvar=False)[1, 0])


def report_table(reports) -> str:
    """Aligned plain-text table, one row per evaluation record, values in
    centimeters."""
    headers = ["config", "C(gt->r) cm", "C(r->gt) cm", "P cm", "P_eroded cm"]
    rows = [
        [
            r.label or "-",
            f"{r.c_gt_to_r * 100:.3f}",
            f"{r.c_r_to_gt * 100:.3f}",
            f"{r.p_masked * 100:.3f}",
            f"{r.p_eroded * 100:.3f}",
        ]
        for r in reports
    ]
    widths = [max(len(h), *(len(row[i]) for row in rows)) if rows else len(h) for i, h in enumerate(headers)]
    lines = [
        "  ".join(h.rjust(w) for h, w in zip(headers, widths)),
        "  ".join("-" * w for w in widths),
    ]
    lines += ["  ".join(c.rjust(w) for c, w in zip(row, widths)) for row in rows]
    return "\n".join(lines)

"""Reconstruction quality metrics: one-directional Chamfer distances and
the projective (per-pixel absolute depth) error, with optional mask erosion
against silhouette artifacts.

Both metrics compare a reconstruction against ground truth resampled to a
similar density: a surface point cloud for the Chamfer distances, a depth
map rasterized on the radar grid for the projective error.

Scoring runs on numpy alone. Nearest neighbours come from an exact search
over strips of the destination cloud that hold equal point counts
(``_Strips``, ``_nearest_sq``); ``np.minimum.at`` keeps each query's
nearest, rounded as ``scipy.spatial.cKDTree`` rounds it, and erosion is
array shifts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .correlate import CandidateGrid
from .depth_prior import _runs
from .errors import ConfigurationError, InsufficientDataError, StructuralError
from .reconstruct import RadarImage
from .simulate import _lateral_samples, make_scene, surface_depth

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


class _Strips:
    """A cloud in strips of ``w = isqrt(N)`` points along ``a``, the axis it
    spreads widest along, each sorted along ``b``, the second widest. A
    point's key ``strip * N + rank`` (its rank among the values on ``b``)
    lets one ``searchsorted`` find any strip's exact range on ``b``."""

    def __init__(self, points: np.ndarray):
        m = self.m = points.shape[0]
        self.lo = np.array([points[:, k].min() for k in range(3)])  # per column: faster than axis=0
        self.hi = np.array([points[:, k].max() for k in range(3)])
        # a and b have the widest 1st-99th percentile ranges of a stride of
        # about 1,024 points, widest extent on ties: a few far-off points,
        # such as depth outliers, cannot choose them
        sample = points[:: max(1, m // 1024)]
        k = sample.shape[0] // 100
        ranked = np.partition(sample, [k, -1 - k], axis=0)
        self.axes = a, b, _ = np.lexsort((self.lo - self.hi, ranked[k] - ranked[-1 - k]))
        w = self.w = math.isqrt(m)  # strip s holds the sorted points s*w up to (s + 1)*w
        by_a = np.argsort(points[:, a], kind="stable")
        self.b_sorted = np.sort(points[:, b])
        key = np.arange(m) // w * m + np.searchsorted(self.b_sorted, points[by_a, b])
        order = np.argsort(key, kind="stable")
        self.key = key[order]
        # one contiguous row per axis: per-axis gathers run about twice as
        # fast as gathering (N, 3) rows
        self.coords = np.ascontiguousarray(points.take(by_a[order], axis=0).T)
        # each strip's range on each axis, one row per axis
        self.box = [f.reduceat(self.coords, np.arange(0, m, w), axis=1) for f in (np.minimum, np.maximum)]

    def scan(self, src, best, s0, s1, floor) -> None:
        """Lower ``best[i]`` over the strips ``s0[i]`` up to ``s1[i]``,
        excluded, whose box its bound reaches; in each, over the points its
        bound reaches on ``b``, given ``floor[i]`` from ``c``. ``src`` holds
        the source points one row per axis."""
        q = np.flatnonzero(s1 > s0)
        x = src[self.axes[1]].take(q)
        r = _reach(x, best[q], floor[q])
        rank0, rank1 = np.searchsorted(self.b_sorted, x - r, "left"), np.searchsorted(self.b_sorted, x + r, "right")
        for i, s in _runs(s0[q], s1[q]):  # (query, strip) pairs
            near = sum(_gap_sq(src[ax].take(q[i]), self.box[0][ax].take(s), self.box[1][ax].take(s))
                       for ax in range(3)) * (1 - 64 * _EPS) <= best[q[i]]  # the strip's box is within reach
            i, s = i[near], s[near]
            lo, hi = np.searchsorted(self.key, s * self.m + rank0[i]), np.searchsorted(self.key, s * self.m + rank1[i])
            keep = hi > lo
            qs, lo, hi = q[i[keep]], lo[keep], hi[keep]
            del i, s  # free the (query, strip) pairs before the larger (query, point) ones
            for k, index in _runs(lo, hi):  # (query, point) pairs
                k = qs.take(k)  # each pair's query
                np.minimum.at(best, k, self.dist_sq(src, k, index))

    def dist_sq(self, src, q, index) -> np.ndarray:
        """Squared distance from source point ``q[k]`` to sorted point
        ``index[k]``, in cKDTree's order: (dx*dx + dy*dy) + dz*dz."""
        d2 = 0.0
        for axis in range(3):
            d = src[axis].take(q)
            d -= self.coords[axis].take(index)
            d *= d
            d2 = d2 + d
        return d2


def _gap_sq(x: np.ndarray, lo, hi) -> np.ndarray:
    """Squared distance from coordinates ``x`` to the ranges ``lo..hi``."""
    gap = np.maximum(np.maximum(lo - x, x - hi), 0.0)
    return gap * gap


def _reach(x: np.ndarray, best: np.ndarray, floor: np.ndarray) -> np.ndarray:
    """Half-width of the range around coordinates ``x`` on one axis that
    can hold a point nearer than ``best``, the squared distance to beat,
    when the other axes add at least ``floor``. It is widened generously
    for the rounding of the distances and of ``x`` plus or minus it."""
    r = np.sqrt(np.maximum(best * (1 + 64 * _EPS) - floor * (1 - 64 * _EPS), 0.0))
    return r + 64 * _EPS * (np.abs(x) + r)


def _nearest_sq(src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Squared distance from each source point to its nearest destination
    point, each summed as ``(dx*dx + dy*dy) + dz*dz``.

    The destination is cut into strips (``_Strips``). A query's home strip
    is the last one that starts at or before it on axis ``a``. Its first
    bound comes from the two points beside it on ``b`` in that strip. It
    scans its home strip and the two beside it, then every other strip the
    tighter bound reaches on ``a``, in one pass on each side. A scan skips
    a strip whose box the bound does not reach and covers the points it
    reaches on ``b``. The query's distance to the destination's range on
    ``b`` and ``c`` is a floor under the bound on ``a``, and on ``c`` under
    the bound on ``b``.
    """
    grid = _Strips(dst)
    a, b, c = grid.axes
    first, last = grid.box[0][a], grid.box[1][a]
    src = np.ascontiguousarray(src.T)
    gap_b, gap_c = _gap_sq(src[[b, c]], grid.lo[[b, c], None], grid.hi[[b, c], None])
    home = np.maximum(np.searchsorted(first, src[a], "right") - 1, 0)
    at = np.searchsorted(grid.key, home * grid.m + np.searchsorted(grid.b_sorted, src[b]))
    at = np.clip([at - 1, at], home * grid.w, np.minimum(home * grid.w + grid.w, grid.m) - 1)  # beside it, in its strip
    best = np.minimum(*(grid.dist_sq(src, np.arange(src.shape[1]), index) for index in at))
    grid.scan(src, best, np.maximum(home - 1, 0), np.minimum(home + 2, first.size), gap_c)
    r = _reach(src[a], best, gap_b + gap_c)
    grid.scan(src, best, np.searchsorted(last, src[a] - r, "left"), home - 1, gap_c)
    grid.scan(src, best, home + 2, np.searchsorted(first, src[a] + r, "right"), gap_c)
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
        if np.array_equal(core, out):  # a fixed point: every later step repeats this one
            break
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


def resample_pitch(params: dict, x: np.ndarray, y: np.ndarray, pitch_name: str) -> float:
    """The pitch at which ``evaluate_image`` resamples the ground truth of
    an image on axes ``x`` and ``y``: the coarser axis step, or 1 mm on a
    1x1 image. One at which the scene needs more than
    ``simulate._MAX_LATERAL_SAMPLES`` samples a side raises
    ``ConfigurationError`` naming ``pitch_name``, before any sample is made."""
    pitch = max(float(a[1] - a[0]) if a.size > 1 else 0.0 for a in (x, y)) or 0.001
    try:
        _lateral_samples(float(params.get("extent", 0.1)), pitch)
    except ConfigurationError as exc:
        raise ConfigurationError(f"{pitch_name} gives a pitch of {pitch!r} m, at which the ground truth "
                                 f"cannot be resampled: {exc}") from exc
    return pitch


def evaluate_image(image: RadarImage, kind: str, params: dict, erode: int = 1, *, label: str) -> EvalReport:
    """Score one reconstruction against its scene's ground truth.

    The image's own axes are the grid: the ground-truth cloud is resampled
    near its pixel pitch so both clouds have comparable density, and the
    projective error uses the analytic ground-truth depth on its pixels. A
    pitch the scene cannot be resampled at (more than 4096 samples a side,
    say) raises ``ConfigurationError``.
    """
    recon_cloud, _ = image.points()
    if recon_cloud.shape[0] == 0:
        raise InsufficientDataError("reconstruction has no valid pixels")
    grid = CandidateGrid(image.x, image.y, image.depth)
    pitch = resample_pitch(params, grid.x, grid.y, "the image pitch")
    gt_cloud = make_scene(kind, {**params, "spacing": pitch}).positions
    gt_depth = surface_depth(kind, params, *np.meshgrid(grid.x, grid.y))  # NaN outside the surface footprint
    joint = np.isfinite(gt_depth) & image.valid
    eroded = erode_mask(joint, erode)
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

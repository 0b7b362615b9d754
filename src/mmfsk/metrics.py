"""Reconstruction quality metrics: one-directional Chamfer distances and
the projective (per-pixel absolute depth) error, with optional mask erosion
against silhouette artifacts.

Both metrics compare a reconstruction against ground truth resampled to a
similar density: a surface point cloud for the Chamfer distances, a depth
map rasterized on the radar grid for the projective error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .correlate import CandidateGrid
from .depth_prior import front_most_per_pixel
from .errors import InsufficientDataError, StructuralError
from .reconstruct import RadarImage
from .simulate import make_scene, surface_depth

# 4-neighborhood erosion structure
_CROSS = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=bool)

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


def chamfer_one_way(src: np.ndarray, dst: np.ndarray) -> float:
    """Mean distance from every source point to its nearest destination
    point. Report it in both directions; the two values differ whenever one
    cloud covers regions the other misses. Nearest neighbours come from a
    KD-tree on the destination cloud."""
    src = np.atleast_2d(np.asarray(src, dtype=np.float64))
    dst = np.atleast_2d(np.asarray(dst, dtype=np.float64))
    if src.shape[0] < 1 or dst.shape[0] < 1:
        raise InsufficientDataError("point clouds must be non-empty")
    if src.shape[1] != 3 or dst.shape[1] != 3:
        raise StructuralError("point clouds must be (N, 3)")
    from scipy.spatial import cKDTree  # deferred import: see depth_prior.triangulate

    d, _ = cKDTree(dst).query(src, k=1)
    return float(d.mean())


def erode_mask(mask: np.ndarray, iterations: int) -> np.ndarray:
    """Shrink a validity mask by 4-neighborhood erosion."""
    mask = np.asarray(mask, dtype=bool)
    if iterations <= 0:
        return mask.copy()
    from scipy.ndimage import binary_erosion  # deferred import: see depth_prior.triangulate

    return binary_erosion(mask, structure=_CROSS, iterations=iterations, border_value=0)


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

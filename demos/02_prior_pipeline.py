#! /usr/bin/env python3
"""From an optical depth map to per-pixel radar priors.

The depth camera sees the scene from its own pose and leaves holes on
awkward material. The pipeline back-projects the valid pixels, triangulates
them in the image plane (filling the holes), moves the mesh into the radar
frame, and rasterizes it onto the radar's candidate grid.
"""

import numpy as np

from mmfsk import (
    CameraIntrinsics,
    CandidateGrid,
    Extrinsics,
    OpticalDepthMap,
    backproject_depth,
    build_prior,
    rasterize_prior,
    render_depth_map,
    surface_depth,
    transform_mesh,
    triangulate,
)

# =============================================================================
# A synthetic camera looks at a two-level step from slightly off to the side.

angle = np.deg2rad(2.0)
rotation = np.array(
    [[np.cos(angle), 0, np.sin(angle)], [0, 1, 0], [-np.sin(angle), 0, np.cos(angle)]]
)
intrinsics = CameraIntrinsics(f_u=216.0, f_v=216.0, c_u=35.5, c_v=35.5)
extrinsics = Extrinsics(rotation, np.array([0.01, 0.005, -0.01]))

scene_kind = "step"
scene_params = {"levels": [0.28, 0.32], "extent": 0.10, "spacing": 0.0015}
depth_map = render_depth_map(scene_kind, scene_params, intrinsics, extrinsics, 72, 72)
print(f"camera sees {depth_map.valid.sum()} valid pixels of {depth_map.valid.size}")

# Knock out 25% of the pixels, the way glossy or dark patches would.
rng = np.random.default_rng(4)
keep = rng.random(depth_map.depth.shape) >= 0.25
holey = OpticalDepthMap(np.where(depth_map.valid & keep, depth_map.depth, np.nan))
print(f"after dropout: {holey.valid.sum()} pixels remain")

# =============================================================================
# Walk the pipeline one stage at a time.

points = backproject_depth(holey, intrinsics)  # one point per valid pixel, row by row
print(f"back-projected cloud: {points.shape[0]} points")

mesh = triangulate(points, holey.valid)  # the mask says which pixel each point came from
print(f"triangulated: {mesh.triangles.shape[0]} triangles over the pixel hull")

mesh_radar = transform_mesh(mesh, extrinsics)
grid = CandidateGrid.regular(64, 64, 0.001)
prior = rasterize_prior(mesh_radar, grid)
print(f"rasterized prior covers {prior.valid.sum()} of {prior.valid.size} radar pixels")

# Hole filling: coverage barely differs from the dropout-free pipeline.
full = build_prior(depth_map, intrinsics, extrinsics, grid)
print(f"without dropout the prior covers {full.valid.sum()} pixels "
      f"(triangulation spans the convex hull either way)")
assert prior.valid.sum() >= 0.99 * full.valid.sum()

# =============================================================================
# Accuracy: compare against the analytic surface away from the depth jump,
# where interpolation across the discontinuity is not a factor.

gx, gy = np.meshgrid(grid.x, grid.y)
truth = surface_depth(scene_kind, scene_params, gx, gy)
off_split = np.abs(gx) > 0.003
mask = prior.valid & np.isfinite(truth) & off_split
err = np.abs(prior.prior_depth - truth)[mask]
print(f"\nprior error off the discontinuity: max {err.max() * 1000:.4f} mm")
assert err.max() < 1e-4

print("the mesh interpolates across the step edge (it cannot know better);")
print("the radar correction step is what pins those pixels down afterwards.")

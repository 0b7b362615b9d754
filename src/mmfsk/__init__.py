"""Few-frequency MIMO radar depth imaging with optical depth priors.

The package simulates frequency-stepped MIMO radar measurements of known
scenes, reconstructs depth maps with two- and three-frequency phase
correction or voxel backprojection, builds per-pixel depth priors from a
secondary depth camera, and scores reconstructions with Chamfer and
projective-error metrics. See the ``demos/`` scripts for guided tours and
the ``mmfsk`` CLI for the file-based pipeline.
"""

__version__ = "0.1.0"

from .correlate import (
    CandidateGrid,
    correlate_grid,
    mean_pair_phasors,
    precompute_distance_tables,
)
from .depth_prior import (
    CameraIntrinsics,
    Extrinsics,
    OpticalDepthMap,
    TriangleMesh,
    backproject_depth,
    build_prior,
    rasterize_prior,
    transform_mesh,
    triangulate,
)
from .metrics import (
    EvalReport,
    chamfer_one_way,
    evaluate_image,
    projective_error,
    resample_gt_cloud,
    resample_gt_depth,
)
from .reconstruct import (
    RadarImage,
    VoxelGridSpec,
    backproject,
    fsk2_reconstruct,
    fsk3_reconstruct,
    magnitude_filter,
)
from .signal_core import (
    FREQUENCY_PAIRS,
    SPEED_OF_LIGHT,
    AntennaArray,
    BasebandTensor,
    FrequencySet,
    Scene,
    differential_phasor,
    max_unambiguous_depth,
    mimo_cross_array,
    phase_to_depth_correction,
    principal_phase,
    residual_phase,
)
from .simulate import NoiseSpec, make_scene, render_depth_map, simulate_baseband, surface_depth

__all__ = [
    "AntennaArray",
    "BasebandTensor",
    "CameraIntrinsics",
    "CandidateGrid",
    "EvalReport",
    "Extrinsics",
    "FREQUENCY_PAIRS",
    "FrequencySet",
    "NoiseSpec",
    "OpticalDepthMap",
    "RadarImage",
    "SPEED_OF_LIGHT",
    "Scene",
    "TriangleMesh",
    "VoxelGridSpec",
    "backproject",
    "backproject_depth",
    "build_prior",
    "chamfer_one_way",
    "correlate_grid",
    "differential_phasor",
    "evaluate_image",
    "fsk2_reconstruct",
    "fsk3_reconstruct",
    "magnitude_filter",
    "make_scene",
    "max_unambiguous_depth",
    "mean_pair_phasors",
    "mimo_cross_array",
    "phase_to_depth_correction",
    "precompute_distance_tables",
    "principal_phase",
    "projective_error",
    "rasterize_prior",
    "render_depth_map",
    "resample_gt_cloud",
    "resample_gt_depth",
    "residual_phase",
    "simulate_baseband",
    "surface_depth",
    "transform_mesh",
    "triangulate",
]

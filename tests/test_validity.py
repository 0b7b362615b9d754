"""NaN is the one "no value" marker in memory, as in the PFM files and in
``prior_grid.json``: CandidateGrid, RadarImage and OpticalDepthMap derive
``valid`` from their depth array and take no mask of their own."""

import dataclasses

import numpy as np
import pytest

from mmfsk import CandidateGrid, OpticalDepthMap, RadarImage
from mmfsk.errors import StructuralError

DEPTH = np.array([[0.30, np.nan, 0.31], [np.nan, 0.29, 0.30]])
KINDS = ["CandidateGrid", "RadarImage", "OpticalDepthMap"]


def make(kind, depth, **extra):
    x, y = np.arange(3) * 0.001, np.arange(2) * 0.001
    if kind == "CandidateGrid":
        return CandidateGrid(x, y, depth, **extra)
    if kind == "RadarImage":
        return RadarImage(x, y, depth, np.ones((2, 3)), np.ones((2, 3)), **extra)
    return OpticalDepthMap(depth, **extra)


def depth_of(obj):
    return obj.prior_depth if isinstance(obj, CandidateGrid) else obj.depth


@pytest.mark.parametrize("kind", KINDS)
def test_valid_is_finite_depth(kind):
    obj = make(kind, DEPTH)
    assert np.array_equal(obj.valid, np.isfinite(depth_of(obj)))
    assert np.array_equal(obj.valid, np.isfinite(DEPTH))
    assert not obj.valid.flags.writeable
    with pytest.raises(dataclasses.FrozenInstanceError):
        obj.valid = np.ones((2, 3), dtype=bool)


@pytest.mark.parametrize("kind", KINDS)
def test_valid_is_not_a_constructor_argument(kind):
    with pytest.raises(TypeError):
        make(kind, DEPTH, valid=np.isfinite(DEPTH))


def test_with_prior_takes_only_the_priors():
    grid = CandidateGrid.regular(3, 2, 0.001)
    with pytest.raises(TypeError):
        grid.with_prior(DEPTH, np.isfinite(DEPTH))
    assert np.array_equal(grid.with_prior(DEPTH).valid, np.isfinite(DEPTH))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 0.0, -0.3])
def test_scalar_prior_must_be_finite_and_positive(value):
    with pytest.raises(StructuralError):
        CandidateGrid.regular(3, 2, 0.001).with_scalar_prior(value)


def test_image_magnitudes_are_nan_where_depth_is():
    image = make("RadarImage", DEPTH)
    for plane in (image.magnitude, image.joint_magnitude):
        assert np.array_equal(np.isfinite(plane), np.isfinite(DEPTH))
    assert image.n_valid == 4


@pytest.mark.parametrize("value", [np.inf, -np.inf, 0.0, -0.2])
def test_depth_map_rejects_infinite_or_non_positive_depth(value):
    depth = DEPTH.copy()
    depth[1, 0] = value
    with pytest.raises(StructuralError):
        OpticalDepthMap(depth)

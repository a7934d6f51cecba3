"""Unit tests for the uniform grids: validation, geometry, refinement."""

import numpy as np
import pytest

from eprlab.grids import UniformGrid1D, UniformGrid2D
from eprlab.hydrogen import grid_commutator_check


@pytest.mark.parametrize("grid_type", [UniformGrid1D, UniformGrid2D])
@pytest.mark.parametrize("length", [0.0, -1.0, float("nan"), float("inf")])
def test_grids_reject_a_length_that_is_not_finite_and_positive(grid_type, length):
    with pytest.raises(ValueError, match="grid length must be finite and positive"):
        grid_type(length, 8)


@pytest.mark.parametrize("grid_type", [UniformGrid1D, UniformGrid2D])
def test_grids_reject_a_single_point(grid_type):
    with pytest.raises(ValueError, match="at least 2 points"):
        grid_type(1.0, 1)


def test_square_grid_is_its_axis_along_each_coordinate():
    axis, square = UniformGrid1D(10.0, 64), UniformGrid2D(10.0, 64)
    assert square.spacing == axis.spacing
    assert np.array_equal(square.coordinates, axis.coordinates)
    assert np.array_equal(square.momenta, axis.momenta)
    refined = square.refined()
    assert type(refined) is UniformGrid2D
    assert refined == UniformGrid2D(10.0, 128)
    assert type(axis.refined()) is UniformGrid1D


def test_a_square_grid_serves_where_its_axis_does():
    assert grid_commutator_check(UniformGrid2D(16.0, 513)) == grid_commutator_check(
        UniformGrid1D(16.0, 513)
    )

import numpy as np
import pytest

from distfield import Cusp, Disk, Ellipse, HalfSpace, Polygon, Spiral


@pytest.fixture
def unit_disk():
    return Disk((0.0, 0.0), 1.0)


@pytest.fixture
def unit_square():
    return Polygon([(-1, -1), (1, -1), (1, 1), (-1, 1)])


@pytest.fixture
def ellipse21():
    return Ellipse((2.0, 1.0))


@pytest.fixture
def halfspace_x():
    return HalfSpace((1.0, 0.0), 0.0)


@pytest.fixture
def cusp_half():
    return Cusp(0.5)


@pytest.fixture
def spiral_pow():
    return Spiral(beta=1.0)


def boxes_for(shape):
    """Sampling boxes with both interior and exterior points."""
    if isinstance(shape, Disk):
        return np.array([-2.0, -2.0]), np.array([2.0, 2.0])
    if isinstance(shape, Ellipse):
        return np.array([-3.0, -2.0]), np.array([3.0, 2.0])
    if isinstance(shape, Polygon):
        return np.array([-2.0, -2.0]), np.array([2.0, 2.0])
    if isinstance(shape, HalfSpace):
        return np.array([-2.0, -2.0]), np.array([2.0, 2.0])
    if isinstance(shape, Cusp):
        return np.array([-0.5, -1.5]), np.array([2.5, 1.5])
    if isinstance(shape, Spiral):
        return np.array([-1.2, -1.2]), np.array([1.2, 1.2])
    raise ValueError("no box")

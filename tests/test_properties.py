"""Properties of the signed distance on random valid shapes and queries.

d is 1-Lipschitz; off the medial axis and the boundary its gradient is the
unit vector (x - p) / d; its sign is the membership of ``contains_many``; and
a query within tol/2 of a disk's centre has a continuum of nearest points.
Spiral queries stay outside the truncation zone.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from distfield import (
    Cusp,
    Disk,
    Ellipse,
    HalfSpace,
    Polygon,
    Spiral,
    gradient,
    nearest_points_many,
    signed_distance_many,
)

_coord = st.floats(-2.0, 2.0)
_direction = st.tuples(*(st.floats(-1.0, 1.0),) * 3).filter(lambda v: np.linalg.norm(v) > 0.1)


def _convex_polygon(k, phase, radius, center):
    """k vertices on a circle, CCW at equal angles from phase."""
    ang = phase + 2.0 * math.pi * np.arange(k) / k
    return Polygon(np.asarray(center) + radius * np.stack([np.cos(ang), np.sin(ang)], axis=1))


_disks = st.one_of(
    st.builds(Disk, st.tuples(_coord, _coord), st.floats(0.1, 3.0)),
    st.builds(Disk, st.tuples(_coord, _coord, _coord), st.floats(0.1, 3.0)),
)
_shapes = st.one_of(
    _disks,
    st.builds(Ellipse, st.tuples(st.floats(0.2, 3.0), st.floats(0.2, 3.0)),
              st.tuples(_coord, _coord)),
    st.builds(lambda a, o: HalfSpace((math.cos(a), math.sin(a)), o),
              st.floats(0.0, 2.0 * math.pi), _coord),
    st.builds(lambda v, o: HalfSpace(np.asarray(v) / np.linalg.norm(v), o), _direction, _coord),
    st.builds(_convex_polygon, st.integers(3, 8), st.floats(0.0, 2.0 * math.pi),
              st.floats(0.2, 2.0), st.tuples(_coord, _coord)),
    st.builds(Cusp, st.floats(0.1, 0.9)),
    st.builds(lambda b, w: Spiral(beta=b, theta_max=20.0 * math.pi, wall=w),
              st.floats(0.3, 2.0), st.sampled_from(["power", "exp"])),
)


def _queries(shape, seed, n=48):
    lo, hi = shape.bbox()
    pts = np.random.default_rng(seed).uniform(lo, hi, size=(n, shape.dim))
    return pts[shape._answerable(pts)]


@settings(deadline=None, max_examples=40)
@given(_shapes, st.integers(0, 2**16), st.floats(-7.0, 0.0))
def test_signed_distance_is_1_lipschitz(shape, seed, log_step):
    x = _queries(shape, seed)
    u = np.random.default_rng(seed + 1).normal(size=x.shape)
    y = x + 10.0**log_step * u / np.linalg.norm(u, axis=1)[:, None]
    ok = shape._answerable(y)
    x, y = x[ok], y[ok]
    gap = np.abs(signed_distance_many(shape, x) - signed_distance_many(shape, y))
    assert np.all(gap <= np.linalg.norm(x - y, axis=1) * (1.0 + 1e-12) + 1e-12)


@settings(deadline=None, max_examples=30)
@given(_shapes, st.integers(0, 2**16))
def test_gradient_is_the_unit_vector_to_the_nearest_point(shape, seed):
    x = _queries(shape, seed, n=12)
    sd = signed_distance_many(shape, x)
    for xi, s, res in zip(x, sd, nearest_points_many(shape, x)):
        if res.multiplicity != 1 or abs(s) <= 1e-6:
            continue
        g = gradient(shape, xi)
        assert abs(np.linalg.norm(g) - 1.0) <= 1e-9
        assert np.max(np.abs(g - (xi - res.points[0]) / s)) <= 1e-9


@settings(deadline=None, max_examples=40)
@given(_shapes, st.integers(0, 2**16))
def test_the_sign_is_membership(shape, seed):
    x = _queries(shape, seed)
    sd = signed_distance_many(shape, x)
    off = sd != 0.0
    assert np.array_equal((sd > 0.0)[off], shape.contains_many(x)[off])


@settings(deadline=None, max_examples=20)
@given(_disks, st.sampled_from([1e-8, 1e-3]), st.integers(0, 2**16))
def test_queries_near_a_disk_centre_have_a_continuum(disk, tol, seed):
    rng = np.random.default_rng(seed)
    u = rng.normal(size=(4, disk.dim))
    r = 0.5 * tol * rng.uniform(0.0, 1.0, 4)
    r[:2] = 0.0, 0.5 * tol
    x = disk.center + r[:, None] * u / np.linalg.norm(u, axis=1)[:, None]
    x = x[np.linalg.norm(x - disk.center, axis=1) <= 0.5 * tol]
    for xi, res in zip(x, nearest_points_many(disk, x, tol)):
        assert res.is_continuum
        assert gradient(disk, xi, tol) is None

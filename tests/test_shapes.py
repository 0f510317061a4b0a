import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from distfield import (
    Cusp,
    Disk,
    DimensionMismatch,
    Ellipse,
    HalfSpace,
    InvalidSpec,
    NotC1,
    Polygon,
    Spiral,
    TruncationExceeded,
    make_shape,
    shape_spec,
    signed_distance,
    signed_distance_many,
)


def test_make_shape_disk():
    s = make_shape({"type": "disk", "center": [0, 0], "radius": 1.0})
    assert isinstance(s, Disk)
    assert s.radius == 1.0


def test_make_shape_rejects_self_crossing_polygon():
    with pytest.raises(InvalidSpec):
        Polygon([(0, 0), (1, 0), (0.5, 0.1), (0.5, -0.1)])


def test_make_shape_rejects_bad_parameters():
    with pytest.raises(InvalidSpec):
        Disk((0, 0), -1.0)
    with pytest.raises(InvalidSpec):
        Ellipse((2.0, 0.0))
    with pytest.raises(InvalidSpec):
        Cusp(1.5)
    with pytest.raises(InvalidSpec):
        Cusp(0.0)
    with pytest.raises(InvalidSpec):
        Spiral(beta=-1.0)
    with pytest.raises(InvalidSpec):
        HalfSpace((2.0, 0.0), 0.0)
    with pytest.raises(InvalidSpec):
        make_shape({"type": "wedge"})


def test_polygon_must_wind_ccw():
    with pytest.raises(InvalidSpec):
        Polygon([(-1, -1), (-1, 1), (1, 1), (1, -1)])


def test_spiral_wall_values():
    s = Spiral(beta=1.0, theta_min=0.0, theta_max=40 * math.pi)
    assert s.f(0.0) == 1.0
    assert np.isclose(1.0 / s.f(40 * math.pi), 126.66, atol=0.01)


def test_contains_examples(unit_disk, cusp_half):
    assert unit_disk.contains((0.5, 0.0))
    assert not unit_disk.contains((2.0, 0.0))
    assert cusp_half.contains((1.0, 0.0))
    assert not cusp_half.contains((0.0, 0.5))


def test_spiral_contains_winding_bracketing(spiral_pow):
    # 0.7 exceeds f(2*pi) ~ 0.137, so winding k=1 fails; k=0 brackets it:
    # f(pi) ~ 0.2416 < 0.7 < f(0) = 1.
    assert spiral_pow.contains((0.7, 0.0))
    assert spiral_pow.f(math.pi) < 0.7 < spiral_pow.f(0.0)
    assert not (spiral_pow.f(3 * math.pi) < 0.7 < spiral_pow.f(2 * math.pi))
    # 0.18 sits in the gap between windings.
    assert not spiral_pow.contains((0.18, 0.0))


def test_contains_dimension_mismatch(unit_disk):
    with pytest.raises(DimensionMismatch):
        unit_disk.contains((0.5, 0.0, 0.0))


def test_boundary_sample_disk(unit_disk):
    pts = unit_disk.boundary_sample(0.1)
    assert len(pts) >= 63
    assert np.max(np.abs(np.linalg.norm(pts, axis=1) - 1.0)) <= 1e-12
    gaps = np.linalg.norm(np.diff(np.vstack([pts, pts[:1]]), axis=0), axis=1)
    assert np.max(gaps) <= 0.1


def test_boundary_sample_square_includes_vertices(unit_square):
    pts = unit_square.boundary_sample(0.5)
    for v in unit_square.vertices:
        assert np.min(np.linalg.norm(pts - v, axis=1)) <= 1e-14


def test_boundary_sample_cusp_on_graph(cusp_half):
    pts = cusp_half.boundary_sample(0.01)
    resid = np.abs(pts[:, 0] - np.abs(pts[:, 1]) ** 1.5)
    assert np.max(resid) <= 1e-12


def test_boundary_samples_have_zero_distance(unit_disk, ellipse21, unit_square, cusp_half):
    for shape in (unit_disk, ellipse21, unit_square, cusp_half):
        pts = shape.boundary_sample(0.05)[::7]
        for p in pts:
            assert abs(signed_distance(shape, p)) <= 1e-10


def test_spiral_boundary_samples(spiral_pow):
    pts, normals = spiral_pow.boundary_sample_with_normals(0.01)
    assert np.max(np.abs(np.linalg.norm(normals, axis=1) - 1.0)) <= 1e-12
    for p in pts[:: len(pts) // 40]:
        assert abs(signed_distance(spiral_pow, p)) <= 1e-10


def test_inner_normal_examples(unit_disk, cusp_half, unit_square):
    assert np.allclose(unit_disk.inner_normal((1.0, 0.0)), (-1.0, 0.0), atol=1e-12)
    assert np.allclose(cusp_half.inner_normal((0.0, 0.0)), (1.0, 0.0), atol=1e-12)
    with pytest.raises(NotC1):
        unit_square.inner_normal((1.0, 1.0))


def test_inner_normal_unit_norm(unit_disk, ellipse21, cusp_half, unit_square):
    for shape in (unit_disk, ellipse21, cusp_half, unit_square):
        pts, _ = shape.boundary_sample_with_normals(0.3)
        for p in pts[::5]:
            try:
                n = shape.inner_normal(p)
            except NotC1:
                continue
            assert abs(np.linalg.norm(n) - 1.0) <= 1e-12


def test_inner_normal_points_inward(unit_disk, ellipse21, cusp_half):
    for shape in (unit_disk, ellipse21, cusp_half):
        pts, normals = shape.boundary_sample_with_normals(0.2)
        probes = pts[::9] + 1e-6 * normals[::9]
        assert shape.contains_many(probes).all()


def test_spiral_truncation_rejects_apex_queries(spiral_pow):
    with pytest.raises(TruncationExceeded):
        signed_distance(spiral_pow, (spiral_pow.reject_radius * 0.5, 0.0))


def test_spiral_needs_more_than_one_turn():
    with pytest.raises(InvalidSpec):
        Spiral(beta=1.0, theta_min=0.0, theta_max=math.pi)


def test_shape_spec_round_trip(unit_disk, ellipse21, unit_square, cusp_half, spiral_pow,
                               halfspace_x):
    for shape in (unit_disk, ellipse21, unit_square, cusp_half, spiral_pow, halfspace_x,
                  Cusp(0.5, extent=1.0), HalfSpace((0.0, 1.0), 0.5, extent=3.0)):
        again = make_shape(shape_spec(shape))
        assert type(again) is type(shape)
        assert shape_spec(again) == shape_spec(shape)
        assert getattr(again, "extent", None) == getattr(shape, "extent", None)


_finite = st.floats(-2.0, 2.0)
_shapes = st.one_of(
    st.builds(Disk, st.tuples(_finite, _finite), st.floats(0.1, 3.0)),
    st.builds(Ellipse, st.tuples(st.floats(0.1, 3.0), st.floats(0.1, 3.0)),
              st.tuples(_finite, _finite)),
    st.builds(lambda a, o, e: HalfSpace((math.cos(a), math.sin(a)), o, extent=e),
              st.floats(0.0, 2.0 * math.pi), _finite, st.floats(0.5, 20.0)),
    st.builds(Cusp, st.floats(0.05, 0.95), st.floats(0.5, 8.0)),
    st.builds(lambda b, w: Spiral(beta=b, theta_max=20.0 * math.pi, wall=w),
              st.floats(0.2, 2.0), st.sampled_from(["power", "exp"])),
)


@settings(deadline=None, max_examples=60)
@given(_shapes)
def test_shape_spec_json_round_trip_property(shape):
    spec = shape_spec(shape)
    again = make_shape(json.loads(json.dumps(spec)))
    assert type(again) is type(shape)
    assert shape_spec(again) == spec


@settings(deadline=None, max_examples=40)
@given(_shapes, st.sampled_from([math.nan, math.inf, -math.inf]), st.integers(0, 5))
@example(Disk((0.0, 0.0), 1.0), math.nan, 0)
@example(Ellipse((2.0, 1.0)), math.inf, 0)
def test_batched_queries_reject_non_finite_points(shape, bad, row):
    pts = np.full((6, 2), 0.7)
    pts[row, row % 2] = bad
    for query in (lambda p: signed_distance_many(shape, p), shape.project_many,
                  shape.contains_many):
        with pytest.raises(InvalidSpec):
            query(pts)


def test_ellipse_projection_memory_is_bounded(ellipse21):
    pts = np.random.default_rng(31).uniform(-3.0, 3.0, size=(8000, 2))
    tracemalloc.start()
    try:
        ellipse21.project_many(pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 64 * 2**20


def test_ball_3d_distance():
    ball = Disk((0.0, 0.0, 0.0), 1.0)
    assert np.isclose(signed_distance(ball, (0.5, 0.0, 0.0)), 0.5)
    assert np.isclose(signed_distance(ball, (0.0, 2.0, 0.0)), -1.0)
    n = ball.inner_normal((0.0, 0.0, 1.0))
    assert np.allclose(n, (0.0, 0.0, -1.0), atol=1e-12)


@pytest.mark.parametrize("center", [(0.3, -0.2), (1.0, 2.0, -0.5)])
def test_disk_project_many_at_center_returns_rim_point(center):
    disk = Disk(center, 0.7)
    pts = np.array([center, np.add(center, 0.1)])
    d, proj = disk.project_many(pts)
    assert d[0] == 0.7
    assert np.isclose(np.linalg.norm(proj[0] - disk.center), 0.7, rtol=0, atol=1e-15)
    assert np.isclose(np.linalg.norm(proj[1] - disk.center), 0.7, rtol=0, atol=1e-15)


@pytest.mark.parametrize("shape", [
    Disk((0.3, -0.2), 0.7), Disk((0.0, 0.0, 1.0), 2.0), Ellipse((2.0, 1.0), (0.5, 0.0)),
    HalfSpace((0.0, 1.0), 0.3), Polygon([(0, 0), (2, 0), (2, 1), (0, 1)]), Cusp(0.5),
    Spiral(beta=1.0),
], ids=lambda s: type(s).__name__)
def test_bbox_holds_interior_and_exterior_nodes(shape):
    lo, hi = shape.bbox()
    assert lo.shape == hi.shape == (shape.dim,) and np.all(lo < hi)
    axes = [np.linspace(a, b, 17) for a, b in zip(lo, hi)]
    nodes = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=1)
    inside = shape.contains_many(nodes)
    assert np.any(inside) and not np.all(inside)

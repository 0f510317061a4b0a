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
    GridSpec,
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
    assert GridSpec.from_bbox(lo, hi, 64).dims == (65,) * shape.dim
    axes = [np.linspace(a, b, 17) for a, b in zip(lo, hi)]
    nodes = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=1)
    inside = shape.contains_many(nodes)
    assert np.any(inside) and not np.all(inside)


def test_bbox_cube_holds_the_padded_box():
    ellipse = Ellipse((2.0, 1.0), (0.5, -0.25))
    lo, hi = ellipse.bbox()
    assert np.all(lo <= ellipse.center - 2 * ellipse.semi_axes)
    assert np.all(hi >= ellipse.center + 2 * ellipse.semi_axes)
    rect = Polygon([(0, 0), (2, 0), (2, 1), (0, 1)])
    lo, hi = rect.bbox()
    assert np.allclose(lo, (-1.0, -1.5)) and np.allclose(hi, (3.0, 2.5))


# -- boundary geometry of the parametric shapes ---------------------------------
#
# References: the closed-form inner normals that each shape carried before its
# normals were derived from the curve description.

def _ellipse_reference(ellipse, p):
    g = (p - ellipse.center) / ellipse.semi_axes**2
    return -g / np.linalg.norm(g)


def _cusp_reference(cusp, p):
    ex = 1.0 + cusp.alpha
    slope = ex * abs(p[1]) ** cusp.alpha * math.copysign(1.0, p[1]) if p[1] != 0 else 0.0
    n = np.array([1.0, -slope])
    return n / np.linalg.norm(n)


def _spiral_reference(spiral, theta, inner):
    shift = math.pi if inner else 0.0
    fv, fp = spiral.f(theta + shift), spiral.f_prime(theta + shift)
    e_r = np.array([math.cos(theta), math.sin(theta)])
    e_t = np.array([-math.sin(theta), math.cos(theta)])
    g = e_r - (fp / fv) * e_t
    g = g / np.linalg.norm(g)
    return g if inner else -g


def _boundary_point(shape, piece, t):
    """(point, tangent c'(t)) of the test shapes' boundary parametrisations."""
    c, s = math.cos(t), math.sin(t)
    if isinstance(shape, Disk):
        r = shape.radius
        return shape.center + r * np.array([c, s]), r * np.array([-s, c])
    if isinstance(shape, Ellipse):
        a, b = shape.semi_axes
        return shape.center + np.array([a * c, b * s]), np.array([-a * s, b * c])
    if isinstance(shape, Cusp):
        sign, ex = 1.0 - 2.0 * piece, 1.0 + shape.alpha
        return np.array([t**ex, sign * t]), np.array([ex * t**shape.alpha, sign])
    th = t + math.pi * piece
    f, fp = float(shape.f(th)), float(shape.f_prime(th))
    return f * np.array([c, s]), fp * np.array([c, s]) + f * np.array([-s, c])


def test_sampler_normals_match_the_closed_forms(cusp_half):
    ellipse = Ellipse((2.0, 0.5), (0.3, -0.1))
    pts, normals = ellipse.boundary_sample_with_normals(0.05)
    ref = np.array([_ellipse_reference(ellipse, p) for p in pts])
    assert np.max(np.abs(normals - ref)) <= 1e-12
    pts, normals = cusp_half.boundary_sample_with_normals(0.05)
    ref = np.array([_cusp_reference(cusp_half, p) for p in pts])
    assert np.max(np.abs(normals - ref)) <= 1e-12
    spiral = Spiral(beta=1.0, theta_max=12.0 * math.pi)
    pts, normals = spiral.boundary_sample_with_normals(0.01)
    checked = 0
    for p, n in zip(pts, normals):
        theta = float(spiral.f_inv(np.linalg.norm(p)))
        for inner, t in ((False, theta), (True, theta - math.pi)):
            on_wall = spiral.theta_min < t < spiral.theta_end and np.allclose(
                _boundary_point(spiral, int(inner), t)[0], p, rtol=0, atol=1e-12)
            if on_wall:
                assert np.max(np.abs(n - _spiral_reference(spiral, t, inner))) <= 1e-12
                checked += 1
                break
        else:  # a cap point: on the ray at theta_min or theta_end
            assert min(abs(p[0] * math.sin(a) - p[1] * math.cos(a))
                       for a in (spiral.theta_min, spiral.theta_end)) <= 1e-12
    assert checked >= 0.8 * len(pts)


def test_inner_normal_matches_the_closed_forms(ellipse21, cusp_half, spiral_pow):
    for t in np.linspace(0.0, 2.0 * math.pi, 23):
        p, _ = _boundary_point(ellipse21, 0, t)
        assert np.max(np.abs(ellipse21.inner_normal(p) - _ellipse_reference(ellipse21, p))) <= 1e-12
    for piece in (0, 1):
        for t in np.linspace(0.0, 3.0, 13):
            p, _ = _boundary_point(cusp_half, piece, t)
            assert np.max(np.abs(cusp_half.inner_normal(p) - _cusp_reference(cusp_half, p))) <= 1e-12
        for t in np.linspace(0.5, 30.0, 13):
            p, _ = _boundary_point(spiral_pow, piece, t)
            ref = _spiral_reference(spiral_pow, t, bool(piece))
            assert np.max(np.abs(spiral_pow.inner_normal(p) - ref)) <= 1e-12


def test_spiral_cap_normals():
    spiral = Spiral(beta=1.0, theta_max=12.0 * math.pi)
    for which, ang in ((0, spiral.theta_min), (1, spiral.theta_end)):
        r = 0.5 * (spiral.f(ang) + spiral.f(ang + math.pi))
        n = spiral.inner_normal(r * np.array([math.cos(ang), math.sin(ang)]))
        e_t = np.array([-math.sin(ang), math.cos(ang)])
        assert np.allclose(n, e_t if which == 0 else -e_t, rtol=0, atol=1e-15)


_curved = st.one_of(
    st.tuples(st.builds(Disk, st.tuples(_finite, _finite), st.floats(0.1, 3.0)),
              st.just(0), st.floats(0.0, 2.0 * math.pi)),
    st.tuples(st.builds(Ellipse, st.tuples(st.floats(0.2, 3.0), st.floats(0.2, 3.0)),
                        st.tuples(_finite, _finite)),
              st.just(0), st.floats(0.0, 2.0 * math.pi)),
    st.tuples(st.builds(Cusp, st.floats(0.1, 0.9)), st.integers(0, 1), st.floats(0.0, 2.0)),
    st.tuples(st.builds(lambda b, w: Spiral(beta=b, theta_max=20.0 * math.pi, wall=w),
                        st.floats(0.2, 1.0), st.sampled_from(["power", "exp"])),
              st.integers(0, 1), st.floats(1.0, 4.0 * math.pi)),
)


@settings(deadline=None, max_examples=40)
@given(_curved, st.floats(1e-3, 0.05), st.integers(4, 16))
@example((Disk((0.0, 0.0), 1.0), 0, 0.0), 0.05, 8)
@example((Cusp(0.5), 0, 0.0), 0.05, 8)
def test_boundary_geometry_of_curved_shapes(case, rel_r, n):
    shape, piece, t = case
    p, tangent = _boundary_point(shape, piece, t)
    normal = shape.inner_normal(p)
    assert abs(np.linalg.norm(normal) - 1.0) <= 1e-12
    assert abs(normal @ tangent) <= 1e-8 * np.linalg.norm(tangent)
    scale = np.linalg.norm(p) if isinstance(shape, Spiral) else 1.0
    assert shape.contains(p + 1e-4 * scale * normal)
    r = rel_r * scale
    pts, normals = shape.boundary_window(p, r, n)
    assert len(pts) >= n
    assert np.max(np.linalg.norm(pts - p, axis=1)) <= r
    d, _ = shape.project_many(pts)
    assert np.max(d) <= 1e-12 * max(1.0, scale)
    for q, m in zip(pts, normals):
        assert np.max(np.abs(shape.inner_normal(q) - m)) <= 1e-9


def test_boundary_window_stops_at_the_end_of_an_open_piece():
    spiral = Spiral(beta=1.0, theta_max=6.0 * math.pi)
    for piece in (0, 1):
        p, _ = _boundary_point(spiral, piece, spiral.theta_end - 0.01)
        pts, _ = spiral.boundary_window(p, 0.05, 16)
        d, _ = spiral.project_many(pts)
        assert np.max(d) <= 1e-15
        assert np.min(np.linalg.norm(pts - _boundary_point(spiral, piece, spiral.theta_end)[0],
                                     axis=1)) <= 1e-15

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distfield import (
    CONTINUUM,
    Cusp,
    Disk,
    Ellipse,
    HalfSpace,
    Polygon,
    Shape,
    Spiral,
    brute_force_distance_many,
    c1_margin,
    chi_estimate,
    cusp_medial_check,
    gradient,
    gradient_many,
    is_medial,
    make_shape,
    nearest_points,
    nearest_points_many,
    shapes,
    signed_distance,
    signed_distance_many,
)
from distfield._csv import csv_row
from distfield._minimize import (
    CHUNK,
    PLATEAU_MINIMA,
    _brackets,
    _neighbours,
    _unit_scan,
    _vertex,
    _window_bounds,
    refine,
)
from distfield.cli import main
from distfield.errors import DistanceFieldError, MedialInBall, PreconditionViolated
from distfield.fmm import GridSpec
from distfield.projection import ProjectionResult, gradient_from_result
from distfield.shapes import CLUSTER_CAP, as_point

from conftest import boxes_for


def sample_points(shape, n, seed):
    lo, hi = boxes_for(shape)
    rng = np.random.default_rng(seed)
    return rng.uniform(lo, hi, size=(n, shape.dim))


def test_signed_distance_disk(unit_disk):
    assert np.isclose(signed_distance(unit_disk, (0.5, 0.0)), 0.5, atol=1e-12)
    assert np.isclose(signed_distance(unit_disk, (2.0, 0.0)), -1.0, atol=1e-12)


def test_signed_distance_cusp_against_brute_force(cusp_half):
    d = signed_distance(cusp_half, (1.0, 0.0))
    assert 0.0 < d < 1.0
    bf = brute_force_distance_many(cusp_half, np.array([[1.0, 0.0]]), 1e-4)[0]
    assert abs(abs(d) - bf) <= 1e-4


def test_nearest_points_disk(unit_disk):
    res = nearest_points(unit_disk, (0.5, 0.0), 1e-8)
    assert res.multiplicity == 1
    assert np.allclose(res.points[0], (1.0, 0.0), atol=1e-7)
    assert np.isclose(res.distance, 0.5, atol=1e-12)


def test_nearest_points_square_center(unit_square):
    res = nearest_points(unit_square, (0.0, 0.0), 1e-8)
    assert res.multiplicity == 4
    assert np.isclose(res.distance, 1.0)
    expect = {(-1.0, 0.0), (0.0, -1.0), (0.0, 1.0), (1.0, 0.0)}
    got = {tuple(np.round(p, 9)) for p in res.points}
    assert got == expect


def test_nearest_points_disk_center_continuum(unit_disk):
    res = nearest_points(unit_disk, (0.0, 0.0), 1e-8)
    assert res.multiplicity == CONTINUUM
    assert res.is_continuum
    assert np.isclose(res.distance, 1.0, atol=1e-12)


def test_nearest_points_ordering_is_lexicographic(unit_square):
    res = nearest_points(unit_square, (0.0, 0.0), 1e-8)
    keys = [tuple(p) for p in res.points]
    assert keys == sorted(keys)


def test_gradient_examples(unit_disk, unit_square):
    g = gradient(unit_disk, (0.5, 0.0))
    assert np.allclose(g, (-1.0, 0.0), atol=1e-9)
    g = gradient(unit_disk, (2.0, 0.0))
    assert np.allclose(g, (-1.0, 0.0), atol=1e-9)
    assert gradient(unit_square, (0.0, 0.0)) is None


def test_gradient_on_boundary_is_inner_normal(unit_disk, cusp_half):
    assert np.allclose(gradient(unit_disk, (1.0, 0.0)), (-1.0, 0.0), atol=1e-9)
    assert np.allclose(gradient(cusp_half, (0.0, 0.0)), (1.0, 0.0), atol=1e-9)


def test_gradient_absent_at_square_corner(unit_square):
    assert gradient(unit_square, (1.0, 1.0)) is None


def test_is_medial_examples(unit_disk, cusp_half):
    assert is_medial(cusp_half, (0.5, 0.0), 1e-6)
    assert not is_medial(cusp_half, (0.5, 0.2), 1e-6)
    assert not is_medial(unit_disk, (0.3, 0.4), 1e-6)


def test_lipschitz_property(unit_disk, ellipse21, unit_square, cusp_half):
    for shape in (unit_disk, ellipse21, unit_square, cusp_half):
        pts = sample_points(shape, 200, seed=7)
        d = signed_distance_many(shape, pts)
        x, y = pts[0::2], pts[1::2]
        dx, dy = d[0::2], d[1::2]
        gap = np.linalg.norm(x - y, axis=1)
        assert np.all(np.abs(dx - dy) <= gap + 1e-9)


def test_sign_consistency(unit_disk, ellipse21, unit_square, cusp_half):
    for shape in (unit_disk, ellipse21, unit_square, cusp_half):
        pts = sample_points(shape, 300, seed=11)
        d = signed_distance_many(shape, pts)
        inside = shape.contains_many(pts)
        off = np.abs(d) > 1e-12
        assert np.array_equal(d[off] > 0, inside[off])


def test_eikonal_and_finite_difference(unit_disk, ellipse21, unit_square, cusp_half):
    h = 1e-5
    for shape in (unit_disk, ellipse21, unit_square, cusp_half):
        pts = sample_points(shape, 60, seed=3)
        for p in pts:
            res = nearest_points(shape, p, tol=3 * h)
            if res.multiplicity != 1 or res.distance <= 1e-2:
                continue
            g = gradient(shape, p, 1e-8)
            assert g is not None
            assert abs(np.linalg.norm(g) - 1.0) <= 1e-9
            fd = np.empty(2)
            for k in range(2):
                e = np.zeros(2)
                e[k] = h
                fd[k] = (
                    signed_distance(shape, p + e) - signed_distance(shape, p - e)
                ) / (2 * h)
            assert np.max(np.abs(fd - g)) <= 10 * h


def test_oracle_equivalence(unit_disk, ellipse21, unit_square, cusp_half):
    spacing = 1e-3
    for shape in (unit_disk, ellipse21, unit_square, cusp_half):
        pts = sample_points(shape, 100, seed=5)
        d = np.abs(signed_distance_many(shape, pts))
        bf = brute_force_distance_many(shape, pts, spacing)
        assert np.max(np.abs(d - bf)) <= spacing


def test_projection_idempotence(unit_disk, ellipse21, unit_square, cusp_half):
    for shape in (unit_disk, ellipse21, unit_square, cusp_half):
        pts = sample_points(shape, 40, seed=13)
        for p in pts:
            res = nearest_points(shape, p, 1e-8)
            for q in res.points[:4]:
                assert abs(signed_distance(shape, q)) <= 1e-9


def test_default_tol_applies(unit_disk):
    res = nearest_points(unit_disk, (0.25, 0.25))
    assert res.tol_used == 1e-8


def test_tol_must_be_positive(unit_disk):
    with pytest.raises(ValueError):
        nearest_points(unit_disk, (0.5, 0.0), tol=0.0)


def test_scalar_and_batched_distances_agree(unit_disk, ellipse21, cusp_half, spiral_pow,
                                            unit_square, halfspace_x):
    for shape in (unit_disk, ellipse21, cusp_half, spiral_pow, unit_square, halfspace_x):
        pts = sample_points(shape, 300, seed=23)
        if shape is spiral_pow:
            # keep clear of the truncation zone around the apex
            pts = pts[np.linalg.norm(pts, axis=1) >= 0.01]
        batched = np.abs(signed_distance_many(shape, pts))
        scalar = np.array([nearest_points(shape, p).distance for p in pts])
        assert np.max(np.abs(batched - scalar)) <= 1e-15


def test_batched_nearest_points_are_refined(ellipse21, cusp_half):
    for shape in (ellipse21, cusp_half):
        pts = sample_points(shape, 300, seed=29)
        unique = [nearest_points(shape, p) for p in pts]
        pts = pts[[r.distance > 1e-3 and r.multiplicity == 1 for r in unique]]
        assert len(pts) >= 250
        scalar = np.array([gradient(shape, p) for p in pts])
        assert np.max(np.abs(gradient_many(shape, pts) - scalar)) <= 1e-12
        # normal condition: x - p(x) is parallel to the inner normal at p(x)
        d, proj = shape.project_many(pts)
        u = (pts - proj) / d[:, None]
        normals = np.array([shape.inner_normal(q) for q in proj])
        assert np.max(np.abs(u[:, 0] * normals[:, 1] - u[:, 1] * normals[:, 0])) <= 1e-12


# ---------------------------------------------------------------------------
# The batched engine against the one-query-at-a-time engine it replaced
# ---------------------------------------------------------------------------
# The reference below is the previous scalar path verbatim (candidates of one
# query, the closed-form overrides, clustering), minus the step that added
# scan samples tied with the optimum as extra representatives.


def _ref_local_minima_indices(values, closed):
    if closed:
        ends = values[..., -1:], values[..., :1]
    else:
        ends = (np.full(values.shape[:-1] + (1,), np.inf),) * 2
    v = np.concatenate([ends[0], values, ends[1]], axis=-1)
    mid = v[..., 1:-1]
    return np.nonzero((mid <= v[..., :-2]) & (mid <= v[..., 2:]))


def _ref_engine_candidates(shape, x):
    pieces, lo, hi, keep = _window_bounds(shape, x[None, :])
    pieces, lo, hi = pieces[keep[0]], lo[keep], hi[keep]
    closed = shape._closed
    u, gaps = _unit_scan(closed, shape._scan)
    ts, step = lo[:, None] + (hi - lo)[:, None] * u, (hi - lo) / gaps
    sx, sy = shape._curve(pieces[:, None], ts, derivs=False)
    ds = np.hypot(sx - x[0], sy - x[1])
    w, i = _ref_local_minima_indices(ds, closed)
    im, ip = _neighbours(i, shape._scan, closed)
    t, sw = ts[w, i], step[w]
    a, b = _brackets(t, sw, lo[w], hi[w], closed)
    seed = _vertex(t, sw, ds[w, im], ds[w, i], ds[w, ip])
    piece = pieces[w]
    t, px, py, d = refine(shape._curve, piece, x[0], x[1], seed, a, b)
    flat = np.bincount(w)[w] > PLATEAU_MINIMA
    if flat.any():
        t, px, py, d = (np.where(flat, scan[w, i], ref)
                        for scan, ref in ((ts, t), (sx, px), (sy, py), (ds, d)))
    return d, np.stack([px, py], axis=1)


def _ref_candidates(shape, x, tol):
    """(dists, points, continuum) of one query, as the scalar overrides gave them."""
    if isinstance(shape, Disk):
        v = x - shape.center
        s = float(np.linalg.norm(v))
        if s <= 0.5 * tol:
            reps, _ = shape.boundary_sample_with_normals(shape.radius * 0.1)
            return np.linalg.norm(reps - x, axis=1), reps, True
        proj = shape.center + shape.radius * v / s
        return np.array([abs(shape.radius - s)]), proj[None, :], False
    if isinstance(shape, HalfSpace):
        t = float((x[None, :] @ shape.unit_normal - shape.offset)[0])
        return np.array([abs(t)]), (x - t * shape.unit_normal)[None, :], False
    if isinstance(shape, Polygon):
        d, feet, _ = shape._edge_feet(x[None, :])
        return d[0], feet[0], False
    if isinstance(shape, Spiral):
        if not x.any():
            return np.array([0.0]), np.zeros((1, 2)), False
        d, pts = _ref_engine_candidates(shape, x)
        cap_d, cap_p = [], []
        for which in (0, 1):
            if which == 0:
                ang, r0, r1 = shape.theta_min, float(shape.f(shape.theta_min + math.pi)), float(
                    shape.f(shape.theta_min))
            else:
                ang, r0, r1 = shape.theta_end, float(shape.f(shape.theta_max)), float(
                    shape.f(shape.theta_end))
            e = np.array([math.cos(ang), math.sin(ang)])
            p0, p1 = e * r0, e * r1
            e = p1 - p0
            t = np.clip((x[None, :] - p0) @ e / float(e @ e), 0.0, 1.0)
            foot = p0 + t[:, None] * e
            cap_p.append(foot[0])
            cap_d.append(np.linalg.norm(x[None, :] - foot, axis=1)[0])
        return np.concatenate([d, cap_d]), np.concatenate([pts, cap_p]), False
    d, pts = _ref_engine_candidates(shape, x)
    return d, pts, False


def _ref_cluster(points, dists, tol):
    order = np.argsort(dists, kind="stable")
    reps = []
    for i in order:
        p = points[i]
        if any(np.linalg.norm(p - r) <= tol for r in reps):
            continue
        reps.append(p)
        if len(reps) > CLUSTER_CAP:
            break
    return reps


def _ref_nearest_points(shape, x, tol=1e-8):
    x = as_point(x, shape.dim)
    dists, points, continuum = _ref_candidates(shape, x, tol)
    d_min = float(np.min(dists))
    keep = dists <= d_min + tol
    reps = _ref_cluster(points[keep], dists[keep], tol)
    if continuum or len(reps) > CLUSTER_CAP:
        count = CONTINUUM
        reps = reps[: CLUSTER_CAP + 1]
    else:
        count = len(reps)
    reps_arr = np.stack(reps)
    order = np.lexsort(reps_arr.T[::-1])
    return ProjectionResult(reps_arr[order], d_min, count, tol)


def _same(a, b):
    return (a.distance == b.distance and a.multiplicity == b.multiplicity
            and a.tol_used == b.tol_used and np.array_equal(a.points, b.points))


def _assert_batch_matches_reference(shape, pts, tol):
    batch = nearest_points_many(shape, pts, tol)
    assert len(batch) == len(pts)
    for p, res in zip(pts, batch):
        assert _same(res, _ref_nearest_points(shape, p, tol)), p
        assert _same(res, nearest_points(shape, p, tol)), p


def _random_shape(kind, a, b, c):
    if kind == "disk":
        return Disk((a - 0.5, b - 0.5), 0.5 + c)
    if kind == "ellipse":
        return Ellipse((0.5 + 2.0 * a, 0.5 + b), (c - 0.5, 0.0))
    if kind == "cusp":
        return Cusp(0.1 + 0.8 * a)
    return Spiral(beta=0.5 + a, theta_max=(8.0 + 20.0 * b) * math.pi)


@settings(max_examples=12, deadline=None)
@given(kind=st.sampled_from(["disk", "ellipse", "cusp", "spiral"]),
       params=st.tuples(*(st.floats(0.0, 1.0),) * 3),
       n=st.integers(1, 300), seed=st.integers(0, 2**16),
       tol=st.sampled_from([1e-8, 1e-6, 1e-3]))
def test_batched_nearest_points_match_the_scalar_engine(kind, params, n, seed, tol):
    shape = _random_shape(kind, *params)
    rng = np.random.default_rng(seed)
    lo, hi = shape.bbox()
    pts = rng.uniform(lo, hi, size=(n, 2))
    if n > 2:
        if kind in ("disk", "ellipse"):
            pts[0] = shape.center            # a flat stretch (disk), medial (ellipse)
            pts[1, 1] = shape.center[1]      # on the major axis
        elif kind == "cusp":
            pts[:2, 1] = 0.0                 # on the medial ray
        else:
            pts[0] = 0.0                     # the spiral apex
    if kind == "spiral":
        pts = pts[shape._answerable(pts)]
    _assert_batch_matches_reference(shape, pts, tol)


def test_batched_nearest_points_cross_blocks():
    # Rows on both sides of a block boundary, with plateau and medial rows.
    shape = Ellipse((2.0, 1.0))
    rng = np.random.default_rng(41)
    pts = rng.uniform(-3.0, 3.0, size=(2 * CHUNK + 5, 2))
    pts[CHUNK - 1] = (0.0, 0.0)
    pts[CHUNK] = (0.5, 0.0)
    pts[2 * CHUNK] = (1.0, 0.0)
    _assert_batch_matches_reference(shape, pts, 1e-8)
    disk = Disk((0.0, 0.0), 1.0)
    pts[CHUNK + 1] = (0.0, 0.0)
    _assert_batch_matches_reference(disk, pts, 1e-8)


def test_batched_spiral_rows_around_the_cap_corners():
    # Near a corner the engine's window end and the cap's foot compete.
    spiral = Spiral(beta=1.0, theta_max=12.0 * math.pi)
    ang = 2.0 * math.pi * np.arange(24) / 24
    ring = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    corners = spiral.nonsmooth_boundary_points()
    pts = np.concatenate([c + r * ring for c in corners for r in (1e-3, 0.02)])
    pts = np.concatenate([pts, corners])
    _assert_batch_matches_reference(spiral, pts[spiral._answerable(pts)], 1e-8)


def test_batched_closed_forms_match_the_scalar_overrides():
    rng = np.random.default_rng(43)
    ball = Disk((0.1, -0.2, 0.3), 1.3)
    pts = rng.uniform(-2.0, 2.0, size=(150, 3))
    pts[3] = ball.center
    pts[7] = ball.center + 1e-10
    _assert_batch_matches_reference(ball, pts, 1e-8)
    res = nearest_points_many(ball, pts[[3, 7]], 1e-8)
    assert all(r.is_continuum for r in res)
    for normal, offset in (((1.0, 0.0), 0.0), ((0.6, 0.8), 0.1), ((0.48, 0.6, 0.64), -0.3)):
        half = HalfSpace(normal, offset)
        _assert_batch_matches_reference(half, rng.uniform(-2.0, 2.0, (150, half.dim)), 1e-8)
    poly = Polygon([(0, 0), (2, 0), (2, 1), (1, 2), (0, 1)])
    pts = rng.uniform(-1.0, 3.0, size=(200, 2))
    pts[:4] = [(1.0, 0.5), (0.5, 0.5), (1.0, 1.0), (2.0, 1.0)]
    _assert_batch_matches_reference(poly, pts, 1e-8)
    _assert_batch_matches_reference(poly, pts, 1e-3)


class _HalfCircle(Shape):
    """The upper unit half circle as one open piece, plus an empty window whose
    lower end, angle 4.5, is not on the boundary."""

    _range = (0.0, math.pi)

    def _curve(self, piece, t, derivs=True):
        c, s = np.cos(t), np.sin(t)
        return (c, s, -s, c, -c, -s) if derivs else (c, s)

    def _windows(self, pts):
        return np.array([0, 0]), np.array([0.0, 4.5]), np.array([math.pi, 4.0])


def test_empty_windows_hold_no_candidates():
    x = 0.9 * np.array([math.cos(4.5), math.sin(4.5)])
    res = nearest_points_many(_HalfCircle(), [x, x])
    for r in res:
        assert r.multiplicity == 1
        assert np.allclose(r.points[0], (-1.0, 0.0), atol=1e-9)
        assert r.distance == pytest.approx(np.linalg.norm(x - (-1.0, 0.0)), abs=1e-12)


def test_nearest_points_many_validates_like_the_scalar_query(unit_disk):
    assert nearest_points_many(unit_disk, np.empty((0, 2))) == []
    with pytest.raises(ValueError):
        nearest_points_many(unit_disk, [(0.5, 0.0)], tol=0.0)
    spiral = Spiral(beta=1.0)
    with pytest.raises(DistanceFieldError):
        nearest_points_many(spiral, [(0.5, 0.0), (1e-4, 0.0)])


def test_shallow_valley_near_the_disk_centre_is_unique(unit_disk):
    # Farther than tol/2 from the centre, the nearest point is unique.
    res = nearest_points(unit_disk, (1e-6, 0.0))
    assert res.multiplicity == 1
    assert np.allclose(res.points[0], (1.0, 0.0), atol=1e-12)
    assert np.allclose(gradient(unit_disk, (1e-6, 0.0)), (-1.0, 0.0), atol=1e-12)
    assert nearest_points(unit_disk, (0.0, 0.0)).is_continuum


@pytest.mark.parametrize("disk", [Disk((0.2, -0.1), 1.3), Disk((0.1, -0.2, 0.3), 1.3)],
                         ids=["disk", "ball"])
def test_the_disk_never_reaches_the_scan_engine(disk, monkeypatch):
    # The disk answers in closed form in every dimension.
    def engine(*args):
        raise AssertionError("the scan engine was called")

    monkeypatch.setattr(shapes, "candidates", engine)
    monkeypatch.setattr(shapes, "project", engine)
    rng = np.random.default_rng(9)
    pts = disk.center + rng.uniform(-2.0, 2.0, size=(300, disk.dim))
    pts[0] = disk.center
    assert nearest_points_many(disk, pts)[0].is_continuum
    x, p = pts[1], disk.center + disk.radius * np.eye(disk.dim)[0]
    assert nearest_points(disk, x).multiplicity == 1
    assert gradient(disk, x) is not None and gradient(disk, p) is not None
    disk.inner_normal(p)
    assert len(disk.boundary_window(p, 0.1, 16)[0]) > 1
    assert abs(chi_estimate(disk, p, [0.1, 1e-3]).estimates["chi"] - 1.0 / 1.3) <= 1e-9
    c1_margin(disk, p, 0.1, 200, seed=1)


# -- the diagnostics that now make one batched call -----------------------------

def _ref_c1_pairs(shape, p, r, n_pairs, tol, seed):
    """The per-attempt sampling loop of c1_margin, one scalar query per point."""
    p = as_point(p, shape.dim)
    rng = np.random.default_rng(seed)
    m = shape.dim
    need = 2 * n_pairs
    xs, ds, gs = [], [], []
    attempts = 0
    while len(xs) < need and attempts < 200 * need:
        attempts += 1
        u = rng.normal(size=m)
        u /= np.linalg.norm(u)
        x = p + r * rng.uniform() ** (1.0 / m) * u
        d = signed_distance(shape, x)
        if abs(d) <= 1e-12:
            continue
        res = _ref_nearest_points(shape, x, tol)
        if res.multiplicity >= 2:
            raise MedialInBall(f"sampled point {x.tolist()} has multiple projections")
        g = gradient_from_result(shape, x, res)
        xs.append(x)
        ds.append(d)
        gs.append(g)
    if len(xs) < need:
        raise PreconditionViolated("could not sample enough valid pair points")
    ratio_sup = 0.0
    for i in range(0, need, 2):
        x, y = xs[i], xs[i + 1]
        dx, dy = ds[i], ds[i + 1]
        g = gs[i]
        if g is None:
            continue
        denom = float(np.dot(x - y, x - y)) - (dx - dy) ** 2
        if denom <= 1e-14:
            continue
        ratio_sup = max(ratio_sup, abs(dx - dy - float(np.dot(g, x - y))) / denom)
    return ratio_sup


@pytest.mark.parametrize("shape,p,r,n_pairs", [
    (Disk((0.0, 0.0), 1.0), (1.0, 0.0), 0.1, 2000),
    (Disk((0.0, 0.0), 1.0), (1.0, 0.0), 0.01, 2000),
    (HalfSpace((1.0, 0.0), 0.0), (0.0, 0.0), 0.1, 1000),
    (HalfSpace((0.6, 0.8), 0.1), (0.06, 0.08), 0.1, 300),
    (Ellipse((2.0, 1.0)), (2.0, 0.0), 0.05, 300),
], ids=["disk-0.1", "disk-0.01", "halfspace", "halfspace-oblique", "ellipse"])
def test_c1_margin_matches_the_per_point_loop(shape, p, r, n_pairs):
    rep = c1_margin(shape, p, r, n_pairs, seed=5)
    assert rep.estimates["c1_ratio"] == _ref_c1_pairs(shape, p, r, n_pairs, 1e-8, 5)


def test_c1_margin_raises_for_the_first_medial_point(unit_square):
    with pytest.raises(MedialInBall) as batched:
        c1_margin(unit_square, (1.0, 0.0), r=1.2, n_pairs=400, tol=0.2, seed=0)
    with pytest.raises(MedialInBall) as scalar:
        _ref_c1_pairs(unit_square, (1.0, 0.0), 1.2, 400, 0.2, 0)
    assert str(batched.value) == str(scalar.value)


@pytest.mark.parametrize("alpha,n", [(0.5, 50), (0.5, 100), (0.3, 40)])
def test_cusp_medial_check_matches_the_per_point_loop(alpha, n):
    tol, x1_max = 1e-6, 1.0
    shape = Cusp(alpha)
    x1s = np.linspace(x1_max / n, x1_max, n)
    on_hits = sum(_ref_nearest_points(shape, (x1, 0.0), tol).multiplicity >= 2 for x1 in x1s)
    off_hits = 0
    for i, x1 in enumerate(x1s):
        y = max(10.0 * tol, 0.25 * x1) * (1.0 if i % 2 == 0 else -1.0)
        if not shape.contains(np.array([x1, y])):
            y = math.copysign(10.0 * tol, y)
        off_hits += _ref_nearest_points(shape, (x1, y), tol).multiplicity < 2
    rep = cusp_medial_check(alpha, n, x1_max, tol)
    assert rep == {
        "alpha": alpha, "tol": tol, "on_axis_total": n, "on_axis_medial": on_hits,
        "off_axis_total": n, "off_axis_nonmedial": off_hits,
        "misclassified": (n - on_hits) + (n - off_hits),
        "passed": on_hits == n and off_hits == n,
    }


MEDIAL_SCENES = {
    "disk": ({"type": "disk", "center": [0.0, 0.0], "radius": 1.0}, [-1.5, -1.5], [1.5, 1.5], 30),
    "ellipse": ({"type": "ellipse", "semi_axes": [2.0, 1.0]}, [-3.0, -3.0], [3.0, 3.0], 26),
    "cusp": ({"type": "cusp", "alpha": 0.5}, [-0.5, -1.5], [2.5, 1.5], 24),
    "square": ({"type": "polygon", "vertices": [[-1, -1], [1, -1], [1, 1], [-1, 1]]},
               [-2.0, -2.0], [2.0, 2.0], 16),
    # One node, (1e-4, 1e-4), lies inside the spiral's truncation zone.
    "spiral": ({"type": "spiral", "beta": 1.0}, [-1.1999, -1.1999], [1.2001, 1.2001], 24),
}


@pytest.mark.parametrize("key", sorted(MEDIAL_SCENES))
def test_cli_medial_matches_the_per_node_loop(key, tmp_path):
    spec, lo, hi, n = MEDIAL_SCENES[key]
    path = tmp_path / "scene.json"
    path.write_text(json.dumps({"shape": spec, "grid": {"bbox": [lo, hi], "n": n}}))
    for tol in (None, "1e-6"):
        out = tmp_path / "medial.csv"
        argv = ["medial", "--scene", str(path), "--out", str(out)]
        assert main(argv + ([] if tol is None else ["--tol", tol])) == 0
        shape = make_shape(spec)
        rows = ["x1,x2"]
        skipped = 0
        for p in GridSpec.from_bbox(lo, hi, n).nodes():
            try:
                if _ref_nearest_points(shape, p, 1e-8 if tol is None else 1e-6).multiplicity >= 2:
                    rows.append(csv_row(p))
            except DistanceFieldError:
                skipped += 1
        assert out.read_text() == "\n".join(rows) + "\n"
        assert skipped == (1 if key == "spiral" else 0)

"""The two-level scan of ``_minimize.project`` against the full scan it replaces.

``_ref_scan`` and ``_ref_project`` are the full-scan engine kept verbatim:
every window is scanned at all ``shape._scan`` samples.  The culled scan must
give the same bits on every row.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distfield import Cusp, Ellipse, Spiral, solve_fmm
from distfield import _minimize, shapes
from distfield._minimize import (
    CHUNK,
    _brackets,
    _neighbours,
    _unit_scan,
    _vertex,
    _window_bounds,
    refine,
)
from distfield.fmm import GridSpec


def _ref_scan(shape, pieces, lo, hi, pts):
    """Scan parameters, points and distances (n, windows, samples) of the queries pts."""
    u, _ = _unit_scan(shape._closed, shape._scan)
    ts = lo[..., None] + (hi - lo)[..., None] * u
    x, y = shape._curve(pieces[:, None], ts, derivs=False)
    return ts, x, y, np.hypot(x - pts[:, 0, None, None], y - pts[:, 1, None, None])


def _ref_project(shape, pts: np.ndarray):
    """Global nearest point on the curved pieces: (distances (n,), points (n, 2))."""
    n = len(pts)
    pieces, lo, hi, valid = _window_bounds(shape, pts)
    hi = np.where(valid, hi, lo)
    w = len(pieces)
    qx, qy = pts[:, 0, None], pts[:, 1, None]
    seeds, dm, d0, dp = (np.empty((n, w)) for _ in range(4))
    for s in range(0, n, CHUNK):
        blk = slice(s, s + CHUNK)
        ts, _, _, d = _ref_scan(shape, pieces, lo[blk], hi[blk], pts[blk])
        i = np.argmin(d, axis=2)[..., None]
        im, ip = _neighbours(i, shape._scan, shape._closed)
        seeds[blk] = np.take_along_axis(ts, i, axis=2)[..., 0]
        dm[blk], d0[blk], dp[blk] = (np.take_along_axis(d, k, axis=2)[..., 0] for k in (im, i, ip))
    step = (hi - lo) / _unit_scan(shape._closed, shape._scan)[1]
    a, b = _brackets(seeds, step, lo, hi, shape._closed)
    seeds = _vertex(seeds, step, dm, d0, dp)
    _, x, y, d = refine(shape._curve, pieces, qx, qy, seeds, a, b)
    j = np.argmin(np.where(valid, d, np.inf), axis=1)
    rows = np.arange(n)
    return d[rows, j], np.stack([x[rows, j], y[rows, j]], axis=1)


def _assert_same_as_full_scan(shape, pts):
    d, p = _minimize.project(shape, pts)
    d_ref, p_ref = _ref_project(shape, pts)
    assert np.array_equal(d, d_ref)
    assert np.array_equal(p, p_ref)
    # Every window the culled scan keeps has the full scan's argmin.
    pieces, lo, hi, valid = _window_bounds(shape, pts)
    hi = np.where(valid, hi, lo)
    for s in range(0, len(pts), CHUNK):
        blk = slice(s, s + CHUNK)
        r, w, i, _ = _minimize._culled_scan(shape, pieces, lo[blk], hi[blk], (hi - lo)[blk],
                                            valid[blk], pts[blk])
        full = _ref_scan(shape, pieces, lo[blk], hi[blk], pts[blk])[3]
        assert np.array_equal(i, np.argmin(full, axis=2)[r, w])


def _rows(seed, n, lo, hi, special):
    """n rows: uniform in the box [lo, hi], with the special rows at random places."""
    rng = np.random.default_rng(seed)
    pts = rng.uniform(lo, hi, (n, 2))
    special = np.asarray(special, dtype=float).reshape(-1, 2)
    at = rng.choice(n, size=min(n, len(special)), replace=False)
    pts[at] = special[rng.permutation(len(special))[: len(at)]]
    return pts


_SEED = st.integers(0, 2**32 - 1)
_ROWS = st.integers(1, 300)


@settings(deadline=None, max_examples=25)
@given(st.floats(0.2, 3.0), st.floats(0.2, 3.0), st.floats(-1.0, 1.0), st.floats(-1.0, 1.0),
       _SEED, _ROWS)
def test_ellipse_projection_matches_the_full_scan(a, b, cx, cy, seed, n):
    shape = Ellipse((a, b), (cx, cy))
    c = math.sqrt(abs(a * a - b * b))
    foci = [(c, 0.0), (-c, 0.0)] if a >= b else [(0.0, c), (0.0, -c)]
    # The centre, the foci, the ends of the medial segment and a rim point.
    special = np.array([(0.0, 0.0), *foci, (a - b * b / a, 0.0), (0.0, b - a * a / b), (a, 0.0)])
    r = 1.5 * max(a, b)
    _assert_same_as_full_scan(shape, _rows(seed, n, (cx - r, cy - r), (cx + r, cy + r),
                                           special + (cx, cy)))


@settings(deadline=None, max_examples=25)
@given(st.floats(0.01, 0.99), _SEED, _ROWS)
def test_cusp_projection_matches_the_full_scan(alpha, seed, n):
    shape = Cusp(alpha)
    # The apex, rows next to it and rows on the medial ray.
    special = [(0.0, 0.0), (1e-7, 0.0), (-1e-6, 1e-6), (1e-4, -2e-4), (0.3, 0.0), (1.7, 0.0),
               (-0.2, 0.0)]
    _assert_same_as_full_scan(shape, _rows(seed, n, (-0.5, -1.5), (2.5, 1.5), special))


@settings(deadline=None, max_examples=25)
@given(st.sampled_from(["power", "exp"]), st.floats(0.3, 2.0), _SEED, _ROWS)
def test_spiral_projection_matches_the_full_scan(wall, beta, seed, n):
    if wall == "exp":
        shape = Spiral(beta / 10.0, theta_max=60.0, wall=wall)
    else:
        shape = Spiral(beta, theta_max=60.0 * math.pi)
    rng = np.random.default_rng(seed)
    # Rows next to the four cap corners, and rows in the outermost and
    # innermost windings, whose windows the parameter range clips.
    corners = shape.nonsmooth_boundary_points()
    near = corners + rng.normal(scale=1e-3, size=corners.shape)
    ang = rng.uniform(0.0, 2.0 * math.pi, 8)
    radii = np.concatenate([rng.uniform(0.8, 1.2, 4) * float(shape.f(shape.theta_min)),
                            rng.uniform(1.0, 3.0, 4) * shape.safe_radius])
    rims = radii[:, None] * np.stack([np.cos(ang), np.sin(ang)], axis=1)
    r0 = 1.2 * float(shape.f(shape.theta_min))
    pts = _rows(seed, n, (-r0, -r0), (r0, r0), np.concatenate([near, rims]))
    pts = pts[np.linalg.norm(pts, axis=1) > 1.01 * shape.reject_radius]
    if len(pts):
        _assert_same_as_full_scan(shape, pts)


@pytest.mark.parametrize("shape", [Ellipse((2.0, 1.0)), Cusp(0.5), Spiral(1.0)],
                         ids=lambda s: type(s).__name__)
def test_empty_block(shape):
    d, p = shape.project_many(np.empty((0, 2)))
    assert d.shape == (0,) and p.shape == (0, 2)


def test_dropped_windows_reached_by_the_refinement_are_scanned_in_full(monkeypatch):
    # A refinement that ends 0.05 above its true distance reaches the bounds
    # of dropped windows; those are scanned in full and refined as well, so
    # the answer is still the full scan's with the same refinement.
    exact = refine

    def coarse_refine(curve, piece, qx, qy, t, a, b):
        t, x, y, d = exact(curve, piece, qx, qy, t, a, b)
        return t, x, y, d + 0.05

    monkeypatch.setattr(_minimize, "refine", coarse_refine)
    monkeypatch.setitem(globals(), "refine", coarse_refine)
    full = []
    original = _minimize._distances

    def recorded(shape, pieces, lo, span, pts, r, w, j):
        if np.ndim(r) == 2 and np.ndim(j) == 1:
            full.append(np.size(r))
        return original(shape, pieces, lo, span, pts, r, w, j)

    monkeypatch.setattr(_minimize, "_distances", recorded)
    shape = Spiral(1.0)
    pts = _rows(3, 200, (-1.2, -1.2), (1.2, 1.2), [])
    pts = pts[np.linalg.norm(pts, axis=1) > 0.01]
    _assert_same_as_full_scan(shape, pts)
    assert sum(full) > 0


@pytest.mark.parametrize("shape,lo,hi,n", [
    (Ellipse((2.0, 1.0), (0.01, -0.02)), (-3.0, -3.0), (3.0, 3.0), 72),
    (Cusp(0.45), (-0.5, -1.5), (2.5, 1.5), 48),
    # An odd cell count keeps every node off the truncation zone at the apex.
    (Spiral(1.0), (-1.2, -1.2), (1.2, 1.2), 47),
], ids=["ellipse", "cusp", "spiral"])
def test_fmm_matches_the_full_scan(monkeypatch, shape, lo, hi, n):
    grid = GridSpec.from_bbox(lo, hi, n)
    field = solve_fmm(shape, grid)
    monkeypatch.setattr(shapes, "project", _ref_project)
    ref = solve_fmm(shape, grid)
    assert np.array_equal(field.values, ref.values)
    assert np.array_equal(field.frozen, ref.frozen)


_CURVED = [Ellipse((2.0, 0.5)), Ellipse((0.3, 1.1), (1.0, 1.0)),
           Cusp(0.05), Cusp(0.5), Cusp(0.95), Spiral(0.5), Spiral(2.0),
           Spiral(0.05, wall="exp"), Spiral(0.4, theta_min=3.0, wall="exp")]


@pytest.mark.parametrize("shape", _CURVED, ids=lambda s: type(s).__name__)
def test_speed_bound_holds_on_random_segments(shape):
    rng = np.random.default_rng(0)
    lo, hi = (0.0, 2.0 * math.pi) if shape._closed else (shape._range[0], 20.0)
    for piece in range(len(shape._orient)):
        t0 = rng.uniform(lo, hi, 200)
        t1 = t0 + rng.uniform(0.0, 1.0, 200) ** 3
        t = t0[:, None] + (t1 - t0)[:, None] * np.linspace(0.0, 1.0, 257)
        _, _, dx, dy, _, _ = shape._curve(piece, t)
        bound = shape._speed_bound(piece, t0, t1)
        assert np.all(np.hypot(dx, dy).max(axis=1) <= bound * (1.0 + 1e-12))


@pytest.mark.parametrize("shape,lo,hi,n", [
    (Spiral(1.0), (-1.2, -1.2), (1.2, 1.2), 47),
    (Cusp(0.5), (-0.5, -1.5), (2.5, 1.5), 48),
    (Ellipse((2.0, 1.0)), (-3.0, -3.0), (3.0, 3.0), 72),
], ids=["spiral", "cusp", "ellipse"])
def test_culled_scan_evaluates_a_fraction_of_the_samples(monkeypatch, shape, lo, hi, n):
    # Every scan sample goes through _curve(..., derivs=False): the coarse
    # level, the live segments and the argmins and their neighbours.  At the
    # time of writing this is 8.7% (spiral), 12% (cusp) and 15% (ellipse) of
    # the full scan.
    evaluated = []
    curve = type(shape)._curve

    def counted(self, piece, t, derivs=True):
        if not derivs:
            evaluated.append(np.size(t))
        return curve(self, piece, t, derivs)

    monkeypatch.setattr(type(shape), "_curve", counted)
    pts = GridSpec.from_bbox(lo, hi, n).nodes()
    shape.project_many(pts)
    full = len(pts) * len(shape._windows(pts)[0]) * shape._scan
    assert sum(evaluated) <= 0.25 * full

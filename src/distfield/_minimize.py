"""The parametric projection engine: chunked scan plus safeguarded Newton.

A curved shape describes its boundary once, by ``_curve``, ``_windows``,
``_closed`` and ``_scan`` (the contract is in the ``Shape`` docstring).
Every window of every query is scanned at ``shape._scan`` samples, in blocks
of at most CHUNK queries, and the seeds are refined together by a Newton
iteration on the stationarity function g(t) = (c(t) - x) . c'(t), kept inside
the bracket of each seed's scan neighbours.  Every step is row-independent, so
a query's answer does not depend on the other queries of its batch, and a
single query is simply a batch of one row.

Both entry points share the scan and ``refine``.  ``project`` refines the scan
argmin of every window, which gives the global nearest point per query
(``project_many``).  ``candidates`` refines every local scan minimum of every
row and reports each candidate's row, piece and parameter: the nearest-point
sets and multiplicities of ``nearest_points_many`` cluster them, and locating
a boundary point on the pieces is their argmin.
"""

from __future__ import annotations

import functools

import numpy as np

SCAN_SAMPLES = 1024
# Queries per scan block: the scan holds CHUNK * windows * samples values.
CHUNK = 128
NEWTON_STEPS = 8
# A Newton move this small ends the iteration: from there Newton's quadratic
# convergence leaves an error far below rounding.  Parameters stay below ~1e3
# (the spiral's unwound angle), so the rounding floor of every row is below it.
STEP_TOL = 1e-10
# A window with more local scan minima than this is a flat stretch (a disk
# centre): its scan samples are the answer and are not refined.
PLATEAU_MINIMA = 32


@functools.cache
def _unit_scan(closed: bool, n: int):
    """Scan positions in [0, 1] (shared, read-only) and the sample gaps per window."""
    u = np.arange(n) / n if closed else np.linspace(0.0, 1.0, n)
    u.flags.writeable = False
    return u, n if closed else n - 1


def _window_bounds(shape, pts):
    """(pieces, lo, hi, valid) with the bounds broadcast to (n, windows)."""
    pieces, lo, hi = shape._windows(pts)
    lo, hi = np.full((len(pts), len(pieces)), lo), np.full((len(pts), len(pieces)), hi)
    return pieces, lo, hi, hi > lo


def _neighbours(i, n: int, closed: bool):
    """Scan indices on either side of i; an open window's end mirrors its neighbour."""
    if closed:
        return (i - 1) % n, (i + 1) % n
    return np.abs(i - 1), n - 1 - np.abs(n - 2 - i)


def _vertex(t, step, dm, d0, dp):
    """Vertex of the parabola through squared scan distances at t - step, t, t + step.

    It puts the Newton seed within O(step^3) of a smooth minimum, which saves
    one Newton step; at a scan minimum it lies within half a step of t.
    """
    dm, d0, dp = dm * dm, d0 * d0, dp * dp
    curv = dm - 2.0 * d0 + dp
    return t + step * 0.5 * (dm - dp) / np.where(curv > 0.0, curv, np.inf)


def _brackets(t, step, lo, hi, closed: bool):
    a, b = t - step, t + step
    if not closed:
        a, b = np.maximum(a, lo), np.minimum(b, hi)
    return a, b


def refine(curve, piece, qx, qy, t, a, b):
    """Nearest-point refinement of the seeds t, each inside its bracket [a, b].

    Newton steps on g(t) = (c(t) - x) . c'(t) that leave the bracket, or meet a
    non-finite g'(t), are replaced by bisection; the bracket shrinks to the side
    where g changes sign.  A row stops after a move below STEP_TOL, and keeps
    its parameter while other rows go on, so each row's answer does not depend
    on the batch.  A result farther from x than its seed is rejected in favour
    of the seed.  Returns (t, x, y, distance).
    """
    x, y, dx, dy, ddx, ddy = curve(piece, t)
    t0, x0, y0 = t, x, y
    d0 = np.hypot(x - qx, y - qy)
    active = np.ones(t.shape, dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(NEWTON_STEPS):
            ex, ey = x - qx, y - qy
            g = ex * dx + ey * dy
            a = np.where(g < 0.0, t, a)
            b = np.where(g > 0.0, t, b)
            t_new = t - g / (dx * dx + dy * dy + ex * ddx + ey * ddy)
            t_new = np.where((t_new >= a) & (t_new <= b), t_new, 0.5 * (a + b))
            moved = np.abs(t_new - t) > STEP_TOL
            t = np.where(active, t_new, t)
            active &= moved
            x, y, dx, dy, ddx, ddy = curve(piece, t)
            if not active.any():
                break
    d = np.hypot(x - qx, y - qy)
    worse = ~(d <= d0 + 1e-12)
    return (np.where(worse, t0, t), np.where(worse, x0, x), np.where(worse, y0, y),
            np.where(worse, d0, d))


def _scan(shape, pieces, lo, hi, pts):
    """Scan parameters, points and distances (n, windows, samples) of the queries pts."""
    u, _ = _unit_scan(shape._closed, shape._scan)
    ts = lo[..., None] + (hi - lo)[..., None] * u
    x, y = shape._curve(pieces[:, None], ts, derivs=False)
    return ts, x, y, np.hypot(x - pts[:, 0, None, None], y - pts[:, 1, None, None])


def project(shape, pts: np.ndarray):
    """Global nearest point on the curved pieces: (distances (n,), points (n, 2))."""
    n = len(pts)
    pieces, lo, hi, valid = _window_bounds(shape, pts)
    hi = np.where(valid, hi, lo)
    w = len(pieces)
    qx, qy = pts[:, 0, None], pts[:, 1, None]
    seeds, dm, d0, dp = (np.empty((n, w)) for _ in range(4))
    for s in range(0, n, CHUNK):
        blk = slice(s, s + CHUNK)
        ts, _, _, d = _scan(shape, pieces, lo[blk], hi[blk], pts[blk])
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


def _local_minima(values: np.ndarray, closed: bool) -> np.ndarray:
    """Mask of local minima along the last axis.

    For closed curves the comparison wraps around; for open ones the endpoints
    qualify when they beat their single neighbour.  Plateau samples (equal
    neighbours) count, so flat near-optimal stretches are not dropped.
    """
    if closed:
        ends = values[..., -1:], values[..., :1]
    else:
        ends = (np.full(values.shape[:-1] + (1,), np.inf),) * 2
    v = np.concatenate([ends[0], values, ends[1]], axis=-1)
    mid = v[..., 1:-1]
    return (mid <= v[..., :-2]) & (mid <= v[..., 2:])


def candidates(shape, pts: np.ndarray):
    """Nearest-point candidates of a block of queries on the curved pieces.

    One scan covers every row of ``pts`` (at most CHUNK rows, so the scan holds
    at most CHUNK * windows * samples values), and one ``refine`` call refines
    every row's local scan minima.  A window with more than PLATEAU_MINIMA
    minima (a flat stretch, such as a disk centre) keeps its scan minima as
    they are.  Every run of scan samples tied with the optimum holds its own
    local scan minimum, so a flat stretch is represented without further
    samples.

    Returns flat arrays (rows, dists, points, pieces, ts): each candidate's
    query row, distance, point (k, 2), and the piece and parameter it lies at,
    grouped by row in increasing order; within a row the candidates follow
    the windows and then the scan order.
    """
    pieces, lo, hi, valid = _window_bounds(shape, pts)
    used = valid.any(axis=0)           # windows empty in every row are not scanned
    if not used.all():
        pieces, lo, hi, valid = pieces[used], lo[:, used], hi[:, used], valid[:, used]
    hi = np.where(valid, hi, lo)
    closed = shape._closed
    ts, sx, sy, ds = _scan(shape, pieces, lo, hi, pts)
    step = (hi - lo) / _unit_scan(closed, shape._scan)[1]
    r, w, i = np.nonzero(_local_minima(ds, closed) & valid[..., None])
    im, ip = _neighbours(i, shape._scan, closed)
    t, sw = ts[r, w, i], step[r, w]
    a, b = _brackets(t, sw, lo[r, w], hi[r, w], closed)
    seed = _vertex(t, sw, ds[r, w, im], ds[r, w, i], ds[r, w, ip])
    piece = pieces[w]
    t, px, py, d = refine(shape._curve, piece, pts[r, 0], pts[r, 1], seed, a, b)
    window = r * len(pieces) + w
    flat = np.bincount(window)[window] > PLATEAU_MINIMA
    if flat.any():
        t, px, py, d = (np.where(flat, scan[r, w, i], ref)
                        for scan, ref in ((ts, t), (sx, px), (sy, py), (ds, d)))
    return r, d, np.stack([px, py], axis=1), piece, t

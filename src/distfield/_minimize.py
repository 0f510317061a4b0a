"""The parametric projection engine: chunked scan plus safeguarded Newton.

A curved shape describes its boundary once, by ``_curve``, ``_windows``,
``_closed`` and ``_scan`` (the contract is in the ``Shape`` docstring).
Every window is scanned at ``shape._scan`` samples, in blocks of CHUNK
queries, and each seed is refined by a Newton iteration on the stationarity
function g(t) = (c(t) - x) . c'(t), kept inside the bracket of the seed's scan
neighbours.  ``project`` refines the scan argmin of every window (the global
nearest point per query); ``candidates`` refines every local scan minimum of
one query and reports each candidate's piece and parameter, so that locating a
boundary point on the pieces is its argmin.
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


def project(shape, pts: np.ndarray):
    """Global nearest point on the curved pieces: (distances (n,), points (n, 2))."""
    n = len(pts)
    pieces, lo, hi, valid = _window_bounds(shape, pts)
    hi = np.where(valid, hi, lo)
    w = len(pieces)
    qx, qy = pts[:, 0, None], pts[:, 1, None]
    u, gaps = _unit_scan(shape._closed, shape._scan)
    seeds, dm, d0, dp = (np.empty((n, w)) for _ in range(4))
    for s in range(0, n, CHUNK):
        blk = slice(s, s + CHUNK)
        ts = lo[blk, :, None] + (hi - lo)[blk, :, None] * u
        x, y = shape._curve(pieces[:, None], ts, derivs=False)
        d = np.hypot(x - qx[blk, :, None], y - qy[blk, :, None])
        i = np.argmin(d, axis=2)[..., None]
        im, ip = _neighbours(i, shape._scan, shape._closed)
        seeds[blk] = np.take_along_axis(ts, i, axis=2)[..., 0]
        dm[blk], d0[blk], dp[blk] = (np.take_along_axis(d, k, axis=2)[..., 0] for k in (im, i, ip))
    step = (hi - lo) / gaps
    a, b = _brackets(seeds, step, lo, hi, shape._closed)
    seeds = _vertex(seeds, step, dm, d0, dp)
    _, x, y, d = refine(shape._curve, pieces, qx, qy, seeds, a, b)
    j = np.argmin(np.where(valid, d, np.inf), axis=1)
    rows = np.arange(n)
    return d[rows, j], np.stack([x[rows, j], y[rows, j]], axis=1)


def local_minima_indices(values: np.ndarray, closed: bool):
    """Indices (as from np.nonzero) of local minima along the last axis.

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
    return np.nonzero((mid <= v[..., :-2]) & (mid <= v[..., 2:]))


def candidates(shape, x: np.ndarray):
    """Nearest-point candidates of one query on the curved pieces.

    Returns (dists, points, pieces, ts): each candidate's distance, point, and
    the piece and parameter it lies at.

    Every local scan minimum is refined, except in a window with more than
    PLATEAU_MINIMA minima, which keeps its scan minima as they are.  Scan
    samples tied with the optimum at measurement resolution (not merely within
    the caller's tol: a shallow smooth valley is still one minimizer) and
    farther than 1.5 samples from every candidate of their window are added as
    representatives, so flat near-optimal stretches count towards the
    multiplicity.
    """
    pieces, lo, hi, keep = _window_bounds(shape, x[None, :])
    pieces, lo, hi = pieces[keep[0]], lo[keep], hi[keep]
    closed = shape._closed
    u, gaps = _unit_scan(closed, shape._scan)
    ts, step = lo[:, None] + (hi - lo)[:, None] * u, (hi - lo) / gaps
    sx, sy = shape._curve(pieces[:, None], ts, derivs=False)
    ds = np.hypot(sx - x[0], sy - x[1])
    w, i = local_minima_indices(ds, closed)
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
    d_min = float(d.min())
    nw, ni = np.nonzero(ds <= d_min + max(1e-12, 1e-9 * d_min))
    if len(nw):
        covered = (nw[:, None] == w[None, :]) & (
            np.abs(ts[nw, ni][:, None] - t[None, :]) <= 1.5 * step[nw][:, None])
        reps = ~covered.any(axis=1)
        nw, ni = nw[reps], ni[reps]
        d, piece, t = (np.concatenate([d, ds[nw, ni]]), np.concatenate([piece, pieces[nw]]),
                       np.concatenate([t, ts[nw, ni]]))
        px, py = np.concatenate([px, sx[nw, ni]]), np.concatenate([py, sy[nw, ni]])
    return d, np.stack([px, py], axis=1), piece, t

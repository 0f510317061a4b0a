"""The parametric projection engine: chunked scan plus safeguarded Newton.

A curved shape describes its boundary once, by ``_curve``, ``_windows``,
``_closed``, ``_scan`` and ``_speed_bound`` (the contract is in the ``Shape``
docstring).  Every window of every query is scanned at ``shape._scan``
samples, in blocks of at most CHUNK queries, and the seeds are refined
together by a Newton iteration on the stationarity function
g(t) = (c(t) - x) . c'(t), kept inside the bracket of each seed's scan
neighbours.  Every step is row-independent, so a query's answer does not
depend on the other queries of its batch, and a single query is simply a
batch of one row.

Both entry points share the scan and ``refine``.  ``project`` refines the scan
argmin of every window, which gives the global nearest point per query
(``project_many``).  ``candidates`` refines every local scan minimum of every
row and reports each candidate's row, piece and parameter: the nearest-point
sets and multiplicities of ``nearest_points_many`` cluster them, and locating
a boundary point on the pieces is their argmin.

``project`` scans in two levels and gives the same bits as the full scan.
The coarse level evaluates every COARSE-th sample of each window, plus the
last sample of an open window; consecutive coarse samples k, k + 1 bound a
segment.  On a segment the curve moves at speed at most
V = ``shape._speed_bound(piece, t_k, t_k+1)``, so no point of it, and no scan
sample in it, is nearer to the query than

    LB = min(d_k, d_k+1) - V (t_k+1 - t_k) / 2 - slack,

with SCAN_SLACK covering the rounding of the distances.  The fine level
evaluates only the samples of the live segments, those with LB at most the
window's coarse minimum, and leaves every other sample at +inf.  Every sample
at or below the window's coarse minimum lies in a live segment, so the
window's scan argmin (the first sample at its minimum) is the full scan's;
the argmin's two neighbours, which place the parabola vertex, are evaluated
wherever they lie.  The window's seed, bracket and refined answer are
therefore the full scan's.

A window whose segments all have LB above the row's best coarse minimum plus
ACCEPT_SLACK is dropped, like an empty window.  The window holding that
minimum is seeded next to it and rejects a refinement that ends farther than
ACCEPT_SLACK beyond its seed, so it refines to about that minimum or below,
nearer than any point of a dropped window.  Where a row's best refined
distance still reaches a dropped window's smallest LB, that window is
scanned in full and refined too; every window left out is then strictly
farther than the row's answer, which is therefore the full scan's.
"""

from __future__ import annotations

import functools

import numpy as np

SCAN_SAMPLES = 1024
# Queries per scan block: the scan holds CHUNK * windows * samples values.
CHUNK = 128
# Stride of the coarse level of ``project``'s scan.
COARSE = 16
# Slack of a coarse segment's lower bound, relative to 1 plus the query's
# largest coordinate, the segment's distance and its reach; it covers the
# rounding of the scan distances and can only add live segments.
SCAN_SLACK = 1e-9
# A refinement farther than this from the query than its seed is rejected.
ACCEPT_SLACK = 1e-12
NEWTON_STEPS = 8
# A Newton move this small ends the iteration: from there Newton's quadratic
# convergence leaves an error far below rounding.  Parameters stay below ~1e3
# (the spiral's unwound angle), so the rounding floor of every row is below it.
STEP_TOL = 1e-10
# A window with more local scan minima than this is a flat stretch (a round
# ellipse's centre): its scan samples are the answer and are not refined.
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
    worse = ~(d <= d0 + ACCEPT_SLACK)
    return (np.where(worse, t0, t), np.where(worse, x0, x), np.where(worse, y0, y),
            np.where(worse, d0, d))


def _scan(shape, pieces, lo, hi, pts, u):
    """Scan parameters, points and distances (n, windows, len(u)) at the window positions u."""
    ts = lo[..., None] + (hi - lo)[..., None] * u
    x, y = shape._curve(pieces[:, None], ts, derivs=False)
    return ts, x, y, np.hypot(x - pts[:, 0, None, None], y - pts[:, 1, None, None])


def _distances(shape, pieces, lo, span, pts, r, w, j):
    """Scan parameters and distances of the samples j of the windows w of rows r."""
    t = lo[r, w] + span[r, w] * _unit_scan(shape._closed, shape._scan)[0][j]
    x, y = shape._curve(pieces[w], t, derivs=False)
    return t, np.hypot(x - pts[r, 0], y - pts[r, 1])


def _culled_scan(shape, pieces, lo, hi, span, valid, pts):
    """Two-level scan of a block of rows.

    Returns (rows, windows, argmin) of the kept windows, the scan argmin
    being the full scan's, and the smallest segment bound (n, windows) of
    every dropped window, +inf on the kept ones.
    """
    closed, n = shape._closed, shape._scan
    u, gaps = _unit_scan(closed, n)
    # Scan indices bounding the coarse segments; a closed window's last, n,
    # is sample 0 one turn on, at window position 1.
    bounds = np.append(np.arange(0, gaps, COARSE), gaps)
    tk, _, _, dk = _scan(shape, pieces, lo, hi, pts, np.append(u, 1.0)[bounds])
    if closed:
        dk[..., -1] = dk[..., 0]
    dmin = np.minimum(dk[..., :-1], dk[..., 1:])
    reach = 0.5 * shape._speed_bound(pieces[:, None], tk[..., :-1], tk[..., 1:]) * np.diff(tk)
    scale = 1.0 + np.max(np.abs(pts), axis=1)[:, None, None]
    lb = dmin - reach - SCAN_SLACK * (scale + dmin + reach)
    cmin, lb_min = dk.min(axis=2), lb.min(axis=2)
    best = np.min(np.where(valid, cmin, np.inf), axis=1, keepdims=True)
    keep = valid & (lb_min <= best + ACCEPT_SLACK)
    d = np.full(dk.shape[:2] + (n,), np.inf)
    on_scan = bounds < n
    d[..., bounds[on_scan]] = dk[..., on_scan]
    # The COARSE - 1 samples after the start of each live segment.  Only an
    # open window's last segment can be shorter; its excess indices are
    # clipped to the window's last sample, which is evaluated again.
    r, w, k = (v[:, None] for v in np.nonzero(keep[..., None] & (lb <= cmin[..., None])))
    j = np.minimum(bounds[k] + np.arange(1, COARSE), n - 1)
    d[r, w, j] = _distances(shape, pieces, lo, span, pts, r, w, j)[1]
    r, w = np.nonzero(keep)
    return r, w, np.argmin(d, axis=2)[r, w], np.where(keep, np.inf, lb_min)


def _refined(shape, pieces, lo, hi, span, pts, r, w, i):
    """Refine the windows w of rows r from their scan argmins i.

    Returns (d, x, y), each (n, windows): the refined distance and point of
    those windows, +inf on every other window.
    """
    closed, n = shape._closed, shape._scan
    im, ip = _neighbours(i, n, closed)
    t, d0 = _distances(shape, pieces, lo, span, pts, r, w, i)
    dm, dp = (_distances(shape, pieces, lo, span, pts, r, w, k)[1] for k in (im, ip))
    step = span[r, w] / _unit_scan(closed, n)[1]
    a, b = _brackets(t, step, lo[r, w], hi[r, w], closed)
    t = _vertex(t, step, dm, d0, dp)
    _, x, y, d = refine(shape._curve, pieces[w], pts[r, 0], pts[r, 1], t, a, b)
    out = np.full((3,) + span.shape, np.inf)
    out[:, r, w] = d, x, y
    return out


def project(shape, pts: np.ndarray):
    """Global nearest point on the curved pieces: (distances (n,), points (n, 2)).

    The two-level scan of the module docstring gives the full scan's answer.
    """
    n = len(pts)
    if n == 0:
        return np.empty(0), np.empty((0, 2))
    pieces, lo, hi, valid = _window_bounds(shape, pts)
    hi = np.where(valid, hi, lo)
    span = hi - lo
    kept, bound = [], np.empty(valid.shape)
    for s in range(0, n, CHUNK):
        blk = slice(s, s + CHUNK)
        r, w, i, bound[blk] = _culled_scan(shape, pieces, lo[blk], hi[blk], span[blk],
                                           valid[blk], pts[blk])
        kept.append((r + s, w, i))
    r, w, i = (np.concatenate(v) for v in zip(*kept))
    d, x, y = _refined(shape, pieces, lo, hi, span, pts, r, w, i)
    late = valid & (bound <= d.min(axis=1, keepdims=True))
    if late.any():
        r, w = (v[:, None] for v in np.nonzero(late))
        j = np.arange(shape._scan)
        i = np.concatenate([
            np.argmin(_distances(shape, pieces, lo, span, pts, r[c], w[c], j)[1], axis=1)
            for c in (slice(s, s + CHUNK) for s in range(0, len(r), CHUNK))])
        d[late], x[late], y[late] = _refined(shape, pieces, lo, hi, span, pts,
                                             r[:, 0], w[:, 0], i)[:, late]
    j = np.argmin(d, axis=1)
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
    minima (a flat stretch, such as a round ellipse's centre) keeps its scan
    minima as they are.  Every run of scan samples tied with the optimum holds
    its own local scan minimum, so a flat stretch is represented without
    further samples.

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
    ts, sx, sy, ds = _scan(shape, pieces, lo, hi, pts, _unit_scan(closed, shape._scan)[0])
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

"""Closed-form references the bench checks the program's outputs against.

Everything here is independent of ``distfield``: disk/ball, axis-aligned
square and half-space distances are closed form, and the ellipse distance
uses Eberly's robust bisection on the stationarity equation ("Distance from
a point to an ellipse, an ellipsoid, or a hyperellipsoid", 2011).  All
functions take an (n, m) point array and return signed distances, positive
inside, like the program under test.
"""

from __future__ import annotations

import numpy as np


def disk_sd(pts: np.ndarray, center, radius: float) -> np.ndarray:
    """Signed distance to the disk (m=2) or ball (m=3)."""
    return radius - np.linalg.norm(pts - np.asarray(center, dtype=float), axis=1)


def disk_nearest(pts: np.ndarray, center, radius: float) -> np.ndarray:
    c = np.asarray(center, dtype=float)
    v = pts - c
    return c + radius * v / np.linalg.norm(v, axis=1, keepdims=True)


def square_sd(pts: np.ndarray, half: float = 1.0) -> np.ndarray:
    """Signed distance to the open square (-half, half)^2."""
    q = np.abs(pts) - half
    outside = np.linalg.norm(np.maximum(q, 0.0), axis=1)
    inside = np.minimum(-q[:, 0], -q[:, 1])
    return np.where(np.all(q < 0.0, axis=1), inside, -outside)


def square_nearest(pts: np.ndarray, half: float = 1.0) -> np.ndarray:
    """Nearest boundary point of the square (the first edge wins a tie)."""
    out = np.clip(pts, -half, half)
    inner = np.all(np.abs(pts) < half, axis=1)
    axis = np.argmax(np.abs(pts), axis=1)
    rows = np.nonzero(inner)[0]
    out[rows, axis[rows]] = np.copysign(half, pts[rows, axis[rows]])
    return out


def halfspace_sd(pts: np.ndarray, unit_normal, offset: float) -> np.ndarray:
    return pts @ np.asarray(unit_normal, dtype=float) - offset


def _ellipse_first_quadrant(e0: float, e1: float, y0: np.ndarray, y1: np.ndarray):
    """Eberly's closest point for e0 >= e1 > 0 and y0, y1 >= 0 (vectorized)."""
    x0 = np.empty_like(y0)
    x1 = np.empty_like(y1)

    # y1 > 0, y0 > 0: bisection on s in the stationarity equation.
    gen = (y0 > 0.0) & (y1 > 0.0)
    z0 = y0[gen] / e0
    z1 = y1[gen] / e1
    g = z0 * z0 + z1 * z1 - 1.0
    r0 = (e0 / e1) ** 2
    n0 = r0 * z0
    s0 = z1 - 1.0
    s1 = np.where(g < 0.0, 0.0, np.hypot(n0, z1) - 1.0)
    for _ in range(1100):  # bisection reaches a fixed point well before this
        s = 0.5 * (s0 + s1)
        done = (s == s0) | (s == s1)
        if np.all(done):
            break
        gs = (n0 / (s + r0)) ** 2 + (z1 / (s + 1.0)) ** 2 - 1.0
        s0 = np.where(~done & (gs > 0.0), s, s0)
        s1 = np.where(~done & (gs < 0.0), s, s1)
        s0 = np.where(gs == 0.0, s, s0)
        s1 = np.where(gs == 0.0, s, s1)
    s = 0.5 * (s0 + s1)
    on = g == 0.0
    x0[gen] = np.where(on, y0[gen], r0 * y0[gen] / (s + r0))
    x1[gen] = np.where(on, y1[gen], y1[gen] / (s + 1.0))

    # y0 == 0, y1 > 0: the minor-axis vertex.
    axis1 = (y0 <= 0.0) & (y1 > 0.0)
    x0[axis1] = 0.0
    x1[axis1] = e1

    # y1 == 0: on the major axis, inside the evolute or beyond it.
    axis0 = y1 <= 0.0
    numer = e0 * y0[axis0]
    denom = e0 * e0 - e1 * e1
    inner = numer < denom
    xde = np.where(inner, numer / denom, 1.0)
    x0[axis0] = np.where(inner, e0 * xde, e0)
    x1[axis0] = np.where(inner, e1 * np.sqrt(np.maximum(1.0 - xde * xde, 0.0)), 0.0)
    return x0, x1


def ellipse_nearest(pts: np.ndarray, semi_axes, center) -> np.ndarray:
    """A nearest boundary point of an axis-aligned ellipse (one of a tie)."""
    a, b = (float(v) for v in semi_axes)
    q = pts - np.asarray(center, dtype=float)
    swap = a < b
    e0, e1 = (b, a) if swap else (a, b)
    u, v = (q[:, 1], q[:, 0]) if swap else (q[:, 0], q[:, 1])
    x0, x1 = _ellipse_first_quadrant(e0, e1, np.abs(u), np.abs(v))
    x0 = np.copysign(x0, u)
    x1 = np.copysign(x1, v)
    near = np.stack([x1, x0] if swap else [x0, x1], axis=1)
    return near + np.asarray(center, dtype=float)


def ellipse_sd(pts: np.ndarray, semi_axes, center) -> np.ndarray:
    d = np.linalg.norm(pts - ellipse_nearest(pts, semi_axes, center), axis=1)
    q = (pts - np.asarray(center, dtype=float)) / np.asarray(semi_axes, dtype=float)
    return np.where(np.sum(q * q, axis=1) < 1.0, d, -d)


def cusp_inside(pts: np.ndarray, alpha: float) -> np.ndarray:
    return pts[:, 0] > np.abs(pts[:, 1]) ** (1.0 + alpha)


def ellipse_medial_half_length(semi_axes) -> float:
    """Half length of the medial segment on the major axis: a - b^2 / a."""
    a, b = sorted((float(v) for v in semi_axes), reverse=True)
    return a - b * b / a

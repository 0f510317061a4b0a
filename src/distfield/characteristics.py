"""Integral curves of the distance gradient and their structural checks.

Away from the medial axis the gradient field is constant along its own flow
lines, so traced paths must be straight and the distance must grow at unit
speed along them.  ``trace`` steps the flow explicitly and stops when the
medial axis is reached; ``verify_characteristic`` measures how far a traced
path deviates from that exact picture.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from ._csv import csv_row
from .errors import StartNotInDomain, StartOnMedialAxis, TooFewSamples
from .projection import gradient, gradient_from_result, nearest_points, signed_distance
from .shapes import Shape, as_point

MEDIAL_HIT = "MedialHit"
MAX_TIME = "MaxTime"
GRADIENT_ABSENT = "GradientAbsent"


@dataclass(frozen=True)
class CharacteristicPath:
    """Sampled flow line of the distance gradient.

    Times increase by dt with a possibly shorter final step; every sampled
    point lies strictly inside the domain.  ``stop_time`` estimates the flow
    time at which differentiability was lost (for a MedialHit stop it brackets
    the true value to within dt).
    """

    start: np.ndarray
    dt: float
    times: np.ndarray      # (k,)
    points: np.ndarray     # (k, m)
    distances: np.ndarray  # (k,)
    stop_reason: str

    @property
    def stop_time(self) -> float:
        return float(self.times[-1])


def trace(shape: Shape, x, dt: float, t_max: float,
          tol: float = 1e-8) -> CharacteristicPath:
    """Explicit stepping x_{k+1} = x_k + dt * grad d(x_k) from x until a stop.

    Stops with MedialHit when the next sample is medial at tolerance tol, or,
    without keeping the next sample, when the distance stops increasing or
    the gradient there turns against the current one (the step overshot the
    medial axis, which both tests bracket to within dt); with GradientAbsent
    when the gradient ceases to exist at the next sample; with MaxTime at
    t >= t_max.
    """
    x = as_point(x, shape.dim)
    if dt <= 0:
        raise ValueError("dt must be positive")
    d0 = signed_distance(shape, x)
    if d0 <= 0:
        raise StartNotInDomain(f"trace start has signed distance {d0:.3g}")
    g = gradient(shape, x, tol)
    if g is None:
        raise StartOnMedialAxis("gradient undefined at the trace start")

    times = [0.0]
    points = [x.copy()]
    dists = [d0]
    stop_reason = MAX_TIME
    t = 0.0
    while t < t_max - 1e-15:
        step = min(dt, t_max - t)
        nxt = points[-1] + step * g
        res = nearest_points(shape, nxt, tol)
        d_next = res.distance if shape.contains(nxt) else -res.distance
        if d_next <= dists[-1]:
            # Overshot: the distance can only increase along a characteristic.
            stop_reason = MEDIAL_HIT
            break
        g_next = None if res.multiplicity >= 2 else gradient_from_result(shape, nxt, res)
        if g_next is not None and float(g_next @ g) < 0.0:
            # Crossed the medial axis obliquely: d still grows along the ridge,
            # but the gradient on the far side points back across it.
            stop_reason = MEDIAL_HIT
            break
        t += step
        times.append(t)
        points.append(nxt)
        dists.append(d_next)
        if res.multiplicity >= 2:
            stop_reason = MEDIAL_HIT
            break
        if g_next is None:
            stop_reason = GRADIENT_ABSENT
            break
        g = g_next
    return CharacteristicPath(
        start=x,
        dt=dt,
        times=np.asarray(times),
        points=np.stack(points),
        distances=np.asarray(dists),
        stop_reason=stop_reason,
    )


def verify_characteristic(shape: Shape, path: CharacteristicPath) -> dict:
    """Residuals of the straight-line / unit-growth / constant-gradient laws.

    max_line_deviation -- largest distance of a sample from the ray through the
    start along the initial gradient; max_growth_residual -- largest
    |d(x(t)) - d(x(0)) - t|; max_gradient_drift -- largest
    |grad(x(t)) - grad(x(0))| over samples at least 3*dt before the stop, where
    the flow is still clear of the medial bracket.
    """
    if len(path.times) < 3:
        raise TooFewSamples("need at least 3 samples to verify a path")
    g0 = gradient(shape, path.start, 1e-8)
    if g0 is None:
        raise StartOnMedialAxis("gradient undefined at the path start")
    rel = path.points - path.start
    along = rel @ g0
    perp = rel - along[:, None] * g0
    max_line_deviation = float(np.max(np.linalg.norm(perp, axis=1)))
    max_growth_residual = float(
        np.max(np.abs(path.distances - path.distances[0] - path.times))
    )
    drift = 0.0
    t_cut = path.stop_time - 3.0 * path.dt
    for t, p in zip(path.times[1:], path.points[1:]):
        if t > t_cut:
            break
        g = gradient(shape, p, 1e-8)
        if g is not None:
            drift = max(drift, float(np.linalg.norm(g - g0)))
    return {
        "max_line_deviation": max_line_deviation,
        "max_growth_residual": max_growth_residual,
        "max_gradient_drift": drift,
    }


def path_to_csv(path: CharacteristicPath) -> str:
    """CSV rows (t, x_1..x_m, d) with 17-significant-digit floats."""
    m = path.points.shape[1]
    buf = io.StringIO()
    buf.write("t," + ",".join(f"x{i+1}" for i in range(m)) + ",d\n")
    for t, p, d in zip(path.times, path.points, path.distances):
        buf.write(csv_row([t, *p, d]) + "\n")
    return buf.getvalue()

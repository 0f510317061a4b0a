"""Packaged evidence runs for the two pathological domains.

Spiral: along the channel midline the ratio d(z) / |z| is bounded by
f(theta) / f(theta + pi) - 1, which tends to zero for the power-law wall, so
the distance field is differentiable at the apex with zero gradient.  The
exponential wall keeps that ratio bounded away from zero and serves as the
negative control.

Cusp: the medial axis of x1 > |x2|^(1+alpha) is exactly the open positive
x1-axis, which touches the boundary at the origin; on-axis points must test
medial and off-axis points must not.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np

from ._csv import csv_row
from .errors import DistanceFieldError, TruncationExceeded
from .projection import nearest_points_many, signed_distance
from .shapes import Cusp, Spiral

# Validated floor for the exponential negative control: the measured midline
# ratio stays above half the radial half-width ratio (e^pi - 1)/(e^pi + 1).
EXP_CONTROL_FLOOR = 0.5 * (math.exp(math.pi) - 1.0) / (math.exp(math.pi) + 1.0)


@dataclass(frozen=True)
class SpiralEvidence:
    """Midline ratio measurements along a decreasing radius sequence."""

    thetas: np.ndarray
    points: np.ndarray          # midline points z, (n, 2)
    abs_z: np.ndarray
    bounds: np.ndarray          # f(theta)/f(theta+pi) - 1
    measured_ratios: np.ndarray  # d(z) / |z|


def spiral_ratio_sequence(spiral: Spiral, thetas, tol: float = 1e-9,
                          check: bool = True) -> SpiralEvidence:
    """Measure d(z)/|z| at radial channel midpoints for increasing windings.

    For each theta, z is the midpoint of the radial segment between the two
    walls at that angle.  With check=True the measured ratio is asserted
    against the analytic bound f(theta)/f(theta+pi) - 1 (+ tol); disable the
    check for negative-control walls where the bound is not expected to decay.
    """
    thetas = np.asarray(sorted(thetas), dtype=float)
    if np.any(thetas + math.pi > spiral.theta_max):
        raise TruncationExceeded("theta + pi exceeds the truncated spiral range")
    if np.any(thetas < spiral.theta_min):
        raise TruncationExceeded("theta below theta_min")

    pts = np.empty((len(thetas), 2))
    abs_z = np.empty(len(thetas))
    bounds = np.empty(len(thetas))
    measured = np.empty(len(thetas))
    for i, theta in enumerate(thetas):
        f_out = float(spiral.f(theta))
        f_in = float(spiral.f(theta + math.pi))
        r = 0.5 * (f_out + f_in)
        z = np.array([r * math.cos(theta), r * math.sin(theta)])
        d = signed_distance(spiral, z)
        pts[i] = z
        abs_z[i] = r
        bounds[i] = f_out / f_in - 1.0
        measured[i] = abs(d) / r
        if check and measured[i] > bounds[i] + tol:
            raise DistanceFieldError(
                f"midline ratio {measured[i]:.6g} exceeds bound {bounds[i]:.6g} "
                f"at theta={theta:.6g}"
            )
    return SpiralEvidence(thetas, pts, abs_z, bounds, measured)


def spiral_negative_control(thetas, beta: float = 1.0,
                            theta_max: float | None = None) -> SpiralEvidence:
    """Exponential-wall control: the midline ratio must stay above the floor.

    With f(theta) = exp(-theta) the wall ratio stays at e^pi, so the
    zero-gradient mechanism must not fire; the measured ratio is asserted to
    stay above EXP_CONTROL_FLOOR at every scale.
    """
    thetas = np.asarray(sorted(thetas), dtype=float)
    if theta_max is None:
        theta_max = float(np.max(thetas)) + 4.0 * math.pi
    spiral = Spiral(beta=beta, theta_min=0.0, theta_max=theta_max, wall="exp")
    ev = spiral_ratio_sequence(spiral, thetas, check=False)
    low = float(np.min(ev.measured_ratios))
    if low < EXP_CONTROL_FLOOR:
        raise DistanceFieldError(
            f"negative control failed: ratio {low:.6g} fell below {EXP_CONTROL_FLOOR:.6g}"
        )
    return ev


def cusp_medial_check(alpha: float, n: int, x1_max: float, tol: float) -> dict:
    """Classify on-axis points as medial and off-axis interior points as not.

    Returns pass/fail counts; "passed" requires zero misclassifications.  Off-
    axis probes sit at least 10*tol from the axis and strictly inside the
    domain, alternating sides.
    """
    shape = Cusp(alpha)
    x1s = np.linspace(x1_max / n, x1_max, n)
    off_points = []
    for i, x1 in enumerate(x1s):
        y = max(10.0 * tol, 0.25 * x1) * (1.0 if i % 2 == 0 else -1.0)
        if not shape.contains(np.array([x1, y])):
            y = math.copysign(10.0 * tol, y)
        off_points.append([x1, y])
    on_points = np.stack([x1s, np.zeros(n)], axis=1)
    res = nearest_points_many(shape, np.concatenate([on_points, off_points]), tol)
    medial = np.array([r.multiplicity >= 2 for r in res], dtype=bool)
    on_hits = int(np.sum(medial[:n]))
    off_hits = int(np.sum(~medial[n:]))
    return {
        "alpha": alpha,
        "tol": tol,
        "on_axis_total": n,
        "on_axis_medial": on_hits,
        "off_axis_total": n,
        "off_axis_nonmedial": off_hits,
        "misclassified": (n - on_hits) + (n - off_hits),
        "passed": on_hits == n and off_hits == n,
    }


def evidence_to_csv(ev: SpiralEvidence) -> str:
    """CSV table (theta, z_x, z_y, abs_z, bound, measured_ratio)."""
    buf = io.StringIO()
    buf.write("theta,z_x,z_y,abs_z,bound,measured_ratio\n")
    for i in range(len(ev.thetas)):
        buf.write(csv_row([ev.thetas[i], *ev.points[i], ev.abs_z[i], ev.bounds[i],
                           ev.measured_ratios[i]]) + "\n")
    return buf.getvalue()

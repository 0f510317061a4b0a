"""Numerical regularity diagnostics for signed-distance fields.

Four instruments:

* ``differentiability_test`` -- multi-scale linear fits of d around a point;
  detects differentiability and recovers the gradient (unit normal at smooth
  boundary points, zero at the spiral apex, nothing at medial points).
* ``chi_estimate`` -- the Lipschitz modulus of the inner-normal field near a
  boundary point (a curvature-like quantity; 1/R on a circle of radius R).
* ``c1_margin`` -- the second-order Taylor remainder of d against the sharp
  quadratic envelope with constant chi/2.
* ``gradient_lipschitz_estimate`` -- sampled Lipschitz constant of grad d over
  a band at height >= delta above a level set, checked against 3/delta.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DistanceFieldError,
    MedialInBall,
    NotC1InNeighborhood,
    PreconditionViolated,
    ScaleUnderflow,
)
from .projection import (
    gradient_from_result,
    gradient_many,
    nearest_points_many,
    signed_distance,
    signed_distance_many,
)
from .shapes import Shape, as_point, unit_directions

DIFFERENTIABILITY_TOL = 1e-3
# Probe directions of each linear fit of ``differentiability_test``.
PROBE_DIRECTIONS = 64


@dataclass
class RegularityReport:
    """Structured outcome of one regularity check."""

    test: str
    point: np.ndarray
    scales: np.ndarray            # probe scales or radii, in evaluation order
    residuals: np.ndarray         # per-scale sup residuals / max ratios
    gradient: np.ndarray | None = None
    gradient_norms: np.ndarray | None = None
    estimates: dict = field(default_factory=dict)
    flags: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "test": self.test,
            "point": [float(v) for v in self.point],
            "scales": [float(v) for v in self.scales],
            "residuals": [float(v) for v in self.residuals],
            "gradient": None if self.gradient is None else [float(v) for v in self.gradient],
            "gradient_norms": None
            if self.gradient_norms is None
            else [float(v) for v in self.gradient_norms],
            "estimates": {k: float(v) for k, v in self.estimates.items()},
            "flags": {k: bool(v) for k, v in self.flags.items()},
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


def differentiability_test(shape: Shape, p, h0: float, rho: float, k_max: int) -> RegularityReport:
    """Best linear fit of d(p + h v) - d(p) over shrinking scale schedules.

    For each admissible scale h = h0 * rho^k the least-squares linear map g_h
    over PROBE_DIRECTIONS unit directions is fitted and the sup residual
    max_v |d(p+hv) - d(p) - h <g_h, v>| / h recorded.  Verdict: differentiable
    when the finest-scale residual drops below 1e-3.  Scales below 1e-12 or
    inside a truncation zone are dropped; if none remain, ScaleUnderflow.
    """
    p = as_point(p, shape.dim)
    if h0 <= 0 or not (0.0 < rho < 1.0) or k_max < 1:
        raise ValueError("need h0 > 0, rho in (0,1), k_max >= 1")
    schedule = [h0 * rho**k for k in range(k_max)]
    scales = [h for h in schedule if shape.probe_scale_ok(p, h)]
    if not scales:
        raise ScaleUnderflow("no admissible probe scale at this point")
    dirs = unit_directions(shape.dim, PROBE_DIRECTIONS)
    d_p = signed_distance(shape, p)

    residuals, norms = [], []
    g_last = None
    for h in scales:
        vals = (signed_distance_many(shape, p + h * dirs) - d_p) / h
        g, *_ = np.linalg.lstsq(dirs, vals, rcond=None)
        residuals.append(float(np.max(np.abs(vals - dirs @ g))))
        norms.append(float(np.linalg.norm(g)))
        g_last = g
    return RegularityReport(
        test="differentiability",
        point=p,
        scales=np.asarray(scales),
        residuals=np.asarray(residuals),
        gradient=g_last,
        gradient_norms=np.asarray(norms),
        estimates={"gradient_norm": norms[-1]},
        flags={
            "differentiable": residuals[-1] < DIFFERENTIABILITY_TOL,
            "schedule_truncated": len(scales) < len(schedule),
        },
    )


def chi_estimate(shape: Shape, p, radii, n_window: int = 64) -> RegularityReport:
    """Max ratio |n' - n''| / |p' - p''| over boundary pairs within shrinking balls.

    The boundary must be C^1 throughout the largest ball (no corners), else
    NotC1InNeighborhood.  The reported estimate is the value at the smallest
    radius; it converges to the normal field's local Lipschitz modulus.
    """
    p = as_point(p, shape.dim)
    radii = np.asarray(sorted(radii, reverse=True), dtype=float)
    if len(radii) == 0 or np.any(radii <= 0):
        raise ValueError("radii must be positive")
    corners = shape.nonsmooth_boundary_points()
    if len(corners) and np.min(np.linalg.norm(corners - p, axis=1)) <= radii[0]:
        raise NotC1InNeighborhood("boundary corner inside the largest window")

    ratios = []
    for r in radii:
        pts, normals = shape.boundary_window(p, r, n_window)
        if len(pts) < 2:
            raise PreconditionViolated(f"window at radius {r} holds fewer than 2 points")
        dn = normals[:, None, :] - normals[None, :, :]
        dp = pts[:, None, :] - pts[None, :, :]
        num = np.linalg.norm(dn, axis=2)
        den = np.linalg.norm(dp, axis=2)
        mask = den > 1e-14
        ratios.append(float(np.max(num[mask] / den[mask])) if np.any(mask) else 0.0)
    return RegularityReport(
        test="chi",
        point=p,
        scales=radii,
        residuals=np.asarray(ratios),
        estimates={"chi": ratios[-1]},
    )


def c1_margin(shape: Shape, p, r: float, n_pairs: int, tol: float = 1e-8,
              seed: int = 0) -> RegularityReport:
    """Sup of |d(x)-d(y)-<grad d(x), x-y>| / (|x-y|^2 - (d(x)-d(y))^2) near p.

    Pairs are sampled in B(p, r) off the boundary with the gradient defined at
    x; pairs with denominator <= 1e-14 are skipped.  The chi/2 reference value
    is attached for comparison.  Raises MedialInBall when a sampled point has a
    non-unique projection.
    """
    p = as_point(p, shape.dim)
    if r <= 0 or n_pairs < 1:
        raise ValueError("need r > 0 and n_pairs >= 1")
    rng = np.random.default_rng(seed)
    m = shape.dim

    need = 2 * n_pairs
    xs, ds, gs = [], [], []
    attempts = 0
    while len(xs) < need and attempts < 200 * need:
        # A block of attempts, each drawn as one normal vector and one uniform.
        block = np.empty((min(need - len(xs), 200 * need - attempts), m))
        for x in block:
            u = rng.normal(size=m)
            u /= np.linalg.norm(u)
            x[:] = p + r * rng.uniform() ** (1.0 / m) * u
        attempts += len(block)
        d = signed_distance_many(shape, block)
        off = np.abs(d) > 1e-12
        block, d = block[off], d[off]
        for x, dx, res in zip(block, d.tolist(), nearest_points_many(shape, block, tol)):
            if res.multiplicity >= 2:
                raise MedialInBall(f"sampled point {x.tolist()} has multiple projections")
            xs.append(x)
            ds.append(dx)
            gs.append(gradient_from_result(shape, x, res))
    if len(xs) < need:
        raise PreconditionViolated("could not sample enough valid pair points")

    ratio_sup = 0.0
    used = 0
    for i in range(0, need, 2):
        x, y = xs[i], xs[i + 1]
        dx, dy = ds[i], ds[i + 1]
        g = gs[i]
        if g is None:
            continue
        denom = float(np.dot(x - y, x - y)) - (dx - dy) ** 2
        if denom <= 1e-14:
            continue
        lhs = abs(dx - dy - float(np.dot(g, x - y)))
        ratio_sup = max(ratio_sup, lhs / denom)
        used += 1
    if used == 0:
        raise PreconditionViolated("no admissible pair had a positive denominator")

    chi_ref = _chi_reference(shape, p, r)
    return RegularityReport(
        test="c1_margin",
        point=p,
        scales=np.asarray([r]),
        residuals=np.asarray([ratio_sup]),
        estimates={"c1_ratio": ratio_sup, "chi_half_reference": 0.5 * chi_ref},
        flags={"pairs_used": used > 0},
    )


def _chi_reference(shape: Shape, p: np.ndarray, r: float) -> float:
    try:
        rep = chi_estimate(shape, p, [min(r, 1e-3)], n_window=48)
        return rep.estimates["chi"]
    except DistanceFieldError:
        return math.nan


@dataclass
class SampleBox:
    """Sampling region for the gradient Lipschitz estimate.

    lo/hi span the bounding box; d_max optionally caps the signed distance;
    exclude (points (n, m) -> bool (n,)) removes extra zones such as margins
    around known medial segments.
    """

    lo: np.ndarray
    hi: np.ndarray
    d_max: float | None = None
    exclude: object | None = None

    def __post_init__(self):
        self.lo = np.atleast_1d(np.asarray(self.lo, dtype=float))
        self.hi = np.atleast_1d(np.asarray(self.hi, dtype=float))


def gradient_lipschitz_estimate(shape: Shape, a: float, delta: float, n_pairs: int,
                                box: SampleBox, seed: int = 0) -> float:
    """Sampled Lipschitz constant of grad d over {d - a >= delta} within box.

    Sampled points must sit at height >= delta above the level a, inside the
    box filters, and on a characteristic that continues for at least delta/3
    beyond them without meeting the medial axis (the forward-clearance
    surrogate for the tube geometry; it makes the 3/delta bound sharp on a
    disk).  Pairs whose connecting segment leaves the admissible region are
    skipped.  Returns max |grad d(x) - grad d(y)| / |x - y|.
    """
    if delta <= 0 or n_pairs < 1:
        raise PreconditionViolated("need delta > 0 and n_pairs >= 1")
    rng = np.random.default_rng(seed)
    m = shape.dim
    need = 2 * n_pairs
    margin = delta / 3.0

    def region_ok(pts: np.ndarray) -> np.ndarray:
        d = signed_distance_many(shape, pts)
        ok = d - a >= delta
        if box.d_max is not None:
            ok &= d <= box.d_max
        if box.exclude is not None:
            ok &= ~np.asarray(box.exclude(pts), dtype=bool)
        return ok

    kept = np.empty((0, m))
    grads = np.empty((0, m))
    draws = 0
    chunk = max(2048, 4 * need)
    while len(kept) < need and draws < 500 * need:
        pts = rng.uniform(box.lo, box.hi, size=(chunk, m))
        draws += chunk
        pts = pts[region_ok(pts)]
        if len(pts) == 0:
            continue
        g = gradient_many(shape, pts)
        unit = np.abs(np.linalg.norm(g, axis=1) - 1.0) < 1e-9
        pts, g = pts[unit], g[unit]
        if len(pts) == 0:
            continue
        ext = pts + margin * g
        g_ext = gradient_many(shape, ext)
        clear = np.linalg.norm(g_ext - g, axis=1) < 1e-6
        kept = np.concatenate([kept, pts[clear]])
        grads = np.concatenate([grads, g[clear]])
    if len(kept) < need:
        raise PreconditionViolated(
            "sampling region too thin: points keep falling below the level band "
            "or too close to the medial axis"
        )
    kept, grads = kept[:need], grads[:need]

    x, y = kept[0::2], kept[1::2]
    gx, gy = grads[0::2], grads[1::2]
    sep = np.linalg.norm(x - y, axis=1)
    ok = sep > 1e-12
    # A pair is admissible only if its segment stays inside the region; 63
    # interior samples detect any excluded strip wider than |x-y|/64.
    for lam in np.arange(1, 64) / 64.0:
        mid = x + lam * (y - x)
        ok &= region_ok(mid)
    if not np.any(ok):
        raise PreconditionViolated("no admissible pair (all segments left the region)")
    return float(np.max(np.linalg.norm(gx[ok] - gy[ok], axis=1) / sep[ok]))

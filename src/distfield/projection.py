"""Signed distance, nearest boundary points, gradients, and medial membership.

The signed distance is positive inside the open domain and negative outside;
its magnitude is the minimum Euclidean distance to the boundary.  Where the
nearest boundary point is unique the distance is differentiable off the
boundary with gradient (x - p(x)) / d(x); where several boundary points tie
(the medial axis) the gradient does not exist and ``gradient`` returns None.
Tolerances make that dichotomy computable: minimizers within ``tol`` of
optimal are clustered at radius ``tol`` and the cluster count is the reported
multiplicity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .shapes import CLUSTER_CAP, ON_BOUNDARY_TOL, Shape, as_point, as_points
from .errors import NotC1, NotOnBoundary

# Multiplicity sentinel: more clusters than CLUSTER_CAP were found, so the
# minimizer set is reported as a continuum (e.g. the center of a disk).
CONTINUUM = 2**31 - 1

DEFAULT_TOL = 1e-8


@dataclass(frozen=True)
class ProjectionResult:
    """Nearest boundary points of one query.

    points   -- cluster representatives, ordered lexicographically;
    distance -- unsigned minimal distance;
    multiplicity -- number of tol-separated minimizer clusters, or CONTINUUM;
    tol_used -- the clustering tolerance that produced this answer.
    """

    points: np.ndarray
    distance: float
    multiplicity: int
    tol_used: float

    @property
    def is_continuum(self) -> bool:
        return self.multiplicity == CONTINUUM


def _cluster(points: np.ndarray, dists: np.ndarray, tol: float):
    """Greedy union of candidate points at merge radius tol.

    Returns (representatives, count); the representative of each cluster is its
    minimal-distance member.
    """
    order = np.argsort(dists, kind="stable")
    reps: list[np.ndarray] = []
    for i in order:
        p = points[i]
        if any(np.linalg.norm(p - r) <= tol for r in reps):
            continue
        reps.append(p)
        if len(reps) > CLUSTER_CAP:
            break
    return reps


def nearest_points(shape: Shape, x, tol: float = DEFAULT_TOL) -> ProjectionResult:
    """All tol-near-optimal nearest boundary points of x, clustered at radius tol."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    x = as_point(x, shape.dim)
    cand = shape.projection_candidates(x, tol)
    d_min = float(np.min(cand.dists))
    keep = cand.dists <= d_min + tol
    reps = _cluster(cand.points[keep], cand.dists[keep], tol)
    if cand.continuum or len(reps) > CLUSTER_CAP:
        count = CONTINUUM
        reps = reps[: CLUSTER_CAP + 1]
    else:
        count = len(reps)
    reps_arr = np.stack(reps)
    order = np.lexsort(reps_arr.T[::-1])
    return ProjectionResult(reps_arr[order], d_min, count, tol)


def signed_distance(shape: Shape, x) -> float:
    """Signed distance of x to the domain boundary (positive inside)."""
    x = as_point(x, shape.dim)
    d, _ = shape.project_many(x[None, :])
    return float(d[0]) if shape.contains(x) else -float(d[0])


def signed_distance_many(shape: Shape, pts) -> np.ndarray:
    """Vectorized signed distance."""
    pts = as_points(pts, shape.dim)
    d, _ = shape.project_many(pts)
    sign = np.where(shape.contains_many(pts), 1.0, -1.0)
    return sign * d


def gradient(shape: Shape, x, tol: float = DEFAULT_TOL) -> np.ndarray | None:
    """Gradient of the signed distance at x, or None where it does not exist.

    Off the boundary the gradient is (x - p(x)) / d(x) whenever the projection
    p(x) is unique at tolerance tol.  On the boundary (within 1e-9) it is the
    inner unit normal at C^1 points, absent at corners.
    """
    x = as_point(x, shape.dim)
    return gradient_from_result(shape, x, nearest_points(shape, x, tol))


def gradient_from_result(shape: Shape, x: np.ndarray, res: ProjectionResult) -> np.ndarray | None:
    """``gradient`` at x from an existing projection result (no re-query)."""
    if res.distance <= ON_BOUNDARY_TOL:
        try:
            return shape.inner_normal(x)
        except (NotC1, NotOnBoundary):
            return None
    if res.multiplicity != 1:
        return None
    d = res.distance if shape.contains(x) else -res.distance
    return (x - res.points[0]) / d


def gradient_many(shape: Shape, pts) -> np.ndarray:
    """Vectorized (x - p(x)) / d(x); rows near the boundary or medial axis are
    not filtered, so callers must restrict to points where the gradient exists."""
    pts = as_points(pts, shape.dim)
    d, proj = shape.project_many(pts)
    sign = np.where(shape.contains_many(pts), 1.0, -1.0)
    sd = sign * d
    safe = np.where(np.abs(sd) < 1e-300, 1.0, sd)
    return (pts - proj) / safe[:, None]


def is_medial(shape: Shape, x, tol: float = DEFAULT_TOL) -> bool:
    """Whether x has at least two tol-separated nearest boundary points."""
    return nearest_points(shape, x, tol).multiplicity >= 2


def brute_force_distance(shape: Shape, x, spacing: float) -> float:
    """Independent oracle: unsigned distance via dense boundary sampling."""
    x = as_point(x, shape.dim)
    samples = shape.boundary_sample(spacing)
    return float(np.min(np.linalg.norm(samples - x, axis=1)))


def brute_force_distance_many(shape: Shape, pts, spacing: float,
                              chunk: int = 256) -> np.ndarray:
    """Vectorized brute-force unsigned distances against one boundary sampling."""
    pts = as_points(pts, shape.dim)
    samples = shape.boundary_sample(spacing)
    s2 = np.sum(samples * samples, axis=1)
    out = np.empty(len(pts))
    for i in range(0, len(pts), chunk):
        block = pts[i : i + chunk]
        d2 = (
            np.sum(block * block, axis=1)[:, None]
            + s2[None, :]
            - 2.0 * (block @ samples.T)
        )
        out[i : i + chunk] = np.sqrt(np.maximum(d2.min(axis=1), 0.0))
    return out

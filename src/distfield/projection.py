"""Signed distance, nearest boundary points, gradients, and medial membership.

The signed distance is positive inside the open domain and negative outside;
its magnitude is the minimum Euclidean distance to the boundary.  Where the
nearest boundary point is unique the distance is differentiable off the
boundary with gradient (x - p(x)) / d(x); where several boundary points tie
(the medial axis) the gradient does not exist and ``gradient`` returns None.
Tolerances make that dichotomy computable: minimizers within ``tol`` of
optimal are clustered at radius ``tol`` and the cluster count is the reported
multiplicity.

One batched engine decides that dichotomy.  ``nearest_points_many`` takes the
queries in blocks of CHUNK rows; each block makes one
``Shape.projection_candidates`` call (one scan and one Newton refinement on
curved shapes, closed forms elsewhere) and clusters each row's near-optimal
candidates.  ``nearest_points``, ``is_medial`` and ``gradient`` are its
one-row case, so a batched answer equals the scalar one row by row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._minimize import CHUNK
from .shapes import CLUSTER_CAP, ON_BOUNDARY_TOL, Shape, as_point, as_points
from .errors import NotC1, NotOnBoundary

# Multiplicity sentinel: the minimizer set is a continuum, flagged by the
# shape (a disk's centre) or holding more than CLUSTER_CAP clusters.
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


def _cluster(points: np.ndarray, tol: float):
    """Greedy union of candidate points, in order, at merge radius tol.

    The points come sorted by distance, so each cluster's representative is its
    minimal-distance member.  Stops after CLUSTER_CAP + 1 representatives.
    """
    reps: list[np.ndarray] = []
    for p in points:
        if any(np.linalg.norm(p - r) <= tol for r in reps):
            continue
        reps.append(p)
        if len(reps) > CLUSTER_CAP:
            break
    return reps


def _nearest_block(shape: Shape, pts: np.ndarray, tol: float) -> list[ProjectionResult]:
    """``nearest_points`` of a block of at most CHUNK validated queries."""
    n = len(pts)
    rows, dists, points, continuum = shape.projection_candidates(pts, tol)
    # Candidates by row, then by distance; ties keep the shape's order.
    order = np.lexsort((dists, rows))
    rows, dists, points = rows[order], dists[order], points[order]
    starts = np.searchsorted(rows, np.arange(n))
    d_min = dists[starts]
    kept = np.bincount(rows, weights=dists <= d_min[rows] + tol, minlength=n)
    starts, kept = starts.tolist(), kept.astype(int).tolist()
    # The near-optimal candidates of a row are a prefix of its run.
    out = []
    for j, (s, k, dense) in enumerate(zip(starts, kept, continuum.tolist())):
        if k == 1 and not dense:
            out.append(ProjectionResult(points[s:s + 1], float(d_min[j]), 1, tol))
            continue
        reps = _cluster(points[s:s + k], tol)
        if dense or len(reps) > CLUSTER_CAP:
            count = CONTINUUM
            reps = reps[: CLUSTER_CAP + 1]
        else:
            count = len(reps)
        reps_arr = np.stack(reps)
        out.append(ProjectionResult(reps_arr[np.lexsort(reps_arr.T[::-1])],
                                    float(d_min[j]), count, tol))
    return out


def nearest_points_many(shape: Shape, pts, tol: float = DEFAULT_TOL) -> list[ProjectionResult]:
    """``nearest_points`` of every row of pts, in blocks of CHUNK rows."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    pts = as_points(pts, shape.dim)
    out: list[ProjectionResult] = []
    for s in range(0, len(pts), CHUNK):
        out += _nearest_block(shape, pts[s:s + CHUNK], tol)
    return out


def nearest_points(shape: Shape, x, tol: float = DEFAULT_TOL) -> ProjectionResult:
    """All tol-near-optimal nearest boundary points of x, clustered at radius tol."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    return _nearest_block(shape, as_point(x, shape.dim)[None, :], tol)[0]


def signed_distance(shape: Shape, x) -> float:
    """Signed distance of x to the domain boundary (positive inside)."""
    return float(signed_distance_many(shape, as_point(x, shape.dim)[None, :])[0])


def signed_distance_many(shape: Shape, pts) -> np.ndarray:
    """Vectorized signed distance."""
    return _signed_projection(shape, pts)[0]


def _signed_projection(shape: Shape, pts):
    """Signed distances (n,) and nearest points (n, m); the sign is ``contains_many``'s."""
    pts = as_points(pts, shape.dim)
    d, proj = shape.project_many(pts)
    return np.where(shape.contains_many(pts), 1.0, -1.0) * d, proj


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
    sd, proj = _signed_projection(shape, pts)
    safe = np.where(np.abs(sd) < 1e-300, 1.0, sd)
    return (pts - proj) / safe[:, None]


def is_medial(shape: Shape, x, tol: float = DEFAULT_TOL) -> bool:
    """Whether x has at least two tol-separated nearest boundary points."""
    return nearest_points(shape, x, tol).multiplicity >= 2


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

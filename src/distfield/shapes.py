"""Analytic domains with exact membership, boundary sampling, and inner normals.

Every downstream computation (distances, projections, characteristics, grid
solves, regularity diagnostics) reaches the geometry only through the shape
classes defined here.  Supported domains:

* ``Disk`` -- disk in the plane, ball in R^3;
* ``Ellipse`` -- planar ellipse (axis-aligned);
* ``HalfSpace`` -- open half-plane / half-space;
* ``Polygon`` -- simple CCW polygon;
* ``Spiral`` -- thickened spiral channel between two turns of a decreasing
  wall curve r = f(theta), truncated at a finite winding;
* ``Cusp`` -- the planar region x1 > |x2|^(1+alpha), 0 < alpha < 1.

Boundary points classify as outside: all domains follow the open-set
convention, so ``contains`` is exact membership of the open domain.

Projection onto the boundary is closed-form for the ball, the half-space and
the polygon.  The curved planar shapes describe their boundary once, as
parametric pieces with per-query parameter windows (see ``Shape``), and share
the scan + Newton engine of ``_minimize``:

* disk rim (2-d) and ellipse -- one closed piece, window [0, 2 pi);
* cusp -- two open branches (t^(1+alpha), +t) and (t^(1+alpha), -t), window
  [0, t_cap(x)] with t_cap bounding |x2| plus an upper bound on the distance,
  parameter range [0, inf);
* spiral -- two open walls f(t) (cos t, sin t) and f(t + pi) (cos t, sin t),
  three windows of width 2 pi around the windings nearest the query,
  parameter range [theta_min, theta_max - pi]; the two end caps are segments
  with closed-form feet and normals.

The same description gives their boundary geometry.  A boundary point is
located as the engine's nearest candidate (piece, t); the inner normal there
is c'(t) turned a quarter turn, counter-clockwise on the disk rim, the
ellipse, the cusp's lower branch and the spiral's outer wall, clockwise on the
cusp's upper branch and the spiral's inner wall; a chi window is a parameter
interval about t.  The ball, the half-space and the polygon keep closed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from ._minimize import SCAN_SAMPLES, candidates, project
from .errors import (
    DimensionMismatch,
    InvalidSpec,
    NotC1,
    NotOnBoundary,
    TruncationExceeded,
)

# A point counts as lying on the boundary within this distance.
ON_BOUNDARY_TOL = 1e-9

# Representative density cap: more than this many tol-separated minimizer
# clusters are reported as a continuum (e.g. the center of a disk).
CLUSTER_CAP = 64


def as_point(x, dim: int) -> np.ndarray:
    """Validate and convert a query point to a float array of the right dimension."""
    p = np.asarray(x, dtype=float)
    if p.shape != (dim,):
        raise DimensionMismatch(f"expected a point in R^{dim}, got shape {p.shape}")
    if not np.all(np.isfinite(p)):
        raise InvalidSpec("point coordinates must be finite")
    return p


def as_points(pts, dim: int) -> np.ndarray:
    """Validate and convert query points to a float array of shape (n, dim)."""
    p = np.asarray(pts, dtype=float)
    if p.ndim != 2 or p.shape[1] != dim:
        raise DimensionMismatch(f"expected points of shape (n, {dim}), got {p.shape}")
    if not np.all(np.isfinite(p)):
        raise InvalidSpec("point coordinates must be finite")
    return p


@dataclass
class Candidates:
    """Refined nearest-boundary-point candidates for one query.

    ``dists``/``points`` list every candidate found (global and near-optimal
    local minimizers plus flat-stretch representatives).  ``continuum`` is set
    when the shape knows the near-optimal set is a whole boundary stretch too
    dense to enumerate (disk center).
    """

    dists: np.ndarray       # (k,)
    points: np.ndarray      # (k, m)
    continuum: bool = False


class Shape:
    """Common interface of the domains.

    Every shape implements ``contains``/``contains_many`` and the boundary
    sampling.  A shape with a closed-form projection overrides
    ``projection_candidates``, ``project_many``, ``inner_normal`` and
    ``boundary_window``.  A curved planar shape instead describes its boundary
    once and inherits all four from the parametric engine:

    * ``_curve(piece, t)`` returns ``(x, y, x', y', x'', y'')`` of the pieces
      ``piece`` (an integer array broadcasting against ``t``) at ``t``, and
      only ``(x, y)`` with ``derivs=False``;
    * ``_windows(pts)`` returns ``(pieces, lo, hi)``: one parameter window
      per entry of ``pieces``, with bounds broadcastable to
      ``(len(pts), len(pieces))``, that together hold every nearest point of
      each query; a window with ``hi <= lo`` is empty;
    * ``_closed`` says whether the pieces are closed curves, scanned
      periodically, or open arcs whose window ends are candidates too;
    * ``_range`` is the parameter range ``(lo, hi)`` of every open piece; a
      closed piece spans one turn about any parameter;
    * ``_orient[piece]`` is +1 where the inner normal is c'(t) turned a
      quarter counter-clockwise, -1 where it is turned clockwise;
    * ``_scan`` is the number of scan samples per window.
    """

    dim: int = 2
    _closed = False
    _scan = SCAN_SAMPLES
    _orient = np.array([1.0])

    # -- membership ---------------------------------------------------------
    def contains(self, x) -> bool:
        raise NotImplementedError

    def bbox(self) -> tuple[np.ndarray, np.ndarray]:
        """Default cube (lo, hi) around the shape, for grids that a scene leaves out."""
        raise NotImplementedError

    # -- boundary -----------------------------------------------------------
    def boundary_sample(self, spacing: float) -> np.ndarray:
        return self.boundary_sample_with_normals(spacing)[0]

    def boundary_sample_with_normals(self, spacing: float):
        raise NotImplementedError

    def nonsmooth_boundary_points(self) -> np.ndarray:
        """Corner points where the boundary is not C^1 (empty for smooth shapes)."""
        return np.empty((0, self.dim))

    def inner_normal(self, p) -> np.ndarray:
        """Inner unit normal at the boundary point p (NotC1 at a corner, NotOnBoundary off it)."""
        p = as_point(p, self.dim)
        if self._at_corner(p):
            raise NotC1(f"the boundary has a corner at {p.tolist()}")
        return self._normals(*self._locate(p))

    def _at_corner(self, p: np.ndarray) -> bool:
        corners = self.nonsmooth_boundary_points()
        return bool(len(corners)) and (
            np.min(np.linalg.norm(corners - p, axis=1)) <= ON_BOUNDARY_TOL)

    def boundary_window(self, p, r: float, n: int):
        """(points, normals) on the boundary within distance r of boundary point p.

        The half-width w of the parameter interval about p's parameter t0
        starts at r / |c'(t0)| and grows by half until each end lies beyond r
        or at the end of the piece's range; of 4n samples of the interval, those
        within r are kept and strided down to about n.
        """
        p = as_point(p, self.dim)
        piece, t0 = self._locate(p)
        lo, hi = (t0 - math.pi, t0 + math.pi) if self._closed else self._range

        def inside(t):
            return lo < t < hi and np.linalg.norm(self._points(piece, t) - p) <= r

        _, _, dx, dy, _, _ = self._curve(piece, t0)
        w = r / math.hypot(dx, dy)
        while inside(t0 - w) or inside(t0 + w):
            w *= 1.5
        ts = np.clip(t0 + np.linspace(-w, w, 4 * n), lo, hi)
        keep = np.linalg.norm(self._points(piece, ts) - p, axis=1) <= r
        ts = ts[keep][:: max(1, int(np.sum(keep)) // n)]
        return self._points(piece, ts), self._normals(piece, ts)

    # -- projection support ---------------------------------------------------
    def projection_candidates(self, x, tol: float) -> Candidates:
        """Refined local minimizers and flat-stretch representatives of one query."""
        d, points, _, _ = candidates(self, as_point(x, self.dim))
        return Candidates(d, points)

    def project_many(self, pts) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized global nearest point: (distances (n,), points (n, m))."""
        return project(self, as_points(pts, self.dim))

    def _points(self, piece, t) -> np.ndarray:
        return np.stack(self._curve(piece, t, derivs=False), axis=-1)

    def _normals(self, piece, t) -> np.ndarray:
        """Inner unit normals (..., 2) at the parameters t of the pieces."""
        _, _, dx, dy, _, _ = self._curve(piece, t)
        s = self._orient[piece] / np.hypot(dx, dy)
        return np.stack([-dy * s, dx * s], axis=-1)

    def _locate(self, p):
        """(piece, t) of the boundary point p: the nearest candidate on the pieces."""
        d, _, piece, t = candidates(self, p)
        j = int(np.argmin(d))
        if d[j] > ON_BOUNDARY_TOL:
            raise NotOnBoundary(f"point {p.tolist()} is {d[j]:.3g} from the curved boundary")
        return int(piece[j]), float(t[j])

    # -- probe admissibility ---------------------------------------------------
    def probe_scale_ok(self, p, h: float) -> bool:
        """Whether distance queries on the sphere of radius h around p are reliable."""
        return h >= 1e-12


# The window of a closed piece parametrized over one full turn.
_ONE_TURN = (np.zeros(1, dtype=int), 0.0, 2.0 * math.pi)


def _spacing_count(length: float, spacing: float) -> int:
    if spacing <= 0:
        raise InvalidSpec("spacing must be positive")
    return max(2, int(math.ceil(length / spacing)) + 1)


# ---------------------------------------------------------------------------
# Disk / ball
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Disk(Shape):
    """Open disk (m=2) or ball (m=3) of given center and radius."""

    center: np.ndarray
    radius: float
    dim: int = field(init=False)

    def __init__(self, center, radius):
        center = np.atleast_1d(np.asarray(center, dtype=float))
        if center.shape[0] not in (2, 3):
            raise InvalidSpec("disk center must live in R^2 or R^3")
        if not np.all(np.isfinite(center)) or not np.isfinite(radius):
            raise InvalidSpec("disk parameters must be finite")
        if radius <= 0:
            raise InvalidSpec("disk radius must be positive")
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "radius", float(radius))
        object.__setattr__(self, "dim", center.shape[0])

    def contains(self, x) -> bool:
        p = as_point(x, self.dim)
        return float(np.linalg.norm(p - self.center)) < self.radius

    def contains_many(self, pts) -> np.ndarray:
        pts = as_points(pts, self.dim)
        return np.linalg.norm(pts - self.center, axis=1) < self.radius

    def boundary_sample_with_normals(self, spacing: float):
        if self.dim == 2:
            n = _spacing_count(2.0 * math.pi * self.radius, spacing) - 1
            ang = 2.0 * math.pi * np.arange(n) / n
            rim = np.stack([np.cos(ang), np.sin(ang)], axis=1)
            return self.center + self.radius * rim, -rim
        # Fibonacci sphere; spacing is approximate for the 3-d ball.
        n = max(8, int(math.ceil(5.2 * (self.radius / spacing) ** 2)))
        k = np.arange(n) + 0.5
        phi = np.arccos(1.0 - 2.0 * k / n)
        theta = math.pi * (1.0 + math.sqrt(5.0)) * k
        rim = np.stack(
            [np.cos(theta) * np.sin(phi), np.sin(theta) * np.sin(phi), np.cos(phi)],
            axis=1,
        )
        return self.center + self.radius * rim, -rim

    def bbox(self):
        return self.center - 2 * self.radius, self.center + 2 * self.radius

    def inner_normal(self, p) -> np.ndarray:
        p = as_point(p, self.dim)
        s = float(np.linalg.norm(p - self.center))
        if abs(s - self.radius) > ON_BOUNDARY_TOL:
            raise NotOnBoundary(f"|p - c| = {s:.12g}, expected {self.radius:.12g}")
        return (self.center - p) / s

    # The 2-d rim is a parametric piece, so that flat near-optimal stretches
    # (center and near-center queries) get the same multiplicity semantics as
    # the other curved shapes; project_many uses the closed form.
    _closed = True

    def _curve(self, piece, t, derivs=True):
        c, s = np.cos(t), np.sin(t)
        r = self.radius
        x, y = self.center[0] + r * c, self.center[1] + r * s
        return (x, y, -r * s, r * c, -r * c, -r * s) if derivs else (x, y)

    def _windows(self, pts):
        return _ONE_TURN

    def projection_candidates(self, x, tol: float) -> Candidates:
        if self.dim == 2:
            return super().projection_candidates(x, tol)
        # 3-d ball: closed form, with an explicit continuum at the center.
        x = as_point(x, self.dim)
        v = x - self.center
        s = float(np.linalg.norm(v))
        if s <= 0.5 * tol:
            reps, _ = self.boundary_sample_with_normals(self.radius * 0.1)
            d = np.linalg.norm(reps - x, axis=1)
            return Candidates(d, reps, continuum=True)
        proj = self.center + self.radius * v / s
        return Candidates(np.array([abs(self.radius - s)]), proj[None, :])

    def project_many(self, pts):
        pts = as_points(pts, self.dim)
        v = pts - self.center
        s = np.linalg.norm(v, axis=1)
        safe = np.where(s > 0.0, s, 1.0)
        proj = self.center + self.radius * v / safe[:, None]
        proj[s == 0.0, 0] += self.radius  # the centre: every rim point is nearest; take c + r e1
        return np.abs(self.radius - s), proj

    def boundary_window(self, p, r: float, n: int):
        if self.dim == 2:
            return super().boundary_window(p, r, n)
        # The spherical cap of points within r of p: polar angles up to the
        # cap's, at equal-area radii, golden-angle azimuths about the axis.
        u = -self.inner_normal(p)
        e1 = np.cross(u, [1.0, 0.0, 0.0] if abs(u[0]) < 0.9 else [0.0, 1.0, 0.0])
        e1 /= np.linalg.norm(e1)
        e2 = np.cross(u, e1)
        cap = 2.0 * math.asin(min(1.0, 0.5 * r / self.radius))
        k = np.arange(n)
        phi = cap * np.sqrt(k / max(n - 1, 1))
        az = math.pi * (3.0 - math.sqrt(5.0)) * k
        rim = (np.cos(phi)[:, None] * u
               + np.sin(phi)[:, None] * (np.cos(az)[:, None] * e1 + np.sin(az)[:, None] * e2))
        pts = self.center + self.radius * rim
        keep = np.linalg.norm(pts - p, axis=1) <= r
        return pts[keep], -rim[keep]


# ---------------------------------------------------------------------------
# Half-space
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HalfSpace(Shape):
    """Open half-space {x : <n, x> > offset}; n is the inward unit normal."""

    unit_normal: np.ndarray
    offset: float
    dim: int = field(init=False)
    extent: float = 10.0  # half-width of the boundary patch used for sampling

    def __init__(self, unit_normal, offset, extent=10.0):
        n = np.atleast_1d(np.asarray(unit_normal, dtype=float))
        if n.shape[0] not in (2, 3):
            raise InvalidSpec("half-space normal must live in R^2 or R^3")
        norm = float(np.linalg.norm(n))
        if not np.isfinite(norm) or abs(norm - 1.0) > 1e-6:
            raise InvalidSpec("unit_normal must have unit length")
        object.__setattr__(self, "unit_normal", n / norm)
        object.__setattr__(self, "offset", float(offset))
        object.__setattr__(self, "dim", n.shape[0])
        object.__setattr__(self, "extent", float(extent))

    def _height(self, pts: np.ndarray) -> np.ndarray:
        return pts @ self.unit_normal - self.offset

    def _tangent_basis(self) -> np.ndarray:
        n = self.unit_normal
        if self.dim == 2:
            return np.array([[-n[1], n[0]]])
        a = np.array([1.0, 0.0, 0.0]) if abs(n[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
        t1 = np.cross(n, a)
        t1 /= np.linalg.norm(t1)
        return np.stack([t1, np.cross(n, t1)])

    def contains(self, x) -> bool:
        return float(self._height(as_point(x, self.dim)[None, :])[0]) > 0.0

    def contains_many(self, pts) -> np.ndarray:
        return self._height(as_points(pts, self.dim)) > 0.0

    def boundary_sample_with_normals(self, spacing: float):
        anchor = self.offset * self.unit_normal
        tb = self._tangent_basis()
        n = _spacing_count(2.0 * self.extent, spacing)
        ts = np.linspace(-self.extent, self.extent, n)
        if self.dim == 2:
            pts = anchor + ts[:, None] * tb[0]
        else:
            u, v = np.meshgrid(ts, ts, indexing="ij")
            pts = anchor + u.reshape(-1, 1) * tb[0] + v.reshape(-1, 1) * tb[1]
        normals = np.broadcast_to(self.unit_normal, pts.shape).copy()
        return pts, normals

    def bbox(self):
        anchor = self.offset * self.unit_normal
        return anchor - 2.0, anchor + 2.0

    def inner_normal(self, p) -> np.ndarray:
        p = as_point(p, self.dim)
        if abs(float(self._height(p[None, :])[0])) > ON_BOUNDARY_TOL:
            raise NotOnBoundary("point is not on the bounding hyperplane")
        return self.unit_normal.copy()

    def projection_candidates(self, x, tol: float) -> Candidates:
        x = as_point(x, self.dim)
        t = float(self._height(x[None, :])[0])
        proj = x - t * self.unit_normal
        return Candidates(np.array([abs(t)]), proj[None, :])

    def project_many(self, pts):
        pts = as_points(pts, self.dim)
        t = self._height(pts)
        return np.abs(t), pts - t[:, None] * self.unit_normal

    def boundary_window(self, p, r: float, n: int):
        p = as_point(p, self.dim)
        if abs(float(self._height(p[None, :])[0])) > ON_BOUNDARY_TOL:
            raise NotOnBoundary("point is not on the bounding hyperplane")
        tb = self._tangent_basis()
        ts = np.linspace(-r, r, n)
        pts = p + ts[:, None] * tb[0]
        normals = np.broadcast_to(self.unit_normal, pts.shape).copy()
        return pts, normals


# ---------------------------------------------------------------------------
# Polygon
# ---------------------------------------------------------------------------

def _segments_properly_intersect(a, b, c, d) -> bool:
    def orient(p, q, r):
        return (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])

    o1, o2 = orient(a, b, c), orient(a, b, d)
    o3, o4 = orient(c, d, a), orient(c, d, b)
    return (o1 * o2 < 0) and (o3 * o4 < 0)


@dataclass(frozen=True)
class Polygon(Shape):
    """Simple closed CCW polygon in the plane."""

    vertices: np.ndarray
    dim: int = field(init=False, default=2)

    def __init__(self, vertices):
        v = np.asarray(vertices, dtype=float)
        if v.ndim != 2 or v.shape[1] != 2 or v.shape[0] < 3:
            raise InvalidSpec("polygon needs at least 3 planar vertices")
        if not np.all(np.isfinite(v)):
            raise InvalidSpec("polygon vertices must be finite")
        nxt = np.roll(v, -1, axis=0)
        if np.any(np.linalg.norm(nxt - v, axis=1) < 1e-14):
            raise InvalidSpec("polygon has a zero-length edge")
        area2 = float(np.sum(v[:, 0] * nxt[:, 1] - nxt[:, 0] * v[:, 1]))
        if area2 <= 0:
            raise InvalidSpec("polygon vertices must wind counter-clockwise")
        n = len(v)
        for i in range(n):
            for j in range(i + 1, n):
                if j == i or (j + 1) % n == i or (i + 1) % n == j:
                    continue
                if _segments_properly_intersect(v[i], v[(i + 1) % n], v[j], v[(j + 1) % n]):
                    raise InvalidSpec("polygon is self-intersecting")
        object.__setattr__(self, "vertices", v)
        object.__setattr__(self, "dim", 2)

    def _edges(self):
        return self.vertices, np.roll(self.vertices, -1, axis=0)

    def contains(self, x) -> bool:
        return bool(self.contains_many(as_point(x, 2)[None, :])[0])

    def contains_many(self, pts) -> np.ndarray:
        pts = as_points(pts, 2)
        a, b = self._edges()
        inside = np.zeros(len(pts), dtype=bool)
        x, y = pts[:, 0], pts[:, 1]
        for (ax, ay), (bx, by) in zip(a, b):
            crosses = (ay > y) != (by > y)
            with np.errstate(divide="ignore", invalid="ignore"):
                xint = ax + (y - ay) * (bx - ax) / (by - ay)
            inside ^= crosses & (x < xint)
        return inside

    def boundary_sample_with_normals(self, spacing: float):
        pts, normals = [], []
        a, b = self._edges()
        for pa, pb in zip(a, b):
            length = float(np.linalg.norm(pb - pa))
            n = _spacing_count(length, spacing)
            ts = np.linspace(0.0, 1.0, n)[:-1]  # endpoint opens the next edge
            seg = pa + ts[:, None] * (pb - pa)
            e = (pb - pa) / length
            inward = np.array([-e[1], e[0]])
            pts.append(seg)
            normals.append(np.broadcast_to(inward, seg.shape).copy())
        return np.concatenate(pts), np.concatenate(normals)

    def nonsmooth_boundary_points(self) -> np.ndarray:
        return self.vertices.copy()

    def bbox(self):
        lo = self.vertices.min(axis=0)
        hi = self.vertices.max(axis=0)
        mid, half = 0.5 * (lo + hi), float(np.max(hi - lo))
        return mid - half, mid + half

    def inner_normal(self, p) -> np.ndarray:
        p = as_point(p, 2)
        if self._at_corner(p):
            raise NotC1("polygon boundary has a corner at this point")
        a, b = self._edges()
        d, foot, _ = self._edge_feet(p[None, :])
        i = int(np.argmin(d[0]))
        if d[0, i] > ON_BOUNDARY_TOL:
            raise NotOnBoundary("point is not on the polygon boundary")
        e = b[i] - a[i]
        e = e / np.linalg.norm(e)
        return np.array([-e[1], e[0]])

    def _edge_feet(self, pts: np.ndarray):
        """Distances (n, n_edges) and feet (n, n_edges, 2) to every edge."""
        a, b = self._edges()
        ab = b - a                                    # (E, 2)
        denom = np.sum(ab * ab, axis=1)               # (E,)
        w = pts[:, None, :] - a[None, :, :]           # (n, E, 2)
        t = np.clip(np.sum(w * ab[None, :, :], axis=2) / denom[None, :], 0.0, 1.0)
        feet = a[None, :, :] + t[:, :, None] * ab[None, :, :]
        d = np.linalg.norm(pts[:, None, :] - feet, axis=2)
        return d, feet, t

    def projection_candidates(self, x, tol: float) -> Candidates:
        x = as_point(x, 2)
        d, feet, _ = self._edge_feet(x[None, :])
        return Candidates(d[0], feet[0])

    def project_many(self, pts):
        pts = as_points(pts, 2)
        d, feet, _ = self._edge_feet(pts)
        i = np.argmin(d, axis=1)
        rows = np.arange(len(pts))
        return d[rows, i], feet[rows, i]

    def boundary_window(self, p, r: float, n: int):
        p = as_point(p, 2)
        if np.min(np.linalg.norm(self.vertices - p, axis=1)) <= r:
            from .errors import NotC1InNeighborhood

            raise NotC1InNeighborhood("a polygon vertex lies inside the window")
        a, b = self._edges()
        d, _, t = self._edge_feet(p[None, :])
        i = int(np.argmin(d[0]))
        if d[0, i] > ON_BOUNDARY_TOL:
            raise NotOnBoundary("point is not on the polygon boundary")
        e = b[i] - a[i]
        length = float(np.linalg.norm(e))
        e = e / length
        s0 = t[0, i] * length
        ss = np.clip(s0 + np.linspace(-r, r, n), 0.0, length)
        pts = a[i] + ss[:, None] * e
        inward = np.array([-e[1], e[0]])
        return pts, np.broadcast_to(inward, pts.shape).copy()


# ---------------------------------------------------------------------------
# Ellipse
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Ellipse(Shape):
    """Planar axis-aligned ellipse with semi-axes (a, b)."""

    semi_axes: np.ndarray
    center: np.ndarray
    dim: int = field(init=False, default=2)

    def __init__(self, semi_axes, center=(0.0, 0.0)):
        axes = np.atleast_1d(np.asarray(semi_axes, dtype=float))
        c = np.atleast_1d(np.asarray(center, dtype=float))
        if axes.shape[0] != 2 or c.shape[0] != 2:
            raise InvalidSpec("only planar ellipses are supported")
        if not np.all(np.isfinite(axes)) or not np.all(np.isfinite(c)):
            raise InvalidSpec("ellipse parameters must be finite")
        if np.any(axes <= 0):
            raise InvalidSpec("ellipse semi-axes must be positive")
        object.__setattr__(self, "semi_axes", axes)
        object.__setattr__(self, "center", c)
        object.__setattr__(self, "dim", 2)

    def _implicit(self, pts: np.ndarray) -> np.ndarray:
        q = (pts - self.center) / self.semi_axes
        return np.sum(q * q, axis=1) - 1.0

    _closed = True

    def _curve(self, piece, t, derivs=True):
        c, s = np.cos(t), np.sin(t)
        a, b = self.semi_axes
        x, y = self.center[0] + a * c, self.center[1] + b * s
        return (x, y, -a * s, b * c, -a * c, -b * s) if derivs else (x, y)

    def _windows(self, pts):
        return _ONE_TURN

    def contains(self, x) -> bool:
        return float(self._implicit(as_point(x, 2)[None, :])[0]) < 0.0

    def contains_many(self, pts) -> np.ndarray:
        return self._implicit(as_points(pts, 2)) < 0.0

    def boundary_sample_with_normals(self, spacing: float):
        a = float(np.max(self.semi_axes))
        n = _spacing_count(2.0 * math.pi * a, spacing) - 1
        ts = 2.0 * math.pi * np.arange(n) / n
        return self._points(0, ts), self._normals(0, ts)

    def bbox(self):
        half = 2.0 * float(np.max(self.semi_axes))
        return self.center - half, self.center + half


# ---------------------------------------------------------------------------
# Cusp
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Cusp(Shape):
    """The planar domain x1 > |x2|^(1+alpha) with 0 < alpha < 1."""

    alpha: float
    extent: float = 4.0  # parameter cap for boundary sampling
    dim: int = field(init=False, default=2)

    def __init__(self, alpha, extent=4.0):
        if not np.isfinite(alpha) or not (0.0 < alpha < 1.0):
            raise InvalidSpec("cusp exponent alpha must lie in (0, 1)")
        object.__setattr__(self, "alpha", float(alpha))
        object.__setattr__(self, "extent", float(extent))
        object.__setattr__(self, "dim", 2)

    _orient = np.array([-1.0, 1.0])
    _range = (0.0, math.inf)

    def _curve(self, piece, t, derivs=True):
        # Branch 0 is (t^(1+a), t), branch 1 its mirror.  x'' blows up at the
        # apex; there it is taken as 0, which keeps Newton steps finite.
        sign = 1.0 - 2.0 * piece
        p = t**self.alpha
        if not derivs:
            return t * p, sign * t
        ex = 1.0 + self.alpha
        return t * p, sign * t, ex * p, sign, ex * self.alpha * p / np.maximum(t, 1e-300), 0.0

    def _windows(self, pts):
        # Any minimizer (t^(1+a), +-t) satisfies |t - |x2|| <= d_ub, with d_ub an
        # upper bound on the distance: the apex and the graph point at height x2.
        x1, ax2 = pts[:, 0], np.abs(pts[:, 1])
        d_ub = np.minimum(np.hypot(x1, ax2), np.abs(ax2 ** (1.0 + self.alpha) - x1))
        return np.array([0, 1]), 0.0, (ax2 + d_ub + 1e-9)[:, None]

    def contains(self, x) -> bool:
        p = as_point(x, 2)
        return p[0] > abs(p[1]) ** (1.0 + self.alpha)

    def contains_many(self, pts) -> np.ndarray:
        pts = as_points(pts, 2)
        return pts[:, 0] > np.abs(pts[:, 1]) ** (1.0 + self.alpha)

    def _speed_max(self, t_hi: float) -> float:
        ex = 1.0 + self.alpha
        return math.sqrt(1.0 + (ex * t_hi**self.alpha) ** 2)

    def boundary_sample_with_normals(self, spacing: float):
        t_hi = self.extent
        n = _spacing_count(t_hi * self._speed_max(t_hi), spacing)
        ts = np.linspace(0.0, t_hi, n)
        ex = 1.0 + self.alpha
        up = np.stack([ts**ex, ts], axis=-1)
        dn = np.stack([ts[1:] ** ex, -ts[1:]], axis=-1)
        return (np.concatenate([up, dn]),
                np.concatenate([self._normals(0, ts), self._normals(1, ts[1:])]))

    def bbox(self):
        return np.array([-0.5, -1.5]), np.array([2.5, 1.5])


# ---------------------------------------------------------------------------
# Spiral
# ---------------------------------------------------------------------------

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class Spiral(Shape):
    """Thickened spiral channel {(r, theta) : f(theta + pi) < r < f(theta)}.

    The wall function is f(theta) = (1 + theta)^(-beta) for the default
    ``wall="power"`` family, or f(theta) = exp(-beta * theta) for
    ``wall="exp"``.  The unwound channel angle runs in
    [theta_min, theta_max - pi]; both spiral walls are truncated at
    theta_max.  Queries with |z| < f(theta_max) / 2 raise TruncationExceeded
    so the truncation can never silently distort an answer near the apex.
    """

    beta: float
    theta_min: float = 0.0
    theta_max: float = 330.0 * math.pi
    wall: str = "power"
    dim: int = field(init=False, default=2)

    def __init__(self, beta, theta_min=0.0, theta_max=330.0 * math.pi, wall="power"):
        if not np.isfinite(beta) or beta <= 0:
            raise InvalidSpec("spiral decay rate beta must be positive")
        if theta_min < 0:
            raise InvalidSpec("theta_min must be nonnegative")
        if theta_max <= theta_min + _TWO_PI:
            raise InvalidSpec("theta_max must exceed theta_min by more than one turn")
        if wall not in ("power", "exp"):
            raise InvalidSpec("wall must be 'power' or 'exp'")
        object.__setattr__(self, "beta", float(beta))
        object.__setattr__(self, "theta_min", float(theta_min))
        object.__setattr__(self, "theta_max", float(theta_max))
        object.__setattr__(self, "wall", wall)
        object.__setattr__(self, "dim", 2)

    # Wall function, its derivative, and closed-form inverse.
    def f(self, theta):
        if self.wall == "power":
            return (1.0 + np.asarray(theta, dtype=float)) ** (-self.beta)
        return np.exp(-self.beta * np.asarray(theta, dtype=float))

    def f_prime(self, theta):
        if self.wall == "power":
            return -self.beta * (1.0 + np.asarray(theta, dtype=float)) ** (-self.beta - 1.0)
        return -self.beta * np.exp(-self.beta * np.asarray(theta, dtype=float))

    def f_inv(self, r):
        if self.wall == "power":
            return np.asarray(r, dtype=float) ** (-1.0 / self.beta) - 1.0
        return -np.log(np.asarray(r, dtype=float)) / self.beta

    @property
    def theta_end(self) -> float:
        return self.theta_max - math.pi

    @property
    def reject_radius(self) -> float:
        return 0.5 * float(self.f(self.theta_max))

    @property
    def safe_radius(self) -> float:
        """Smallest query radius at which truncation provably cannot matter."""
        return float(self.f(max(self.theta_min, self.theta_max - 3.0 * math.pi)))

    def _check_radius(self, r):
        # The apex itself is a boundary point of the untruncated domain with
        # distance exactly zero (the walls accumulate at the origin), so radius
        # 0 is answerable; any other radius below the zone is not.
        r = np.asarray(r)
        if np.any((r < self.reject_radius) & (r != 0.0)):
            raise TruncationExceeded(
                f"query radius below truncation zone {self.reject_radius:.3g}"
            )

    _scan = 512
    _orient = np.array([1.0, -1.0])

    @property
    def _range(self):
        return self.theta_min, self.theta_end

    def _curve(self, piece, t, derivs=True):
        # Piece 0 is the outer wall f(t) e(t), piece 1 the inner wall f(t + pi) e(t).
        th = t + math.pi * piece
        f = self.f(th)
        c, s = np.cos(t), np.sin(t)
        x, y = f * c, f * s
        if not derivs:
            return x, y
        fp = self.f_prime(th)
        fpp = fp * (-(self.beta + 1.0) / (1.0 + th) if self.wall == "power" else -self.beta)
        return (x, y, fp * c - y, fp * s + x,
                (fpp - f) * c - 2.0 * fp * s, (fpp - f) * s + 2.0 * fp * c)

    def _windings(self, pts: np.ndarray):
        """Radii (n,) and the three unwound angles (n, 3) nearest each query's winding."""
        r = np.linalg.norm(pts, axis=1)
        self._check_radius(r)
        alpha = np.arctan2(pts[:, 1], pts[:, 0]) % _TWO_PI
        target = np.clip(self.f_inv(np.maximum(r, 1e-300)), self.theta_min, self.theta_max)
        k0 = np.round((target - alpha) / _TWO_PI)
        return r, alpha[:, None] + _TWO_PI * (k0[:, None] + np.array([-1.0, 0.0, 1.0]))

    def _windows(self, pts):
        _, theta = self._windings(pts)
        lo = np.maximum(self.theta_min, theta - math.pi)
        hi = np.minimum(self.theta_end, theta + math.pi)
        return np.array([0, 0, 0, 1, 1, 1]), np.tile(lo, 2), np.tile(hi, 2)

    def _cap_feet(self, pts: np.ndarray):
        """Distances (n, 2) and feet (n, 2, 2) of the queries on the two end caps."""
        ds, feet = [], []
        for which in (0, 1):
            p0, p1 = self._cap_segment(which)
            e = p1 - p0
            t = np.clip((pts - p0) @ e / float(e @ e), 0.0, 1.0)
            feet.append(p0 + t[:, None] * e)
            ds.append(np.linalg.norm(pts - feet[-1], axis=1))
        return np.stack(ds, axis=1), np.stack(feet, axis=1)

    def _cap_segment(self, which: int):
        if which == 0:
            ang, r0, r1 = self.theta_min, float(self.f(self.theta_min + math.pi)), float(
                self.f(self.theta_min)
            )
        else:
            ang, r0, r1 = self.theta_end, float(self.f(self.theta_max)), float(
                self.f(self.theta_end)
            )
        e = np.array([math.cos(ang), math.sin(ang)])
        return e * r0, e * r1

    def contains(self, x) -> bool:
        return bool(self.contains_many(as_point(x, 2)[None, :])[0])

    def contains_many(self, pts) -> np.ndarray:
        r, theta = self._windings(as_points(pts, 2))
        r = r[:, None]
        ok = (theta >= self.theta_min) & (theta <= self.theta_end)
        th = np.where(ok, theta, self.theta_min)
        return np.any(ok & (self.f(th + math.pi) < r) & (r < self.f(th)), axis=1)

    def boundary_sample_with_normals(self, spacing: float):
        pts, normals = [], []
        for inner in (False, True):
            theta = self.theta_min
            cur_t, cur_p, cur_n = [], [], []
            while theta <= self.theta_end:
                cur_t.append(theta)
                shift = math.pi if inner else 0.0
                fv = float(self.f(theta + shift))
                fp = float(self.f_prime(theta + shift))
                speed = math.hypot(fp, fv)
                theta += 0.9 * spacing / speed
            ts = np.asarray(cur_t)
            if ts[-1] < self.theta_end:
                ts = np.append(ts, self.theta_end)
            pts.append(self._points(int(inner), ts))
            normals.append(self._normals(int(inner), ts))
        for which in (0, 1):
            p0, p1 = self._cap_segment(which)
            n = _spacing_count(float(np.linalg.norm(p1 - p0)), spacing)
            ts = np.linspace(0.0, 1.0, n)
            seg = p0 + ts[:, None] * (p1 - p0)
            pts.append(seg)
            normals.append(np.broadcast_to(self._cap_normal(which), seg.shape).copy())
        return np.concatenate(pts), np.concatenate(normals)

    def _cap_normal(self, which: int) -> np.ndarray:
        ang = self.theta_min if which == 0 else self.theta_end
        return (1.0 - 2.0 * which) * np.array([-math.sin(ang), math.cos(ang)])

    def nonsmooth_boundary_points(self) -> np.ndarray:
        c0 = self._cap_segment(0)
        c1 = self._cap_segment(1)
        return np.stack([c0[0], c0[1], c1[0], c1[1]])

    def bbox(self):
        r = float(self.f(self.theta_min)) * 1.2
        return np.array([-r, -r]), np.array([r, r])

    def inner_normal(self, p) -> np.ndarray:
        # The end caps are segments, not pieces of the engine.
        p = as_point(p, 2)
        cap_d, _ = self._cap_feet(p[None, :])
        which = int(np.argmin(cap_d[0]))
        if cap_d[0, which] > ON_BOUNDARY_TOL or self._at_corner(p):
            return super().inner_normal(p)
        return self._cap_normal(which)

    def projection_candidates(self, x, tol: float) -> Candidates:
        x = as_point(x, 2)
        if not x.any():
            return Candidates(np.array([0.0]), np.zeros((1, 2)))
        cand = super().projection_candidates(x, tol)
        cap_d, cap_p = self._cap_feet(x[None, :])
        return Candidates(np.concatenate([cand.dists, cap_d[0]]),
                          np.concatenate([cand.points, cap_p[0]]))

    def project_many(self, pts):
        pts = as_points(pts, 2)
        best_d, best_p = super().project_many(pts)
        cap_d, cap_p = self._cap_feet(pts)
        for which in (0, 1):
            take = cap_d[:, which] < best_d
            best_d[take] = cap_d[take, which]
            best_p[take] = cap_p[take, which]
        apex = ~pts.any(axis=1)
        best_d[apex] = 0.0
        best_p[apex] = 0.0
        return best_d, best_p

    def probe_scale_ok(self, p, h: float) -> bool:
        if h < 1e-12:
            return False
        min_radius = abs(float(np.linalg.norm(p)) - h)
        return min_radius >= self.safe_radius


# ---------------------------------------------------------------------------
# Construction from declarative specs
# ---------------------------------------------------------------------------

_SHAPE_TYPES = {
    "disk": Disk,
    "ellipse": Ellipse,
    "halfspace": HalfSpace,
    "polygon": Polygon,
    "spiral": Spiral,
    "cusp": Cusp,
}


def make_shape(spec) -> Shape:
    """Build a validated shape from a spec mapping (or pass a shape through).

    Spec schema: {"type": "disk"|"ellipse"|"halfspace"|"polygon"|"spiral"|"cusp",
    ...type-specific fields...}; see the shape classes for field names.
    """
    if isinstance(spec, Shape):
        return spec
    if not isinstance(spec, dict):
        raise InvalidSpec(f"shape spec must be a mapping, got {type(spec).__name__}")
    kind = spec.get("type")
    if kind not in _SHAPE_TYPES:
        raise InvalidSpec(f"unknown shape type {kind!r}")
    kwargs = {k: v for k, v in spec.items() if k != "type"}
    try:
        return _SHAPE_TYPES[kind](**kwargs)
    except TypeError as exc:
        raise InvalidSpec(f"bad fields for shape type {kind!r}: {exc}") from exc


def shape_spec(shape: Shape) -> dict:
    """Inverse of make_shape: a JSON-serializable spec mapping.

    The fields are the dataclass fields that the constructor takes.
    """
    kind = next((k for k, cls in _SHAPE_TYPES.items() if type(shape) is cls), None)
    if kind is None:
        raise InvalidSpec(f"cannot serialize shape of type {type(shape).__name__}")
    spec = {"type": kind}
    for f in fields(shape):
        if f.init:
            v = getattr(shape, f.name)
            spec[f.name] = v.tolist() if isinstance(v, np.ndarray) else v
    return spec

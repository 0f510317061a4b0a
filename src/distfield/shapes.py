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
convention, so ``contains`` is exact membership of the open domain.  A shape
answers membership once, in ``contains_many``; ``contains`` is its one-row case.

``Shape`` answers projection and inner normals once, from two descriptions of
the boundary (see ``Shape``).  Curved pieces are parametric, with per-query
parameter windows, and go through the scan + Newton engine of ``_minimize``:

* ellipse -- one closed piece, window [0, 2 pi);
* cusp -- two open branches (t^(1+alpha), +t) and (t^(1+alpha), -t), window
  [0, t_cap(x)] with t_cap bounding |x2| plus an upper bound on the distance,
  parameter range [0, inf);
* spiral -- two open walls f(t) (cos t, sin t) and f(t + pi) (cos t, sin t),
  three windows of width 2 pi around the windings nearest the query,
  parameter range [theta_min, theta_max - pi].

Straight pieces have closed-form feet and normals, given by ``_feet``: the
half-space's plane, the polygon's edges and the spiral's two end caps.

The curve description gives the boundary geometry too.  A boundary point off
the straight pieces is located as the engine's nearest candidate (piece, t);
the inner normal there is c'(t) turned a quarter turn, counter-clockwise on the
ellipse, the cusp's lower branch and the spiral's outer wall, clockwise on the
cusp's upper branch and the spiral's inner wall; a chi window is a parameter
interval about t.  The disk and the ball answer all of this in closed form.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, fields

import numpy as np

from ._minimize import SCAN_SAMPLES, candidates, project
from .errors import (
    DimensionMismatch,
    InvalidSpec,
    NotC1,
    NotC1InNeighborhood,
    NotOnBoundary,
    PreconditionViolated,
    TruncationExceeded,
)

# A point counts as lying on the boundary within this distance.
ON_BOUNDARY_TOL = 1e-9

# Most points that one boundary sampling may hold; a finer spacing is refused
# before anything is allocated.
MAX_BOUNDARY_SAMPLES = 10**7

# Representative density cap: more than this many tol-separated minimizer
# clusters are reported as a continuum (e.g. the centre of a circle-shaped
# ellipse).
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


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products of a (n, m) with b (m,) or (n, m).

    Each row is one vector product, so a row's value does not depend on the
    other rows (a matrix-vector product of several rows may round differently
    from the same product on one row).
    """
    return (a[:, None, :] @ b[..., None])[:, 0, 0]


class Shape:
    """Common interface of the domains.

    Every shape implements ``contains_many``, ``bbox`` and the boundary
    sampling.  ``Shape`` answers membership of one point (``contains``),
    projection (``project_many``, ``projection_candidates``) and inner normals
    (``inner_normal``) once, from two descriptions of the boundary.

    Straight pieces with closed-form feet come in through one hook:

    * ``_feet(pts)`` returns distances (n, k), feet (n, k, m) and inner
      normals (k, m) of the queries on the k straight pieces (none by
      default).  ``project_many`` takes the first minimum over the engine's
      answer on the curved pieces and then the feet in this order;
      ``projection_candidates`` lists each row's feet after the engine's
      candidates; ``inner_normal`` on a straight piece is that piece's normal.

    Curved planar pieces are described once for the parametric engine
    (``_curved`` is False on a shape without them):

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
    * ``_scan`` is the number of scan samples per window;
    * ``_speed_bound(piece, t_lo, t_hi)`` bounds the speed |c'(t)| of the
      pieces ``piece`` over [t_lo, t_hi] from above (arrays broadcasting
      together); the scan of ``project_many`` culls with it, so a bound below
      the speed anywhere can change answers.

    The same description gives ``boundary_window``; a shape without curved
    pieces overrides it.
    """

    dim: int = 2
    _curved = True
    _closed = False
    _scan = SCAN_SAMPLES
    _orient = np.array([1.0])

    # -- membership ---------------------------------------------------------
    def contains(self, x) -> bool:
        """Membership of the point x: ``contains_many`` on one row."""
        return bool(self.contains_many(as_point(x, self.dim)[None, :])[0])

    def contains_many(self, pts) -> np.ndarray:
        """Membership (n,) of the open domain for each row of pts."""
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
        d, _, normals = self._feet(p[None, :])
        if d.shape[1] and np.min(d) <= ON_BOUNDARY_TOL:
            return normals[np.argmin(d[0])].copy()
        if not self._curved:
            raise NotOnBoundary(f"point {p.tolist()} is {np.min(d):.3g} from the boundary")
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
    def _feet(self, pts: np.ndarray):
        """Distances (n, k), feet (n, k, m) and inner normals (k, m) on the straight pieces."""
        return np.empty((len(pts), 0)), np.empty((len(pts), 0, self.dim)), np.empty((0, self.dim))

    def projection_candidates(self, pts, tol: float):
        """Nearest-boundary-point candidates of a block of queries (n, m).

        Returns flat arrays (rows, dists, points, continuum): each candidate's
        query row, distance and point (k, m), and per query a flag (n,) that
        the near-optimal set is a whole boundary stretch too dense to
        enumerate (the disk centre).  Candidates of one row keep a fixed
        order, which breaks distance ties: the engine's, then the feet.  Every
        refined local minimizer is a candidate, with flat stretches
        represented by their scan samples.  One scan serves the whole block,
        so callers pass blocks of at most ``_minimize.CHUNK`` rows.
        """
        pts = as_points(pts, self.dim)
        n = len(pts)
        d, feet, _ = self._feet(pts)
        rows = np.repeat(np.arange(n), d.shape[1])
        d, points = d.ravel(), feet.reshape(-1, self.dim)
        if self._curved:
            c_rows, c_d, c_points, _, _ = candidates(self, pts)
            rows, d, points = (np.concatenate([c_rows, rows]), np.concatenate([c_d, d]),
                               np.concatenate([c_points, points]))
        return rows, d, points, np.zeros(n, dtype=bool)

    def _answerable(self, pts: np.ndarray) -> np.ndarray:
        """Rows (n,) that a distance query answers rather than rejects."""
        return np.ones(len(pts), dtype=bool)

    def project_many(self, pts) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized global nearest point: (distances (n,), points (n, m)).

        The first minimum over the engine's answer and the feet, in that order.
        """
        pts = as_points(pts, self.dim)
        d, feet, _ = self._feet(pts)
        if self._curved:
            d_c, p_c = project(self, pts)
            d = np.concatenate([d_c[:, None], d], axis=1)
            feet = np.concatenate([p_c[:, None, :], feet], axis=1)
        rows = np.arange(len(pts))
        i = np.argmin(d, axis=1)
        return d[rows, i], feet[rows, i]

    def _points(self, piece, t) -> np.ndarray:
        return np.stack(self._curve(piece, t, derivs=False), axis=-1)

    def _normals(self, piece, t) -> np.ndarray:
        """Inner unit normals (..., 2) at the parameters t of the pieces."""
        _, _, dx, dy, _, _ = self._curve(piece, t)
        s = self._orient[piece] / np.hypot(dx, dy)
        return np.stack([-dy * s, dx * s], axis=-1)

    def _locate(self, p):
        """(piece, t) of the boundary point p: the nearest candidate on the pieces."""
        _, d, _, piece, t = candidates(self, p[None, :])
        j = int(np.argmin(d))
        if d[j] > ON_BOUNDARY_TOL:
            raise NotOnBoundary(f"point {p.tolist()} is {d[j]:.3g} from the curved boundary")
        return int(piece[j]), float(t[j])

    # -- probe admissibility ---------------------------------------------------
    def probe_scale_ok(self, p, h: float) -> bool:
        """Whether distance queries on the sphere of radius h around p are reliable."""
        return h >= 1e-12

    # -- identity ---------------------------------------------------------------
    def __eq__(self, other):
        """Shapes of one type are equal when their ``shape_spec``s are."""
        return type(other) is type(self) and self._spec_key() == other._spec_key()

    def __hash__(self):
        return hash(self._spec_key())

    def _spec_key(self) -> tuple:
        def frozen(v):
            return tuple(map(frozen, v)) if isinstance(v, list) else v
        return tuple((k, frozen(v)) for k, v in shape_spec(self).items())


def _positive(spacing: float) -> float:
    if not spacing > 0:
        raise InvalidSpec("spacing must be positive")
    return spacing


def _check_count(count: float, spacing: float):
    """Refuse a sampling of more than MAX_BOUNDARY_SAMPLES points."""
    if not count <= MAX_BOUNDARY_SAMPLES:
        raise PreconditionViolated(
            f"spacing {spacing:g} asks for {count:.3g} boundary samples, more than "
            f"the {MAX_BOUNDARY_SAMPLES:.0e} allowed")


def _spacing_count(length: float, spacing: float) -> int:
    _check_count(length / _positive(spacing), spacing)
    return max(2, int(math.ceil(length / spacing)) + 1)


def unit_directions(dim: int, n: int) -> np.ndarray:
    """n deterministic unit directions (n, dim): equal angles in the plane, a
    Fibonacci sphere in R^3."""
    if dim == 2:
        ang = 2.0 * math.pi * np.arange(n) / n
        return np.stack([np.cos(ang), np.sin(ang)], axis=1)
    k = np.arange(n) + 0.5
    phi = np.arccos(1.0 - 2.0 * k / n)
    theta = math.pi * (1.0 + math.sqrt(5.0)) * k
    return np.stack(
        [np.cos(theta) * np.sin(phi), np.sin(theta) * np.sin(phi), np.cos(phi)], axis=1
    )


# ---------------------------------------------------------------------------
# Disk / ball
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
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

    _curved = False

    def contains_many(self, pts) -> np.ndarray:
        pts = as_points(pts, self.dim)
        return np.linalg.norm(pts - self.center, axis=1) < self.radius

    def boundary_sample_with_normals(self, spacing: float):
        if self.dim == 2:
            n = _spacing_count(2.0 * math.pi * self.radius, spacing) - 1
        else:
            # Fibonacci sphere; spacing is approximate for the 3-d ball.
            q = self.radius / _positive(spacing)
            _check_count(5.2 * q * q, spacing)   # q**2 would raise on overflow
            n = max(8, int(math.ceil(5.2 * q**2)))
        rim = unit_directions(self.dim, n)
        return self.center + self.radius * rim, -rim

    def bbox(self):
        return self.center - 2 * self.radius, self.center + 2 * self.radius

    def inner_normal(self, p) -> np.ndarray:
        p = as_point(p, self.dim)
        s = float(np.linalg.norm(p - self.center))
        if abs(s - self.radius) > ON_BOUNDARY_TOL:
            raise NotOnBoundary(f"|p - c| = {s:.12g}, expected {self.radius:.12g}")
        return (self.center - p) / s

    def projection_candidates(self, pts, tol: float):
        # Closed form; a query within tol/2 of the centre is a continuum, listed
        # by a sample of the rim or sphere.
        pts = as_points(pts, self.dim)
        v = pts - self.center
        s = np.sqrt(_rowdot(v, v))
        continuum = s <= 0.5 * tol
        rows, d = np.arange(len(pts)), np.abs(self.radius - s)
        proj = self.center + self.radius * v / np.where(continuum, 1.0, s)[:, None]
        if continuum.any():
            reps, _ = self.boundary_sample_with_normals(self.radius * 0.1)
            c, keep = np.flatnonzero(continuum), ~continuum
            rows = np.concatenate([rows[keep], np.repeat(c, len(reps))])
            d = np.concatenate([d[keep], np.linalg.norm(
                reps[None, :, :] - pts[c, None, :], axis=2).ravel()])
            proj = np.concatenate([proj[keep], np.tile(reps, (len(c), 1))])
        return rows, d, proj, continuum

    def project_many(self, pts):
        pts = as_points(pts, self.dim)
        v = pts - self.center
        s = np.linalg.norm(v, axis=1)
        safe = np.where(s > 0.0, s, 1.0)
        proj = self.center + self.radius * v / safe[:, None]
        proj[s == 0.0, 0] += self.radius  # the centre: every rim point is nearest; take c + r e1
        return np.abs(self.radius - s), proj

    def boundary_window(self, p, r: float, n: int):
        # The cap of rim points within r of p, of half-angle 2 asin(r / 2R)
        # about u = (p - c) / R.  In the plane: n equal angles strictly inside
        # it.  On the sphere: polar angles up to it, at equal-area radii,
        # golden-angle azimuths about u.
        u = -self.inner_normal(p)
        cap = 2.0 * math.asin(min(1.0, 0.5 * r / self.radius))
        if self.dim == 2:
            phi = cap * (2.0 * np.arange(n) + 1.0 - n) / n
            side = np.array([-u[1], u[0]])
        else:
            e1 = np.cross(u, [1.0, 0.0, 0.0] if abs(u[0]) < 0.9 else [0.0, 1.0, 0.0])
            e1 /= np.linalg.norm(e1)
            k = np.arange(n)
            phi = cap * np.sqrt(k / max(n - 1, 1))
            az = math.pi * (3.0 - math.sqrt(5.0)) * k
            side = np.cos(az)[:, None] * e1 + np.sin(az)[:, None] * np.cross(u, e1)
        rim = np.cos(phi)[:, None] * u + np.sin(phi)[:, None] * side
        pts = self.center + self.radius * rim
        keep = np.linalg.norm(pts - p, axis=1) <= r
        return pts[keep], -rim[keep]


# ---------------------------------------------------------------------------
# Half-space
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
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
        # A fixed point, so that HalfSpace(h.unit_normal, ...) == h: n / |n|, or n
        # (normalised first unless unit to within rounding) where that would move.
        n = n / norm if abs(norm - 1.0) > 2.0**-50 else n
        u = n / np.linalg.norm(n)
        stable = np.array_equal(u / np.linalg.norm(u), u)
        object.__setattr__(self, "unit_normal", u if stable else n)
        object.__setattr__(self, "offset", float(offset))
        object.__setattr__(self, "dim", n.shape[0])
        object.__setattr__(self, "extent", float(extent))

    _curved = False

    def _height(self, pts: np.ndarray) -> np.ndarray:
        return _rowdot(pts, self.unit_normal) - self.offset

    def _tangent_basis(self) -> np.ndarray:
        n = self.unit_normal
        if self.dim == 2:
            return np.array([[-n[1], n[0]]])
        a = np.array([1.0, 0.0, 0.0]) if abs(n[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
        t1 = np.cross(n, a)
        t1 /= np.linalg.norm(t1)
        return np.stack([t1, np.cross(n, t1)])

    def contains_many(self, pts) -> np.ndarray:
        return self._height(as_points(pts, self.dim)) > 0.0

    def boundary_sample_with_normals(self, spacing: float):
        anchor = self.offset * self.unit_normal
        tb = self._tangent_basis()
        n = _spacing_count(2.0 * self.extent, spacing)
        _check_count(n ** (self.dim - 1), spacing)
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

    def _feet(self, pts):
        t = self._height(pts)
        return (np.abs(t)[:, None], (pts - t[:, None] * self.unit_normal)[:, None, :],
                self.unit_normal[None, :])

    def boundary_window(self, p, r: float, n: int):
        p = as_point(p, self.dim)
        normal = self.inner_normal(p)
        ts = np.linspace(-r, r, n)
        pts = p + ts[:, None] * self._tangent_basis()[0]
        return pts, np.broadcast_to(normal, pts.shape).copy()


# ---------------------------------------------------------------------------
# Polygon
# ---------------------------------------------------------------------------

def _segments_properly_intersect(a, b, c, d) -> bool:
    def orient(p, q, r):
        return (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])

    o1, o2 = orient(a, b, c), orient(a, b, d)
    o3, o4 = orient(c, d, a), orient(c, d, b)
    return (o1 * o2 < 0) and (o3 * o4 < 0)


@dataclass(frozen=True, eq=False)
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
            for j in range(i + 2, n - (i == 0)):    # the edges not adjacent to edge i
                if _segments_properly_intersect(v[i], v[(i + 1) % n], v[j], v[(j + 1) % n]):
                    raise InvalidSpec("polygon is self-intersecting")
        object.__setattr__(self, "vertices", v)
        object.__setattr__(self, "dim", 2)

    _curved = False

    @functools.cached_property
    def _edges(self):
        """Start and end points (n_edges, 2) of the edges."""
        return self.vertices, np.roll(self.vertices, -1, axis=0)

    @functools.cached_property
    def _inward(self) -> np.ndarray:
        """Inner unit normals (n_edges, 2) of the edges."""
        a, b = self._edges
        units = [e / np.linalg.norm(e) for e in b - a]
        return np.array([[-e[1], e[0]] for e in units])

    def contains_many(self, pts) -> np.ndarray:
        pts = as_points(pts, 2)
        a, b = self._edges
        inside = np.zeros(len(pts), dtype=bool)
        x, y = pts[:, 0], pts[:, 1]
        with np.errstate(divide="ignore", invalid="ignore"):
            for (ax, ay), (bx, by) in zip(a, b):
                crosses = (ay > y) != (by > y)
                xint = ax + (y - ay) * (bx - ax) / (by - ay)
                inside ^= crosses & (x < xint)
        return inside

    def boundary_sample_with_normals(self, spacing: float):
        pts, normals = [], []
        a, b = self._edges
        counts = [_spacing_count(float(np.linalg.norm(pb - pa)), spacing) for pa, pb in zip(a, b)]
        _check_count(sum(counts), spacing)
        for pa, pb, inward, n in zip(a, b, self._inward, counts):
            ts = np.linspace(0.0, 1.0, n)[:-1]  # endpoint opens the next edge
            seg = pa + ts[:, None] * (pb - pa)
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

    def _edge_feet(self, pts: np.ndarray):
        """Distances (n, n_edges) and feet (n, n_edges, 2) to every edge."""
        a, b = self._edges
        ab = b - a                                    # (E, 2)
        denom = np.sum(ab * ab, axis=1)               # (E,)
        w = pts[:, None, :] - a[None, :, :]           # (n, E, 2)
        t = np.clip(np.sum(w * ab[None, :, :], axis=2) / denom[None, :], 0.0, 1.0)
        feet = a[None, :, :] + t[:, :, None] * ab[None, :, :]
        d = np.linalg.norm(pts[:, None, :] - feet, axis=2)
        return d, feet, t

    def _feet(self, pts):
        d, feet, _ = self._edge_feet(pts)
        return d, feet, self._inward

    def boundary_window(self, p, r: float, n: int):
        p = as_point(p, 2)
        if np.min(np.linalg.norm(self.vertices - p, axis=1)) <= r:
            raise NotC1InNeighborhood("a polygon vertex lies inside the window")
        inward = self.inner_normal(p)
        a, b = self._edges
        d, _, t = self._edge_feet(p[None, :])
        i = int(np.argmin(d[0]))
        e = b[i] - a[i]
        length = float(np.linalg.norm(e))
        e = e / length
        s0 = t[0, i] * length
        ss = np.clip(s0 + np.linspace(-r, r, n), 0.0, length)
        pts = a[i] + ss[:, None] * e
        return pts, np.broadcast_to(inward, pts.shape).copy()


# ---------------------------------------------------------------------------
# Ellipse
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
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

    _closed = True

    def _curve(self, piece, t, derivs=True):
        c, s = np.cos(t), np.sin(t)
        a, b = self.semi_axes
        x, y = self.center[0] + a * c, self.center[1] + b * s
        return (x, y, -a * s, b * c, -a * c, -b * s) if derivs else (x, y)

    def _speed_bound(self, piece, t_lo, t_hi):
        return float(np.max(self.semi_axes))

    def _windows(self, pts):
        return np.zeros(1, dtype=int), 0.0, 2.0 * math.pi      # one full turn

    def contains_many(self, pts) -> np.ndarray:
        q = (as_points(pts, 2) - self.center) / self.semi_axes
        return np.sum(q * q, axis=1) - 1.0 < 0.0

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

@dataclass(frozen=True, eq=False)
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

    def contains_many(self, pts) -> np.ndarray:
        pts = as_points(pts, 2)
        return pts[:, 0] > np.abs(pts[:, 1]) ** (1.0 + self.alpha)

    def _speed_bound(self, piece, t_lo, t_hi):
        # The speed sqrt(1 + ((1 + alpha) t^alpha)^2) grows with t.
        return np.sqrt(1.0 + ((1.0 + self.alpha) * t_hi**self.alpha) ** 2)

    def boundary_sample_with_normals(self, spacing: float):
        t_hi = self.extent
        n = _spacing_count(t_hi * self._speed_bound(0, 0.0, t_hi), spacing)
        _check_count(2 * n - 1, spacing)
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
# Parameter intervals of the bound on the size of a spiral's boundary sample.
WALL_INTERVALS = 4096


@dataclass(frozen=True, eq=False)
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

    def _truncated(self, r: np.ndarray) -> np.ndarray:
        # The apex itself is a boundary point of the untruncated domain with
        # distance exactly zero (the walls accumulate at the origin), so radius
        # 0 is answerable; any other radius below the zone is not.
        return (r < self.reject_radius) & (r != 0.0)

    def _check_radius(self, r):
        if np.any(self._truncated(np.asarray(r))):
            raise TruncationExceeded(
                f"query radius below truncation zone {self.reject_radius:.3g}"
            )

    def _answerable(self, pts: np.ndarray) -> np.ndarray:
        return ~self._truncated(np.linalg.norm(pts, axis=1))

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

    def _speed_bound(self, piece, t_lo, t_hi):
        # The speed |c'| = hypot(f, f') at theta = t + pi piece falls with t:
        # both wall families have f and |f'| decreasing.
        th = t_lo + math.pi * piece
        return np.hypot(self.f(th), self.f_prime(th))

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

    def _feet(self, pts: np.ndarray):
        # The two end caps are segments.
        ds, feet = [], []
        for p0, _, e, ee in self._caps:
            t = np.clip(_rowdot(pts - p0, e) / ee, 0.0, 1.0)
            feet.append(p0 + t[:, None] * e)
            ds.append(np.linalg.norm(pts - feet[-1], axis=1))
        return np.stack(ds, axis=1), np.stack(feet, axis=1), self._cap_normals

    @functools.cached_property
    def _caps(self):
        """Per end cap, at theta_min and then theta_end: its ends p0 (inner wall)
        and p1 (outer wall), its direction e = p1 - p0 and |e|^2."""
        caps = []
        ends = ((self.theta_min, self.f(self.theta_min + math.pi), self.f(self.theta_min)),
                (self.theta_end, self.f(self.theta_max), self.f(self.theta_end)))
        for ang, r0, r1 in ends:
            u = np.array([math.cos(ang), math.sin(ang)])
            p0, p1 = u * float(r0), u * float(r1)
            e = p1 - p0
            caps.append((p0, p1, e, float(e @ e)))
        return tuple(caps)

    @functools.cached_property
    def _cap_normals(self) -> np.ndarray:
        """Inner unit normals (2, 2) of the end caps at theta_min and theta_end."""
        return np.stack([sign * np.array([-math.sin(ang), math.cos(ang)])
                         for sign, ang in ((1.0, self.theta_min), (-1.0, self.theta_end))])

    def contains_many(self, pts) -> np.ndarray:
        r, theta = self._windings(as_points(pts, 2))
        r = r[:, None]
        ok = (theta >= self.theta_min) & (theta <= self.theta_end)
        th = np.where(ok, theta, self.theta_min)
        return np.any(ok & (self.f(th + math.pi) < r) & (r < self.f(th)), axis=1)

    def boundary_sample_with_normals(self, spacing: float):
        # A wall step moves theta by 0.9 spacing / speed.  The speed falls with
        # theta, so on each of WALL_INTERVALS equal parameter intervals it is at
        # most its value at the start, which bounds the steps in the interval.
        edges = np.linspace(self.theta_min, self.theta_end, WALL_INTERVALS + 1)
        speeds = self._speed_bound(np.array([[0], [1]]), edges[:-1], edges[1:])
        arc = np.sum(speeds * np.diff(edges))
        caps = [_spacing_count(float(np.linalg.norm(p1 - p0)), spacing)
                for p0, p1, _, _ in self._caps]
        _check_count(arc / (0.9 * spacing) + 2 * (WALL_INTERVALS + 2) + sum(caps), spacing)
        pts, normals = [], []
        for inner in (False, True):
            theta = self.theta_min
            cur_t = []
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
        for (p0, p1, _, _), normal, n in zip(self._caps, self._cap_normals, caps):
            ts = np.linspace(0.0, 1.0, n)
            seg = p0 + ts[:, None] * (p1 - p0)
            pts.append(seg)
            normals.append(np.broadcast_to(normal, seg.shape).copy())
        return np.concatenate(pts), np.concatenate(normals)

    def nonsmooth_boundary_points(self) -> np.ndarray:
        return np.stack([p for p0, p1, _, _ in self._caps for p in (p0, p1)])

    def bbox(self):
        r = float(self.f(self.theta_min)) * 1.2
        return np.array([-r, -r]), np.array([r, r])

    # The apex, a boundary point of the untruncated domain, is its own answer.
    def projection_candidates(self, pts, tol: float):
        pts = as_points(pts, 2)
        live = pts.any(axis=1)
        rows, d, points, _ = super().projection_candidates(pts[live], tol)
        apex = np.flatnonzero(~live)
        rows = np.concatenate([np.flatnonzero(live)[rows], apex])
        d = np.concatenate([d, np.zeros(len(apex))])
        points = np.concatenate([points, np.zeros((len(apex), 2))])
        return rows, d, points, np.zeros(len(pts), dtype=bool)

    def project_many(self, pts):
        pts = as_points(pts, 2)
        d, points = super().project_many(pts)
        apex = ~pts.any(axis=1)
        d[apex], points[apex] = 0.0, 0.0
        return d, points

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

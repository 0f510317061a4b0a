"""First-order fast marching for |grad u| = 1 with u = 0 on the boundary.

The solver freezes every grid node within band_width spacings of the boundary
to its exact signed distance, then fills each sign region independently with
the standard upwind quadratic update driven by a min-heap narrow band, and
merges the two regions with the inside-positive sign convention.  The exact
distance is evaluated only where the band cannot be ruled out: |d| is
1-Lipschitz, so its value at a node c of a coarse subgrid bounds it below at
every nearby node x by |d(c)| - |x - c|, and a node whose bound clears the
band is never evaluated; every node still gets its sign from membership.  The
bound holds exactly, so the frozen band and its values are those of a full
evaluation.  The march runs on the grid padded by one dead node per side, so
every neighbour is a fixed index offset.  Level sets are extracted with linear
interpolation along cell edges (marching squares); the cells are classified
with numpy and only the active ones, whose corners straddle the level, are
visited.  The distance-to-level-set identity dist(y, S_a) = u(y) - a can be
verified against a dense sampling of the analytic level set."""

from __future__ import annotations

import heapq
import io
import json
import math
from dataclasses import dataclass

import numpy as np

from ._csv import csv_row
from .errors import EmptyBand, InvalidSpec, InvalidTube, LevelOutOfRange
from .projection import nearest_points, signed_distance_many
from .shapes import Shape, as_points

# Node stride of the subgrid on which solve_fmm evaluates the exact distance
# everywhere; the last node of each axis belongs to the subgrid too.
CULL_STRIDE = 8
# Relative slack of the Lipschitz cull, covering rounding in the distances
# and node coordinates; it can only add evaluated nodes.
CULL_SLACK = 1e-9


@dataclass(frozen=True)
class GridSpec:
    """Uniform isotropic node grid: node (i_1..i_m) sits at origin + i * h."""

    origin: np.ndarray
    h: float
    dims: tuple[int, ...]

    def __init__(self, origin, h, dims):
        origin = np.atleast_1d(np.asarray(origin, dtype=float))
        dims = tuple(int(d) for d in dims)
        if len(dims) != origin.shape[0] or len(dims) not in (2, 3):
            raise InvalidSpec("grid must be 2-d or 3-d with matching origin")
        if h <= 0 or any(d < 2 for d in dims):
            raise InvalidSpec("grid needs positive spacing and at least 2 nodes per axis")
        object.__setattr__(self, "origin", origin)
        object.__setattr__(self, "h", float(h))
        object.__setattr__(self, "dims", dims)

    @classmethod
    def from_bbox(cls, lo, hi, n_cells: int) -> "GridSpec":
        """Grid with n_cells cells per axis over [lo, hi]; spacing must be isotropic."""
        lo = np.atleast_1d(np.asarray(lo, dtype=float))
        hi = np.atleast_1d(np.asarray(hi, dtype=float))
        if np.any(hi <= lo):
            raise InvalidSpec("bbox min must be below bbox max on every axis")
        hs = (hi - lo) / n_cells
        if np.max(hs) - np.min(hs) > 1e-12 * np.max(hs):
            raise InvalidSpec("bbox must give the same spacing on every axis")
        return cls(lo, float(hs[0]), tuple([n_cells + 1] * len(lo)))

    @property
    def n_nodes(self) -> int:
        return int(np.prod(self.dims))

    def nodes(self) -> np.ndarray:
        axes = [self.origin[d] + self.h * np.arange(self.dims[d]) for d in range(len(self.dims))]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=1)


@dataclass
class GridField:
    """Grid eikonal solution; +inf marks nodes unreachable from the band."""

    spec: GridSpec
    values: np.ndarray       # flat, row-major
    frozen: np.ndarray       # flat bool, exact-initialization band

    def values_nd(self) -> np.ndarray:
        return self.values.reshape(self.spec.dims)

    def frozen_nd(self) -> np.ndarray:
        return self.frozen.reshape(self.spec.dims)


def _march_region(dims, h: float, alive: np.ndarray, seed_idx: np.ndarray,
                  seed_val: np.ndarray):
    """Fast-march one sign region; returns (flat distances, out-of-order pops).

    The march runs on the grid padded by one dead node per side, so neighbours
    are fixed index offsets with no bounds checks; the padded row-major index
    keeps the order of the original one, so heap ties break the same way.
    ``open_`` marks the alive nodes not yet accepted and ``done`` holds the
    accepted values (+inf elsewhere).  The update is the upwind quadratic over
    the per-axis accepted minima in increasing order, using the largest
    consistent stencil; a negative discriminant or an inconsistent root falls
    back to the one-sided (Dijkstra-like) value.  An out-of-order pop is an
    accepted value below the previously accepted one.
    """
    padded = tuple(d + 2 for d in dims)
    where = np.arange(int(np.prod(padded))).reshape(padded)[(slice(1, -1),) * len(dims)].ravel()
    strides = [int(np.prod(padded[d + 1 :])) for d in range(len(dims))]
    offsets = [o for s in strides for o in (-s, s)]
    three = len(dims) == 3
    sx, sy, sz = strides if three else (*strides, 0)
    open_ = bytearray(np.pad(alive.reshape(dims), 1).tobytes())
    inf, sqrt = math.inf, math.sqrt
    heappush, heappop = heapq.heappush, heapq.heappop
    h2x2, hh = 2.0 * h * h, h * h
    dist = [inf] * len(open_)
    done = [inf] * len(open_)
    heap = list(zip(seed_val.tolist(), where[seed_idx].tolist()))
    for v, i in heap:
        dist[i] = v
    heapq.heapify(heap)
    last = -inf
    out_of_order = 0
    while heap:
        v, i = heappop(heap)
        if not open_[i]:
            continue
        open_[i] = 0
        done[i] = v
        if v < last:
            out_of_order += 1
        last = v
        for o in offsets:
            j = i + o
            if not open_[j]:
                continue
            # Per-axis accepted minima, sorted into a <= b (<= c).
            a = done[j - sx]
            t = done[j + sx]
            if t < a:
                a = t
            b = done[j - sy]
            t = done[j + sy]
            if t < b:
                b = t
            if b < a:
                a, b = b, a
            if three:
                c = done[j - sz]
                t = done[j + sz]
                if t < c:
                    c = t
                if c < b:
                    b, c = c, b
                    if b < a:
                        a, b = b, a
            u = a + h
            if u > b:
                disc = h2x2 - (a - b) * (a - b)
                if disc >= 0.0:
                    cand = 0.5 * ((a + b) + sqrt(disc))
                    if cand >= b:
                        u = cand
                if three and u > c:
                    s1 = a + b + c
                    s2 = a ** 2 + b ** 2 + c ** 2
                    disc = s1 * s1 - 3.0 * (s2 - hh)
                    if disc >= 0.0:
                        cand = (s1 + sqrt(disc)) / 3.0
                        if cand >= c:
                            u = cand
            if u < dist[j]:
                dist[j] = u
                heappush(heap, (u, j))
    return np.asarray(done)[where], out_of_order


def _band_distance(shape: Shape, grid: GridSpec, band_width: float) -> np.ndarray:
    """Signed distance on every node that may lie in the band, +-inf elsewhere.

    Signs come from membership of all nodes.  |d| is evaluated on the stride
    CULL_STRIDE subgrid, then at each other node x whose nearest subgrid node
    c (per axis) leaves |d(c)| - |x - c| within the band.  A node left out has
    |d(x)| >= |d(c)| - |x - c| beyond the band, so it keeps its sign with an
    infinite magnitude.
    """
    nodes = grid.nodes()
    sign = np.where(shape.contains_many(nodes), 1.0, -1.0)
    near = []
    for n in grid.dims:
        i = np.arange(n)
        lo = i - i % CULL_STRIDE
        hi = np.minimum(lo + CULL_STRIDE, n - 1)
        near.append(np.where(i - lo <= hi - i, lo, hi))
    offset = np.meshgrid(*(np.arange(n) - c for n, c in zip(grid.dims, near)), indexing="ij")
    gap = grid.h * np.sqrt(sum(o.ravel() ** 2 for o in offset))
    c = np.ravel_multi_index(np.meshgrid(*near, indexing="ij"), grid.dims).ravel()
    mag = np.full(grid.n_nodes, np.inf)
    sub = np.nonzero(gap == 0.0)[0]
    mag[sub], _ = shape.project_many(nodes[sub])
    d_c = mag[c]
    slack = CULL_SLACK * (d_c + np.max(np.abs(nodes)))
    rest = np.nonzero((gap > 0.0) & (d_c - gap <= band_width * grid.h + slack))[0]
    if len(rest):
        mag[rest], _ = shape.project_many(nodes[rest])
    return sign * mag


def solve_fmm(shape: Shape, grid: GridSpec, band_width: float = 2.0) -> GridField:
    """Grid signed-distance approximation by first-order fast marching.

    Nodes within band_width * h of the boundary are frozen to exact signed
    distance; the exact distance is evaluated only at the nodes that the
    1-Lipschitz bound from a coarse subgrid cannot place outside that band
    (see ``_band_distance``).  The inside and outside regions are then solved
    independently on the unsigned distance and sign-merged.  Raises EmptyBand
    when no node lies in the initialization band.
    """
    sd = _band_distance(shape, grid, band_width)
    inside = sd > 0.0
    frozen = np.abs(sd) <= band_width * grid.h
    if not np.any(frozen):
        raise EmptyBand("grid does not intersect the boundary band")

    mag = np.full(grid.n_nodes, np.inf)
    for region in (inside, ~inside):
        seeds = np.nonzero(region & frozen)[0]
        if len(seeds) == 0:
            continue
        dist, _ = _march_region(grid.dims, grid.h, region, seeds, np.abs(sd[seeds]))
        mag[region] = dist[region]

    values = np.where(np.isfinite(mag), np.where(inside, mag, -mag), np.inf)
    values[frozen] = sd[frozen]
    return GridField(spec=grid, values=values, frozen=frozen)


# ---------------------------------------------------------------------------
# Level sets (marching squares)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LevelSet:
    """Polyline chains of one level of a grid field (2-d only)."""

    level: float
    chains: list  # list of (k, 2) vertex arrays


def extract_level_set(field: GridField, a: float) -> LevelSet:
    """Marching-squares isocontour with linear edge interpolation.

    Segments are oriented with the higher-value side on the left, so closed
    chains run counter-clockwise around regions above the level.  Saddle cells
    are disambiguated by the cell-average value.
    """
    if len(field.spec.dims) != 2:
        raise InvalidSpec("level-set extraction is 2-d only")
    vals = field.values_nd()
    finite = np.isfinite(vals)
    if not np.any(finite) or not (np.min(vals[finite]) <= a <= np.max(vals[finite])):
        raise LevelOutOfRange(f"level {a} outside the field range")
    f = vals - a
    ny = field.spec.dims[1]
    ox, oy = (float(v) for v in field.spec.origin)
    h = field.spec.h

    # Corner values of every cell in CCW walk order.  Only the cells whose four
    # corners are finite and straddle the level produce segments; np.nonzero
    # visits them in row-major order.
    corner_off = ((0, 0), (1, 0), (1, 1), (0, 1))
    corners = np.stack([f[:-1, :-1], f[1:, :-1], f[1:, 1:], f[:-1, 1:]], axis=-1)
    n_pos = np.sum(corners >= 0.0, axis=-1)
    active = np.all(np.isfinite(corners), axis=-1) & (n_pos > 0) & (n_pos < 4)
    cell_i, cell_j = np.nonzero(active)

    crossings: dict[tuple[int, int, int], tuple[float, float]] = {}

    def crossing(i0, j0, fa, i1, j1, fb):
        """Crossing point on the edge between two nodes, computed once per edge."""
        if (i1, j1) < (i0, j0):
            i0, j0, fa, i1, j1, fb = i1, j1, fb, i0, j0, fa
        key = (i0, j0, i1 * ny + j1)
        pt = crossings.get(key)
        if pt is None:
            t = fa / (fa - fb)
            pt = (ox + h * (i0 + t * (i1 - i0)), oy + h * (j0 + t * (j1 - j0)))
            crossings[key] = pt
        return pt

    segments: list[tuple[tuple, tuple]] = []
    for i, j, fc in zip(cell_i.tolist(), cell_j.tolist(), corners[active].tolist()):
        pos = [v >= 0.0 for v in fc]
        leaves, enters = [], []
        for k in range(4):
            k2 = (k + 1) % 4
            if pos[k] == pos[k2]:
                continue
            di0, dj0 = corner_off[k]
            di1, dj1 = corner_off[k2]
            pt = crossing(i + di0, j + dj0, fc[k], i + di1, j + dj1, fc[k2])
            (leaves if pos[k] else enters).append((k, pt))
        if len(leaves) == 1:
            segments.append((leaves[0][1], enters[0][1]))
        else:
            # Saddle: the cell average decides which corners connect, i.e.
            # whether each leave crossing joins the next or the previous
            # enter crossing along the CCW cell walk.
            en = dict(enters)
            en_keys = sorted(en)
            for kl, p_from in sorted(leaves):
                if sum(fc) >= 0.0:
                    ke = min((k for k in en_keys if k > kl), default=en_keys[0])
                else:
                    ke = max((k for k in en_keys if k < kl), default=en_keys[-1])
                segments.append((p_from, en[ke]))

    return LevelSet(level=float(a), chains=_assemble_chains(segments))


def _assemble_chains(segments) -> list:
    succ = {}
    indeg = {}
    for p, q in segments:
        succ[p] = q
        indeg[q] = indeg.get(q, 0) + 1
        indeg.setdefault(p, indeg.get(p, 0))

    chains = []
    visited = set()

    def walk(start):
        chain = [start]
        visited.add(start)
        cur = start
        while cur in succ:
            nxt = succ[cur]
            chain.append(nxt)
            if nxt in visited:
                break
            visited.add(nxt)
            cur = nxt
        return chain

    starts = sorted(p for p in succ if indeg.get(p, 0) == 0)
    for s in starts:
        chains.append(walk(s))
    # Closed loops, each started from its lexicographically smallest vertex.
    for p in sorted(succ):
        if p not in visited:
            chains.append(walk(p))

    out = [np.asarray(c) for c in chains]
    out.sort(key=lambda c: (len(c) == 0, tuple(c[0]) if len(c) else ()))
    return out


# ---------------------------------------------------------------------------
# Level-distance identity and grid error
# ---------------------------------------------------------------------------

def verify_level_distance(shape: Shape, a: float, samples, spacing: float = 1e-5) -> float:
    """Max residual of dist(y, S_a) = d(y) - a over the given tube samples.

    The level set S_a = {d = a} (a > 0) is sampled densely by offsetting
    boundary samples along inner normals; the residual compares the brute-force
    minimum distance against d(y) - a.  Samples must satisfy d(y) > a and sit
    on a characteristic that extends beyond them without meeting the medial
    axis, else InvalidTube is raised.
    """
    if a <= 0:
        raise InvalidTube("the level must be positive (inside the domain)")
    samples = as_points(samples, shape.dim)
    d_s = signed_distance_many(shape, samples)
    if np.any(d_s <= a):
        raise InvalidTube("every sample must satisfy d(y) > a")
    for y, dy in zip(samples, d_s):
        res = nearest_points(shape, y, 1e-8)
        if res.multiplicity != 1:
            raise InvalidTube("sample has a non-unique projection")
        g = (y - res.points[0]) / dy
        ext = y + 0.05 * (dy - a) * g
        res_ext = nearest_points(shape, ext, 1e-8)
        if res_ext.multiplicity != 1:
            raise InvalidTube("extended characteristic meets the medial axis")

    pts, normals = shape.boundary_sample_with_normals(spacing)
    level_pts = pts + a * normals
    # Spot-validate the offset construction on a subsample.
    idx = np.linspace(0, len(level_pts) - 1, min(64, len(level_pts))).astype(int)
    check = signed_distance_many(shape, level_pts[idx])
    if np.max(np.abs(check - a)) > 1e-7:
        raise InvalidTube("offset construction does not reach the level set")

    worst = 0.0
    for y, dy in zip(samples, d_s):
        dmin = math.inf
        for i in range(0, len(level_pts), 262144):
            block = level_pts[i : i + 262144]
            dmin = min(dmin, float(np.min(np.linalg.norm(block - y, axis=1))))
        worst = max(worst, abs(dmin - (dy - a)))
    return worst


@dataclass(frozen=True)
class GridErrorReport:
    max_abs: float
    mean_abs: float
    order_estimate: float | None = None


def grid_error(field: GridField, shape: Shape, refined: GridField | None = None,
               where: np.ndarray | None = None) -> GridErrorReport:
    """Per-node error against the exact signed distance.

    ``refined`` (same box, half the spacing) adds the empirical convergence
    order log2(max_err_h / max_err_h/2).  ``where`` restricts the comparison.
    """
    def max_mean(fld, mask):
        exact = signed_distance_many(shape, fld.spec.nodes())
        err = np.abs(fld.values - exact)
        ok = np.isfinite(fld.values)
        if mask is not None:
            ok &= mask
        return float(np.max(err[ok])), float(np.mean(err[ok]))

    max_abs, mean_abs = max_mean(field, where)
    order = None
    if refined is not None:
        r_max, _ = max_mean(refined, None)
        if r_max > 0 and max_abs > 0:
            order = math.log2(max_abs / r_max)
    return GridErrorReport(max_abs, mean_abs, order)


# ---------------------------------------------------------------------------
# Serialization (17-significant-digit round-trip)
# ---------------------------------------------------------------------------

def grid_to_csv(field: GridField) -> str:
    buf = io.StringIO()
    buf.write("dims," + ",".join(str(d) for d in field.spec.dims) + "\n")
    buf.write("origin," + csv_row(field.spec.origin) + "\n")
    buf.write("h," + csv_row([field.spec.h]) + "\n")
    buf.write("values\n")
    row = field.spec.dims[-1]
    flat = field.values
    for i in range(0, len(flat), row):
        buf.write(csv_row(flat[i : i + row]) + "\n")
    buf.write("frozen\n")
    fz = field.frozen.astype(int)
    for i in range(0, len(fz), row):
        buf.write(",".join(str(v) for v in fz[i : i + row]) + "\n")
    return buf.getvalue()


def grid_from_csv(text: str) -> GridField:
    lines = [ln for ln in text.strip().splitlines() if ln]
    if len(lines) < 4 or lines[3] != "values":
        raise InvalidSpec("grid CSV needs dims, origin and h lines, then 'values'")
    dims = tuple(int(v) for v in lines[0].split(",")[1:])
    origin = [float(v) for v in lines[1].split(",")[1:]]
    h = float(lines[2].split(",")[1])
    spec = GridSpec(origin, h, dims)
    n_rows = spec.n_nodes // spec.dims[-1]
    if len(lines) != 5 + 2 * n_rows or lines[4 + n_rows] != "frozen":
        raise InvalidSpec(f"grid CSV needs {n_rows} values rows, then 'frozen' and {n_rows} rows")
    vals = []
    for ln in lines[4 : 4 + n_rows]:
        vals.extend(float(v) for v in ln.split(","))
    fz = []
    for ln in lines[5 + n_rows :]:
        fz.extend(int(v) for v in ln.split(","))
    if len(vals) != spec.n_nodes or len(fz) != spec.n_nodes:
        raise InvalidSpec(f"grid CSV needs {spec.dims[-1]} entries per row")
    return GridField(spec=spec, values=np.asarray(vals), frozen=np.asarray(fz, dtype=bool))


def grid_to_json(field: GridField) -> str:
    payload = {
        "meta": {
            "dims": list(field.spec.dims),
            "origin": [float(v) for v in field.spec.origin],
            "h": field.spec.h,
        },
        "values": [None if not np.isfinite(v) else float(v) for v in field.values],
        "frozen": field.frozen.astype(int).tolist(),
    }
    return json.dumps(payload)


def grid_from_json(text: str) -> GridField:
    payload = json.loads(text)
    meta = payload["meta"]
    vals = np.asarray(
        [np.inf if v is None else float(v) for v in payload["values"]], dtype=float
    )
    return GridField(
        spec=GridSpec(meta["origin"], meta["h"], tuple(meta["dims"])),
        values=vals,
        frozen=np.asarray(payload["frozen"], dtype=bool),
    )

import heapq
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distfield import fmm
from distfield import (
    Disk,
    Ellipse,
    EmptyBand,
    GridField,
    GridSpec,
    InvalidSpec,
    InvalidTube,
    LevelOutOfRange,
    Shape,
    TruncationExceeded,
    extract_level_set,
    grid_error,
    grid_from_csv,
    grid_from_json,
    grid_to_csv,
    grid_to_json,
    signed_distance_many,
    solve_fmm,
    verify_level_distance,
)


def bilinear(field, p):
    ox, oy = field.spec.origin
    h = field.spec.h
    vals = field.values_nd()
    fx, fy = (p[0] - ox) / h, (p[1] - oy) / h
    i, j = int(np.floor(fx)), int(np.floor(fy))
    tx, ty = fx - i, fy - j
    return (
        vals[i, j] * (1 - tx) * (1 - ty)
        + vals[i + 1, j] * tx * (1 - ty)
        + vals[i, j + 1] * (1 - tx) * ty
        + vals[i + 1, j + 1] * tx * ty
    )


def test_halfspace_fmm_is_exact(halfspace_x):
    for n in (32, 64):
        grid = GridSpec.from_bbox((-1, -1), (1, 1), n)
        field = solve_fmm(halfspace_x, grid)
        rep = grid_error(field, halfspace_x)
        assert rep.max_abs <= 1e-12


def test_disk_fmm_error_band(unit_disk):
    grid = GridSpec.from_bbox((-1.5, -1.5), (1.5, 1.5), 128)
    field = solve_fmm(unit_disk, grid)
    rep = grid_error(field, unit_disk)
    assert rep.max_abs <= 2 * grid.h


def test_square_fmm_error_band(unit_square):
    grid = GridSpec.from_bbox((-1.5, -1.5), (1.5, 1.5), 128)
    field = solve_fmm(unit_square, grid)
    rep = grid_error(field, unit_square)
    assert rep.max_abs <= 3 * grid.h


def test_convergence_on_disk_and_ellipse(unit_disk, ellipse21):
    for shape, lo, hi in ((unit_disk, (-1.5, -1.5), (1.5, 1.5)),
                          (ellipse21, (-2.5, -2.5), (2.5, 2.5))):
        coarse = solve_fmm(shape, GridSpec.from_bbox(lo, hi, 64))
        fine = solve_fmm(shape, GridSpec.from_bbox(lo, hi, 128))
        e1 = grid_error(coarse, shape).max_abs
        e2 = grid_error(fine, shape).max_abs
        assert 1.4 <= e1 / e2 <= 2.8
        rep = grid_error(coarse, shape, refined=fine)
        assert 0.49 <= rep.order_estimate <= 1.49


def test_acceptance_order_monotone(unit_disk):
    grid = GridSpec.from_bbox((-1.5, -1.5), (1.5, 1.5), 64)
    sd = signed_distance_many(unit_disk, grid.nodes())
    inside = sd > 0.0
    frozen = np.abs(sd) <= 2.0 * grid.h
    for region in (inside, ~inside):
        seeds = np.nonzero(region & frozen)[0]
        _, out_of_order = fmm._march_region(grid.dims, grid.h, region, seeds, np.abs(sd[seeds]))
        assert out_of_order == 0


def test_sign_merge_consistency(unit_disk):
    grid = GridSpec.from_bbox((-1.5, -1.5), (1.5, 1.5), 64)
    field = solve_fmm(unit_disk, grid)
    inside = unit_disk.contains_many(grid.nodes())
    ok = np.isfinite(field.values) & ~field.frozen
    assert np.array_equal(field.values[ok] > 0, inside[ok])


def test_empty_band(unit_disk):
    grid = GridSpec.from_bbox((10.0, 10.0), (11.0, 11.0), 16)
    with pytest.raises(EmptyBand):
        solve_fmm(unit_disk, grid)


def test_level_set_disk(unit_disk):
    grid = GridSpec.from_bbox((-1.5, -1.5), (1.5, 1.5), 256)
    field = solve_fmm(unit_disk, grid)
    ls = extract_level_set(field, 0.5)
    assert len(ls.chains) == 1
    chain = ls.chains[0]
    assert np.allclose(chain[0], chain[-1])  # closed
    radii = np.linalg.norm(chain, axis=1)
    assert np.max(np.abs(radii - 0.5)) <= grid.h
    # chain vertices interpolate the field at the level
    for v in chain[:-1:7]:
        assert abs(bilinear(field, v) - 0.5) <= 1e-9


def test_level_set_boundary_level(unit_disk):
    grid = GridSpec.from_bbox((-1.5, -1.5), (1.5, 1.5), 256)
    field = solve_fmm(unit_disk, grid)
    ls = extract_level_set(field, 0.0)
    radii = np.concatenate([np.linalg.norm(c, axis=1) for c in ls.chains])
    assert np.max(np.abs(radii - 1.0)) <= grid.h


def test_level_set_halfspace_line(halfspace_x):
    grid = GridSpec.from_bbox((-1, -1), (1, 1), 64)
    field = solve_fmm(halfspace_x, grid)
    ls = extract_level_set(field, 0.25)
    assert len(ls.chains) == 1
    chain = ls.chains[0]
    assert not np.allclose(chain[0], chain[-1])  # open
    assert np.max(np.abs(chain[:, 0] - 0.25)) <= 1e-9


def test_level_out_of_range(unit_disk):
    grid = GridSpec.from_bbox((-1.5, -1.5), (1.5, 1.5), 32)
    field = solve_fmm(unit_disk, grid)
    with pytest.raises(LevelOutOfRange):
        extract_level_set(field, 5.0)


def test_level_distance_disk(unit_disk):
    ang = np.linspace(0, 2 * np.pi, 16, endpoint=False)
    samples = 0.5 * np.stack([np.cos(ang), np.sin(ang)], axis=1)
    residual = verify_level_distance(unit_disk, 0.2, samples, spacing=1e-4)
    assert residual <= 1e-6


def test_level_distance_halfspace(halfspace_x):
    residual = verify_level_distance(halfspace_x, 1.0, [(3.0, 7.0)], spacing=1e-4)
    assert residual <= 1e-6


def test_level_distance_ellipse(ellipse21):
    ang = np.linspace(0.2, 2 * np.pi, 12, endpoint=False)
    pts = np.stack([2 * np.cos(ang), np.sin(ang)], axis=1)
    normals = -np.stack([np.cos(ang) / 2, np.sin(ang)], axis=1)
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    samples = pts + 0.3 * normals
    residual = verify_level_distance(ellipse21, 0.1, samples, spacing=1e-4)
    assert residual <= 1e-4


def test_level_distance_rejects_shallow_samples(unit_disk):
    with pytest.raises(InvalidTube):
        verify_level_distance(unit_disk, 0.5, [(0.7, 0.0)], spacing=1e-3)


def test_grid_csv_round_trip(unit_disk):
    grid = GridSpec.from_bbox((-1.5, -1.5), (1.5, 1.5), 16)
    field = solve_fmm(unit_disk, grid)
    field.values[0] = np.inf  # exercise the sentinel
    again = grid_from_csv(grid_to_csv(field))
    assert again.spec.dims == field.spec.dims
    assert again.spec.h == field.spec.h
    assert np.array_equal(again.values, field.values)
    assert np.array_equal(again.frozen, field.frozen)


def _csv_text_round_trips(origin, h, dims, values, frozen):
    field = GridField(GridSpec(origin, h, dims), np.array(values, dtype=float),
                      np.array(frozen, dtype=bool))
    text = grid_to_csv(field)
    assert grid_to_csv(grid_from_csv(text)) == text


def test_grid_csv_text_round_trips_special_values():
    _csv_text_round_trips([-0.0, 1.5], 0.1, (2, 3),
                          [math.inf, -math.inf, -0.0, 0.0, 5e-324, 0.1], [1, 0, 1, 0, 0, 1])


_csv_values = st.one_of(st.floats(allow_nan=False), st.sampled_from([math.inf, -math.inf, -0.0]))


@settings(deadline=None, max_examples=60)
@given(st.data(), st.sampled_from([(3, 4), (2, 5), (2, 3, 4), (3, 2, 2)]))
def test_grid_csv_text_round_trips_byte_for_byte(data, dims):
    n, m = math.prod(dims), len(dims)
    _csv_text_round_trips(data.draw(st.lists(st.floats(-1e6, 1e6), min_size=m, max_size=m)),
                          data.draw(st.floats(1e-9, 1e3)), dims,
                          data.draw(st.lists(_csv_values, min_size=n, max_size=n)),
                          data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))


def test_grid_csv_rejects_truncated_sections(unit_disk):
    grid = GridSpec.from_bbox((-1.5, -1.5), (1.5, 1.5), 4)
    lines = grid_to_csv(solve_fmm(unit_disk, grid)).splitlines()
    values_at, frozen_at = lines.index("values"), lines.index("frozen")
    for cut in (values_at + 1, frozen_at + 1, values_at):
        text = "\n".join(lines[:cut] + lines[cut + 1 :]) + "\n"
        with pytest.raises(InvalidSpec):
            grid_from_csv(text)


def test_grid_json_round_trip(unit_disk):
    grid = GridSpec.from_bbox((-1.5, -1.5), (1.5, 1.5), 16)
    field = solve_fmm(unit_disk, grid)
    field.values[3] = np.inf
    again = grid_from_json(grid_to_json(field))
    assert np.array_equal(again.values, field.values)
    assert np.array_equal(again.frozen, field.frozen)
    # CSV and JSON carry identical doubles
    csv_again = grid_from_csv(grid_to_csv(field))
    assert np.array_equal(csv_again.values, again.values)


def test_exact_field_matches_distance(unit_disk):
    grid = GridSpec.from_bbox((-1.5, -1.5), (1.5, 1.5), 32)
    vals = signed_distance_many(unit_disk, grid.nodes())
    field = GridField(spec=grid, values=vals, frozen=np.ones(grid.n_nodes, bool))
    rep = grid_error(field, unit_disk)
    assert rep.max_abs <= 1e-12


# ---------------------------------------------------------------------------
# Equivalence with the straightforward loops
#
# The references below are the plain forms of the same algorithms: a heap
# march on the unpadded grid with bounds checks and an update closure, a
# Python loop over every cell, and a chain assembly that re-sorts the
# unvisited vertices after each loop.  The optimised code must reproduce
# their values, masks and chains bit for bit.
# ---------------------------------------------------------------------------

def _ref_quadratic_update(avals: list[float], h: float) -> float:
    """Upwind update from per-axis accepted minima, largest consistent stencil.

    Axes are added in increasing order while the running candidate exceeds the
    next axis value; a negative discriminant or an inconsistent root falls back
    to the one-sided (Dijkstra-like) value.
    """
    avals.sort()
    u = avals[0] + h
    if len(avals) > 1 and u > avals[1]:
        a, b = avals[0], avals[1]
        disc = 2.0 * h * h - (a - b) * (a - b)
        if disc >= 0.0:
            cand = 0.5 * ((a + b) + math.sqrt(disc))
            if cand >= b:
                u = cand
    if len(avals) > 2 and u > avals[2]:
        s1 = avals[0] + avals[1] + avals[2]
        s2 = avals[0] ** 2 + avals[1] ** 2 + avals[2] ** 2
        disc = s1 * s1 - 3.0 * (s2 - h * h)
        if disc >= 0.0:
            cand = (s1 + math.sqrt(disc)) / 3.0
            if cand >= avals[2]:
                u = cand
    return u


def _ref_march_region(dims, h: float, alive: np.ndarray, seed_idx: np.ndarray,
                  seed_val: np.ndarray):
    """Fast-march one sign region; returns (flat distances, acceptance order)."""
    m = len(dims)
    n = int(np.prod(dims))
    strides = [int(np.prod(dims[d + 1 :])) for d in range(m)]
    dist = [math.inf] * n
    state = bytearray(n)  # 0 far, 1 narrow, 2 accepted
    alive_list = alive.tolist()
    heap: list[tuple[float, int]] = []
    for i, v in zip(seed_idx.tolist(), seed_val.tolist()):
        dist[i] = v
        heap.append((v, i))
    heapq.heapify(heap)
    order: list[float] = []

    def update(j: int) -> float:
        avals = []
        for d in range(m):
            s = strides[d]
            c = (j // s) % dims[d]
            best = math.inf
            if c > 0 and state[j - s] == 2:
                best = dist[j - s]
            if c < dims[d] - 1 and state[j + s] == 2 and dist[j + s] < best:
                best = dist[j + s]
            if best < math.inf:
                avals.append(best)
        return _ref_quadratic_update(avals, h)

    while heap:
        v, i = heapq.heappop(heap)
        if state[i] == 2:
            continue
        state[i] = 2
        order.append(v)
        for d in range(m):
            s = strides[d]
            c = (i // s) % dims[d]
            for j, ok in ((i - s, c > 0), (i + s, c < dims[d] - 1)):
                if not ok or state[j] == 2 or not alive_list[j]:
                    continue
                u = update(j)
                if u < dist[j]:
                    dist[j] = u
                    state[j] = 1
                    heapq.heappush(heap, (u, j))
    return dist, order


def _ref_extract_level_set(field, a):
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
    nx, ny = field.spec.dims
    ox, oy = field.spec.origin
    h = field.spec.h

    crossings: dict[tuple[int, int, int], tuple[float, float]] = {}

    def crossing(i0, j0, i1, j1):
        """Crossing point on the edge between two nodes, computed once per edge."""
        if (i1, j1) < (i0, j0):
            i0, j0, i1, j1 = i1, j1, i0, j0
        key = (i0, j0, i1 * ny + j1)
        pt = crossings.get(key)
        if pt is None:
            fa, fb = f[i0, j0], f[i1, j1]
            t = fa / (fa - fb)
            pt = (ox + h * (i0 + t * (i1 - i0)), oy + h * (j0 + t * (j1 - j0)))
            crossings[key] = pt
        return pt

    segments: list[tuple[tuple, tuple]] = []
    corner_off = ((0, 0), (1, 0), (1, 1), (0, 1))  # CCW cell walk
    for i in range(nx - 1):
        for j in range(ny - 1):
            fc = [f[i + di, j + dj] for di, dj in corner_off]
            if not all(np.isfinite(fc)):
                continue
            pos = [v >= 0.0 for v in fc]
            if all(pos) or not any(pos):
                continue
            leaves, enters = [], []
            for k in range(4):
                k2 = (k + 1) % 4
                if pos[k] == pos[k2]:
                    continue
                di0, dj0 = corner_off[k]
                di1, dj1 = corner_off[k2]
                pt = crossing(i + di0, j + dj0, i + di1, j + dj1)
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

    return _ref_assemble_chains(segments)


def _ref_assemble_chains(segments) -> list:
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
    remaining = sorted(p for p in succ if p not in visited)
    while remaining:
        # Closed loop: start from the lexicographically smallest vertex.
        chains.append(walk(remaining[0]))
        remaining = sorted(p for p in succ if p not in visited)

    out = [np.asarray(c) for c in chains]
    out.sort(key=lambda c: (len(c) == 0, tuple(c[0]) if len(c) else ()))
    return out


def _ref_solve_fmm(shape, grid, band_width=2.0):
    sd = signed_distance_many(shape, grid.nodes())
    inside = sd > 0.0
    frozen = np.abs(sd) <= band_width * grid.h
    mag = np.full(grid.n_nodes, np.inf)
    for region in (inside, ~inside):
        seeds = np.nonzero(region & frozen)[0]
        if len(seeds) == 0:
            continue
        dist, _ = _ref_march_region(grid.dims, grid.h, region, seeds, np.abs(sd[seeds]))
        sel = np.nonzero(region)[0]
        mag[sel] = np.asarray(dist, dtype=float)[sel]
    values = np.where(np.isfinite(mag), np.where(inside, mag, -mag), np.inf)
    values[frozen] = sd[frozen]
    return values, frozen


def _assert_same_chains(field, level):
    chains = extract_level_set(field, level).chains
    ref = _ref_extract_level_set(field, level)
    assert len(chains) == len(ref)
    for c, r in zip(chains, ref):
        assert np.array_equal(c, r)
    return chains


@pytest.mark.parametrize("case,band_width", [
    *(pytest.param(c, 2.0, id=c)
      for c in ("disk", "ball", "square", "halfspace", "ellipse", "cusp", "spiral")),
    *(pytest.param(c, w, id=f"{c}-band{w:g}") for c in ("disk", "ellipse") for w in (0.5, 5.0)),
])
def test_fmm_bit_identical_to_reference(case, band_width, unit_square, halfspace_x,
                                        ellipse21, cusp_half, spiral_pow):
    shape, lo, hi, n = {
        "disk": (Disk((0.013, -0.021), 0.97), (-1.5, -1.5), (1.5, 1.5), 96),
        "ball": (Disk((0.01, 0.02, -0.03), 1.0), (-1.5,) * 3, (1.5,) * 3, 20),
        "square": (unit_square, (-1.5, -1.5), (1.5, 1.5), 64),
        "halfspace": (halfspace_x, (-1, -1), (1, 1), 48),
        "ellipse": (ellipse21, (-2.5, -2.5), (2.5, 2.5), 72),
        "cusp": (cusp_half, (-0.5, -1.5), (2.5, 1.5), 72),
        # An odd cell count keeps every node off the truncation zone at the apex.
        "spiral": (spiral_pow, (-1.2, -1.2), (1.2, 1.2), 63),
    }[case]
    grid = GridSpec.from_bbox(lo, hi, n)
    field = solve_fmm(shape, grid, band_width)
    values, frozen = _ref_solve_fmm(shape, grid, band_width)
    assert np.array_equal(field.values, values)
    assert np.array_equal(field.frozen, frozen)


def _count_projected_points(monkeypatch, cls):
    """Record the number of rows of every ``cls.project_many`` call."""
    calls = []
    original = cls.project_many

    def counted(self, pts):
        calls.append(len(pts))
        return original(self, pts)

    monkeypatch.setattr(cls, "project_many", counted)
    return calls


def test_fmm_evaluates_the_band_only(monkeypatch, ellipse21):
    # 1152 of 5329 nodes are evaluated for 342 frozen ones; the full
    # evaluation took all 5329.
    grid = GridSpec.from_bbox((-4, -4), (4, 4), 72)
    calls = _count_projected_points(monkeypatch, Shape)
    field = solve_fmm(ellipse21, grid)
    assert calls[0] == 10 * 10  # the stride-8 subgrid, last index included
    assert sum(calls) <= 4 * int(np.sum(field.frozen))
    assert sum(calls) < grid.n_nodes // 4


def test_fmm_grids_with_fewer_nodes_than_the_stride(monkeypatch, unit_disk):
    # Two nodes per axis are all subgrid nodes: one evaluation, nothing left.
    grid = GridSpec((0.5, 0.5), 1.0, (2, 2))
    calls = _count_projected_points(monkeypatch, Disk)
    field = solve_fmm(unit_disk, grid)
    assert calls == [4]
    values, frozen = _ref_solve_fmm(unit_disk, grid)
    assert np.array_equal(field.values, values) and np.array_equal(field.frozen, frozen)
    # Fewer nodes per axis than the stride: only the ends are on the subgrid.
    grid = GridSpec((-1.3, -1.1), 0.45, (6, 7))
    field = solve_fmm(unit_disk, grid)
    values, frozen = _ref_solve_fmm(unit_disk, grid)
    assert np.array_equal(field.values, values) and np.array_equal(field.frozen, frozen)


@settings(deadline=None, max_examples=20)
@given(
    st.booleans(),
    st.tuples(st.floats(-0.3, 0.3), st.floats(-0.3, 0.3)),
    st.tuples(st.floats(0.3, 1.5), st.floats(0.3, 1.5)),
    st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
    st.integers(8, 80),
    st.sampled_from([0.5, 2.0, 5.0]),
)
def test_fmm_culled_init_matches_full_evaluation(ellipse, center, axes, shift, n, band_width):
    shape = Ellipse(axes, center) if ellipse else Disk(center, axes[0])
    h = 4.0 / n
    grid = GridSpec(np.array([-2.0, -2.0]) + h * np.asarray(shift), h, (n + 1, n + 1))
    values, frozen = _ref_solve_fmm(shape, grid, band_width)
    if not frozen.any():
        with pytest.raises(EmptyBand):
            solve_fmm(shape, grid, band_width)
        return
    field = solve_fmm(shape, grid, band_width)
    assert np.array_equal(field.values, values)
    assert np.array_equal(field.frozen, frozen)


def test_fmm_spiral_truncation_zone_still_raises(spiral_pow):
    # Node (5, 5) sits at radius 2e-4, inside the truncation zone and off the
    # subgrid; membership of every node still meets it.
    h = 0.0625
    grid = GridSpec((2e-4 - 5 * h, -5 * h), h, (17, 17))
    with pytest.raises(TruncationExceeded):
        solve_fmm(spiral_pow, grid)


def test_march_with_unreachable_nodes_matches_reference():
    # Two alive blocks, only one of them seeded: the other stays +inf.
    dims = (24, 30)
    alive = np.zeros(dims, dtype=bool)
    alive[2:10, 3:25] = True
    alive[14:22, :] = True
    alive[5, 10] = False
    alive = alive.ravel()
    seeds = np.ravel_multi_index(([2, 2, 9, 6], [3, 4, 20, 11]), dims)
    vals = np.array([0.0, 0.01, 0.02, 0.015])
    dist, out_of_order = fmm._march_region(dims, 0.1, alive, seeds, vals)
    ref, order = _ref_march_region(dims, 0.1, alive, seeds, vals)
    assert np.array_equal(dist, np.asarray(ref))
    assert np.isinf(dist[np.ravel_multi_index((18, 5), dims)])
    assert out_of_order == int(np.sum(np.diff(order) < 0))


def test_level_sets_bit_identical_on_fmm_fields(unit_disk, halfspace_x):
    disk = solve_fmm(unit_disk, GridSpec.from_bbox((-1.5, -1.5), (1.5, 1.5), 128))
    for level in (0.2, 0.5, -0.3, 0.0):
        assert _assert_same_chains(disk, level)
    half = solve_fmm(halfspace_x, GridSpec.from_bbox((-1, -1), (1, 1), 64))
    (chain,) = _assert_same_chains(half, 0.25)
    assert not np.allclose(chain[0], chain[-1])  # open


def test_level_sets_bit_identical_with_saddles_and_inf_nodes():
    # Random normal values with +inf holes, and small integers, whose saddle
    # cells can average exactly to the level.
    rng = np.random.default_rng(7)
    grid = GridSpec((-1.0, 0.5), 0.05, (40, 36))
    normal = rng.normal(size=grid.n_nodes)
    normal[rng.choice(grid.n_nodes, 60, replace=False)] = np.inf
    integer = rng.integers(-2, 3, size=grid.n_nodes).astype(float)
    for values, levels in ((normal, (0.0, 0.3, -0.7)), (integer, (0.5, 0.0, -1.5))):
        field = GridField(spec=grid, values=values, frozen=np.zeros(grid.n_nodes, bool))
        f = field.values_nd()
        for level in levels:
            g = f - level
            diag = (g[:-1, :-1] >= 0) & (g[1:, 1:] >= 0) & (g[1:, :-1] < 0) & (g[:-1, 1:] < 0)
            assert np.any(diag & np.isfinite(g[:-1, :-1] + g[1:, 1:] + g[1:, :-1] + g[:-1, 1:]))
            assert len(_assert_same_chains(field, level)) > 10


def test_level_set_many_loops_bit_identical():
    grid = GridSpec((0.0, 0.0), 1.0 / 160, (161, 161))
    x, y = grid.nodes().T
    values = np.cos(16 * np.pi * x) * np.cos(16 * np.pi * y)
    field = GridField(spec=grid, values=values, frozen=np.zeros(grid.n_nodes, bool))
    chains = _assert_same_chains(field, 0.5)
    assert sum(np.array_equal(c[0], c[-1]) for c in chains) >= 100

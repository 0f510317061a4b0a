import numpy as np
import pytest

from distfield import (
    EmptyBand,
    GridField,
    GridSpec,
    InvalidSpec,
    InvalidTube,
    LevelOutOfRange,
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
    field = solve_fmm(unit_disk, grid)
    assert field.acceptance is not None
    for order in field.acceptance:
        assert np.all(np.diff(np.asarray(order)) >= -1e-9)


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

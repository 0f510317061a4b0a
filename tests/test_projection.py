import numpy as np
import pytest

from distfield import (
    CONTINUUM,
    brute_force_distance_many,
    gradient,
    gradient_many,
    is_medial,
    nearest_points,
    signed_distance,
    signed_distance_many,
)

from conftest import boxes_for


def sample_points(shape, n, seed):
    lo, hi = boxes_for(shape)
    rng = np.random.default_rng(seed)
    return rng.uniform(lo, hi, size=(n, shape.dim))


def test_signed_distance_disk(unit_disk):
    assert np.isclose(signed_distance(unit_disk, (0.5, 0.0)), 0.5, atol=1e-12)
    assert np.isclose(signed_distance(unit_disk, (2.0, 0.0)), -1.0, atol=1e-12)


def test_signed_distance_cusp_against_brute_force(cusp_half):
    d = signed_distance(cusp_half, (1.0, 0.0))
    assert 0.0 < d < 1.0
    bf = brute_force_distance_many(cusp_half, np.array([[1.0, 0.0]]), 1e-4)[0]
    assert abs(abs(d) - bf) <= 1e-4


def test_nearest_points_disk(unit_disk):
    res = nearest_points(unit_disk, (0.5, 0.0), 1e-8)
    assert res.multiplicity == 1
    assert np.allclose(res.points[0], (1.0, 0.0), atol=1e-7)
    assert np.isclose(res.distance, 0.5, atol=1e-12)


def test_nearest_points_square_center(unit_square):
    res = nearest_points(unit_square, (0.0, 0.0), 1e-8)
    assert res.multiplicity == 4
    assert np.isclose(res.distance, 1.0)
    expect = {(-1.0, 0.0), (0.0, -1.0), (0.0, 1.0), (1.0, 0.0)}
    got = {tuple(np.round(p, 9)) for p in res.points}
    assert got == expect


def test_nearest_points_disk_center_continuum(unit_disk):
    res = nearest_points(unit_disk, (0.0, 0.0), 1e-8)
    assert res.multiplicity == CONTINUUM
    assert res.is_continuum
    assert np.isclose(res.distance, 1.0, atol=1e-12)


def test_nearest_points_ordering_is_lexicographic(unit_square):
    res = nearest_points(unit_square, (0.0, 0.0), 1e-8)
    keys = [tuple(p) for p in res.points]
    assert keys == sorted(keys)


def test_gradient_examples(unit_disk, unit_square):
    g = gradient(unit_disk, (0.5, 0.0))
    assert np.allclose(g, (-1.0, 0.0), atol=1e-9)
    g = gradient(unit_disk, (2.0, 0.0))
    assert np.allclose(g, (-1.0, 0.0), atol=1e-9)
    assert gradient(unit_square, (0.0, 0.0)) is None


def test_gradient_on_boundary_is_inner_normal(unit_disk, cusp_half):
    assert np.allclose(gradient(unit_disk, (1.0, 0.0)), (-1.0, 0.0), atol=1e-9)
    assert np.allclose(gradient(cusp_half, (0.0, 0.0)), (1.0, 0.0), atol=1e-9)


def test_gradient_absent_at_square_corner(unit_square):
    assert gradient(unit_square, (1.0, 1.0)) is None


def test_is_medial_examples(unit_disk, cusp_half):
    assert is_medial(cusp_half, (0.5, 0.0), 1e-6)
    assert not is_medial(cusp_half, (0.5, 0.2), 1e-6)
    assert not is_medial(unit_disk, (0.3, 0.4), 1e-6)


def test_lipschitz_property(unit_disk, ellipse21, unit_square, cusp_half):
    for shape in (unit_disk, ellipse21, unit_square, cusp_half):
        pts = sample_points(shape, 200, seed=7)
        d = signed_distance_many(shape, pts)
        x, y = pts[0::2], pts[1::2]
        dx, dy = d[0::2], d[1::2]
        gap = np.linalg.norm(x - y, axis=1)
        assert np.all(np.abs(dx - dy) <= gap + 1e-9)


def test_sign_consistency(unit_disk, ellipse21, unit_square, cusp_half):
    for shape in (unit_disk, ellipse21, unit_square, cusp_half):
        pts = sample_points(shape, 300, seed=11)
        d = signed_distance_many(shape, pts)
        inside = shape.contains_many(pts)
        off = np.abs(d) > 1e-12
        assert np.array_equal(d[off] > 0, inside[off])


def test_eikonal_and_finite_difference(unit_disk, ellipse21, unit_square, cusp_half):
    h = 1e-5
    for shape in (unit_disk, ellipse21, unit_square, cusp_half):
        pts = sample_points(shape, 60, seed=3)
        for p in pts:
            res = nearest_points(shape, p, tol=3 * h)
            if res.multiplicity != 1 or res.distance <= 1e-2:
                continue
            g = gradient(shape, p, 1e-8)
            assert g is not None
            assert abs(np.linalg.norm(g) - 1.0) <= 1e-9
            fd = np.empty(2)
            for k in range(2):
                e = np.zeros(2)
                e[k] = h
                fd[k] = (
                    signed_distance(shape, p + e) - signed_distance(shape, p - e)
                ) / (2 * h)
            assert np.max(np.abs(fd - g)) <= 10 * h


def test_oracle_equivalence(unit_disk, ellipse21, unit_square, cusp_half):
    spacing = 1e-3
    for shape in (unit_disk, ellipse21, unit_square, cusp_half):
        pts = sample_points(shape, 100, seed=5)
        d = np.abs(signed_distance_many(shape, pts))
        bf = brute_force_distance_many(shape, pts, spacing)
        assert np.max(np.abs(d - bf)) <= spacing


def test_projection_idempotence(unit_disk, ellipse21, unit_square, cusp_half):
    for shape in (unit_disk, ellipse21, unit_square, cusp_half):
        pts = sample_points(shape, 40, seed=13)
        for p in pts:
            res = nearest_points(shape, p, 1e-8)
            for q in res.points[:4]:
                assert abs(signed_distance(shape, q)) <= 1e-9


def test_default_tol_applies(unit_disk):
    res = nearest_points(unit_disk, (0.25, 0.25))
    assert res.tol_used == 1e-8


def test_tol_must_be_positive(unit_disk):
    with pytest.raises(ValueError):
        nearest_points(unit_disk, (0.5, 0.0), tol=0.0)


def test_scalar_and_batched_distances_agree(unit_disk, ellipse21, cusp_half, spiral_pow,
                                            unit_square, halfspace_x):
    for shape in (unit_disk, ellipse21, cusp_half, spiral_pow, unit_square, halfspace_x):
        pts = sample_points(shape, 300, seed=23)
        if shape is spiral_pow:
            # keep clear of the truncation zone around the apex
            pts = pts[np.linalg.norm(pts, axis=1) >= 0.01]
        batched = np.abs(signed_distance_many(shape, pts))
        scalar = np.array([nearest_points(shape, p).distance for p in pts])
        assert np.max(np.abs(batched - scalar)) <= 1e-15


def test_batched_nearest_points_are_refined(ellipse21, cusp_half):
    for shape in (ellipse21, cusp_half):
        pts = sample_points(shape, 300, seed=29)
        unique = [nearest_points(shape, p) for p in pts]
        pts = pts[[r.distance > 1e-3 and r.multiplicity == 1 for r in unique]]
        assert len(pts) >= 250
        scalar = np.array([gradient(shape, p) for p in pts])
        assert np.max(np.abs(gradient_many(shape, pts) - scalar)) <= 1e-12
        # normal condition: x - p(x) is parallel to the inner normal at p(x)
        d, proj = shape.project_many(pts)
        u = (pts - proj) / d[:, None]
        normals = np.array([shape.inner_normal(q) for q in proj])
        assert np.max(np.abs(u[:, 0] * normals[:, 1] - u[:, 1] * normals[:, 0])) <= 1e-12

import math

import numpy as np
import pytest

from distfield import (
    Disk,
    Ellipse,
    MedialInBall,
    NotC1InNeighborhood,
    PreconditionViolated,
    SampleBox,
    ScaleUnderflow,
    Spiral,
    c1_margin,
    chi_estimate,
    differentiability_test,
    gradient,
    gradient_lipschitz_estimate,
    signed_distance,
)


def ellipse_curvature(a, b, t, eps=1e-6):
    """Independent curvature oracle: finite differences of the unit normal."""
    def normal(s):
        g = np.array([np.cos(s) / a, np.sin(s) / b])
        return g / np.linalg.norm(g)

    dn = (normal(t + eps) - normal(t - eps)) / (2 * eps)
    speed = np.linalg.norm([-a * np.sin(t), b * np.cos(t)])
    return np.linalg.norm(dn) / speed


# ---------------------------------------------------------------------------
# differentiability_test
# ---------------------------------------------------------------------------

def test_disk_boundary_point_differentiable(unit_disk):
    rep = differentiability_test(unit_disk, (1.0, 0.0), h0=0.1, rho=0.5, k_max=10)
    assert rep.flags["differentiable"]
    assert np.allclose(rep.gradient, (-1.0, 0.0), atol=1e-3)
    assert abs(rep.estimates["gradient_norm"] - 1.0) <= 1e-3
    assert rep.residuals[-1] < rep.residuals[0]


def test_residual_schedule_lengths_match(unit_disk):
    rep = differentiability_test(unit_disk, (0.3, 0.2), h0=0.05, rho=0.6, k_max=7)
    assert len(rep.scales) == len(rep.residuals) == 7


def test_square_center_not_differentiable(unit_square):
    rep = differentiability_test(unit_square, (0.0, 0.0), h0=0.1, rho=0.5, k_max=10)
    assert not rep.flags["differentiable"]
    assert np.min(rep.residuals) > 0.5  # kink residual never decays


def test_spiral_apex_zero_gradient(spiral_pow):
    rep = differentiability_test(spiral_pow, (0.0, 0.0), h0=0.1, rho=0.5, k_max=24)
    assert rep.flags["differentiable"]
    assert rep.flags["schedule_truncated"]
    # gradient norms decay and respect the wall-ratio bound at matched scales
    norms = rep.gradient_norms
    assert np.all(np.diff(norms) < 0)
    for h, g in zip(rep.scales, norms):
        theta = float(spiral_pow.f_inv(h))
        bound = float(spiral_pow.f(theta) / spiral_pow.f(theta + math.pi)) - 1.0
        assert g <= bound + 1e-6
    assert rep.estimates["gradient_norm"] <= 0.01


def test_cusp_apex_differentiable(cusp_half):
    rep = differentiability_test(cusp_half, (0.0, 0.0), h0=0.1, rho=0.5, k_max=26)
    assert rep.flags["differentiable"]
    assert np.allclose(rep.gradient, (1.0, 0.0), atol=1e-3)


def test_scale_underflow(unit_disk, spiral_pow):
    with pytest.raises(ScaleUnderflow):
        differentiability_test(unit_disk, (1.0, 0.0), h0=1e-13, rho=0.5, k_max=3)
    with pytest.raises(ScaleUnderflow):
        differentiability_test(spiral_pow, (0.0, 0.0), h0=1e-5, rho=0.5, k_max=4)


# ---------------------------------------------------------------------------
# chi_estimate
# ---------------------------------------------------------------------------

def test_chi_disk_is_one(unit_disk):
    rep = chi_estimate(unit_disk, (1.0, 0.0), [0.5, 0.1, 0.01])
    assert np.max(np.abs(rep.residuals - 1.0)) <= 1e-9


@pytest.mark.parametrize("center,radius,direction", [
    ((0.0, 0.0, 0.0), 1.0, (1.0, 0.0, 0.0)),
    ((0.1, -0.2, 0.3), 2.5, (0.6, 0.0, 0.8)),
    ((1.0, 2.0, -1.0), 0.4, (-1.0, 2.0, 2.0)),
])
def test_chi_ball_is_one_over_radius(center, radius, direction):
    ball = Disk(center, radius)
    u = np.asarray(direction) / np.linalg.norm(direction)
    p = np.asarray(center) + radius * u
    rep = chi_estimate(ball, p, [0.5, 0.1, 0.01, 1e-3])
    assert np.max(np.abs(rep.residuals - 1.0 / radius)) <= 1e-9
    pts, normals = ball.boundary_window(p, 0.1, 48)
    assert len(pts) >= 40
    assert np.all(np.linalg.norm(pts - p, axis=1) <= 0.1)
    assert np.allclose(np.linalg.norm(pts - ball.center, axis=1), radius, atol=1e-12)
    assert np.allclose(normals, (ball.center - pts) / radius, atol=1e-12)


def test_chi_halfspace_is_zero(halfspace_x):
    rep = chi_estimate(halfspace_x, (0.0, 0.3), [0.5, 0.1])
    assert np.max(rep.residuals) == 0.0


def test_chi_ellipse_matches_curvature(ellipse21):
    rep = chi_estimate(ellipse21, (0.0, 1.0), [1e-1, 1e-2, 1e-3])
    kappa = ellipse_curvature(2.0, 1.0, math.pi / 2)
    assert np.isclose(kappa, 0.25, atol=1e-6)
    assert abs(rep.estimates["chi"] - kappa) <= 0.01
    rep = chi_estimate(ellipse21, (2.0, 0.0), [1e-2, 1e-3])
    assert abs(rep.estimates["chi"] - ellipse_curvature(2.0, 1.0, 0.0)) <= 0.02


def test_chi_tail_variation_small(ellipse21):
    rep = chi_estimate(ellipse21, (0.0, 1.0), [3e-2, 1e-2, 3e-3, 1e-3])
    tail = rep.residuals[1:]
    assert (np.max(tail) - np.min(tail)) <= 0.1 * np.max(tail)


_SPIRAL = Spiral(beta=1.0)
_WALL = np.array([math.cos(3.0), math.sin(3.0)])


# Values of the closed-form windows and normals that the disk, the ellipse and
# the spiral carried before both came from the curve description.
@pytest.mark.parametrize("shape, point, radii, expected", [
    (Disk((0.0, 0.0), 1.0), (1.0, 0.0), [0.5, 0.1, 0.01, 1e-3], [1.0, 1.0, 1.0, 1.0]),
    (Ellipse((2.0, 1.0)), (0.0, 1.0), [1e-1, 1e-2, 1e-3],
     [0.25067955035058626, 0.25000678570120893, 0.2500000678560318]),
    (Ellipse((2.0, 1.0)), (2.0, 0.0), [1e-2, 1e-3], [1.9999999474480992, 1.9999999994744813]),
    (_SPIRAL, 0.25 * _WALL, [1e-1, 1e-2, 1e-3],
     [4.084140116904117, 3.6927403944818007, 3.6563469038127687]),
    (_SPIRAL, float(_SPIRAL.f(3.0 + math.pi)) * _WALL, [1e-1, 1e-2, 1e-3],
     [7.69984100654462, 7.007093099420937, 6.943639997042168]),
], ids=["disk", "ellipse-minor", "ellipse-major", "spiral-outer", "spiral-inner"])
def test_chi_estimate_pinned(shape, point, radii, expected):
    rep = chi_estimate(shape, point, radii)
    np.testing.assert_allclose(rep.residuals, expected, rtol=1e-7, atol=0)


def test_chi_rejects_corner_in_window(unit_square):
    with pytest.raises(NotC1InNeighborhood):
        chi_estimate(unit_square, (1.0, 0.9), [0.5])


# ---------------------------------------------------------------------------
# c1_margin
# ---------------------------------------------------------------------------

def test_c1_worked_pair(unit_disk):
    x = np.array([0.9, 0.0])
    y = np.array([0.9, 0.05])
    dx, dy = signed_distance(unit_disk, x), signed_distance(unit_disk, y)
    g = gradient(unit_disk, x)
    lhs = abs(dx - dy - g @ (x - y))
    den = (x - y) @ (x - y) - (dx - dy) ** 2
    assert np.isclose(lhs, 0.001388, atol=2e-6)
    assert np.isclose(den, 0.002498, atol=2e-6)
    assert np.isclose(lhs / den, 0.5556, atol=2e-4)
    assert np.isclose(lhs / den, 1.0 / (2 * np.linalg.norm(x)), atol=1e-9)


def test_c1_disk_margins(unit_disk):
    rep = c1_margin(unit_disk, (1.0, 0.0), r=0.1, n_pairs=2000, seed=1)
    assert 0.5 <= rep.estimates["c1_ratio"] <= 0.5556 + 1e-3
    assert rep.estimates["chi_half_reference"] == pytest.approx(0.5, abs=1e-9)
    rep_small = c1_margin(unit_disk, (1.0, 0.0), r=0.01, n_pairs=2000, seed=1)
    assert 0.5 <= rep_small.estimates["c1_ratio"] <= 0.506
    # margin above chi/2 shrinks with the radius and is below 0.1*chi at r=0.01
    assert rep_small.estimates["c1_ratio"] <= rep.estimates["c1_ratio"]
    assert rep_small.estimates["c1_ratio"] - 0.5 <= 0.1 * 1.0


def test_c1_halfspace_exact(halfspace_x):
    rep = c1_margin(halfspace_x, (0.0, 0.0), r=0.1, n_pairs=500, seed=1)
    assert rep.estimates["c1_ratio"] <= 1e-12


def test_c1_ellipse_major_vertex(ellipse21):
    kappa = ellipse_curvature(2.0, 1.0, 0.0)
    rep = c1_margin(ellipse21, (2.0, 0.0), r=0.05, n_pairs=300, seed=1)
    assert rep.estimates["c1_ratio"] <= kappa / 2 + 0.2 * kappa


def test_c1_detects_medial_in_ball(unit_square):
    with pytest.raises(MedialInBall):
        c1_margin(unit_square, (1.0, 0.0), r=1.2, n_pairs=400, tol=0.2, seed=0)


# ---------------------------------------------------------------------------
# gradient_lipschitz_estimate
# ---------------------------------------------------------------------------

def test_lipschitz_disk(unit_disk):
    box = SampleBox(lo=(-1, -1), hi=(1, 1), d_max=0.9)
    lhat = gradient_lipschitz_estimate(unit_disk, a=0.0, delta=0.5, n_pairs=10000,
                                       box=box, seed=2)
    assert lhat <= 3.0 / 0.5 + 0.01
    assert lhat >= 3.0  # the constant is near-sharp on the disk


def test_lipschitz_square_minus_diagonals(unit_square):
    margin = 0.05

    def diagonal_strip(pts):
        return (np.abs(pts[:, 0] - pts[:, 1]) < margin * np.sqrt(2)) | (
            np.abs(pts[:, 0] + pts[:, 1]) < margin * np.sqrt(2)
        )

    box = SampleBox(lo=(-1, -1), hi=(1, 1), exclude=diagonal_strip)
    lhat = gradient_lipschitz_estimate(unit_square, a=0.0, delta=0.3, n_pairs=10000,
                                       box=box, seed=2)
    assert lhat <= 3.0 / 0.3 + 0.01
    assert lhat == 0.0  # wall gradients are constant within each face


def test_lipschitz_halfspace_zero(halfspace_x):
    box = SampleBox(lo=(0, -1), hi=(2, 1))
    lhat = gradient_lipschitz_estimate(halfspace_x, a=0.0, delta=0.25, n_pairs=2000,
                                       box=box, seed=2)
    assert lhat == 0.0


def test_lipschitz_rejects_impossible_band(unit_disk):
    box = SampleBox(lo=(-1, -1), hi=(1, 1))
    with pytest.raises(PreconditionViolated):
        gradient_lipschitz_estimate(unit_disk, a=0.0, delta=2.0, n_pairs=100,
                                    box=box, seed=0)


def test_report_serialization(unit_disk):
    rep = differentiability_test(unit_disk, (1.0, 0.0), h0=0.1, rho=0.5, k_max=5)
    payload = rep.to_dict()
    assert payload["test"] == "differentiability"
    assert len(payload["scales"]) == len(payload["residuals"]) == 5
    import json

    assert json.loads(rep.to_json()) == payload

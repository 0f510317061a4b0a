import math

import numpy as np
import pytest

from distfield import (
    Cusp,
    DistanceFieldError,
    Spiral,
    TruncationExceeded,
    cusp_medial_check,
    differentiability_test,
    evidence_to_csv,
    is_medial,
    spiral_ratio_sequence,
)
from distfield.counterexamples import EXP_CONTROL_FLOOR, spiral_negative_control
from distfield.projection import nearest_points


def test_bound_matches_closed_form(spiral_pow):
    ev = spiral_ratio_sequence(spiral_pow, [100.0])
    assert np.isclose(ev.bounds[0], math.pi / 101.0, atol=1e-12)
    assert np.isclose(ev.bounds[0], 0.0311, atol=1e-4)


def test_ratio_sequence_decreases_and_respects_bounds(spiral_pow):
    ev = spiral_ratio_sequence(spiral_pow, [10.0, 100.0, 1000.0])
    assert np.all(np.diff(ev.measured_ratios) < 0)
    assert np.all(np.diff(ev.abs_z) < 0)
    assert np.all(ev.measured_ratios <= ev.bounds + 1e-9)
    assert ev.measured_ratios[2] <= 0.0032


def test_ratio_sequence_rejects_out_of_range(spiral_pow):
    with pytest.raises(TruncationExceeded):
        spiral_ratio_sequence(spiral_pow, [spiral_pow.theta_max])


def test_midline_points_are_medial(spiral_pow):
    for theta in (10.0, 60.0, 200.0):
        f_out = float(spiral_pow.f(theta))
        f_in = float(spiral_pow.f(theta + math.pi))
        r = 0.5 * (f_out + f_in)
        half_width = 0.5 * (f_out - f_in)
        z = np.array([r * math.cos(theta), r * math.sin(theta)])
        _, dists, points, _ = spiral_pow.projection_candidates(z[None, :], 1e-9)
        radii = np.linalg.norm(points, axis=1)
        d_outer = float(np.min(dists[radii > r]))
        d_inner = float(np.min(dists[radii < r]))
        assert abs(d_outer - d_inner) <= 0.05 * half_width
        assert is_medial(spiral_pow, z, tol=0.05 * half_width)


def test_exponential_wall_negative_control():
    ev = spiral_negative_control([2.0, 6.0, 12.0, 20.0])
    assert np.all(ev.measured_ratios >= EXP_CONTROL_FLOOR)
    # the exponential wall is self-similar: the ratio is scale-invariant
    assert np.max(ev.measured_ratios) - np.min(ev.measured_ratios) <= 1e-6
    assert 0.5 < ev.measured_ratios[0] < 0.56


def test_exponential_control_floor_against_brute_force():
    theta = 4.0
    spiral = Spiral(beta=1.0, theta_min=0.0, theta_max=theta + 5 * math.pi, wall="exp")
    f_out, f_in = math.exp(-theta), math.exp(-theta - math.pi)
    r = 0.5 * (f_out + f_in)
    z = np.array([r * math.cos(theta), r * math.sin(theta)])
    samples = spiral.boundary_sample(1e-5)
    bf = float(np.min(np.linalg.norm(samples - z, axis=1)))
    assert bf / r >= EXP_CONTROL_FLOOR
    res = nearest_points(spiral, z, 1e-9)
    assert abs(res.distance - bf) <= 1e-5


def test_cusp_medial_check_passes():
    rep = cusp_medial_check(0.5, n=50, x1_max=1.0, tol=1e-6)
    assert rep["passed"]
    assert rep["misclassified"] == 0


def test_cusp_apex_gradient():
    rep = differentiability_test(Cusp(0.5), (0.0, 0.0), h0=0.1, rho=0.5, k_max=26)
    assert rep.flags["differentiable"]
    assert np.allclose(rep.gradient, (1.0, 0.0), atol=1e-3)


def test_detected_medial_points_lie_on_axis(cusp_half):
    xs = np.linspace(0.1, 1.0, 10)
    ys = np.array([-0.1, -0.01, 0.0, 0.01, 0.1])
    for x1 in xs:
        for y in ys:
            p = np.array([x1, y])
            if not cusp_half.contains(p) and y != 0.0:
                continue
            if is_medial(cusp_half, p, 1e-6):
                assert y == 0.0


def test_evidence_csv_format(spiral_pow):
    ev = spiral_ratio_sequence(spiral_pow, [10.0, 100.0])
    text = evidence_to_csv(ev)
    lines = text.strip().splitlines()
    assert lines[0] == "theta,z_x,z_y,abs_z,bound,measured_ratio"
    assert len(lines) == 3
    row = [float(v) for v in lines[1].split(",")]
    assert row[0] == 10.0
    assert np.isclose(row[4], math.pi / 11.0, atol=1e-12)


def test_outside_points_near_apex(spiral_pow):
    # points in the gap between windings (outside the channel) also obey the
    # vanishing-ratio mechanism near the apex
    for theta in (60.0, 200.0):
        f_gap_hi = float(spiral_pow.f(theta + math.pi))
        f_gap_lo = float(spiral_pow.f(theta + 2 * math.pi))
        r = 0.5 * (f_gap_hi + f_gap_lo)
        z = np.array([r * math.cos(theta), r * math.sin(theta)])
        assert not spiral_pow.contains(z)
        from distfield import signed_distance

        d = signed_distance(spiral_pow, z)
        assert d < 0
        assert abs(d) / r <= float(spiral_pow.f(theta) / spiral_pow.f(theta + math.pi)) - 1.0

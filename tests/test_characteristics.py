import numpy as np
import pytest

from distfield import (
    StartNotInDomain,
    StartOnMedialAxis,
    TooFewSamples,
    is_medial,
    path_to_csv,
    trace,
    verify_characteristic,
)
from distfield.characteristics import CharacteristicPath


def test_disk_trace_stops_at_center(unit_disk):
    path = trace(unit_disk, (0.5, 0.0), dt=0.01, t_max=1.0)
    assert path.stop_reason == "MedialHit"
    assert abs(path.stop_time - 0.5) <= 0.02
    rep = verify_characteristic(unit_disk, path)
    assert rep["max_line_deviation"] <= 1e-6
    assert rep["max_growth_residual"] <= 1e-6
    assert rep["max_gradient_drift"] <= 1e-6


def test_disk_trace_off_step_grid(unit_disk):
    # dt does not divide the medial time; the overshoot guard must still stop it.
    path = trace(unit_disk, (0.5, 0.0), dt=0.003, t_max=1.0)
    assert path.stop_reason == "MedialHit"
    assert abs(path.stop_time - 0.5) <= 2 * 0.003


def test_square_trace_reaches_diagonal(unit_square):
    start = np.array([0.5, 0.25])
    path = trace(unit_square, start, dt=1e-3, t_max=1.0, tol=2e-3)
    assert path.stop_reason == "MedialHit"
    # Oracle: dense medial scan along the initial ray.
    from distfield import gradient

    g = gradient(unit_square, start)
    ts = np.arange(0.0, 0.6, 1e-4)
    hit = None
    for t in ts:
        if is_medial(unit_square, start + t * g, 1e-4):
            hit = t
            break
    assert hit is not None
    assert abs(path.stop_time - hit) <= 2e-3 + 1e-4


def test_halfspace_trace_runs_to_max_time(halfspace_x):
    path = trace(halfspace_x, (0.2, 0.0), dt=0.01, t_max=0.5)
    assert path.stop_reason == "MaxTime"
    assert np.isclose(path.stop_time, 0.5)
    rep = verify_characteristic(halfspace_x, path)
    assert rep["max_line_deviation"] <= 1e-9
    assert rep["max_growth_residual"] <= 1e-9
    assert rep["max_gradient_drift"] <= 1e-9


def test_ellipse_trace_residuals(ellipse21):
    dt = 1e-3
    path = trace(ellipse21, (1.9, 0.02), dt=dt, t_max=1.0, tol=2e-3)
    rep = verify_characteristic(ellipse21, path)
    assert rep["max_line_deviation"] <= 5 * dt
    assert rep["max_growth_residual"] <= 5 * dt


def test_cusp_trace_stops_on_axis(cusp_half):
    path = trace(cusp_half, (0.5, 0.2), dt=1e-3, t_max=2.0, tol=2e-3)
    assert path.stop_reason == "MedialHit"
    end = path.points[-1]
    assert end[0] > 0
    assert abs(end[1]) <= 5e-3


def test_distance_monotone_along_samples(unit_disk, ellipse21, unit_square):
    for shape, start in ((unit_disk, (0.4, 0.3)), (ellipse21, (1.5, 0.3)),
                         (unit_square, (0.6, -0.1))):
        path = trace(shape, start, dt=1e-3, t_max=1.0, tol=2e-3)
        assert np.all(np.diff(path.distances) > 0)


def test_times_step_structure(unit_disk):
    path = trace(unit_disk, (0.9, 0.0), dt=0.04, t_max=0.1)
    assert path.stop_reason == "MaxTime"
    steps = np.diff(path.times)
    assert np.allclose(steps[:-1], 0.04)
    assert steps[-1] <= 0.04 + 1e-15


def test_trace_rejects_bad_starts(unit_disk, unit_square):
    with pytest.raises(StartNotInDomain):
        trace(unit_disk, (2.0, 0.0), dt=0.01, t_max=1.0)
    with pytest.raises(StartOnMedialAxis):
        trace(unit_square, (0.0, 0.0), dt=0.01, t_max=1.0)


def test_verify_needs_three_samples(unit_disk):
    path = trace(unit_disk, (0.9, 0.0), dt=0.05, t_max=0.05)
    assert len(path.times) == 2
    with pytest.raises(TooFewSamples):
        verify_characteristic(unit_disk, path)


def test_path_csv_round_trip(unit_disk):
    path = trace(unit_disk, (0.5, 0.0), dt=0.01, t_max=0.2)
    text = path_to_csv(path)
    lines = text.strip().splitlines()
    assert lines[0] == "t,x1,x2,d"
    rows = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    assert np.array_equal(rows[:, 0], path.times)
    assert np.array_equal(rows[:, 1:3], path.points)
    assert np.array_equal(rows[:, 3], path.distances)


def test_every_sample_inside_domain(ellipse21):
    path = trace(ellipse21, (1.9, 0.02), dt=1e-3, t_max=1.0, tol=2e-3)
    assert np.all(path.distances > 0)
    assert ellipse21.contains_many(path.points).all()


def test_ellipse_trace_stops_where_it_crosses_the_medial_axis(ellipse21):
    # The path meets the medial segment y = 0 obliquely at t ~ 0.31.  Past it,
    # d still grows along the ridge but the gradient points back across, so
    # the step that crosses is not kept.
    dt = 1e-2
    path = trace(ellipse21, (-0.66392, 0.30787), dt=dt, t_max=4.0)
    assert path.stop_reason == "MedialHit"
    assert abs(path.stop_time - 0.31) <= dt
    assert np.all(path.points[:, 1] > 0.0)
    rep = verify_characteristic(ellipse21, path)
    assert rep["max_growth_residual"] <= 1e-6

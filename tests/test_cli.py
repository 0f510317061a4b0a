import json
import time

import numpy as np
import pytest

from distfield.cli import main
from distfield.fmm import grid_from_csv


@pytest.fixture
def disk_scene(tmp_path):
    scene = {
        "shape": {"type": "disk", "center": [0.0, 0.0], "radius": 1.0},
        "grid": {"bbox": [[-1.5, -1.5], [1.5, 1.5]], "n": 48},
    }
    path = tmp_path / "disk.json"
    path.write_text(json.dumps(scene))
    return str(path)


@pytest.fixture
def halfspace_scene(tmp_path):
    scene = {"shape": {"type": "halfspace", "unit_normal": [1.0, 0.0], "offset": 0.0}}
    path = tmp_path / "halfspace.json"
    path.write_text(json.dumps(scene))
    return str(path)


def test_grid_command_writes_field(disk_scene, tmp_path, capsys):
    out = tmp_path / "grid.csv"
    assert main(["grid", "--scene", disk_scene, "--out", str(out)]) == 0
    field = grid_from_csv(out.read_text())
    assert field.spec.dims == (49, 49)
    center = field.values_nd()[24, 24]
    assert np.isclose(center, 1.0, atol=1e-12)


def test_medial_command(disk_scene, tmp_path):
    out = tmp_path / "medial.csv"
    assert main(["medial", "--scene", disk_scene, "--tol", "1e-6", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "x1,x2"
    pts = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    # only the grid node at the exact center qualifies
    assert len(pts) == 1
    assert np.allclose(pts[0], (0.0, 0.0), atol=1e-12)


def test_trace_command(disk_scene, tmp_path, capsys):
    out = tmp_path / "path.csv"
    rc = main(["trace", "--scene", disk_scene, "--start", "0.5,0",
               "--dt", "0.01", "--tmax", "1", "--out", str(out)])
    assert rc == 0
    summary = json.loads(capsys.readouterr().out.strip())
    assert summary["stop_reason"] == "MedialHit"
    assert abs(summary["stop_time"] - 0.5) <= 0.02
    header = out.read_text().splitlines()[0]
    assert header == "t,x1,x2,d"


def test_fmm_command_with_refinement(disk_scene, tmp_path, capsys):
    out = tmp_path / "fmm.csv"
    assert main(["fmm", "--scene", disk_scene, "--out", str(out), "--refine"]) == 0
    report = json.loads(capsys.readouterr().out.strip())
    assert report["max_abs"] <= 2 * (3.0 / 48)
    assert 0.5 <= report["order_estimate"] <= 1.5


def test_levelset_command(disk_scene, tmp_path):
    out = tmp_path / "ls.csv"
    assert main(["levelset", "--scene", disk_scene, "--level", "0.5",
                 "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "chain,x1,x2"
    pts = np.array([[float(v) for v in ln.split(",")[1:]] for ln in lines[1:]])
    assert np.max(np.abs(np.linalg.norm(pts, axis=1) - 0.5)) <= 3.0 / 48


def test_verify_eikonal_exit_zero(disk_scene, capsys):
    assert main(["verify", "eikonal", "--scene", disk_scene, "--n", "50"]) == 0
    report = json.loads(capsys.readouterr().out.strip())
    assert report["passed"]
    assert report["max_gradient_norm_error"] <= 1e-9


def test_verify_c1_halfspace(halfspace_scene, capsys):
    rc = main(["verify", "c1", "--scene", halfspace_scene, "--point", "0,0",
               "--n", "200"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out.strip())
    assert report["estimates"]["c1_ratio"] <= 1e-12


def test_verify_c1_ball(tmp_path, capsys):
    # The ball's chi window is a spherical cap, so its chi/2 reference is finite.
    path = tmp_path / "ball.json"
    path.write_text(json.dumps({"shape": {"type": "disk", "center": [0.0, 0.0, 0.0],
                                          "radius": 1.0}}))
    assert main(["verify", "c1", "--scene", str(path), "--point", "1,0,0", "--n", "50"]) == 0
    report = json.loads(capsys.readouterr().out.strip())
    assert report["estimates"]["chi_half_reference"] == pytest.approx(0.5, abs=1e-9)
    assert report["passed"] is True


@pytest.mark.parametrize("spec,skipped,total,codes", [
    ({"type": "polygon", "vertices": [[0, 0], [1, 0], [1, 1], [0, 1]]}, 4, 8, (0,)),
    # Channel samples near the apex are narrower than the finest probe scale.
    ({"type": "spiral", "beta": 1.0}, 2, 8, (0, 1)),
    # The boundary sample holds only the 3 vertices, each taken once: nothing
    # is checked, so nothing passes.
    ({"type": "polygon", "vertices": [[0, 0], [0.3, 0], [0, 0.3]]}, 3, 3, (1,)),
], ids=["square", "spiral", "small-triangle"])
def test_verify_boundary_gradient_skips_corners(spec, skipped, total, codes, tmp_path, capsys):
    path = tmp_path / "scene.json"
    path.write_text(json.dumps({"shape": spec}))
    rc = main(["verify", "boundary-gradient", "--scene", str(path)])
    report = json.loads(capsys.readouterr().out.strip())
    assert rc in codes and rc == (0 if report["passed"] else 1)
    assert report["n_skipped"] == skipped
    assert report["n_points"] + report["n_skipped"] == total


def test_verify_lipschitz(disk_scene, capsys):
    rc = main(["verify", "lipschitz", "--scene", disk_scene, "--n", "1000",
               "--dmax", "0.9"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out.strip())
    assert report["lipschitz"] <= report["bound"]


def test_verify_lipschitz_fails_fast_when_delta_cannot_fit(disk_scene, tmp_path, capsys):
    cases = [
        # The spiral channel is narrower than 2 * 0.5 everywhere.
        ({"type": "spiral", "beta": 1.0}, [], "below 0.2"),
        # The rectangle's largest distance is exactly 0.5, reached on a segment
        # only, so the grid bound admits --delta 0.5 but no sample can be drawn.
        ({"type": "polygon", "vertices": [[0, 0], [2, 0], [2, 1], [0, 1]]}, ["--n", "5"],
         "sampling region too thin"),
    ]
    for spec, args, reason in cases:
        path = tmp_path / "scene.json"
        path.write_text(json.dumps({"shape": spec}))
        t0 = time.perf_counter()
        rc = main(["verify", "lipschitz", "--scene", str(path), *args])
        assert time.perf_counter() - t0 < 2.0
        assert rc == 2
        err = capsys.readouterr().err
        assert "--delta 0.5" in err and reason in err
    assert main(["verify", "lipschitz", "--scene", disk_scene, "--n", "100"]) == 0


@pytest.mark.parametrize("spec", [
    {"type": "ellipse", "semi_axes": [2.0, 1.0]},
    {"type": "polygon", "vertices": [[0, 0], [2, 0], [2, 1], [0, 1]]},
], ids=["ellipse", "rectangle"])
@pytest.mark.parametrize("command", [["fmm"], ["grid"], ["levelset", "--level", "0.2"],
                                     ["medial"]], ids=lambda c: c[0])
def test_default_box_scenes_run(spec, command, tmp_path, capsys):
    path = tmp_path / "scene.json"
    path.write_text(json.dumps({"shape": spec}))
    out = tmp_path / "out.csv"
    assert main([*command, "--scene", str(path), "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) > 1


def test_verify_level_distance_report(disk_scene, capsys):
    assert main(["verify", "level-distance", "--scene", disk_scene]) == 0
    report = json.loads(capsys.readouterr().out.strip())
    assert report["passed"] is True and report["max_residual"] <= 1e-4


def test_verify_failure_exits_one(tmp_path, capsys):
    # chi blows up approaching the cusp apex, so the stability check must fail
    scene = {"shape": {"type": "cusp", "alpha": 0.5}}
    path = tmp_path / "cusp.json"
    path.write_text(json.dumps(scene))
    rc = main(["verify", "chi", "--scene", str(path), "--point", "1e-06,0.0001"])
    assert rc == 1


def test_counterexample_spiral(capsys):
    assert main(["counterexample", "spiral"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0] == "theta,z_x,z_y,abs_z,bound,measured_ratio"
    row100 = [float(v) for v in lines[2].split(",")]
    assert np.isclose(row100[4], 0.0311, atol=1e-4)
    assert lines[-1] == "PASS"


def test_counterexample_cusp(capsys):
    assert main(["counterexample", "cusp"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    report = json.loads(out[0])
    assert report["passed"] and report["apex_differentiable"]
    assert out[-1] == "PASS"


def test_bad_scene_exits_two(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert main(["grid", "--scene", missing]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{\"shape\": {\"type\": \"wedge\"}}")
    assert main(["grid", "--scene", str(bad)]) == 2
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    assert main(["grid", "--scene", str(garbled)]) == 2


def test_deterministic_output(disk_scene, tmp_path, capsys):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    main(["fmm", "--scene", disk_scene, "--out", str(out1)])
    main(["fmm", "--scene", disk_scene, "--out", str(out2)])
    assert out1.read_bytes() == out2.read_bytes()
    main(["verify", "eikonal", "--scene", disk_scene, "--n", "20", "--seed", "7"])
    first = capsys.readouterr().out
    main(["verify", "eikonal", "--scene", disk_scene, "--n", "20", "--seed", "7"])
    second = capsys.readouterr().out
    assert first == second


def test_bad_trace_step_exits_two(disk_scene, capsys):
    assert main(["trace", "--scene", disk_scene, "--start", "0.5,0", "--dt", "-1"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_malformed_start_exits_two(disk_scene, capsys):
    assert main(["trace", "--scene", disk_scene, "--start", "0.5,abc"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_verify_eikonal_gives_up_on_a_tiny_disk(tmp_path, capsys):
    # Every sample of the default box lies within 1e-2 of the boundary.
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps({"shape": {"type": "disk", "center": [0.0, 0.0],
                                          "radius": 1e-3}}))
    assert main(["verify", "eikonal", "--scene", str(path), "--n", "5"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_verify_eikonal_rejects_empty_sample(disk_scene, capsys):
    assert main(["verify", "eikonal", "--scene", disk_scene, "--n", "0"]) == 2
    assert capsys.readouterr().out == ""


# The verify matrix: every property on every scene exits 0 or 1, or exits 2
# at once with a message naming an argument that does not fit the scene.
MATRIX_SCENES = {
    "disk": {"type": "disk", "center": [0.0, 0.0], "radius": 1.0},
    "ellipse": {"type": "ellipse", "semi_axes": [2.0, 1.0]},
    "halfspace": {"type": "halfspace", "unit_normal": [1.0, 0.0], "offset": 0.0},
    "square": {"type": "polygon", "vertices": [[-1, -1], [1, -1], [1, 1], [-1, 1]]},
    "cusp": {"type": "cusp", "alpha": 0.5},
    "spiral": {"type": "spiral", "beta": 1.0},
    "ball": {"type": "disk", "center": [0.0, 0.0, 0.0], "radius": 1.0},
}
MATRIX_ARGS = {
    "eikonal": ["--n", "5"],
    "boundary-gradient": [],
    "characteristics": [],
    "level-distance": ["--spacing", "1e-4"],
    "lipschitz": ["--n", "5"],
}
# (scene, property) -> the argument that the exit-2 message names.
UNFIT = {("spiral", "lipschitz"): "--delta", ("ball", "level-distance"): "spacing"}
# Open defects, fixed by the local reach of ROADMAP item 2: (scene, property)
# -> the message of their exit 2.
OPEN_DEFECTS = {
    ("square", "level-distance"): "offset construction does not reach the level set",
    ("spiral", "level-distance"): "offset construction does not reach the level set",
    ("cusp", "level-distance"): "non-unique projection",
}


class OpenDefect(Exception):
    """The known exit 2 of an OPEN_DEFECTS cell."""


def _matrix_cells():
    for scene in MATRIX_SCENES:
        for prop in MATRIX_ARGS:
            marks = ()
            if (scene, prop) in OPEN_DEFECTS:
                marks = pytest.mark.xfail(raises=OpenDefect, strict=True,
                                          reason="ROADMAP item 2: " + OPEN_DEFECTS[scene, prop])
            yield pytest.param(scene, prop, marks=marks, id=f"{scene}-{prop}")


@pytest.mark.parametrize("scene,prop", _matrix_cells())
def test_verify_matrix(scene, prop, tmp_path, capsys):
    path = tmp_path / "scene.json"
    path.write_text(json.dumps({"shape": MATRIX_SCENES[scene]}))
    args = MATRIX_ARGS[prop]
    if scene == "ball" and prop == "level-distance":
        args = []   # the default spacing
    t0 = time.perf_counter()
    rc = main(["verify", prop, "--scene", str(path), *args])
    elapsed = time.perf_counter() - t0
    out, err = capsys.readouterr()
    if rc == 2 and (scene, prop) in OPEN_DEFECTS and OPEN_DEFECTS[scene, prop] in err:
        raise OpenDefect(err)
    if (scene, prop) in UNFIT:
        assert rc == 2 and elapsed < 2.0
        assert UNFIT[scene, prop] in err
    else:
        assert rc in (0, 1), err
        assert json.loads(out)["passed"] is (rc == 0)

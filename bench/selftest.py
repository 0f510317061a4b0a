"""Self-tests of the bench itself (not of distfield).

    python3 -m pytest bench/selftest.py -q

They use shrunken copies of the workloads, so they run in well under a
minute.  The file is not named ``test_*.py`` so the package's own test run
does not collect it.
"""

from __future__ import annotations

import dataclasses
import json
import os
import re
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads as W  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


class SmallGridMarch(W.GridMarch):
    N2 = 48
    N3 = 10


class SmallExactField(W.ExactField):
    N_CUSP = 12
    N_SPIRAL = 11
    N_ELLIPSE = 24
    ORACLE_NODES = 20


class SmallPointwise(W.Pointwise):
    QUERY_GRID = (4, 3)
    ORACLE_QUERIES = 4


@pytest.fixture
def workdir():
    path = ROOT / ".bench_build" / f"selftest-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    yield str(path)
    shutil.rmtree(path, ignore_errors=True)


def built(cls, workdir, seed=5):
    wl = cls()
    wl.setup(cls.inputs(seed), workdir)
    wl.warmup()
    return wl


def passing_results(wl) -> dict:
    """Run one pass; every check (and oracle) must pass on the real outputs."""
    results = run.run_ops(wl.ops())
    tally = run.Tally()
    run.check_pass(results, tally, with_oracle=True)
    assert tally.failed == 0, tally.failures
    return {op.name: (op, out) for op, out, *_ in results}


def flags(check, out) -> bool:
    try:
        check(out)
    except W.CheckFailed:
        return True
    return False


def test_inputs_identical_for_equal_seeds():
    for cls in W.WORKLOADS.values():
        assert json.dumps(cls.inputs(7)) == json.dumps(cls.inputs(7))
        assert json.dumps(cls.inputs(7)) != json.dumps(cls.inputs(8))


def test_self_times_sum_to_traced_pass(workdir):
    wl = built(SmallPointwise, workdir)
    tracer = tracing.Tracer()
    with tracing.instrument(tracer), tracer.span("bench.pass"):
        run.run_ops(wl.ops())
    root = tracer.spans[0]
    assert root.name == "bench.pass" and root.parent is None
    selfs = tracing.self_times(tracer.spans)
    assert sum(selfs) == pytest.approx(root.end - root.start, rel=1e-9, abs=1e-12)
    assert min(selfs) >= -1e-9
    layer = tracing.per_layer(tracer.spans)
    assert layer["projection.nearest_points.calls"] > 0
    assert layer["shapes.projection_candidates.self_s"] > 0
    # The wrappers are gone after the block.
    import distfield.projection as P
    assert not hasattr(P.nearest_points, "__wrapped__")


def test_metric_names_are_valid_and_match_the_benchmark():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"] + spec["workloads"]]
    assert all(NAME.fullmatch(n) for n in names), [n for n in names if not NAME.fullmatch(n)]
    assert len(names) == len(set(names))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert {w["name"] for w in spec["workloads"]} == set(W.WORKLOADS)


def test_grid_march_checks_flag_perturbed_results(workdir):
    wl = built(SmallGridMarch, workdir)
    res = passing_results(wl)
    op, field = res["fmm.disk"]
    shifted = dataclasses.replace(field, values=field.values + 1e-3)
    assert flags(op.check, shifted)
    far = field.values.copy()
    far[np.argmax(np.where(field.frozen, -np.inf, np.abs(far)))] += 2.5 * field.spec.h
    assert flags(op.check, dataclasses.replace(field, values=far))
    op, (ls, fld) = res["levelset.0"]
    moved = dataclasses.replace(ls, chains=[ls.chains[0] + 1e-3])
    assert flags(op.check, (moved, fld))


def test_exact_field_checks_flag_perturbed_results(workdir):
    wl = built(SmallExactField, workdir)
    res = passing_results(wl)
    for key in ("cli.grid.cusp", "cli.grid.spiral", "cli.fmm.ellipse"):
        op, rc = res[key]
        assert flags(op.check, 1)
        out = wl.outputs[key.split(".")[-1]]
        text = Path(out.path).read_text()
        dims, origin, h, values, frozen = W.parse_grid_csv(text)
        lines = text.splitlines()
        rows = int(np.prod(dims[:-1]))
        bumped = values.reshape(rows, dims[-1]) + 1e-3 * np.sign(values.reshape(rows, dims[-1]))
        lines[4 : 4 + rows] = [",".join(format(v, ".17g") for v in row) for row in bumped]
        Path(out.path).write_text("\n".join(lines) + "\n")
        assert flags(op.check, rc)        # output no longer byte-identical
        out.digest = None                 # so the value checks alone decide
        assert flags(op.oracle, rc)
        if key == "cli.fmm.ellipse":
            out.digest = None
            assert flags(op.check, rc)    # frozen band off the exact distance


def test_pointwise_checks_flag_perturbed_results(workdir):
    wl = built(SmallPointwise, workdir)
    res = passing_results(wl)
    ops = run.run_ops(wl.ops())
    by_name = {}
    for op, out, *_ in ops:
        by_name.setdefault(op.name, []).append((op, out))

    for shape in ("disk", "square", "ellipse", "halfspace"):
        op, (r, g) = by_name[f"query.{shape}"][0]
        assert not flags(op.check, (r, g))
        assert flags(op.check, (dataclasses.replace(r, distance=r.distance + 1e-3), g))
    oracle_ops = [(op, out) for op, out in by_name["query.cusp"] + by_name["query.spiral"]
                  if op.oracle is not None]
    assert oracle_ops
    for op, (r, g) in oracle_ops:
        assert not flags(op.oracle, (r, g))
        assert flags(op.oracle, (dataclasses.replace(r, distance=r.distance + 1e-3), g))

    for name in W.MEDIAL_PROBES:
        op, mult = res[f"medial.{name}"]
        assert flags(op.check, mult + 1) and flags(op.check, mult - 1)
    op, _ = res["truncation.spiral"]
    assert flags(op.check, "answered")

    for key in W.MEDIAL_SCENES:
        op, rc = res[f"cli.medial.{key}"]
        assert flags(op.check, 1)
        out = wl.medial_out[key]
        lines = Path(out.path).read_text().splitlines()
        Path(out.path).write_text("\n".join(lines[:-1]) + "\n")
        out.digest = None
        assert flags(op.check, rc)

    op, path = res["trace.disk.0"]
    assert flags(op.check, dataclasses.replace(path, distances=path.distances + 1e-3))
    op, path = res["trace.ellipse"]
    assert flags(op.check, dataclasses.replace(path, distances=path.distances + 1e-3))
    op, rep = res["c1_margin.disk"]
    bad = dict(rep.estimates, c1_ratio=rep.estimates["c1_ratio"] + 0.1)
    assert flags(op.check, dataclasses.replace(rep, estimates=bad))
    op, resid = res["verify_level_distance.disk"]
    assert flags(op.check, resid + 1e-3)
    op, rep = res["cusp_medial_check"]
    assert flags(op.check, dict(rep, passed=False, misclassified=1))

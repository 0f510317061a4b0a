"""Benchmark of distfield: one workload, one seed, a fixed measuring time.

    python3 bench/run.py --workload grid-march --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from ``src/``.
One process, one closed-loop client: each operation starts after the previous
one returned.  The run repeats timed passes over the workload's operations
until ``--seconds`` of pass time has accumulated, checking every operation's
output and timing one more set-up (``setup_s``) between passes.  Times are
reported in reference seconds: each op's time is rescaled by a host-speed
probe taken around it (``host_probe``), then the median over passes is
taken per op.  With ``--trace 1`` untraced and traced passes alternate and
the per-layer metrics come from the traced ones.

Standard output ends with two JSON lines: a report (accuracy figures,
failures, run metadata) and the result, with exactly the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Exit code 2 without a result when
the source tree is missing.
"""

from __future__ import annotations

import os

# One thread per process for numpy's native libraries; set before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import heapq
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent

MIN_SETUP_SAMPLES = 5
# The host's speed is probed between ops at least every PROBE_INTERVAL seconds
# of op time; op times are rescaled to a host on which the probe takes PROBE_REF.
PROBE_INTERVAL = 0.1
PROBE_REF = 2.0e-3
MAX_FAILURES_SHOWN = 10
# Accuracy figures reported beside the metrics (checked, not compared).
FIGURES = ("fmm_err_over_h", "levelset_err_over_h", "oracle_err_max", "medial_misclassified")

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "query_p50_ms": "ms",
    "query_p99_ms": "ms",
}


@dataclass
class Tally:
    """Outcome counts and figures accumulated over a run's passes."""

    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    figures: dict = field(default_factory=dict)

    def fail(self, op_name: str, msg: str):
        self.failed += 1
        if len(self.failures) < MAX_FAILURES_SHOWN:
            self.failures.append(f"{op_name}: {msg}")

    def add_figures(self, figures: dict) -> int:
        """Keep the worst value of each figure; return the CLI bytes written."""
        figures = dict(figures)
        bytes_out = figures.pop("cli_bytes_out", 0)
        for key, value in figures.items():
            self.figures[key] = max(self.figures.get(key, value), value)
        return bytes_out


def host_probe() -> float:
    """Best of two runs of a fixed pure-Python kernel: the host's current speed.

    Other work on the host slows this process by up to 1.7x for seconds or
    minutes at a time; dividing op times by the probe's time measured around
    them removes that drift from the metrics.
    """
    best = math.inf
    for _ in range(2):
        t0 = time.perf_counter()
        heap = []
        for i in range(4000):
            heapq.heappush(heap, ((i * 7919) % 10007) * 0.5)
        acc = 0.0
        while heap:
            acc += math.sqrt(heapq.heappop(heap))
        best = min(best, time.perf_counter() - t0)
    return best


def run_ops(ops) -> list:
    """Run one pass; returns [op, output, error, seconds, reference seconds] per op.

    Reference seconds are the op's time scaled by PROBE_REF over the mean of
    the host probes taken just before and just after it.
    """
    out = []
    pending = []
    since = 0.0
    before = host_probe()
    for k, op in enumerate(ops):
        t0 = time.perf_counter()
        try:
            res, err = op.run(), None
        except Exception as exc:  # an op that raises counts as failed
            res, err = None, f"{type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
        out.append([op, res, err, dt, None])
        pending.append(out[-1])
        since += dt
        if since >= PROBE_INTERVAL or k == len(ops) - 1:
            after = host_probe()
            scale = PROBE_REF / (0.5 * (before + after))
            for row in pending:
                row[4] = row[3] * scale
            before, pending, since = after, [], 0.0
    return out


def check_pass(results, tally: Tally, with_oracle: bool) -> int:
    """Check every op's output; returns the bytes the pass's CLI calls wrote."""
    from workloads import CheckFailed

    bytes_out = 0
    for op, res, err, *_ in results:
        tally.attempted += 1
        if err is not None:
            tally.fail(op.name, err)
            continue
        checks = [op.check] + ([op.oracle] if with_oracle and op.oracle else [])
        for check in checks:
            try:
                bytes_out += tally.add_figures(check(res))
            except CheckFailed as exc:
                tally.add_figures(exc.figures)
                tally.fail(op.name, str(exc))
                break
            except Exception as exc:  # a malformed output breaks its check
                tally.fail(op.name, f"{type(exc).__name__}: {exc}")
                break
    return bytes_out


def import_seconds() -> float:
    """Time to import distfield (and numpy) in a fresh interpreter."""
    code = "import time; t = time.perf_counter(); import distfield; print(time.perf_counter() - t)"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-B", "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


class SetupTimer:
    """Samples set-up time: an import in a fresh interpreter, then building the
    workload from its seed with one warm-up op, in reference seconds.  Samples
    are taken between passes, so their median spans the whole run rather than
    its first seconds.
    """

    def __init__(self, cls, seed: int, workdir: Path):
        self.cls, self.seed, self.workdir = cls, seed, workdir
        self.samples = []

    def sample(self):
        scratch = self.workdir / f"setup-{len(self.samples)}"
        scratch.mkdir()
        before = host_probe()
        t_import = import_seconds()
        t0 = time.perf_counter()
        wl = self.cls()
        wl.setup(self.cls.inputs(self.seed), str(scratch))
        wl.warmup()
        elapsed = t_import + time.perf_counter() - t0
        self.samples.append(elapsed * PROBE_REF / (0.5 * (before + host_probe())))
        return wl

    def seconds(self) -> float:
        while len(self.samples) < MIN_SETUP_SAMPLES:
            self.sample()
        return statistics.median(self.samples)


def metadata(seed: int) -> dict:
    import numpy as np

    src_files = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in src_files:
        data = path.read_bytes()
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30).stdout.strip() or None
        except OSError:
            pass
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
        "seed": seed,
        "nproc": os.cpu_count(),
        "numpy": np.__version__,
        "python": platform.python_version(),
    }


def median_op_times(passes) -> list:
    """Each op's median over the passes' per-op times (ops in the same order)."""
    return [statistics.median(col) for col in zip(*passes)]


def per_layer_units() -> dict:
    import tracing

    units = dict(tracing.per_layer_names())
    units["cli.bytes_out"] = "B"
    units["trace_overhead_frac"] = "ratio"
    return units


def run(workload: str, seed: int, seconds: float, trace: bool, workdir: Path):
    import tracing
    from workloads import WORKLOADS

    setup = SetupTimer(WORKLOADS[workload], seed, workdir)
    wl = setup.sample()

    tally = Tally()
    tracer = tracing.Tracer()
    plain, traced_runs, layers, raw_s = [], [], [], []
    measured = 0.0
    i = 0
    while True:
        traced = trace and i % 2 == 1
        ops = wl.ops()
        t0 = time.perf_counter()
        if traced:
            tracer.reset()
            with tracing.instrument(tracer), tracer.span("bench.pass"):
                results = run_ops(ops)
        else:
            results = run_ops(ops)
        measured += time.perf_counter() - t0
        bytes_out = check_pass(results, tally, with_oracle=i == 0)
        times = [r[4] for r in results]
        raw = sum(r[3] for r in results)
        del results  # outputs are checked; keep only the timings
        if traced:
            traced_runs.append(times)
            layer = tracing.per_layer(tracer.spans)
            layer["cli.bytes_out"] = bytes_out
            layers.append(layer)
        else:
            plain.append(times)
            raw_s.append(raw)
        i += 1
        if measured >= seconds and (not trace or traced_runs):
            break
        if not trace:
            setup.sample()

    best = median_op_times(plain)
    wall_s = sum(best)
    if trace:
        metrics = {k: statistics.median(layer[k] for layer in layers)
                   for k in per_layer_units() if k != "trace_overhead_frac"}
        metrics["trace_overhead_frac"] = sum(median_op_times(traced_runs)) / wall_s - 1.0
        units = per_layer_units()
    else:
        import numpy as np

        latencies_ms = [1e3 * s for op, s in zip(ops, best) if op.query]
        metrics = {
            "setup_s": setup.seconds(),
            "wall_s": wall_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "query_p50_ms": np.percentile(latencies_ms, 50),
            "query_p99_ms": np.percentile(latencies_ms, 99),
        }
        units = END_TO_END

    report = {
        "workload": workload,
        "seconds": seconds,
        "trace": int(trace),
        "passes": len(plain),
        "traced_passes": len(traced_runs),
        "pass_wall_s": raw_s,
        "query_samples": sum(op.query for op in ops),
        "ops_failed_frac": tally.failed / tally.attempted,
        "figures": {k: tally.figures[k] for k in FIGURES if k in tally.figures},
        "failures": tally.failures,
        "meta": metadata(seed),
    }
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": float(metrics[k]), "unit": units[k]} for k in units},
    }
    return report, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["grid-march", "exact-field", "pointwise"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (SRC / "distfield" / "__init__.py").is_file():
        print(f"error: no distfield sources under {SRC}", file=sys.stderr)
        return 2
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(SRC), str(BENCH)]

    workdir = ROOT / ".bench_build" / f"distfield-bench-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        report, result = run(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

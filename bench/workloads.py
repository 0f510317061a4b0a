"""The bench workloads: seeded inputs, set-up, timed operations and their checks.

A workload turns a seed into plain input data (``inputs``), builds shapes and
scene files from it (``setup``), runs one untimed warm-up (``warmup``) and
yields the operations of one pass (``ops``).  Each ``Op`` has a timed
``run``, a ``check`` of its result run outside the timed pass, and optionally
an ``oracle`` check that compares against ``brute_force_distance_many`` and
runs once per bench run, on the first pass's results.

Checks return the accuracy figures they measured and raise ``CheckFailed``
when a result is wrong, so the bench can count the op as failed.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import distfield as df
from distfield import cli

import reference as ref

ORACLE_SPACING = 1e-4   # boundary sampling of the brute-force oracle
EXACT_TOL = 1e-9        # closed-form and exact-init agreement
FMM_ERR_MAX = 2.0       # first-order FMM: max |u - exact| <= 2 h


class CheckFailed(Exception):
    """A wrong result; ``figures`` keeps what the check measured on the way."""

    def __init__(self, msg: str, figures: dict | None = None):
        super().__init__(msg)
        self.figures = figures or {}


def require(ok: bool, msg: str, **figures):
    if not ok:
        raise CheckFailed(msg, figures)


@dataclass
class Op:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], dict]
    oracle: Callable[[Any], dict] | None = None
    query: bool = True  # counts towards query_p50_ms / query_p99_ms


def oracle_error(shape, pts: np.ndarray, dists: np.ndarray) -> float:
    """Max |engine - brute force| over pts; fails beyond the oracle's spacing."""
    brute = df.brute_force_distance_many(shape, pts, ORACLE_SPACING, chunk=16)
    err = float(np.max(np.abs(np.abs(dists) - brute)))
    require(err <= ORACLE_SPACING, f"oracle disagreement {err:.3g}")
    return err


# ---------------------------------------------------------------------------
# Shared checks
# ---------------------------------------------------------------------------

def check_field(values: np.ndarray, frozen: np.ndarray, exact: np.ndarray, h: float) -> dict:
    """FMM field against an exact signed distance: exact band, <= 2h elsewhere."""
    require(np.all(np.isfinite(values)), "unreachable nodes in a connected grid")
    band_err = float(np.max(np.abs(values[frozen] - exact[frozen]), initial=0.0))
    require(band_err <= EXACT_TOL, f"frozen band off by {band_err:.3g}")
    err = float(np.max(np.abs(values - exact))) / h
    require(err <= FMM_ERR_MAX, f"fmm error {err:.3g} h")
    return {"fmm_err_over_h": err}


def bilinear(field_nd: np.ndarray, origin, h: float, pts: np.ndarray) -> np.ndarray:
    fx = (pts - np.asarray(origin)) / h
    i = np.clip(np.floor(fx).astype(int), 0, np.array(field_nd.shape) - 2)
    t = fx - i
    f00 = field_nd[i[:, 0], i[:, 1]]
    f10 = field_nd[i[:, 0] + 1, i[:, 1]]
    f01 = field_nd[i[:, 0], i[:, 1] + 1]
    f11 = field_nd[i[:, 0] + 1, i[:, 1] + 1]
    tx, ty = t[:, 0], t[:, 1]
    return (f00 * (1 - tx) * (1 - ty) + f10 * tx * (1 - ty)
            + f01 * (1 - tx) * ty + f11 * tx * ty)


def check_circle_level(ls, field, center, radius: float) -> dict:
    """One closed chain, on the field's level, within 2h of the exact circle."""
    require(len(ls.chains) == 1, f"{len(ls.chains)} chains for a circle")
    verts = ls.chains[0]
    require(len(verts) >= 4 and np.array_equal(verts[0], verts[-1]), "chain not closed")
    h = field.spec.h
    interp = bilinear(field.values_nd(), field.spec.origin, h, verts)
    off = float(np.max(np.abs(interp - ls.level)))
    require(off <= 1e-9, f"vertices off the field's level by {off:.3g}")
    err = float(np.max(np.abs(ref.disk_sd(verts, center, radius) - ls.level))) / h
    require(err <= FMM_ERR_MAX, f"level-set error {err:.3g} h")
    return {"levelset_err_over_h": err}


def parse_grid_csv(text: str):
    """(dims, origin, h, values, frozen) from the CLI's grid CSV."""
    lines = text.splitlines()
    dims = tuple(int(v) for v in lines[0].split(",")[1:])
    origin = np.array([float(v) for v in lines[1].split(",")[1:]])
    h = float(lines[2].split(",")[1])
    rows = int(np.prod(dims[:-1]))
    require(lines[3] == "values" and lines[4 + rows] == "frozen", "malformed grid CSV")
    values = np.array([[float(v) for v in ln.split(",")] for ln in lines[4 : 4 + rows]])
    frozen = np.array([[int(v) for v in ln.split(",")] for ln in lines[5 + rows : 5 + 2 * rows]])
    require(values.shape == (rows, dims[-1]) and frozen.shape == values.shape,
            "grid CSV row count")
    return dims, origin, h, values.ravel(), frozen.ravel().astype(bool)


def grid_nodes(dims, origin, h) -> np.ndarray:
    axes = [origin[d] + h * np.arange(dims[d]) for d in range(len(dims))]
    return np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=1)


class CliOutput:
    """Reads one CLI output file and checks it is byte-identical on every pass."""

    def __init__(self, path: str):
        self.path = path
        self.digest = None

    def read(self, rc: int) -> str:
        require(rc == 0, f"exit code {rc}")
        with open(self.path, "r", encoding="utf-8") as fh:
            text = fh.read()
        digest = hashlib.sha256(text.encode()).hexdigest()
        if self.digest is None:
            self.digest = digest
        require(digest == self.digest, "output differs from the first pass")
        return text


def write_scene(workdir: str, name: str, spec: dict, lo, hi, n: int) -> str:
    path = os.path.join(workdir, f"{name}.json")
    scene = {"shape": spec, "grid": {"bbox": [list(map(float, lo)), list(map(float, hi))], "n": n}}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(scene, fh)
    return path


# ---------------------------------------------------------------------------
# grid-march: solve_fmm on a 2-d disk and a 3-d ball, then level sets
# ---------------------------------------------------------------------------

class GridMarch:
    N2 = 320     # cells per axis, 2-d disk grid
    N3 = 36      # cells per axis, 3-d ball grid
    BOX = 1.5

    @classmethod
    def inputs(cls, seed: int) -> dict:
        rng = np.random.default_rng([seed, 1])
        return {
            "disk": {"center": rng.uniform(-0.05, 0.05, 2).tolist(),
                     "radius": float(rng.uniform(0.95, 1.0))},
            "ball": {"center": rng.uniform(-0.05, 0.05, 3).tolist(),
                     "radius": float(rng.uniform(0.95, 1.0))},
            "levels": [float(rng.uniform(0.1, 0.3)), float(rng.uniform(0.4, 0.6)),
                       float(rng.uniform(-0.4, -0.2))],
        }

    def setup(self, inputs: dict, workdir: str):
        self.inp = inputs
        self.disk = df.Disk(inputs["disk"]["center"], inputs["disk"]["radius"])
        self.ball = df.Disk(inputs["ball"]["center"], inputs["ball"]["radius"])
        b = self.BOX
        self.grid2 = df.GridSpec.from_bbox((-b, -b), (b, b), self.N2)
        self.grid3 = df.GridSpec.from_bbox((-b, -b, -b), (b, b, b), self.N3)
        self._exact = {}

    def warmup(self):
        small = df.GridSpec.from_bbox((-1.5, -1.5), (1.5, 1.5), 32)
        df.extract_level_set(df.solve_fmm(self.disk, small), 0.3)
        df.solve_fmm(self.ball, df.GridSpec.from_bbox((-1.5,) * 3, (1.5,) * 3, 8))

    def _check_solve(self, key, shape, grid, field) -> dict:
        if key not in self._exact:
            self._exact[key] = ref.disk_sd(grid.nodes(), shape.center, shape.radius)
        return check_field(field.values, field.frozen, self._exact[key], grid.h)

    def ops(self) -> list[Op]:
        state = {}

        def solve2():
            state["field"] = df.solve_fmm(self.disk, self.grid2)
            return state["field"]

        ops = [
            Op("fmm.disk", solve2,
               lambda f: self._check_solve("disk", self.disk, self.grid2, f)),
            Op("fmm.ball", lambda: df.solve_fmm(self.ball, self.grid3),
               lambda f: self._check_solve("ball", self.ball, self.grid3, f)),
        ]
        for i, a in enumerate(self.inp["levels"]):
            ops.append(Op(
                f"levelset.{i}",
                lambda a=a: (df.extract_level_set(state["field"], a), state["field"]),
                lambda out: check_circle_level(out[0], out[1], self.disk.center,
                                               self.disk.radius),
            ))
        return ops


# ---------------------------------------------------------------------------
# exact-field: CLI grid (cusp, spiral) and fmm (ellipse) on bench-written scenes
# ---------------------------------------------------------------------------

class ExactField:
    N_CUSP = 48
    N_SPIRAL = 47    # odd, so no node falls near the spiral apex
    N_ELLIPSE = 72
    ORACLE_NODES = 120

    @classmethod
    def inputs(cls, seed: int) -> dict:
        rng = np.random.default_rng([seed, 2])
        h_c = 3.0 / cls.N_CUSP
        h_s = 2.4 / cls.N_SPIRAL
        h_e = 6.0 / cls.N_ELLIPSE
        shift_c = rng.uniform(-0.5, 0.5, 2) * h_c
        shift_s = rng.uniform(-0.25, 0.25, 2) * h_s
        shift_e = rng.uniform(-0.5, 0.5, 2) * h_e
        return {
            "cusp": {"alpha": float(rng.uniform(0.4, 0.6)),
                     "lo": (np.array([-0.5, -1.5]) + shift_c).tolist(),
                     "hi": (np.array([2.5, 1.5]) + shift_c).tolist()},
            "spiral": {"beta": 1.0,
                       "lo": (np.array([-1.2, -1.2]) + shift_s).tolist(),
                       "hi": (np.array([1.2, 1.2]) + shift_s).tolist()},
            "ellipse": {"semi_axes": (np.array([2.0, 1.0]) * rng.uniform(0.97, 1.03, 2)).tolist(),
                        "center": rng.uniform(-0.05, 0.05, 2).tolist(),
                        "lo": (np.array([-3.0, -3.0]) + shift_e).tolist(),
                        "hi": (np.array([3.0, 3.0]) + shift_e).tolist()},
            "oracle_seed": int(rng.integers(2**31)),
        }

    def setup(self, inputs: dict, workdir: str):
        self.inp = inputs
        c, s, e = inputs["cusp"], inputs["spiral"], inputs["ellipse"]
        self.cusp = df.Cusp(c["alpha"])
        self.spiral = df.Spiral(beta=s["beta"])
        self.ellipse = df.Ellipse(e["semi_axes"], e["center"])
        self.scenes = {
            "cusp": write_scene(workdir, "cusp", {"type": "cusp", "alpha": c["alpha"]},
                                c["lo"], c["hi"], self.N_CUSP),
            "spiral": write_scene(workdir, "spiral", {"type": "spiral", "beta": s["beta"]},
                                  s["lo"], s["hi"], self.N_SPIRAL),
            "ellipse": write_scene(workdir, "ellipse",
                                   {"type": "ellipse", "semi_axes": e["semi_axes"],
                                    "center": e["center"]},
                                   e["lo"], e["hi"], self.N_ELLIPSE),
            "warmup": write_scene(workdir, "warmup", {"type": "cusp", "alpha": c["alpha"]},
                                  c["lo"], c["hi"], 8),
        }
        self.outputs = {k: CliOutput(os.path.join(workdir, f"{k}.csv")) for k in self.scenes}
        self.rng = np.random.default_rng(inputs["oracle_seed"])

    def warmup(self):
        cli.main(["grid", "--scene", self.scenes["warmup"], "--out", self.outputs["warmup"].path])

    def cli_op(self, cmd: str, key: str) -> Op:
        out = self.outputs[key]
        argv = [cmd, "--scene", self.scenes[key], "--out", out.path]
        shape = getattr(self, key)

        def check(rc):
            dims, origin, h, values, frozen = parse_grid_csv(out.read(rc))
            require(np.all(np.isfinite(values)), "non-finite grid values")
            nodes = grid_nodes(dims, origin, h)
            if key == "cusp":
                inside = ref.cusp_inside(nodes, shape.alpha)
            elif key == "spiral":
                inside = shape.contains_many(nodes)
            else:
                exact = ref.ellipse_sd(nodes, shape.semi_axes, shape.center)
                inside = exact > 0
            require(np.array_equal(values > 0, inside), "sign disagrees with membership")
            figures = {"cli_bytes_out": os.path.getsize(out.path)}
            if key == "ellipse":
                figures.update(check_field(values, frozen, exact, h))
            return figures

        def oracle(rc):
            dims, origin, h, values, frozen = parse_grid_csv(out.read(rc))
            nodes = grid_nodes(dims, origin, h)
            pool = np.nonzero(frozen)[0]
            idx = self.rng.choice(pool, size=min(self.ORACLE_NODES, len(pool)), replace=False)
            return {"oracle_err_max": oracle_error(shape, nodes[idx], values[idx])}

        return Op(f"cli.{cmd}.{key}", lambda: cli.main(argv), check, oracle)

    def ops(self) -> list[Op]:
        return [self.cli_op("grid", "cusp"), self.cli_op("grid", "spiral"),
                self.cli_op("fmm", "ellipse")]


# ---------------------------------------------------------------------------
# pointwise: scalar queries, medial probes, truncation, CLI medial, diagnostics
# ---------------------------------------------------------------------------

SQUARE = [(-1.0, -1.0), (1.0, -1.0), (1.0, 1.0), (-1.0, 1.0)]
QUERY_BOXES = {
    "disk": ((-2.0, -2.0), (2.0, 2.0)),
    "square": ((-2.0, -2.0), (2.0, 2.0)),
    "ellipse": ((-3.0, -2.0), (3.0, 2.0)),
    "halfspace": ((-2.0, -2.0), (2.0, 2.0)),
    "cusp": ((-0.5, -1.5), (2.5, 1.5)),
    "spiral": ((-1.2, -1.2), (1.2, 1.2)),
}
SPIRAL_MIN_RADIUS = 0.01
# Fixed medial probes: (shape, point, expected multiplicity).
MEDIAL_PROBES = {
    "disk_centre": ("disk", (0.0, 0.0), df.CONTINUUM),
    "square_centre": ("square", (0.0, 0.0), 4),
    "ellipse_axis": ("ellipse", (0.5, 0.0), 2),
    "cusp_axis": ("cusp", (0.5, 0.0), 2),
}
# CLI medial scenes: (spec, lo, hi, n); the grids put nodes on the medial axes.
MEDIAL_SCENES = {
    "ellipse": ({"type": "ellipse", "semi_axes": [2.0, 1.0]}, (-3.0, -3.0), (3.0, 3.0), 26),
    "cusp": ({"type": "cusp", "alpha": 0.5}, (-0.5, -1.5), (2.5, 1.5), 24),
}


def expected_medial_nodes(key: str, nodes: np.ndarray) -> np.ndarray:
    """Grid nodes on the analytic medial set of a MEDIAL_SCENES shape."""
    on_axis = nodes[:, 1] == 0.0
    if key == "ellipse":
        return on_axis & (np.abs(nodes[:, 0]) < ref.ellipse_medial_half_length((2.0, 1.0)))
    return on_axis & (nodes[:, 0] > 0.0)


class Pointwise:
    QUERY_GRID = (20, 15)    # queries per shape: one per cell
    ORACLE_QUERIES = 25      # per curved shape
    CLEAR_PROBES = 4         # per convex shape
    TRACE_DT = 1e-2
    C1_PAIRS = 100
    C1_RADIUS = 0.1
    LEVEL = 0.2

    @classmethod
    def inputs(cls, seed: int) -> dict:
        rng = np.random.default_rng([seed, 3])
        # Jittered-grid queries: one uniform point per cell of a QUERY_GRID
        # partition of the box, so every seed covers the box evenly.
        queries = {}
        nx, ny = cls.QUERY_GRID
        cells = np.stack(np.meshgrid(np.arange(nx), np.arange(ny), indexing="ij"), -1).reshape(-1, 2)
        for name, (lo, hi) in QUERY_BOXES.items():
            size = (np.asarray(hi) - np.asarray(lo)) / (nx, ny)
            pts = []
            for c in cells:
                p = lo + (c + rng.uniform(size=2)) * size
                while name == "spiral" and np.linalg.norm(p) < SPIRAL_MIN_RADIUS:
                    p = lo + (c + rng.uniform(size=2)) * size
                pts.append(p.tolist())
            queries[name] = pts

        def polar(n, r_lo, r_hi):
            r = rng.uniform(r_lo, r_hi, n)
            t = rng.uniform(0.0, 2.0 * math.pi, n)
            return np.stack([r * np.cos(t), r * np.sin(t)], axis=1)

        k = cls.CLEAR_PROBES
        ell = polar(k, 1.1, 1.5) * np.array([2.0, 1.0])
        return {
            "queries": queries,
            "oracle_idx": rng.choice(nx * ny, cls.ORACLE_QUERIES, replace=False).tolist(),
            "clear": {"disk": polar(k, 0.2, 0.9).tolist(),
                      "square": (polar(k, 1.6, 2.0)).tolist(),
                      "ellipse": ell.tolist()},
            "truncation": polar(1, 0.1, 0.9)[0].tolist(),
            "trace_disk": polar(2, 0.3, 0.8).tolist(),
            "trace_ellipse": [float(rng.uniform(-1.0, 1.0)), float(rng.uniform(0.3, 0.6))],
            "c1_angle": float(rng.uniform(0.0, 2.0 * math.pi)),
            "c1_seed": int(rng.integers(2**31)),
            "level_samples": polar(10, 0.2, 0.7).tolist(),
        }

    def setup(self, inputs: dict, workdir: str):
        self.inp = inputs
        self.shapes = {
            "disk": df.Disk((0.0, 0.0), 1.0),
            "square": df.Polygon(SQUARE),
            "ellipse": df.Ellipse((2.0, 1.0)),
            "halfspace": df.HalfSpace((1.0, 0.0), 0.0),
            "cusp": df.Cusp(0.5),
            "spiral": df.Spiral(beta=1.0),
        }
        self.queries = {k: np.asarray(v) for k, v in inputs["queries"].items()}
        self.ref_sd = {
            "disk": lambda p: ref.disk_sd(p, (0.0, 0.0), 1.0),
            "square": ref.square_sd,
            "ellipse": lambda p: ref.ellipse_sd(p, (2.0, 1.0), (0.0, 0.0)),
            "halfspace": lambda p: ref.halfspace_sd(p, (1.0, 0.0), 0.0),
        }
        self.ref_near = {
            "disk": lambda p: ref.disk_nearest(p, (0.0, 0.0), 1.0),
            "square": ref.square_nearest,
            "ellipse": lambda p: ref.ellipse_nearest(p, (2.0, 1.0), (0.0, 0.0)),
            "halfspace": lambda p: p * np.array([0.0, 1.0]),
        }
        self._brute = {}
        self._ref = {}
        self.medial_scenes = {}
        self.medial_out = {}
        for key, (spec, lo, hi, n) in MEDIAL_SCENES.items():
            self.medial_scenes[key] = write_scene(workdir, f"medial_{key}", spec, lo, hi, n)
            self.medial_out[key] = CliOutput(os.path.join(workdir, f"medial_{key}.csv"))

    def warmup(self):
        for name, shape in self.shapes.items():
            p = self.queries[name][0]
            df.gradient_from_result(shape, p, df.nearest_points(shape, p))

    # -- checks ---------------------------------------------------------------
    def closed_form(self, name: str, i: int):
        """(signed distance, nearest point) of query i from the closed forms."""
        if name not in self._ref:
            pts = self.queries[name]
            self._ref[name] = (self.ref_sd[name](pts), self.ref_near[name](pts))
        sd, near = self._ref[name]
        return float(sd[i]), near[i]

    def check_query(self, name: str, i: int, out) -> dict:
        x = self.queries[name][i]
        res, g = out
        d = res.distance
        require(np.isfinite(d) and d >= 0.0 and res.multiplicity >= 1, "bad projection result")
        # Every representative is a tol-near-optimal nearest point.
        gap = np.linalg.norm(x - res.points, axis=1) - d
        require(np.all((gap >= -EXACT_TOL) & (gap <= res.tol_used + EXACT_TOL)),
                "nearest point not at the reported distance")
        if name in self.ref_sd:
            sd, near = self.closed_form(name, i)
            require(abs(d - abs(sd)) <= EXACT_TOL, f"distance off by {abs(d - abs(sd)):.3g}")
        if g is not None:
            require(abs(np.linalg.norm(g) - 1.0) <= EXACT_TOL, "gradient not unit length")
            require(abs(abs(float(np.dot(g, x - res.points[0]))) - d) <= EXACT_TOL,
                    "gradient not along the projection")
            if name in self.ref_sd and res.multiplicity == 1:
                g_ref = (x - near) / sd
                require(np.linalg.norm(g - g_ref) <= 1e-7, "gradient off the closed form")
        return {}

    def check_oracle(self, name: str, i: int, dist: float) -> dict:
        """Brute-force distance of query i; one oracle call per shape, cached."""
        if name not in self._brute:
            idx = self.inp["oracle_idx"]
            brute = df.brute_force_distance_many(
                self.shapes[name], self.queries[name][idx], ORACLE_SPACING, chunk=16)
            self._brute[name] = dict(zip(idx, brute))
        err = abs(dist - self._brute[name][i])
        require(err <= ORACLE_SPACING, f"oracle disagreement {err:.3g}")
        return {"oracle_err_max": err}

    def check_trace(self, path, sd_fn, x0, disk_stop: bool) -> dict:
        t, pts, dists = path.times, path.points, path.distances
        require(np.all(np.diff(dists) > 0), "distance not increasing along the trace")
        exact = sd_fn(pts)
        require(np.max(np.abs(dists - exact)) <= EXACT_TOL, "trace distances off")
        # The last steps may bracket the medial axis; the straight-line and
        # unit-growth laws are checked on the samples clear of it.
        clear = t <= path.stop_time - 3.0 * self.TRACE_DT
        require(np.sum(clear) >= 2, "trace too short to check")
        t, pts, dists = t[clear], pts[clear], dists[clear]
        growth = float(np.max(np.abs(dists - dists[0] - t)))
        require(growth <= 1e-6, f"growth residual {growth:.3g}")
        u = pts[1] - pts[0]
        u = u / np.linalg.norm(u)
        rel = pts - pts[0]
        line = float(np.max(np.abs(rel[:, 0] * u[1] - rel[:, 1] * u[0])))
        require(line <= 1e-6, f"trace leaves its line by {line:.3g}")
        require(path.stop_reason == "MedialHit", f"stop reason {path.stop_reason}")
        if disk_stop:
            r = float(np.linalg.norm(x0))
            require(abs(path.stop_time - r) <= self.TRACE_DT + 1e-9,
                    "trace did not stop at the centre")
        return {}

    def check_medial_cli(self, key: str, rc) -> dict:
        text = self.medial_out[key].read(rc)
        rows = text.splitlines()
        require(rows[0] == "x1,x2", "medial CSV header")
        _, lo, hi, n = MEDIAL_SCENES[key]
        h = (hi[0] - lo[0]) / n
        nodes = grid_nodes((n + 1, n + 1), np.asarray(lo), h)
        got = np.zeros(len(nodes), dtype=bool)
        for row in rows[1:]:
            p = np.array([float(v) for v in row.split(",")])
            ij = np.rint((p - np.asarray(lo)) / h).astype(int)
            require(np.all((ij >= 0) & (ij <= n)) and np.allclose(nodes[ij[0] * (n + 1) + ij[1]], p),
                    "medial row is not a grid node")
            got[ij[0] * (n + 1) + ij[1]] = True
        wrong = int(np.sum(got != expected_medial_nodes(key, nodes)))
        require(wrong == 0, f"{wrong} medial nodes misclassified", medial_misclassified=wrong)
        return {"medial_misclassified": 0, "cli_bytes_out": len(text)}

    def check_multiplicity(self, expected: int, mult) -> dict:
        require(mult == expected, f"multiplicity {mult}, expected {expected}",
                medial_misclassified=1)
        return {"medial_misclassified": 0}

    # -- ops ------------------------------------------------------------------
    def query_ops(self) -> list[Op]:
        ops = []
        oracle_idx = set(self.inp["oracle_idx"])
        for name, shape in self.shapes.items():
            for i, x in enumerate(self.queries[name]):
                def run(shape=shape, x=x):
                    res = df.nearest_points(shape, x)
                    return res, df.gradient_from_result(shape, x, res)

                oracle = None
                if name in ("ellipse", "cusp", "spiral") and i in oracle_idx:
                    def oracle(out, name=name, i=i):
                        return self.check_oracle(name, i, out[0].distance)
                ops.append(Op(f"query.{name}", run,
                              lambda out, name=name, i=i: self.check_query(name, i, out),
                              oracle))
        return ops

    def probe_ops(self) -> list[Op]:
        probes = [(label, shape, np.asarray(p), m) for label, (shape, p, m) in MEDIAL_PROBES.items()]
        for name, pts in self.inp["clear"].items():
            probes += [(f"clear_{name}", name, np.asarray(p), 1) for p in pts]
        ops = []
        for label, name, p, m in probes:
            shape = self.shapes[name]
            ops.append(Op(f"medial.{label}",
                          lambda shape=shape, p=p: df.nearest_points(shape, p).multiplicity,
                          lambda mult, m=m: self.check_multiplicity(m, mult), query=False))
        return ops

    def truncation_op(self) -> Op:
        spiral = self.shapes["spiral"]
        p = np.asarray(self.inp["truncation"]) * spiral.reject_radius

        def run():
            try:
                df.nearest_points(spiral, p)
            except df.TruncationExceeded:
                return "raised"
            return "answered"

        def check(out):
            require(out == "raised", "query inside the truncation zone was answered")
            return {}

        return Op("truncation.spiral", run, check, query=False)

    def diagnostic_ops(self) -> list[Op]:
        disk, ell = self.shapes["disk"], self.shapes["ellipse"]
        ops = []
        for key in MEDIAL_SCENES:
            argv = ["medial", "--scene", self.medial_scenes[key], "--out", self.medial_out[key].path]
            ops.append(Op(f"cli.medial.{key}", lambda argv=argv: cli.main(argv),
                          lambda rc, key=key: self.check_medial_cli(key, rc), query=False))
        for i, x in enumerate(self.inp["trace_disk"]):
            x = np.asarray(x)
            ops.append(Op(f"trace.disk.{i}",
                          lambda x=x: df.trace(disk, x, self.TRACE_DT, 2.0),
                          lambda path, x=x: self.check_trace(path, self.ref_sd["disk"], x, True),
                          query=False))
        xe = np.asarray(self.inp["trace_ellipse"])
        ops.append(Op("trace.ellipse", lambda: df.trace(ell, xe, self.TRACE_DT, 4.0),
                      lambda path: self.check_trace(path, self.ref_sd["ellipse"], xe, False),
                      query=False))

        ang = self.inp["c1_angle"]
        p = np.array([math.cos(ang), math.sin(ang)])
        r = self.C1_RADIUS

        def check_c1(rep):
            # For the unit disk each pair's ratio is 1 / (2 |x|), |x| in [1 - r, 1 + r].
            ratio = rep.estimates["c1_ratio"]
            require(0.5 / (1.0 + r) - 1e-9 <= ratio <= 0.5 / (1.0 - r) + 1e-9,
                    f"c1 ratio {ratio:.6g} outside the disk's range")
            return {}

        ops.append(Op("c1_margin.disk",
                      lambda: df.c1_margin(disk, p, r, self.C1_PAIRS, seed=self.inp["c1_seed"]),
                      check_c1, query=False))

        samples = np.asarray(self.inp["level_samples"])

        def check_level(resid):
            require(resid <= 1e-4, f"level-distance residual {resid:.3g}")
            return {}

        ops.append(Op("verify_level_distance.disk",
                      lambda: df.verify_level_distance(disk, self.LEVEL, samples, spacing=1e-5),
                      check_level, query=False))

        def check_cusp(rep):
            require(rep["passed"] is True and rep["misclassified"] == 0,
                    f"cusp medial check: {rep['misclassified']} misclassified",
                    medial_misclassified=rep["misclassified"])
            return {"medial_misclassified": rep["misclassified"]}

        ops.append(Op("cusp_medial_check",
                      lambda: df.cusp_medial_check(0.5, 50, 1.0, 1e-6), check_cusp, query=False))
        return ops

    def ops(self) -> list[Op]:
        return (self.query_ops() + self.probe_ops() + [self.truncation_op()]
                + self.diagnostic_ops())


WORKLOADS = {"grid-march": GridMarch, "exact-field": ExactField, "pointwise": Pointwise}

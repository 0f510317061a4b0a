"""Command-line front end: scenes, grids, traces, verification, counterexamples.

Scene files are JSON objects {"shape": <shape spec>, "grid": {"bbox": [[lo..],
[hi..]], "n": cells-per-axis}, "tol": optional}.  All floating-point output is
formatted with 17 significant digits and all sampling is seeded, so identical
invocations produce byte-identical files.

Exit codes: 0 success, 1 failed verification, 2 bad arguments or scene.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from ._csv import csv_row
from .characteristics import path_to_csv, trace, verify_characteristic
from .counterexamples import (
    cusp_medial_check,
    evidence_to_csv,
    spiral_negative_control,
    spiral_ratio_sequence,
)
from .errors import DistanceFieldError, PreconditionViolated
from .fmm import GridField, GridSpec, extract_level_set, grid_error, grid_to_csv, solve_fmm, verify_level_distance
from .projection import gradient, is_medial, nearest_points, signed_distance_many
from .regularity import (
    SampleBox,
    c1_margin,
    chi_estimate,
    differentiability_test,
    gradient_lipschitz_estimate,
)
from .shapes import Cusp, Shape, Spiral, make_shape


def _load_scene(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    shape = make_shape(payload["shape"])
    grid = None
    if "grid" in payload and payload["grid"] is not None:
        g = payload["grid"]
        lo, hi = g["bbox"]
        grid = GridSpec.from_bbox(lo, hi, int(g["n"]))
    tol = float(payload.get("tol", 1e-8))
    return shape, grid, tol


def _require_grid(shape, grid) -> GridSpec:
    if grid is not None:
        return grid
    lo, hi = shape.bbox()
    return GridSpec.from_bbox(lo, hi, 64)


def _parse_point(text: str) -> np.ndarray:
    return np.asarray([float(v) for v in text.split(",")], dtype=float)


def _exact_field(shape: Shape, grid: GridSpec) -> GridField:
    values = signed_distance_many(shape, grid.nodes())
    return GridField(spec=grid, values=values, frozen=np.ones(grid.n_nodes, dtype=bool))


def _write(path: str | None, text: str):
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_grid(args) -> int:
    shape, grid, _ = _load_scene(args.scene)
    field = _exact_field(shape, _require_grid(shape, grid))
    _write(args.out, grid_to_csv(field))
    return 0


def _cmd_medial(args) -> int:
    shape, grid, tol = _load_scene(args.scene)
    if args.tol is not None:
        tol = args.tol
    grid = _require_grid(shape, grid)
    rows = ["x1,x2" if len(grid.dims) == 2 else "x1,x2,x3"]
    for p in grid.nodes():
        try:
            if is_medial(shape, p, tol):
                rows.append(csv_row(p))
        except DistanceFieldError:
            continue
    _write(args.out, "\n".join(rows) + "\n")
    return 0


def _cmd_trace(args) -> int:
    shape, _, tol = _load_scene(args.scene)
    if args.tol is not None:
        tol = args.tol
    path = trace(shape, _parse_point(args.start), args.dt, args.tmax, tol)
    _write(args.out, path_to_csv(path))
    summary = verify_characteristic(shape, path)
    summary.update(stop_reason=path.stop_reason, stop_time=path.stop_time)
    print(json.dumps(summary))
    return 0


def _cmd_fmm(args) -> int:
    shape, grid, _ = _load_scene(args.scene)
    grid = _require_grid(shape, grid)
    field = solve_fmm(shape, grid)
    _write(args.out, grid_to_csv(field))
    if args.refine:
        n_cells = grid.dims[0] - 1
        fine = solve_fmm(shape, GridSpec.from_bbox(
            grid.origin, grid.origin + n_cells * grid.h, 2 * n_cells))
        report = grid_error(field, shape, refined=fine)
        print(json.dumps({
            "max_abs": report.max_abs,
            "mean_abs": report.mean_abs,
            "order_estimate": report.order_estimate,
        }))
    return 0


def _cmd_levelset(args) -> int:
    shape, grid, _ = _load_scene(args.scene)
    field = solve_fmm(shape, _require_grid(shape, grid))
    ls = extract_level_set(field, args.level)
    rows = ["chain,x1,x2"]
    for ci, chain in enumerate(ls.chains):
        for v in chain:
            rows.append(f"{ci}," + csv_row(v))
    _write(args.out, "\n".join(rows) + "\n")
    return 0


def _interior_point(shape: Shape, rng) -> np.ndarray:
    lo, hi = shape.bbox()
    for _ in range(10000):
        p = rng.uniform(lo, hi)
        if shape.contains(p) and not is_medial(shape, p, 1e-6):
            return p
    raise DistanceFieldError("could not find an interior non-medial point")


def _verify_eikonal(shape, args, rng) -> dict:
    if args.n < 1:
        raise PreconditionViolated("--n must be at least 1")
    lo, hi = shape.bbox()
    h = 1e-5
    checked = 0
    max_norm_err = 0.0
    max_fd_err = 0.0
    for _ in range(200 * args.n):
        p = rng.uniform(lo, hi)
        res = nearest_points(shape, p, 1e-3)
        if res.multiplicity != 1 or res.distance <= 1e-2:
            continue
        g = gradient(shape, p, 1e-8)
        if g is None:
            continue
        checked += 1
        max_norm_err = max(max_norm_err, abs(float(np.linalg.norm(g)) - 1.0))
        fd = np.empty(shape.dim)
        for d in range(shape.dim):
            e = np.zeros(shape.dim)
            e[d] = h
            probe = np.stack([p + e, p - e])
            sd = signed_distance_many(shape, probe)
            fd[d] = (sd[0] - sd[1]) / (2 * h)
        max_fd_err = max(max_fd_err, float(np.max(np.abs(fd - g))))
        if checked == args.n:
            break
    if checked < args.n:
        raise PreconditionViolated(f"only {checked} of {args.n} samples were off the medial "
                                   "axis and 1e-2 from the boundary")
    return {
        "n_checked": checked,
        "max_gradient_norm_error": max_norm_err,
        "max_finite_difference_error": max_fd_err,
        "passed": max_norm_err <= 1e-9 and max_fd_err <= 1e-3,
    }


def _verify_boundary_gradient(shape, args, rng) -> dict:
    skipped = 0
    if args.point is not None:
        points = [_parse_point(args.point)]
    else:
        # Evenly spaced boundary samples; corners have no normal to compare with.
        pts, _ = shape.boundary_sample_with_normals(0.5)
        idx = np.linspace(0, len(pts) - 1, 8).astype(int)
        points = [pts[i] for i in idx if not shape._at_corner(pts[i])]
        skipped = len(idx) - len(points)
    worst = 0.0
    for p in points:
        rep = differentiability_test(shape, p, h0=0.05, rho=0.5, k_max=10)
        n = shape.inner_normal(p)
        worst = max(worst, float(np.linalg.norm(rep.gradient - n)))
    return {"n_points": len(points), "n_skipped": skipped, "max_normal_error": worst,
            "passed": bool(points) and worst <= 1e-3}


def _verify_characteristics(shape, args, rng) -> dict:
    start = _parse_point(args.point) if args.point is not None else _interior_point(shape, rng)
    path = trace(shape, start, dt=1e-3, t_max=2.0, tol=2e-3)
    rep = verify_characteristic(shape, path)
    rep.update(
        stop_reason=path.stop_reason,
        stop_time=path.stop_time,
        monotone=bool(np.all(np.diff(path.distances) > 0)),
    )
    rep["passed"] = (
        rep["max_line_deviation"] <= 1e-2
        and rep["max_growth_residual"] <= 1e-2
        and rep["monotone"]
    )
    return rep


def _verify_level_distance(shape, args, rng) -> dict:
    a = args.level if args.level is not None else 0.1
    pts, normals = shape.boundary_sample_with_normals(0.5)
    idx = np.linspace(0, len(pts) - 1, 20).astype(int)
    samples = pts[idx] + 3.0 * a * normals[idx]
    keep = signed_distance_many(shape, samples) > a
    residual = verify_level_distance(shape, a, samples[keep], spacing=args.spacing)
    return {"level": a, "n_samples": int(np.sum(keep)), "max_residual": residual,
            "passed": bool(residual <= 1e-4)}


def _verify_chi(shape, args, rng) -> dict:
    if args.point is None:
        raise DistanceFieldError("verify chi needs --point on the boundary")
    p = _parse_point(args.point)
    rep = chi_estimate(shape, p, [1e-1, 1e-2, 1e-3])
    vals = rep.residuals
    tail = vals[-2:]
    spread = float(np.max(tail) - np.min(tail))
    scale = max(float(np.max(np.abs(tail))), 1e-12)
    out = rep.to_dict()
    out["passed"] = spread <= 0.1 * scale
    return out


def _verify_c1(shape, args, rng) -> dict:
    if args.point is None:
        raise DistanceFieldError("verify c1 needs --point on the boundary")
    p = _parse_point(args.point)
    rep = c1_margin(shape, p, r=0.1, n_pairs=args.n, seed=args.seed)
    ratio = rep.estimates["c1_ratio"]
    chi_half = rep.estimates["chi_half_reference"]
    threshold = 1e-12 if not math.isfinite(chi_half) else chi_half * 1.4 + 1e-12
    out = rep.to_dict()
    out["threshold"] = threshold
    out["passed"] = ratio <= threshold
    return out


def _verify_lipschitz(shape, args, rng) -> dict:
    lo, hi = shape.bbox()
    delta = args.delta
    box = SampleBox(lo=lo, hi=hi, d_max=args.dmax)
    lhat = gradient_lipschitz_estimate(shape, a=0.0, delta=delta, n_pairs=args.n,
                                       box=box, seed=args.seed)
    bound = 3.0 / delta + 0.01
    return {"delta": delta, "lipschitz": lhat, "bound": bound, "passed": lhat <= bound}


_VERIFIERS = {
    "eikonal": _verify_eikonal,
    "boundary-gradient": _verify_boundary_gradient,
    "characteristics": _verify_characteristics,
    "level-distance": _verify_level_distance,
    "chi": _verify_chi,
    "c1": _verify_c1,
    "lipschitz": _verify_lipschitz,
}


def _cmd_verify(args) -> int:
    shape, _, _ = _load_scene(args.scene)
    rng = np.random.default_rng(args.seed)
    report = _VERIFIERS[args.property](shape, args, rng)
    report["property"] = args.property
    print(json.dumps(report))
    return 0 if report["passed"] else 1


def _cmd_counterexample(args) -> int:
    if args.which == "spiral":
        spiral = Spiral(beta=1.0)
        try:
            ev = spiral_ratio_sequence(spiral, [10.0, 100.0, 1000.0])
            spiral_negative_control([2.0, 6.0, 12.0])
        except DistanceFieldError as exc:
            print(f"FAIL: {exc}")
            return 1
        sys.stdout.write(evidence_to_csv(ev))
        rep = differentiability_test(spiral, (0.0, 0.0), h0=0.1, rho=0.5, k_max=20)
        decreasing = bool(np.all(np.diff(ev.measured_ratios) < 0))
        apex_ok = rep.estimates["gradient_norm"] <= 0.01
        print("apex_gradient_norm," + csv_row([rep.estimates["gradient_norm"]]))
        ok = decreasing and apex_ok
        print("PASS" if ok else "FAIL")
        return 0 if ok else 1
    rep = cusp_medial_check(alpha=0.5, n=100, x1_max=1.0, tol=1e-6)
    apex = differentiability_test(Cusp(0.5), (0.0, 0.0), h0=0.1, rho=0.5, k_max=26)
    rep["apex_differentiable"] = apex.flags["differentiable"]
    rep["apex_gradient"] = [float(v) for v in apex.gradient]
    ok = rep["passed"] and rep["apex_differentiable"]
    print(json.dumps(rep))
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="distfield",
        description="Signed-distance fields: grids, traces, fast marching, verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("grid", help="exact signed distance sampled on the scene grid")
    p.add_argument("--scene", required=True)
    p.add_argument("--out", default="-")
    p.set_defaults(fn=_cmd_grid)

    p = sub.add_parser("medial", help="grid scan for medial-axis points")
    p.add_argument("--scene", required=True)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--out", default="-")
    p.set_defaults(fn=_cmd_medial)

    p = sub.add_parser("trace", help="trace one characteristic and verify it")
    p.add_argument("--scene", required=True)
    p.add_argument("--start", required=True, help="comma-separated coordinates")
    p.add_argument("--dt", type=float, default=1e-3)
    p.add_argument("--tmax", type=float, default=2.0)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--out", default="-")
    p.set_defaults(fn=_cmd_trace)

    p = sub.add_parser("fmm", help="fast-marching eikonal solve on the scene grid")
    p.add_argument("--scene", required=True)
    p.add_argument("--out", default="-")
    p.add_argument("--refine", action="store_true",
                   help="also solve at half spacing and report the error order")
    p.set_defaults(fn=_cmd_fmm)

    p = sub.add_parser("levelset", help="extract one level set of the fast-marching solution")
    p.add_argument("--scene", required=True)
    p.add_argument("--level", type=float, required=True)
    p.add_argument("--out", default="-")
    p.set_defaults(fn=_cmd_levelset)

    p = sub.add_parser("verify", help="run one verification property")
    p.add_argument("property", choices=sorted(_VERIFIERS))
    p.add_argument("--scene", required=True)
    p.add_argument("--point", default=None, help="comma-separated coordinates")
    p.add_argument("--level", type=float, default=None)
    p.add_argument("--spacing", type=float, default=1e-5)
    p.add_argument("--delta", type=float, default=0.5)
    p.add_argument("--dmax", type=float, default=None)
    p.add_argument("--n", type=int, default=300)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("counterexample", help="run a packaged counterexample verification")
    p.add_argument("which", choices=["spiral", "cusp"])
    p.set_defaults(fn=_cmd_counterexample)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (DistanceFieldError, FileNotFoundError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

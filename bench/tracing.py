"""Span tracing from the bench side, by wrapping distfield's public entry points.

``instrument(tracer)`` replaces the public functions of each module and the
public methods of each ``Shape`` subclass with wrappers that record a span
(name, start, end, parent, attributes) per call, then puts the originals back.
Names bound with ``from .x import y`` are rebound in every importing module,
so calls between layers are traced too.  Spans stay in memory; ``per_layer``
turns one pass's spans into the per-layer metrics listed in BENCHMARK.json.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from dataclasses import dataclass, field

SHAPE_TYPES = ("Disk", "Ellipse", "HalfSpace", "Polygon", "Spiral", "Cusp")
SHAPE_METHODS = (
    "contains",
    "contains_many",
    "projection_candidates",
    "project_many",
    "boundary_sample_with_normals",
    "inner_normal",
)
MODULES = (
    "distfield",
    "distfield.shapes",
    "distfield.projection",
    "distfield.fmm",
    "distfield.characteristics",
    "distfield.regularity",
    "distfield.counterexamples",
    "distfield.cli",
)


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


# Module-level functions to wrap, with an optional attribute extractor
# (args, kwargs, result) -> dict recorded on the span.
FUNCTIONS = {
    "projection": {
        "signed_distance": None,
        "signed_distance_many": lambda a, k, r: {"points": len(r)},
        "nearest_points": None,
        "gradient": None,
        "gradient_from_result": None,
        "is_medial": None,
    },
    "fmm": {
        "solve_fmm": lambda a, k, r: {
            "nodes": len(r.values),
            "frozen": int(r.frozen.sum()),
            "unreachable": int((r.values == float("inf")).sum()),
        },
        "extract_level_set": lambda a, k, r: {"vertices": sum(len(c) for c in r.chains)},
        "verify_level_distance": None,
    },
    "characteristics": {
        "trace": lambda a, k, r: {"steps": len(r.times) - 1},
    },
    "regularity": {
        "c1_margin": lambda a, k, r: {"pairs": _arg(a, k, 3, "n_pairs")},
    },
    "counterexamples": {"cusp_medial_check": None},
    "cli": {"main": None},
}


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    attrs: dict = field(default_factory=dict)


class Tracer:
    """In-memory span recorder for one single-threaded pass."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), parent=parent))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int):
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield self.spans[idx]
        finally:
            self.close(idx)

    def wrap(self, name: str, fn, attrs=None, static_attrs=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.open(name)
            if static_attrs:
                self.spans[idx].attrs.update(static_attrs)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if attrs is not None:
                self.spans[idx].attrs.update(attrs(args, kwargs, out))
            return out

        return wrapper

    def reset(self):
        self.spans.clear()
        self._stack.clear()


def _shape_points(args, kwargs, out):
    return {"points": len(_arg(args, kwargs, 1, "pts"))}


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Route distfield's public entry points through ``tracer`` for the block."""
    undo = []
    replaced = {}  # id(original) -> wrapper
    shapes = importlib.import_module("distfield.shapes")
    for cls_name in SHAPE_TYPES:
        cls = getattr(shapes, cls_name)
        for meth in SHAPE_METHODS:
            orig = getattr(cls, meth)
            extra = _shape_points if meth == "project_many" else None
            wrapped = tracer.wrap(f"shapes.{meth}", orig, extra, {"type": cls_name})
            undo.append((cls, meth, cls.__dict__.get(meth)))
            setattr(cls, meth, wrapped)
    for mod_name, funcs in FUNCTIONS.items():
        mod = importlib.import_module(f"distfield.{mod_name}")
        for fname, extra in funcs.items():
            orig = getattr(mod, fname)
            replaced[id(orig)] = tracer.wrap(f"{mod_name}.{fname}", orig, extra)
    for mod_name in MODULES:
        mod = importlib.import_module(mod_name)
        for attr, value in list(vars(mod).items()):
            wrapper = replaced.get(id(value))
            if wrapper is not None:
                undo.append((mod, attr, value))
                setattr(mod, attr, wrapper)
    try:
        yield tracer
    finally:
        for obj, attr, value in reversed(undo):
            if value is None:
                delattr(obj, attr)
            else:
                setattr(obj, attr, value)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Spans of one single-threaded pass nest without overlapping, so the
    children's coverage is the sum of their durations.
    """
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.end - s.start
    return out


PER_LAYER_TIMED = (
    "shapes.project_many",
    "shapes.projection_candidates",
    "shapes.contains_many",
    "projection.signed_distance_many",
    "projection.nearest_points",
    "fmm.solve_fmm",
    "fmm.extract_level_set",
    "fmm.verify_level_distance",
    "characteristics.trace",
    "regularity.c1_margin",
    "counterexamples.cusp_medial_check",
    "cli.main",
)
PER_LAYER_CALLS = (
    "shapes.project_many",
    "shapes.projection_candidates",
    "shapes.contains",
    "projection.nearest_points",
    "projection.is_medial",
    "projection.gradient",
    "projection.gradient_from_result",
    "projection.signed_distance",
    "fmm.solve_fmm",
    "cli.main",
)
PER_TYPE_TIMED = ("shapes.project_many", "shapes.projection_candidates")


def per_layer_names() -> list[str]:
    """Every per-layer metric name ``per_layer`` reports, with its unit."""
    names = [(f"{n}.self_s", "s") for n in PER_LAYER_TIMED]
    names += [(f"{n}.calls", "count") for n in PER_LAYER_CALLS]
    names += [(f"{n}.{t}.self_s", "s") for n in PER_TYPE_TIMED for t in SHAPE_TYPES]
    names += [
        ("shapes.project_many.points", "count"),
        ("projection.signed_distance_many.points", "count"),
        ("fmm.solve_fmm.nodes", "count"),
        ("fmm.exact_points_per_frozen", "ratio"),
        ("fmm.unreachable_nodes", "count"),
        ("fmm.extract_level_set.vertices", "count"),
        ("characteristics.trace.steps", "count"),
        ("characteristics.trace.queries_per_step", "ratio"),
        ("regularity.c1_margin.queries_per_pair", "ratio"),
        ("trace.spans", "count"),
    ]
    return names


def _has_ancestor(spans: list[Span], i: int, name: str) -> bool:
    p = spans[i].parent
    while p is not None:
        if spans[p].name == name:
            return True
        p = spans[p].parent
    return False


def per_layer(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one traced pass (self times in s, counts)."""
    selfs = self_times(spans)
    out = {name: 0.0 for name, _ in per_layer_names()}
    for i, s in enumerate(spans):
        if s.name in PER_LAYER_TIMED:
            out[f"{s.name}.self_s"] += selfs[i]
        if s.name in PER_TYPE_TIMED:
            out[f"{s.name}.{s.attrs['type']}.self_s"] += selfs[i]
        if s.name in PER_LAYER_CALLS:
            out[f"{s.name}.calls"] += 1
    sum_attr = lambda name, key: sum(s.attrs.get(key, 0) for s in spans if s.name == name)

    out["shapes.project_many.points"] = sum_attr("shapes.project_many", "points")
    out["projection.signed_distance_many.points"] = sum_attr(
        "projection.signed_distance_many", "points")
    out["fmm.solve_fmm.nodes"] = sum_attr("fmm.solve_fmm", "nodes")
    out["fmm.unreachable_nodes"] = sum_attr("fmm.solve_fmm", "unreachable")
    frozen = sum_attr("fmm.solve_fmm", "frozen")
    in_fmm = sum(
        s.attrs.get("points", 0)
        for i, s in enumerate(spans)
        if s.name == "shapes.project_many" and _has_ancestor(spans, i, "fmm.solve_fmm")
    )
    out["fmm.exact_points_per_frozen"] = in_fmm / frozen if frozen else 0.0
    out["fmm.extract_level_set.vertices"] = sum_attr("fmm.extract_level_set", "vertices")

    def queries_under(name: str) -> int:
        return sum(
            1
            for s in spans
            if s.name.startswith("projection.")
            and s.parent is not None
            and spans[s.parent].name == name
        )

    steps = sum_attr("characteristics.trace", "steps")
    out["characteristics.trace.steps"] = steps
    out["characteristics.trace.queries_per_step"] = (
        queries_under("characteristics.trace") / steps if steps else 0.0)
    pairs = sum_attr("regularity.c1_margin", "pairs")
    out["regularity.c1_margin.queries_per_pair"] = (
        queries_under("regularity.c1_margin") / pairs if pairs else 0.0)
    out["trace.spans"] = len(spans)
    return out

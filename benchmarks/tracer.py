"""In-memory span recorder that times vvpflow's layers from the outside.

The tracer replaces public functions at the names their callers bind
(``vvpflow.solver.step`` is what ``run_transient`` looks up, for
example) with wrappers that record a span around each call, so spans
nest experiment -> solver.run_transient -> solver.step -> assembly.* /
linalg.* -> splu without any change to the library.  A target that no
longer exists is recorded in ``missing`` instead of raising.

Every span is a dict ``{"id", "parent", "name", "start", "end",
"attrs"}`` with ``perf_counter`` times; spans stay in memory until the
caller writes them out.  All ``*_s`` layer metrics are self times: a
span's duration minus the durations of its direct children.
"""
from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from contextlib import contextmanager

# (module, attribute path, span name).  The attribute path is the name
# the caller binds: vvpflow.linalg reaches SuperLU through its ``spla``
# alias, so ``spla.splu`` is patched on the object that alias points to.
TARGETS = (
    ("vvpflow.solver", "run_transient", "solver.run_transient"),
    ("vvpflow.solver", "step", "solver.step"),
    ("vvpflow.solver", "solve_stokes", "solver.solve_stokes"),
    ("vvpflow.solver", "initialize_state", "solver.init_state"),
    ("vvpflow.solver", "assemble_B0", "assembly.B0"),
    ("vvpflow.solver", "assemble_convection", "assembly.convection"),
    ("vvpflow.solver", "assemble_natural_bc", "assembly.natural"),
    ("vvpflow.solver", "essential_constraints", "assembly.essential"),
    ("vvpflow.solver", "build_harmonic_space", "assembly.harmonic"),
    ("vvpflow.solver", "NaturalBCCache", "assembly.natural_cache"),
    ("vvpflow.solver", "assemble_blocks", "linalg.blocks"),
    ("vvpflow.solver", "solve_reduced", "linalg.solve_reduced"),
    ("vvpflow.assembly", "build_harmonic_space", "assembly.harmonic"),
    ("vvpflow.assembly", "NaturalBCCache", "assembly.natural_cache"),
    ("vvpflow.assembly", "assemble_load", "assembly.load"),
    ("vvpflow.assembly", "assemble_scalar_load", "assembly.load"),
    ("vvpflow.assembly", "assemble_natural_bc", "assembly.natural"),
    ("vvpflow.assembly", "essential_constraints", "assembly.essential"),
    ("vvpflow.assembly", "interpolate", "spaces.interpolate"),
    ("vvpflow.assembly", "triangle_rule", "quadrature.rule"),
    ("vvpflow.linalg", "solve", "linalg.solve"),
    ("vvpflow.linalg", "spla.splu", "linalg.factor"),
    ("vvpflow.spaces", "interpolate", "spaces.interpolate"),
    ("vvpflow.spaces", "error_norms", "spaces.error_norms"),
    ("vvpflow.spaces", "tet_rule", "quadrature.rule"),
    ("vvpflow.spaces", "edge_rule", "quadrature.rule"),
    ("vvpflow.spaces", "triangle_rule", "quadrature.rule"),
)

# Spans opened by the benchmark itself around calls it makes directly.
BENCH_SPANS = ("bench.pass", "bench.check", "mesh.build", "spaces.complex", "fields.derive")


class _TracedLU:
    """SuperLU proxy whose triangular solves are recorded as spans."""

    def __init__(self, lu, tracer):
        self._lu = lu
        self._tracer = tracer

    def solve(self, *args, **kwargs):
        with self._tracer.span("linalg.trisolve"):
            return self._lu.solve(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._lu, name)


class Tracer:
    def __init__(self):
        self.spans = []
        self.missing = []
        self.enabled = True
        self._stack = []
        self._patches = []

    @contextmanager
    def span(self, name, **attrs):
        if not self.enabled:
            yield None
            return
        rec = {
            "id": len(self.spans),
            "parent": self._stack[-1] if self._stack else None,
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "attrs": attrs,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, module_name, path, name, post=None):
        """Replace ``module.path`` by a spanning wrapper.

        ``post(rec, args, result)`` runs after the span has closed and
        may return a replacement result; its own cost belongs to the
        caller's span unless it opens a span of its own.
        """
        owner = importlib.import_module(module_name)
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part, None)
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(f"{module_name}.{path}")
            return
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return original(*args, **kwargs)
            with tracer.span(name) as rec:
                result = original(*args, **kwargs)
            if post is not None:
                result = post(rec, args, result)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def install(self):
        posts = {
            "linalg.factor": self._after_factor,
            "linalg.solve_reduced": _after_solve_reduced,
        }
        for module_name, path, name in TARGETS:
            self.wrap(module_name, path, name, posts.get(name))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def field(self, fn):
        """Wrap an analytic data callable to count evaluation points."""
        tracer = self

        @functools.wraps(fn)
        def wrapped(points, t=0.0):
            if not tracer.enabled:
                return fn(points, t)
            with tracer.span("fields.eval", points=len(points)):
                return fn(points, t)

        return wrapped

    def _after_factor(self, rec, args, lu):
        a = args[0]
        with self.span("trace.lu_stats"):
            rec["attrs"].update(
                ndof=int(a.shape[0]),
                nnz=int(a.nnz),
                lu_nnz=int(lu.L.nnz + lu.U.nnz),
            )
        return _TracedLU(lu, self)

    def missing_span_names(self):
        by_target = {f"{m}.{p}": name for m, p, name in TARGETS}
        return sorted({by_target[t] for t in self.missing})


def _after_solve_reduced(rec, args, result):
    rec["attrs"]["residual"] = float(result[1])
    return result


def self_times(spans):
    """Span id -> duration minus the durations of its direct children."""
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


# name, unit, better, and how it reduces the spans of one traced run.
def _layer_table():
    def self_s(*names):
        return lambda agg: sum(agg[n]["self"] for n in names)

    def calls(*names):
        return lambda agg: sum(agg[n]["calls"] for n in names)

    def attr_sum(name, key):
        return lambda agg: sum(a.get(key, 0) for a in agg[name]["attrs"])

    def largest(agg):
        """Attributes of the largest system factored (zeros if none)."""
        factors = agg["linalg.factor"]["attrs"]
        return max(factors, key=lambda a: a["ndof"], default={"ndof": 0, "nnz": 1, "lu_nnz": 0})

    def ratio(num, den):
        return lambda agg: num(agg) / den(agg) if den(agg) else 0.0

    def residual_max(agg):
        return max((a["residual"] for a in agg["linalg.solve_reduced"]["attrs"]), default=0.0)

    def inclusive(*names):
        return lambda agg: sum(agg[n]["inclusive"] for n in names)

    def self_time(metric, *spans):
        return (metric, "s", "lower", self_s(*spans), spans[0])

    def count(metric, *spans):
        return (metric, "count", "lower", calls(*spans), spans[0])

    def fill(agg):
        big = largest(agg)
        return big["lu_nnz"] / big["nnz"]

    steps = ("solver.step", "solver.solve_stokes")
    return (
        self_time("linalg.factor_s", "linalg.factor"),
        count("linalg.factor_calls", "linalg.factor"),
        ("linalg.lu_nnz", "count", "lower", attr_sum("linalg.factor", "lu_nnz"), "linalg.factor"),
        ("linalg.lu_fill", "ratio", "lower", fill, "linalg.factor"),
        ("linalg.ndof", "count", "lower", lambda agg: largest(agg)["ndof"], "linalg.factor"),
        ("linalg.nnz", "count", "lower", lambda agg: largest(agg)["nnz"], "linalg.factor"),
        ("linalg.trisolve_s", "s", "lower", self_s("linalg.trisolve"), "linalg.factor"),
        count("linalg.solve_calls", "linalg.solve"),
        (
            "linalg.solves_per_factor",
            "ratio",
            "higher",
            ratio(calls("linalg.solve"), calls("linalg.factor")),
            "linalg.solve",
        ),
        self_time("linalg.blocks_s", "linalg.blocks"),
        ("linalg.residual_max", "ratio", "lower", residual_max, "linalg.solve_reduced"),
        self_time("assembly.B0_s", "assembly.B0"),
        count("assembly.B0_calls", "assembly.B0"),
        self_time("assembly.convection_s", "assembly.convection"),
        self_time("assembly.essential_s", "assembly.essential"),
        self_time("assembly.natural_s", "assembly.natural"),
        self_time("assembly.load_s", "assembly.load"),
        self_time("assembly.harmonic_s", "assembly.harmonic"),
        self_time("assembly.natural_cache_s", "assembly.natural_cache"),
        self_time("spaces.complex_s", "spaces.complex"),
        self_time("spaces.interpolate_s", "spaces.interpolate"),
        count("spaces.interpolate_calls", "spaces.interpolate"),
        self_time("spaces.error_norms_s", "spaces.error_norms"),
        count("quadrature.rule_calls", "quadrature.rule"),
        self_time("quadrature.rule_s", "quadrature.rule"),
        self_time("fields.derive_s", "fields.derive"),
        ("fields.eval_points", "count", "lower", attr_sum("fields.eval", "points"), "fields.eval"),
        self_time("fields.eval_s", "fields.eval"),
        self_time("mesh.build_s", "mesh.build"),
        ("solver.steps", "count", "higher", calls(*steps), "solver.step"),
        ("solver.step_s", "s", "lower", inclusive(*steps), "solver.step"),
        self_time("solver.step_self_s", *steps),
        self_time("solver.run_self_s", "solver.run_transient"),
        self_time("solver.init_state_s", "solver.init_state"),
    )


LAYER_METRICS = _layer_table()


def layer_metrics(spans, missing_spans=()):
    """Per-layer totals of one traced run.

    Returns ``{metric: {"value", "unit", "missing"}}``; a metric whose
    source span could not be installed reads 0 and is marked missing.
    """
    own = self_times(spans)
    agg = defaultdict(lambda: {"self": 0.0, "inclusive": 0.0, "calls": 0, "attrs": []})
    for s in spans:
        entry = agg[s["name"]]
        entry["self"] += own[s["id"]]
        entry["inclusive"] += s["end"] - s["start"]
        entry["calls"] += 1
        entry["attrs"].append(s["attrs"])
    out = {}
    for name, unit, _better, reduce, source in LAYER_METRICS:
        out[name] = {
            "value": reduce(agg),
            "unit": unit,
            "missing": source in missing_spans,
        }
    return out

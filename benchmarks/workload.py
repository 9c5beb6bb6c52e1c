"""One workload in a fresh process: set up, run timed passes, print JSON.

Started by ``run.py``; it can also be run by hand:

    python3 benchmarks/workload.py --workload ns-sweep --seed 0 --seconds 5

A pass is one fixed unit of work (every mesh of the workload solved once,
with its error norms and output checks).  Passes repeat until the next
one would end after ``--seconds``; every pass starts from the same
set-up objects, so each does identical work.  ``--setup-only`` stops
after set-up.  ``--trace 1`` traces set-up and the first pass, then runs
untraced passes to measure the tracing overhead.

Times are reported at a reference host speed (see ``Speedometer``); the
raw seconds are kept next to them.  Set-up time is measured from before
``import vvpflow`` because every CLI invocation pays the import and the
sympy field derivation.  The last stdout line is one JSON object.
"""
from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import inspect  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

# Ethier-Steinman flow of the transient acceptance configuration.
ETHIER_A, ETHIER_D = 2.0, 1.0
NU, DT, THETA = 1.0, 1e-3, 0.5
STOKES_LOAD_DEGREE = 8
ERROR_DEGREE = 6  # DeRhamComplex.error_norms default
JITTER = 0.1  # interior vertex shift per coordinate, in units of h
DIV_TOL = 1e-12
SLOPE_TOL = 0.25  # acceptance criterion 5: H(div) slope within 1 +- 0.25

# ``slope``: check the H(div) slope on seed 0.  ``err_max``: bound on the
# finest error; first-order convergence from ns-sweep's n=4 error (about
# 0.19) predicts about 0.11 at n=7, and the bound leaves room for jitter.
WORKLOADS = {
    "ns-sweep": {"kind": "transient", "sizes": (2, 3, 4), "steps": 50, "slope": True},
    "ns-large": {"kind": "transient", "sizes": (7,), "steps": 2, "err_max": 0.15},
    "stokes-outlet": {"kind": "stokes", "sizes": (2, 3, 4, 5, 6, 7, 8)},
}


def jittered_box(n, seed):
    """Kuhn box n x n x n; a nonzero seed moves every interior vertex.

    Each coordinate of an interior vertex moves by up to JITTER * h with
    h = 1/n.  A Kuhn tet's smallest altitude is h/sqrt(2), so no tet
    inverts; boundary vertices stay put, so region predicates still hold.
    """
    import numpy as np
    from vvpflow import mesh as vmesh

    box = vmesh.build_box_mesh(n, n, n)
    if seed == 0:
        return box
    rng = np.random.default_rng([seed, n])
    verts = box.vertices.copy()
    interior = np.setdiff1d(np.arange(box.n_vertices), box.boundary_vertices)
    h = 1.0 / n
    verts[interior] += rng.uniform(-JITTER * h, JITTER * h, size=(len(interior), 3))
    return vmesh.SimplicialMesh3(verts, box.tets)


class Speedometer:
    """Host-speed probe: a sparse LU of a fixed matrix, not from vvpflow.

    On a shared host the CPU's speed drifts by tens of percent over
    seconds to minutes, so raw seconds from two runs are not comparable.
    The probe factors a fixed 12^3 finite-difference matrix with the same
    SuperLU the solver uses; it runs between steps and solves, at most
    every INTERVAL_S, and its time tracks the step time closely.  After a
    long gap it repeats up to MAX_REPS times and keeps the median.  Work
    done between two probes is reported at the reference speed: ``raw *
    REFERENCE_S / mean(the two probe times)``.  REFERENCE_S is the
    probe's median time on a 2-vCPU Intel Xeon host.  Probe time is
    excluded from every sample.
    """

    REFERENCE_S = 0.018
    INTERVAL_S = 0.3
    MAX_REPS = 5

    def __init__(self):
        import numpy as np
        import scipy.sparse as sp
        from scipy.sparse.linalg import splu

        n = 12
        d = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))
        eye = sp.identity(n)
        lap = sp.kron(sp.kron(d, eye), eye) + sp.kron(sp.kron(eye, d), eye)
        lap = lap + sp.kron(sp.kron(eye, eye), d)
        skew = sp.diags(0.1 * np.random.default_rng(0).random(n**3 - 1), 1, shape=lap.shape)
        self.matrix = (lap + skew).tocsc()
        self._splu = inspect.unwrap(splu)  # never the traced wrapper
        self.probes = []  # (start, end, median kernel time)

    def probe(self, reps=None):
        t0 = time.perf_counter()
        if reps is None:
            gap = t0 - self.probes[-1][1] if self.probes else 0.0
            reps = min(self.MAX_REPS, max(1, int(gap / self.INTERVAL_S)))
        times = []
        for _ in range(reps):
            t = time.perf_counter()
            self._splu(self.matrix)
            times.append(time.perf_counter() - t)
        self.probes.append((t0, time.perf_counter(), statistics.median(times)))

    def maybe_probe(self):
        if time.perf_counter() - self.probes[-1][1] >= self.INTERVAL_S:
            self.probe()

    def seconds(self, a, b, reference=True):
        """Work time in [a, b], probes excluded; at the reference speed
        unless ``reference`` is false.  Probes must bracket [a, b]."""
        total = 0.0
        for (_, e0, k0), (s1, _, k1) in zip(self.probes, self.probes[1:]):
            gap = min(b, s1) - max(a, e0)
            if gap > 0:
                total += gap * (2.0 * self.REFERENCE_S / (k0 + k1) if reference else 1.0)
        return total


@dataclass
class Level:
    n: int
    complex: object
    bc: object
    harmonic: object
    cache: object
    init: object = None


@dataclass
class Context:
    name: str
    seed: int
    levels: list
    velocity: object
    forcing: object = None


@dataclass
class PassResult:
    start: float = 0.0
    end: float = 0.0
    steps: list = field(default_factory=list)  # (start, end), finest mesh only
    errors: list = field(default_factory=list)  # (n, h, rel_l2, rel_hdiv)
    attempted: int = 0
    failures: list = field(default_factory=list)

    def fail(self, message):
        self.failures.append(message)


class Bench:
    """The benchmark's own hooks: spans (when traced) and speed probes."""

    def __init__(self, tracer, speedo):
        self.tracer = tracer
        self.speedo = speedo

    def span(self, name):
        if self.tracer is None:
            return nullcontext()
        return self.tracer.span(name)

    def field(self, fn):
        return fn if self.tracer is None else self.tracer.field(fn)


def setup(name, seed, bench):
    from vvpflow import assembly, fields, solver, spaces

    spec = WORKLOADS[name]
    stokes = spec["kind"] == "stokes"
    with bench.span("fields.derive"):
        if stokes:
            mms = fields.stokes_mms_fields(NU)
        else:
            velocity = fields.ethier_velocity(ETHIER_A, ETHIER_D)
    if stokes:
        mms = {k: bench.field(v) for k, v in mms.items()}
        velocity = mms["velocity"]
        regions = (
            assembly.RegionBC(
                name="outlet",
                vorticity_mode="natural",
                vorticity_data=velocity,
                velocity_mode="natural",
                velocity_data=mms["pressure"],
                where=lambda c: c[:, 0] > 1.0 - 1e-12,
            ),
            assembly.RegionBC(
                name="walls",
                vorticity_mode="essential",
                vorticity_data=mms["vorticity"],
                velocity_mode="essential",
                velocity_data=velocity,
            ),
        )
    else:
        velocity = bench.field(velocity)
        regions = assembly.RegionBC(
            vorticity_mode="natural",
            vorticity_data=velocity,
            velocity_mode="essential",
            velocity_data=velocity,
        )
    bc = assembly.BoundaryConditionSpec(regions)
    levels = []
    for n in spec["sizes"]:
        with bench.span("mesh.build"):
            mesh = jittered_box(n, seed)
        with bench.span("spaces.complex"):
            # The lazily cached tabulations are built here so that every
            # pass does the same work; the CLI pays them on every run.
            complex_ = spaces.DeRhamComplex(mesh)
            complex_.tabulation(ERROR_DEGREE)
            if stokes:
                complex_.tabulation(STOKES_LOAD_DEGREE)
        level = Level(
            n,
            complex_,
            bc,
            assembly.build_harmonic_space(complex_, bc),
            assembly.NaturalBCCache(complex_, bc),
        )
        if not stokes:
            level.init = solver.initialize_state(complex_, bc, velocity, t=0.0)
        levels.append(level)
    return Context(name, seed, levels, velocity, mms["forcing"] if stokes else None)


def _check_state(result, where, residual, div_max, unorm):
    """Output checks of one solve; a solve that breaks any fails once."""
    from vvpflow.linalg import RESIDUAL_TOL

    broken = []
    if not (math.isfinite(residual) and residual <= RESIDUAL_TOL):
        broken.append(f"relative residual {residual:.3e} > {RESIDUAL_TOL:.0e}")
    limit = DIV_TOL * (1.0 + unorm)
    if not (math.isfinite(div_max) and div_max <= limit):
        broken.append(f"div_max {div_max:.3e} > {limit:.3e}")
    if broken:
        result.fail(f"{where}: " + "; ".join(broken))


def transient_pass(ctx, bench, result):
    from vvpflow import solver
    from vvpflow.linalg import SolverError

    steps = WORKLOADS[ctx.name]["steps"]
    config = solver.SolverConfig(nu=NU, dt=DT, theta=THETA, t_end=steps * DT)
    for lv in ctx.levels:
        finest = lv is ctx.levels[-1]
        last = time.perf_counter()
        done = 0

        def observe(state, diag):
            # A step runs from the end of the previous check to the start
            # of this one, so checks and probes are excluded.
            nonlocal last, done
            if finest:
                result.steps.append((last, time.perf_counter()))
            done += 1
            with bench.span("bench.check"):
                unorm = math.sqrt(max(2.0 * diag.kinetic_energy, 0.0))
                _check_state(
                    result, f"n={lv.n} step {diag.step}", diag.residual, diag.div_max, unorm
                )
                bench.speedo.maybe_probe()
            last = time.perf_counter()

        try:
            summary = solver.run_transient(
                lv.complex,
                lv.bc,
                config,
                state=lv.init,
                observers=(observe,),
                harmonic=lv.harmonic,
                natural_cache=lv.cache,
            )
        except SolverError as exc:  # SingularSystemError is a subclass
            result.attempted += done + 1
            result.fail(f"n={lv.n} step {done + 1}: {type(exc).__name__}: {exc}")
            continue
        result.attempted += summary.n_steps
        final = summary.final
        err = lv.complex.error_norms(final.u, ctx.velocity, t=final.t)
        result.errors.append((lv.n, lv.complex.h, err.rel_l2, err.rel_graph))


def stokes_pass(ctx, bench, result):
    from vvpflow import solver
    from vvpflow.linalg import SolverError

    for lv in ctx.levels:
        result.attempted += 1
        t0 = time.perf_counter()
        try:
            state, diag = solver.solve_stokes(
                lv.complex,
                lv.bc,
                nu=NU,
                f2=ctx.forcing,
                load_degree=STOKES_LOAD_DEGREE,
                harmonic=lv.harmonic,
                natural_cache=lv.cache,
            )
        except SolverError as exc:
            result.fail(f"n={lv.n}: {type(exc).__name__}: {exc}")
            continue
        if lv is ctx.levels[-1]:
            result.steps.append((t0, time.perf_counter()))
        with bench.span("bench.check"):
            unorm = lv.complex.norm(state.u)
            _check_state(result, f"n={lv.n}", diag["residual"], diag["div_max"], unorm)
            bench.speedo.maybe_probe()
        err = lv.complex.error_norms(state.u, ctx.velocity)
        result.errors.append((lv.n, lv.complex.h, err.rel_l2, err.rel_graph))


def check_sweep(ctx, result):
    """Sweep-level checks; each broken one counts as one failed solve."""
    from vvpflow.experiments import least_squares_slope

    spec = WORKLOADS[ctx.name]
    if len(result.errors) != len(ctx.levels):
        return  # a solve failed and is already counted
    l2 = [e[2] for e in result.errors]
    if not all(math.isfinite(e) for e in l2):
        result.fail(f"non-finite velocity error {l2}")
    if "err_max" in spec and not l2[-1] <= spec["err_max"]:
        result.fail(f"err_l2_u {l2[-1]:.4f} above {spec['err_max']}")
    if len(l2) > 1 and not all(b < a for a, b in zip(l2, l2[1:])):
        result.fail(f"err_l2_u does not decrease with n: {l2}")
    if spec.get("slope") and ctx.seed == 0:
        slope = least_squares_slope([e[1] for e in result.errors], [e[3] for e in result.errors])
        if abs(slope - 1.0) > SLOPE_TOL:
            result.fail(f"H(div) slope {slope:.3f} outside 1 +- {SLOPE_TOL}")


def run_pass(ctx, bench):
    """One pass, bracketed by speed probes."""
    result = PassResult(start=time.perf_counter())
    with bench.span("bench.pass"):
        if WORKLOADS[ctx.name]["kind"] == "stokes":
            stokes_pass(ctx, bench, result)
        else:
            transient_pass(ctx, bench, result)
        check_sweep(ctx, result)
    result.end = time.perf_counter()
    bench.speedo.probe()
    return result


def timed_passes(ctx, bench, seconds):
    """Run passes until the next would end after ``seconds``.

    With a tracer, the first pass is traced and at least one untraced
    pass follows it.
    """
    tracer = bench.tracer
    passes = []
    bench.speedo.probe()
    t0 = time.perf_counter()
    while True:
        passes.append(run_pass(ctx, bench))
        if tracer is not None and tracer.enabled:
            tracer.uninstall()
            tracer.enabled = False
        elapsed = time.perf_counter() - t0
        last = passes[-1].end - passes[-1].start
        if len(passes) > (tracer is not None) and elapsed + last > seconds:
            return passes


def environment():
    import numpy
    import scipy

    def blas_version(mod):
        try:
            return mod.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
        except (KeyError, TypeError, AttributeError):
            return "unknown"

    return {
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_numpy": blas_version(numpy),
        "openblas_scipy": blas_version(scipy),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", help="write the spans of a traced run to this file")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    import vvpflow  # noqa: F401  (set-up includes the import)

    t0 = time.perf_counter()
    speedo = Speedometer()
    probe_build = time.perf_counter() - t0
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    bench = Bench(tracer, speedo)
    ctx = setup(args.workload, args.seed, bench)
    setup_raw = time.perf_counter() - T_START - probe_build
    speedo.probe(reps=Speedometer.MAX_REPS)
    out = {
        "workload": args.workload,
        "seed": args.seed,
        "setup_raw_s": setup_raw,
        "setup_s": setup_raw * Speedometer.REFERENCE_S / speedo.probes[-1][2],
    }
    if args.setup_only:
        print(json.dumps(out))
        return 0

    passes = timed_passes(ctx, bench, args.seconds)
    measured = passes  # the passes whose times are reported
    if tracer is not None:
        from tracer import layer_metrics

        traced, measured = passes[0], passes[1:]
        layers = layer_metrics(tracer.spans, tracer.missing_span_names())
        layers["trace.overhead_s"] = {
            "value": speedo.seconds(traced.start, traced.end)
            - statistics.median(speedo.seconds(p.start, p.end) for p in measured),
            "unit": "s",
            "missing": False,
        }
        out.update(layers=layers, missing=tracer.missing, span_count=len(tracer.spans))
        if args.spans:
            with open(args.spans, "w") as fh:
                json.dump({"spans": tracer.spans, "missing": tracer.missing}, fh)

    failures = [f for p in passes for f in p.failures]
    if any(p.errors != passes[0].errors for p in passes):
        failures.append("error norms differ between passes of the same inputs")
    last = passes[-1].errors
    out.update(
        pass_walls_raw=[speedo.seconds(p.start, p.end, reference=False) for p in measured],
        pass_walls=[speedo.seconds(p.start, p.end) for p in measured],
        step_samples=[speedo.seconds(a, b) for p in measured for a, b in p.steps],
        probe_samples=[k for _, _, k in speedo.probes],
        errors=last,
        err_l2_u=last[-1][2] if last else float("nan"),
        attempted=sum(p.attempted for p in passes),
        failed=len(failures),
        failures=failures[:20],
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        env=environment(),
    )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

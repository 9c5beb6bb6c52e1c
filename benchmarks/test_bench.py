"""Tests of the benchmark's own machinery (not part of the Tier-1 suite).

    python3 -m pytest -q benchmarks/test_bench.py
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import tracer as tr  # noqa: E402
import workload  # noqa: E402
from vvpflow import mesh as vmesh  # noqa: E402
from vvpflow import solver as vsolver  # noqa: E402
from vvpflow import spaces  # noqa: E402

SPAN_KEYS = {"id", "parent", "name", "start", "end", "attrs"}
KNOWN_SPANS = {name for _m, _p, name in tr.TARGETS} | set(tr.BENCH_SPANS) | {
    "fields.eval",
    "linalg.trisolve",
    "trace.lu_stats",
}


@pytest.mark.parametrize("n", [2, 4])
def test_jittered_mesh_keeps_topology_and_orientation(n):
    plain = workload.jittered_box(n, 0)
    moved = workload.jittered_box(n, 11)
    for name in ("tets", "edges", "faces", "tet_faces", "tet_edges", "boundary_faces"):
        assert np.array_equal(getattr(plain, name), getattr(moved, name)), name
    # No tet inverts: the geometric orientation of every tet is kept.
    assert np.array_equal(plain.tet_orientations, moved.tet_orientations)
    assert np.all(moved.tet_volumes > 0)
    assert np.isclose(moved.tet_volumes.sum(), 1.0)
    shift = moved.vertices - plain.vertices
    assert np.all(shift[plain.boundary_vertices] == 0)
    assert np.abs(shift).max() <= workload.JITTER / n
    assert np.abs(shift).max() > 0
    c = spaces.DeRhamComplex(moved)
    assert (c.d2 @ c.d1).count_nonzero() == 0


def test_seed_zero_is_the_plain_box_and_seeds_are_repeatable():
    plain = vmesh.build_box_mesh(3, 3, 3)
    assert np.array_equal(workload.jittered_box(3, 0).vertices, plain.vertices)
    assert np.array_equal(workload.jittered_box(3, 5).vertices, workload.jittered_box(3, 5).vertices)
    assert not np.array_equal(workload.jittered_box(3, 5).vertices, workload.jittered_box(3, 6).vertices)


@pytest.fixture(scope="module")
def traced_run():
    """Set-up and one pass of a shortened ns-sweep under the tracer."""
    saved = workload.WORKLOADS["ns-sweep"]
    workload.WORKLOADS["ns-sweep"] = dict(saved, sizes=(2, 3), steps=3)
    tracer = tr.Tracer()
    tracer.install()
    try:
        bench = workload.Bench(tracer, workload.Speedometer())
        ctx = workload.setup("ns-sweep", 0, bench)
        bench.speedo.probe()
        result = workload.run_pass(ctx, bench)
    finally:
        tracer.uninstall()
        workload.WORKLOADS["ns-sweep"] = saved
    return tracer, result


def test_traced_pass_is_correct(traced_run):
    tracer, result = traced_run
    assert result.failures == []
    assert result.attempted == 6
    assert len(result.steps) == 3  # finest mesh only
    assert tracer.missing == []


def test_span_schema_and_nesting(traced_run):
    spans = traced_run[0].spans
    assert spans
    by_id = {}
    for i, s in enumerate(spans):
        assert set(s) == SPAN_KEYS
        assert s["id"] == i
        assert s["name"] in KNOWN_SPANS, s["name"]
        assert s["start"] <= s["end"]
        if s["parent"] is not None:
            parent = by_id[s["parent"]]
            assert parent["start"] <= s["start"] and s["end"] <= parent["end"]
        by_id[i] = s
    json.dumps(spans)  # the spans file must be writable as JSON

    def ancestors(s):
        while s["parent"] is not None:
            s = by_id[s["parent"]]
            yield s["name"]

    factor = [s for s in spans if s["name"] == "linalg.factor"]
    chains = [list(ancestors(s)) for s in factor]
    assert any(
        c[:4] == ["linalg.solve", "linalg.solve_reduced", "solver.step", "solver.run_transient"]
        for c in chains
    )
    assert all(c[-1] in ("bench.pass", "solver.init_state") for c in chains)
    assert all(set(s["attrs"]) == {"ndof", "nnz", "lu_nnz"} for s in factor)


def test_step_children_account_for_the_step(traced_run):
    spans = traced_run[0].spans
    own = tr.self_times(spans)
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)

    def subtree_self(s):
        return own[s["id"]] + sum(subtree_self(c) for c in children.get(s["id"], []))

    steps = [s for s in spans if s["name"] == "solver.step"]
    assert len(steps) == 6
    for s in steps:
        wall = s["end"] - s["start"]
        assert subtree_self(s) == pytest.approx(wall, rel=1e-9, abs=1e-12)
        covered = sum(c["end"] - c["start"] for c in children[s["id"]])
        assert 0.75 * wall <= covered <= wall


def test_layer_metrics_cover_the_declared_names(traced_run):
    tracer, _ = traced_run
    layers = tr.layer_metrics(tracer.spans, tracer.missing_span_names())
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = {m["name"] for m in declared["per_layer"]}
    assert names == set(layers) | {"trace.overhead_s"}
    assert not any(m["missing"] for m in layers.values())
    assert layers["linalg.solves_per_factor"]["value"] == 1.0
    assert layers["solver.steps"]["value"] == 6
    assert layers["linalg.factor_calls"]["value"] == layers["linalg.solve_calls"]["value"]
    assert layers["assembly.B0_calls"]["value"] == 6
    assert layers["fields.eval_points"]["value"] > 0


def test_benchmark_json_matches_the_runner():
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in declared["end_to_end"]] == [n for n, _ in run.END_TO_END]
    assert [w["name"] for w in declared["workloads"]] == list(run.WORKLOADS)
    assert set(run.WORKLOADS) == set(workload.WORKLOADS)


def test_missing_target_is_reported_not_raised():
    tracer = tr.Tracer()
    original = vsolver.step
    tracer.wrap("vvpflow.solver", "no_such_function", "solver.step")
    tracer.wrap("vvpflow.solver", "step", "solver.step")
    assert tracer.missing == ["vvpflow.solver.no_such_function"]
    assert vsolver.step is not original
    tracer.uninstall()
    assert vsolver.step is original
    layers = tr.layer_metrics([], ["solver.step"])
    assert layers["solver.steps"]["missing"] and layers["solver.steps"]["value"] == 0
    assert not layers["linalg.factor_s"]["missing"]


def test_tail_percentile_leaves_ten_samples_above():
    xs = list(range(100, 0, -1))
    value, pct = run.tail(xs)
    assert value == 90 and pct == 90.0
    assert sum(x > value for x in xs) == 10
    # Too few samples for ten above anything past the median: the median.
    assert run.tail([3.0, 1.0, 2.0])[0] == 2.0
    assert run.tail(list(range(18)))[0] == 8

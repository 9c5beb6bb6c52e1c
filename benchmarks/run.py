"""vvpflow benchmark: run one workload and print its metrics.

    python3 benchmarks/run.py --workload ns-sweep --seed 0 --seconds 30 --trace 0

Each workload runs in a fresh child process (``workload.py``) with
OpenBLAS and OpenMP pinned to one thread, so set-up time includes the
sympy derivation and peak memory belongs to that workload alone.  With
``--trace 0`` two more fresh processes only set up, and ``setup_s`` is
the median of the three set-up times.  With ``--trace 1`` a single
traced process reports the per-layer metrics.  Times are seconds at a
reference host speed (``workload.Speedometer``).

Human-readable lines come first; the last stdout line is one JSON object
with the keys correct, attempted, failed and metrics.  The full record,
with the environment, the step percentiles and (traced) the spans, goes
to ``benchmarks/results/``.  Exits non-zero without a result when the
library sources are absent or a child process fails.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
WORKLOADS = ("ns-sweep", "ns-large", "stokes-outlet")
SETUP_PROCESSES = 3
TIME_LIMIT_S = 170.0
TAIL_BEYOND = 10  # samples a tail percentile must leave above it

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("step_p50_s", "s"),
    ("step_tail_s", "s"),
    ("peak_rss_mb", "MB"),
    ("err_l2_u", "ratio"),
)


def tail(samples):
    """(value, percentile) of the highest percentile with at least
    TAIL_BEYOND samples above it.  With fewer than 2 * TAIL_BEYOND
    samples no such percentile lies above the median, so half the
    samples must lie above it instead, which gives the median."""
    xs = sorted(samples)
    n = len(xs)
    rank = max(n - TAIL_BEYOND, (n + 1) // 2)  # 1-based rank of the reported sample
    return xs[rank - 1], 100.0 * rank / n


def run_child(args, extra, deadline):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    cmd = [
        sys.executable,
        str(HERE / "workload.py"),
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
        "--seconds",
        str(args.seconds),
        "--trace",
        str(args.trace),
        *extra,
    ]
    try:
        proc = subprocess.run(
            cmd,
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        raise SystemExit(f"error: {args.workload} child process timed out")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"error: {args.workload} child process exited with {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None):
    parser = argparse.ArgumentParser(description="vvpflow benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "vvpflow" / "__init__.py").is_file():
        raise SystemExit(f"error: library sources not found under {ROOT / 'src'}")

    deadline = time.monotonic() + TIME_LIMIT_S
    RESULTS.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    setups = []
    if not args.trace:
        for _ in range(SETUP_PROCESSES - 1):
            setups.append(run_child(args, ["--setup-only"], deadline)["setup_s"])
    spans_file = RESULTS / f"{tag}-spans.json"
    extra = ["--spans", str(spans_file)] if args.trace else []
    main_run = run_child(args, extra, deadline)
    setups.append(main_run["setup_s"])

    samples = main_run["step_samples"]
    tail_value, tail_pct = tail(samples)
    if args.trace:
        metrics = {k: {"value": v["value"], "unit": v["unit"]} for k, v in main_run["layers"].items()}
    else:
        values = {
            "wall_s": statistics.median(main_run["pass_walls"]),
            "setup_s": statistics.median(setups),
            "step_p50_s": statistics.median(samples),
            "step_tail_s": tail_value,
            "peak_rss_mb": main_run["peak_rss_mb"],
            "err_l2_u": main_run["err_l2_u"],
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    attempted = max(1, main_run["attempted"])
    failed = main_run["failed"]
    record = dict(
        main_run,
        setup_samples=setups,
        step_tail_percentile=tail_pct,
        step_sample_count=len(samples),
        fail_ratio=failed / attempted,
        metrics=metrics,
    )
    with open(RESULTS / f"{tag}.json", "w") as fh:
        json.dump(record, fh, indent=1)

    env = main_run["env"]
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    print("env " + "  ".join(f"{k}={v}" for k, v in env.items()))
    notes = {
        "wall_s": f"median of {len(main_run['pass_walls'])} passes, "
        f"{statistics.median(main_run['pass_walls_raw']):.4g} s raw",
        "setup_s": f"median of {len(setups)} fresh processes",
        "step_p50_s": f"of {len(samples)} samples on the finest mesh",
        "step_tail_s": f"p{tail_pct:.1f} of {len(samples)} samples",
        "err_l2_u": f"finest mesh n={main_run['errors'][-1][0]}" if main_run["errors"] else "",
    }
    for name, m in metrics.items():
        flag = "  MISSING" if args.trace and main_run["layers"][name]["missing"] else ""
        print(f"{name:26s} {m['value']:.6g} {m['unit']:6s} {notes.get(name, '')}{flag}")
    print(f"{'fail_ratio':26s} {failed / attempted:.6g} ratio  {failed} of {attempted} solves")
    for message in main_run["failures"]:
        print(f"FAILED {message}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

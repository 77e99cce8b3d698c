#!/usr/bin/env python3
"""wbp benchmark: one closed-loop caller, jobs=1, timed op by op.

Usage (from the repository root):

    python3 benchmark/run.py --workload {phase_grid,predict_sweep,solve_large} \
        --seed N --seconds S --trace {0,1}

Inputs derive from ``--seed`` alone.  The op loop runs for ``--seconds``
(always at least one op); every result is then checked outside the timed
region, and the last line of stdout is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  The line before it
records the environment, the op counts and the check failures.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.
``--trace 1`` runs every op twice back to back, once untraced and once
with every layer wrapped (see ``spans.py``), and reports the per-layer
metrics, the tracing overhead against the untraced runs, and process
CPU/wall over the loop.  Results, and spans of traced runs, are written
under ``.bench_out/``.

The exit code is 0 only when every check passed.  The workloads are
described in ``workloads.py``; ``solve_large`` runs on request but is not
listed in BENCHMARK.json, because its timings under default BLAS threading
spread too widely between runs to gate on.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

OUT_DIR = os.path.join(ROOT, ".bench_out")
SETUP_REPEATS = 7  # fresh processes timed for setup_s; the median is reported
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def setup(workload: str, seed: int):
    """Build the inputs and warm up: set-up after the imports."""
    bench = workloads.WORKLOADS[workload](seed, workloads.load_reference())
    bench.warm_up()
    return bench


def time_setups(workload: str, seed: int, repeats: int) -> list[float]:
    """Seconds from spawning a fresh interpreter to its being ready to time ops."""
    times = []
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    for _ in range(repeats):
        start = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up process failed with exit code {proc.returncode}")
        times.append(elapsed)
    return times


def op_order(bench, seed: int) -> list[int]:
    """One pass over the pool: each stratum in turn, shuffled within."""
    rng = np.random.default_rng([seed, 1])
    return [block[int(j)] for block in bench.strata() for j in rng.permutation(len(block))]


def timed_op(bench, i, tracer=None, op_id=0):
    """Run pool input ``i`` once: (i, result or None, error or None, seconds)."""
    start = time.perf_counter()
    try:
        result = tracer.call_op(op_id, bench.run, i) if tracer else bench.run(i)
        error = None
    except Exception as exc:  # an op that raises is a failed op, not the end of the run
        result, error = None, f"{type(exc).__name__}: {exc}"
    return i, result, error, time.perf_counter() - start


def run_ops(bench, order, seconds):
    """Closed loop over ``order`` (cycled) for ``seconds``; returns (records, wall)."""
    records = []
    start = time.perf_counter()
    while not records or time.perf_counter() - start < seconds:
        records.append(timed_op(bench, order[len(records) % len(order)]))
    return records, time.perf_counter() - start


def run_pairs(bench, order, seconds, tracer):
    """Run each op untraced and traced back to back for ``seconds``.

    The two alternate which goes first, so neither drift in machine speed
    nor warm caches bias the overhead.  Returns (untraced records, traced
    records, process CPU time over wall time for the whole loop).
    """
    plain, traced = [], []
    cpu0 = time.process_time()
    start = time.perf_counter()
    n = 0
    while n == 0 or time.perf_counter() - start < seconds:
        i = order[n % len(order)]
        for with_trace in (n % 2 == 1, n % 2 == 0):
            if with_trace:
                tracer.install()
                try:
                    traced.append(timed_op(bench, i, tracer, n))
                finally:
                    tracer.uninstall()
            else:
                plain.append(timed_op(bench, i))
        n += 1
    return plain, traced, (time.process_time() - cpu0) / (time.perf_counter() - start)


def check_records(bench, records):
    """Validate every result; returns (failed ops, attempted units, failed units, messages)."""
    done = [(i, result) for i, result, error, _ in records if error is None]
    check_errors = iter(bench.check(done))
    failed_ops = attempted_units = failed_units = 0
    messages = []
    for i, result, error, _ in records:
        errs = [error] if error is not None else next(check_errors)
        units, failed = bench.units(i, None if errs else result)
        if failed and not errs:
            errs = [f"{failed} of {units} solves failed"]
        attempted_units += units
        failed_units += failed
        if errs:
            failed_ops += 1
            messages.append(f"{bench.pool[i].key}: " + "; ".join(errs))
    return failed_ops, attempted_units, failed_units, messages


def environment(args) -> dict:
    sha = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        if out.returncode == 0:
            sha = out.stdout.strip()
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ.get(v, "unset (library default)") for v in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def end_to_end(args):
    setups = time_setups(args.workload, args.seed, SETUP_REPEATS)
    start = time.perf_counter()
    bench = setup(args.workload, args.seed)
    own_setup = time.perf_counter() - start
    records, wall = run_ops(bench, op_order(bench, args.seed), args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failed_ops, units, failed_units, messages = check_records(bench, records)
    op_ms = np.array([r[3] for r in records]) * 1e3
    p50, p90 = np.percentile(op_ms, [50, 90])
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(records) / wall,
        "op_ms_p50": float(p50),
        "op_ms_p90": float(p90),
        "completed_ratio": 1.0 - failed_units / units,
        "peak_rss_mb": peak_rss_mb,
    }
    counts = {
        "ops": len(records),
        "ops_beyond_p90": int((op_ms > p90).sum()),
        "distinct_inputs": len(bench.pool),
        "units_attempted": units,
        "units_failed": failed_units,
        "setup_s_samples": setups,
        "setup_s_in_process": own_setup,
        "timed_wall_s": wall,
    }
    return records, failed_ops, metrics, counts, messages, None


def traced(args):
    bench = setup(args.workload, args.seed)
    tracer = spans.Tracer()
    plain, replay, cpu_per_wall = run_pairs(bench, op_order(bench, args.seed), args.seconds, tracer)
    records = plain + replay
    failed_ops, units, failed_units, messages = check_records(bench, records)
    plain_s = sum(r[3] for r in plain)
    traced_s = sum(r[3] for r in replay)
    layers = spans.layer_metrics(tracer, bench.trials_per_op)
    layers["process.cpu_per_wall"] = cpu_per_wall
    layers["tracing.overhead_share"] = traced_s / plain_s - 1.0
    counts = {
        "ops_untraced": len(plain),
        "ops_traced": len(replay),
        "spans": len(tracer.spans),
        "units_attempted": units,
        "units_failed": failed_units,
        "untraced_ops_s": plain_s,
        "traced_ops_s": traced_s,
    }
    return records, failed_ops, layers, counts, messages, tracer


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_only:
        setup(args.workload, args.seed)
        print("ready", flush=True)
        return 0

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    run = traced if args.trace else end_to_end
    records, failed_ops, metrics, counts, messages, tracer = run(args)
    for message in messages[:20]:
        print(f"check failed: {message}", file=sys.stderr)

    result = {
        "correct": failed_ops == 0,
        "attempted": len(records),
        "failed": failed_ops,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
    }
    record = {"environment": environment(args), "counts": counts,
              "check_failures": messages, "result": result}
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w") as fh:
        json.dump(record, fh, indent=1)
    if tracer is not None:
        tracer.write(stem + ".spans.npz")
    print(json.dumps({"environment": record["environment"], "counts": counts}))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

"""Outside-in layer trace: wrap wbp's public functions where callers look them up.

Each wrapped call records a span (name, start, end, parent, op id) in
memory; the per-layer metrics are derived from the spans when the run
ends.  Nothing inside ``src/`` changes: the wrappers replace module
attributes and are removed again by :meth:`Tracer.uninstall`.

Per-layer metric -> the end-to-end metric and workload it should move:

=====================================  ===========================================
experiments.self_ms_per_trial          ops_per_s on phase_grid
model.generate_instance_us             ops_per_s on phase_grid
solver.self_ms_per_solve               ops_per_s on phase_grid, op_ms_p50 on solve_large
solver.zero_weight_share               workload property; should not move
ipm.self_ms_per_lp                     ops_per_s on phase_grid
ipm.linalg_ms_per_lp                   op_ms_p50 on solve_large
ipm.iterations_mean, ipm.iterations_max  op_ms_p50 / op_ms_p90 on both solver workloads
ipm.factorizations_per_lp              exact count while ipm calls scipy's cho_factor
ipm.solves_per_lp                      exact count while ipm calls scipy's cho_solve
ipm.converged_ratio                    completed_ratio
ipm.computed_gflop_per_s               overhead-bound (phase_grid) vs flop-bound (solve_large)
kernels.calls_per_op, kernels.us_per_call  ops_per_s on predict_sweep
optimal.optimal_weight_us_p50          ops_per_s on predict_sweep
optimal.evals_per_weight               ops_per_s on predict_sweep
thresholds.minimize_threshold_us_p50   op_ms_p50 on predict_sweep; not phase_grid
thresholds.evals_per_minimize          op_ms_p50 on predict_sweep; not phase_grid
thresholds.blockwise_threshold_ms_p50  op_ms_p50 on predict_sweep; not phase_grid
process.cpu_per_wall                   ops_per_s on solve_large (BLAS oversubscription)
tracing.overhead_share                 none: cost of the wrappers themselves
=====================================  ===========================================

A metric whose layer a workload never enters reads 0.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

import numpy as np

import wbp.experiments
import wbp.ipm
import wbp.optimal
import wbp.solver
import wbp.thresholds

OP = "op"

# (module, attribute, span name); each entry is a name some caller looks up
TARGETS = (
    (wbp.experiments, "generate_instance", "model.generate_instance"),
    (wbp.experiments, "weighted_bp", "solver.weighted_bp"),
    (wbp.experiments, "minimize_threshold", "thresholds.minimize_threshold"),
    (wbp.solver, "weighted_bp", "solver.weighted_bp"),
    (wbp.solver, "solve_lp", "ipm.solve_lp"),
    (wbp.ipm, "cho_factor", "ipm.cho_factor"),
    (wbp.ipm, "cho_solve", "ipm.cho_solve"),
    (wbp.optimal, "optimal_weight", "optimal.optimal_weight"),
    (wbp.optimal, "phi", "kernels.phi"),
    (wbp.optimal, "phi_prime", "kernels.phi_prime"),
    (wbp.thresholds, "phi", "kernels.phi"),
    (wbp.thresholds, "phi_prime", "kernels.phi_prime"),
    (wbp.thresholds, "minimize_threshold", "thresholds.minimize_threshold"),
    (wbp.thresholds, "blockwise_threshold", "thresholds.blockwise_threshold"),
)
KERNELS = ("kernels.phi", "kernels.phi_prime")


def _lp_attrs(args, result):
    G = args[1]
    return {"m": G.shape[0], "n": G.shape[1], "iterations": int(result.iterations),
            "converged": bool(result.converged)}


def _bp_attrs(args, result):
    return {"status": result.status}


ATTRS = {"ipm.solve_lp": _lp_attrs, "solver.weighted_bp": _bp_attrs}


class Tracer:
    """In-memory span recorder; spans are (name, start, end, parent, op)."""

    def __init__(self):
        self.spans: list = []
        self.attrs: dict[int, dict] = {}
        self._stack: list[int] = []
        self._patches: list = []
        self.op = -1

    def _wrap(self, fn, name):
        spans, stack, attrs = self.spans, self._stack, self.attrs
        describe = ATTRS.get(name)
        perf_counter = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op)
            if describe is not None:
                attrs[idx] = describe(args, result)
            return result

        return wrapper

    def install(self) -> None:
        for module, attr, name in TARGETS:
            original = getattr(module, attr)
            self._patches.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def call_op(self, op_id: int, fn, *args):
        """Run one benchmark op inside a root span."""
        self.op = op_id
        return self._wrap(fn, OP)(*args)

    def write(self, path: str) -> None:
        """Save the spans column-wise to ``path`` (.npz); ``name`` indexes ``names``."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        name, start, end, parent, op = zip(*self.spans) if self.spans else ((),) * 5
        np.savez_compressed(
            path,
            names=np.array(names),
            name=np.array([index[n] for n in name], dtype=np.int16),
            start_s=np.array(start),
            end_s=np.array(end),
            parent=np.array(parent, dtype=np.int64),
            op=np.array(op, dtype=np.int64),
            attrs=np.array(json.dumps({str(k): v for k, v in self.attrs.items()})),
        )


def _mean(values) -> float:
    return float(np.mean(values)) if len(values) else 0.0


def _p50(values) -> float:
    return float(np.median(values)) if len(values) else 0.0


def layer_metrics(tracer: Tracer, trials_per_op: int) -> dict[str, float]:
    """Per-layer figures derived from the recorded spans.

    ``trials_per_op`` is the number of experiment trials one op runs (0 on
    workloads that run no experiment).
    """
    spans = tracer.spans
    child_time = defaultdict(float)
    children = defaultdict(list)
    by_name = defaultdict(list)
    for idx, (name, start, end, parent, _) in enumerate(spans):
        by_name[name].append(idx)
        if parent >= 0:
            child_time[parent] += end - start
            children[parent].append(idx)

    def duration(idx):
        return spans[idx][2] - spans[idx][1]

    def self_time(idx):
        return duration(idx) - child_time[idx]

    def kids(idx, names):
        return sum(1 for c in children[idx] if spans[c][0] in names)

    ops = by_name[OP]
    # a call that raised has a span but no attributes
    lps = [i for i in by_name["ipm.solve_lp"] if i in tracer.attrs]
    solves = [i for i in by_name["solver.weighted_bp"] if i in tracer.attrs]
    weights = by_name["optimal.optimal_weight"]
    blockwise = set(by_name["thresholds.blockwise_threshold"])
    minimizes = by_name["thresholds.minimize_threshold"]
    kernel_calls = [i for n in KERNELS for i in by_name[n]]
    factor_flops = sum(
        kids(i, ("ipm.cho_factor",)) * tracer.attrs[i]["m"] ** 2 * tracer.attrs[i]["n"] for i in lps
    )
    lp_time = sum(duration(i) for i in lps)
    trials = len(ops) * trials_per_op
    return {
        "experiments.self_ms_per_trial":
            1e3 * sum(self_time(i) for i in ops) / trials if trials else 0.0,
        "model.generate_instance_us": 1e6 * _mean([duration(i) for i in by_name["model.generate_instance"]]),
        "solver.self_ms_per_solve": 1e3 * _mean([self_time(i) for i in solves]),
        "solver.zero_weight_share":
            _mean([tracer.attrs[i]["status"] == "degenerate-weights" for i in solves]),
        "ipm.self_ms_per_lp": 1e3 * _mean([self_time(i) for i in lps]),
        "ipm.linalg_ms_per_lp": 1e3 * _mean([child_time[i] for i in lps]),
        "ipm.iterations_mean": _mean([tracer.attrs[i]["iterations"] for i in lps]),
        "ipm.iterations_max": float(max((tracer.attrs[i]["iterations"] for i in lps), default=0)),
        "ipm.factorizations_per_lp": _mean([kids(i, ("ipm.cho_factor",)) for i in lps]),
        "ipm.solves_per_lp": _mean([kids(i, ("ipm.cho_solve",)) for i in lps]),
        "ipm.converged_ratio": _mean([tracer.attrs[i]["converged"] for i in lps]),
        "ipm.computed_gflop_per_s": factor_flops / lp_time / 1e9 if lp_time else 0.0,
        "kernels.calls_per_op": len(kernel_calls) / len(ops) if ops else 0.0,
        "kernels.us_per_call": 1e6 * _mean([duration(i) for i in kernel_calls]),
        "optimal.optimal_weight_us_p50": 1e6 * _p50([duration(i) for i in weights]),
        "optimal.evals_per_weight": _mean([kids(i, KERNELS) for i in weights]),
        # direct calls only: blockwise_threshold's inner k=1 minimizations
        # are timed by thresholds.blockwise_threshold_ms_p50
        "thresholds.minimize_threshold_us_p50":
            1e6 * _p50([duration(i) for i in minimizes if spans[i][3] not in blockwise]),
        "thresholds.evals_per_minimize": _mean([kids(i, KERNELS) for i in minimizes]),
        "thresholds.blockwise_threshold_ms_p50": 1e3 * _p50([duration(i) for i in blockwise]),
    }

"""The three benchmark workloads: seeded inputs, the timed call, and its checks.

Each workload builds a pool of inputs from the seed, exposes ``run(i)`` for
the one call that is timed per op, ``units`` for what an op attempted and
what of it failed, and ``check(done)`` which validates the results outside
the timed region.  ``strata()`` splits the pool into blocks that each hold
one of every input kind; the harness shuffles within blocks, so any run
length sees a balanced mix whatever the seed.  wbp is driven only through its public
functions, looked up on their defining modules at call time so that the
tracer in ``spans.py`` can wrap them.

* ``phase_grid`` -- every (strategy, m) cell of both bundled configs, one
  ``run_phase_curve(..., jobs=1)`` call per cell at ``TRIALS_PER_CELL``
  trials.  Small LPs (d=100), where per-call overhead outweighs flops.
* ``predict_sweep`` -- the full prediction for one partition model per op,
  over a population stratified by block count k = 1..16 and
  d in {100, 1000, 10000}, plus the golden models.  Root finds only.
* ``solve_large`` -- one ``weighted_bp`` solve per op at d=400 across all
  four strategies and m around their predicted thresholds.  Flop-bound,
  with BLAS threading left as shipped.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

import wbp.experiments as experiments
import wbp.model as model_mod
import wbp.optimal as optimal
import wbp.solver as solver
import wbp.thresholds as thresholds

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCE_PATH = os.path.join(HERE, "reference.json")
CONFIGS = ("k2_phase", "k4_phase")

TRIALS_PER_CELL = 25
TALLY_RECHECK_CELLS = 2  # cells re-run trial by trial through run_trial

PREDICT_KS = tuple(range(1, 17))
PREDICT_DS = (100, 1000, 10000)
PREDICT_REPLICATES = 8
PHASE_WINDOW_ETA = 0.05
IDENTITY_TOL = 1e-9
RESIDUAL_TOL = 1e-10
GOLDEN_TOL = 1e-9

LARGE_D = 400
LARGE_BLOCKS = (40, 360)
LARGE_ALPHA = ("1/2", "20/360")
LARGE_KINDS = ("unit", "zero_one", "one_minus_alpha", "optimal")
LARGE_M = (110, 120, 130, 140, 150)
LARGE_REPLICATES = 4
HIGHS_CHECKS = 8
HIGHS_RTOL = 1e-7
KKT_TOL = 1e-6


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(1.0, abs(b))


# --------------------------------------------------------------------------
# phase_grid


@dataclass(frozen=True)
class Cell:
    key: str  # "<config>/<strategy label>/<m>"
    config: experiments.ExperimentConfig


def phase_cells(seed: int, trials: int = TRIALS_PER_CELL) -> list[Cell]:
    """One single-strategy, single-m config per cell of both bundled configs."""
    cells = []
    for name in CONFIGS:
        base = experiments.load_experiment_config(os.path.join(ROOT, "configs", name + ".json"))
        for strategy in base.strategies:
            for m in base.m_values:
                config = experiments.ExperimentConfig(
                    model=base.model,
                    strategies=(strategy,),
                    m_values=(m,),
                    trials_per_m=trials,
                    master_seed=seed,
                    success_threshold=base.success_threshold,
                )
                cells.append(Cell(f"{name}/{strategy.label}/{m}", config))
    return cells


class PhaseGrid:
    """Op = one grid cell; units are trials, failures are solver-failed trials."""

    name = "phase_grid"
    trials_per_op = TRIALS_PER_CELL

    def __init__(self, seed: int, reference: dict):
        if reference["trials_per_cell"] != TRIALS_PER_CELL:
            raise ValueError("reference.json was pinned at another trial count; rerun pin_reference.py")
        self.seed = seed
        self.reference = reference
        self.pool = phase_cells(seed)

    def warm_up(self) -> None:
        config = self.pool[0].config
        experiments.run_phase_curve(
            experiments.ExperimentConfig(
                model=config.model, strategies=config.strategies,
                m_values=config.m_values, trials_per_m=1, master_seed=self.seed,
            ),
            jobs=1,
        )

    def run(self, i: int):
        return experiments.run_phase_curve(self.pool[i].config, jobs=1)

    def strata(self) -> list[range]:
        return [range(len(self.pool))]

    def units(self, i: int, result) -> tuple[int, int]:
        """(trials attempted, solver-failed trials) for one op."""
        trials = self.pool[i].config.trials_per_m
        return trials, (trials if result is None else result.solver_failures)

    def check(self, done: list[tuple[int, object]]) -> list[list[str]]:
        predicted = self.reference["predicted_thresholds"]
        pinned = self.reference["tallies"]
        errors = []
        for i, curve in done:
            cell = self.pool[i]
            errs = []
            (point,) = curve.points
            if point.trials != cell.config.trials_per_m:
                errs.append(f"trials {point.trials} != {cell.config.trials_per_m}")
            label = cell.key.rsplit("/", 1)[0]
            if not _close(point.predicted_threshold, predicted[label], GOLDEN_TOL):
                errs.append(f"predicted threshold {point.predicted_threshold!r} != {predicted[label]!r}")
            if self.seed < len(pinned[cell.key]) and point.successes != pinned[cell.key][self.seed]:
                errs.append(f"successes {point.successes} != pinned {pinned[cell.key][self.seed]}")
            errors.append(errs)
        self._recheck_tallies(done, errors)
        return errors

    def _recheck_tallies(self, done, errors) -> None:
        # re-derive a few tallies trial by trial: this needs no pinned data,
        # so it also guards seeds without a reference
        rng = np.random.default_rng(self.seed)
        picks = rng.choice(len(done), size=min(TALLY_RECHECK_CELLS, len(done)), replace=False)
        for j in picks:
            i, curve = done[j]
            config = self.pool[i].config
            (strategy,), (m,) = config.strategies, config.m_values
            expected = sum(
                experiments.run_trial(config, strategy, m, t) for t in range(config.trials_per_m)
            )
            if curve.points[0].successes != expected:
                errors[j].append(
                    f"successes {curve.points[0].successes} != {expected} from run_trial"
                )


# --------------------------------------------------------------------------
# predict_sweep


@dataclass(frozen=True)
class PredictCase:
    key: str
    model: model_mod.PartitionModel
    merge: tuple[int, ...] | None


def golden_cases() -> list[PredictCase]:
    """The README/paper models whose weights and thresholds are pinned."""
    cases = [
        PredictCase(f"k2_alpha{a}", model_mod.make_model(100, (10, 90), (a, f"{s}/90")), (0, 1))
        for a, s in ((0.3, 7), (0.5, 5), (0.7, 3))
    ]
    k4 = model_mod.make_model(100, (5, 10, 15, 70), ("4/5", "3/10", "2/15", "1/70"))
    cases.append(PredictCase("k4", k4, (0, 1, 2)))
    return cases


def random_partition(rng: np.random.Generator, k: int, d: int) -> model_mod.PartitionModel:
    """k contiguous blocks summing to d with integer support counts, s < d."""
    while True:
        cuts = np.sort(rng.choice(np.arange(1, d), size=k - 1, replace=False))
        sizes = np.diff(np.concatenate(([0], cuts, [d])))
        counts = np.array([rng.integers(1, b + 1) for b in sizes])
        if counts.sum() < d:
            return model_mod.PartitionModel(
                d=d,
                blocks=tuple(int(b) for b in sizes),
                alpha=tuple(float(c / b) for c, b in zip(counts, sizes)),
            )


def predict_cases(seed: int) -> list[PredictCase]:
    rng = np.random.default_rng(seed)
    cases = golden_cases()
    for r in range(PREDICT_REPLICATES):
        for d in PREDICT_DS:
            for k in PREDICT_KS:
                model = random_partition(rng, k, d)
                merge = (0, 1) if k >= 2 else None
                cases.append(PredictCase(f"k{k}/d{d}/r{r}", model, merge))
    return cases


@dataclass(frozen=True)
class Prediction:
    weights: optimal.OptimalWeights
    m_tilde: dict  # strategy label -> ThresholdResult
    merged_residuals: tuple[float, ...]
    blockwise: float
    bounds: thresholds.StatDimBounds
    window: float


def predict(case: PredictCase) -> Prediction:
    """The full prediction for one model: weights, thresholds, bounds, window."""
    model = case.model
    weights = optimal.optimal_weights(model)
    per_strategy = {
        "unit": model_mod.weights_for_strategy(model, model_mod.Strategy("unit")),
        "one_minus_alpha": model_mod.weights_for_strategy(model, model_mod.Strategy("one_minus_alpha")),
        "optimal": weights.as_weights(model),
    }
    results = {label: thresholds.minimize_threshold(model, w) for label, w in per_strategy.items()}
    merged_residuals = ()
    if case.merge is not None:
        merged, _ = model_mod.merge_blocks(model, case.merge)
        merged_weights = optimal.optimal_weights(merged)
        results["merged_optimal"] = thresholds.minimize_threshold(
            merged, merged_weights.as_weights(merged)
        )
        merged_residuals = merged_weights.residuals
    return Prediction(
        weights=weights,
        m_tilde=results,
        merged_residuals=merged_residuals,
        blockwise=thresholds.blockwise_threshold(model),
        bounds=thresholds.statdim_bounds(model, results["optimal"]),
        window=thresholds.phase_window(model.d, PHASE_WINDOW_ETA),
    )


def golden_record(prediction: Prediction) -> dict:
    """The pinned fields of one golden prediction."""
    return {
        "normalized": list(prediction.weights.normalized),
        "m_tilde": {k: v.m_tilde for k, v in prediction.m_tilde.items()},
        "blockwise": prediction.blockwise,
    }


class PredictSweep:
    """Op = the full prediction for one model; units are ops."""

    name = "predict_sweep"
    trials_per_op = 0

    def __init__(self, seed: int, reference: dict):
        self.golden = reference["golden"]
        self.pool = predict_cases(seed)

    def warm_up(self) -> None:
        predict(self.pool[0])

    def run(self, i: int):
        return predict(self.pool[i])

    def strata(self) -> list[range]:
        # the golden models ride in the first block
        size = len(PREDICT_KS) * len(PREDICT_DS)
        first = len(self.pool) - PREDICT_REPLICATES * size + size
        return [range(0, first)] + [range(a, a + size) for a in range(first, len(self.pool), size)]

    def units(self, i: int, result) -> tuple[int, int]:
        return 1, int(result is None)

    def check(self, done: list[tuple[int, object]]) -> list[list[str]]:
        return [self._check_one(self.pool[i], p) for i, p in done]

    def _check_one(self, case: PredictCase, p: Prediction) -> list[str]:
        errs = []
        model = case.model
        m_opt = p.m_tilde["optimal"].m_tilde
        if abs(m_opt - p.blockwise) > IDENTITY_TOL:
            errs.append(f"synthesis identity off by {abs(m_opt - p.blockwise):.2e}")
        worst = max(abs(r) for r in p.weights.residuals + p.merged_residuals)
        if worst > RESIDUAL_TOL:
            errs.append(f"weight residual {worst:.2e}")
        for label, res in p.m_tilde.items():
            # optimal weights minimize J over every weight vector, so no
            # strategy on the same partition may predict fewer measurements
            if res.m_tilde < m_opt - IDENTITY_TOL:
                errs.append(f"{label} threshold {res.m_tilde!r} below optimal {m_opt!r}")
        slack = (2.0 / model.d) * math.sqrt(1.0 / min(model.alpha))
        if not (_close(p.bounds.tight[0], m_opt - slack, 1e-12) and p.bounds.tight[1] == m_opt
                and _close(p.bounds.loose[0], m_opt - 2.0 / math.sqrt(model.d), 1e-12)):
            errs.append(f"statdim bounds {p.bounds}")
        window = math.sqrt(8.0 * math.log(4.0 / PHASE_WINDOW_ETA)) * math.sqrt(model.d)
        if not _close(p.window, window, 1e-12):
            errs.append(f"phase window {p.window!r} != {window!r}")
        pinned = self.golden.get(case.key)
        if pinned is not None:
            got = golden_record(p)
            if not (all(_close(a, b, GOLDEN_TOL) for a, b in zip(got["normalized"], pinned["normalized"]))
                    and got["m_tilde"].keys() == pinned["m_tilde"].keys()
                    and all(_close(got["m_tilde"][k], v, GOLDEN_TOL) for k, v in pinned["m_tilde"].items())
                    and _close(got["blockwise"], pinned["blockwise"], GOLDEN_TOL)):
                errs.append(f"golden {case.key}: {got} != pinned {pinned}")
        return errs


# --------------------------------------------------------------------------
# solve_large


@dataclass(frozen=True)
class LargeCase:
    key: str
    problem: solver.BPProblem


def large_cases(seed: int) -> list[LargeCase]:
    model = model_mod.make_model(LARGE_D, LARGE_BLOCKS, LARGE_ALPHA)
    weights = [model_mod.apply_strategy(model, model_mod.Strategy(kind)).original_weights.expand()
               for kind in LARGE_KINDS]
    cases = []
    for r in range(LARGE_REPLICATES):
        for si, (kind, w) in enumerate(zip(LARGE_KINDS, weights)):
            for m in LARGE_M:
                inst_ss, mat_ss = np.random.SeedSequence((seed, si, m, r)).spawn(2)
                x0 = model_mod.generate_instance(model, inst_ss).x0
                A = np.random.default_rng(mat_ss).standard_normal((m, LARGE_D))
                cases.append(LargeCase(f"{kind}/m{m}/r{r}", solver.BPProblem(A=A, b=A @ x0, w=w)))
    return cases


def highs_objective(problem: solver.BPProblem) -> float:
    """Reference optimum of min w.|x| s.t. Ax = b from scipy's HiGHS."""
    res = linprog(
        np.concatenate([problem.w, problem.w]),
        A_eq=np.hstack([problem.A, -problem.A]),
        b_eq=problem.b,
        bounds=(0, None),
        method="highs",
    )
    if res.status != 0:
        raise RuntimeError(f"HiGHS failed: {res.message}")
    return float(res.fun)


class SolveLarge:
    """Op = one weighted_bp solve at d=400; units are ops."""

    name = "solve_large"
    trials_per_op = 0

    def __init__(self, seed: int, reference: dict):
        self.seed = seed
        self.pool = large_cases(seed)

    def warm_up(self) -> None:
        rng = np.random.default_rng(0)
        A = rng.standard_normal((5, 20))
        solver.weighted_bp(solver.BPProblem(A=A, b=A[:, 0], w=np.ones(20)))

    def run(self, i: int):
        return solver.weighted_bp(self.pool[i].problem)

    def strata(self) -> list[range]:
        size = len(LARGE_KINDS) * len(LARGE_M)
        return [range(a, a + size) for a in range(0, len(self.pool), size)]

    def units(self, i: int, result) -> tuple[int, int]:
        return 1, int(result is None)

    def check(self, done: list[tuple[int, object]]) -> list[list[str]]:
        errors = [self._check_kkt(self.pool[i].problem, sol) for i, sol in done]
        # HiGHS costs more than a solve, so compare a seeded subset of the
        # distinct problems solved; first occurrence of each stands for it
        first = {}
        for j, (i, _) in enumerate(done):
            first.setdefault(i, j)
        distinct = sorted(first)
        rng = np.random.default_rng(self.seed)
        for i in rng.choice(distinct, size=min(HIGHS_CHECKS, len(distinct)), replace=False):
            j = first[int(i)]
            sol = done[j][1]
            reference = highs_objective(self.pool[int(i)].problem)
            if not abs(sol.objective - reference) <= HIGHS_RTOL * abs(reference):
                errors[j].append(f"objective {sol.objective!r} != HiGHS {reference!r}")
        return errors

    @staticmethod
    def _check_kkt(problem: solver.BPProblem, sol: solver.BPSolution) -> list[str]:
        if not sol.ok:
            return [f"status {sol.status}"]
        report = solver.kkt_residuals(problem, sol)
        errs = []
        if report.primal_residual > KKT_TOL * (1.0 + np.linalg.norm(problem.b)):
            errs.append(f"primal residual {report.primal_residual:.2e}")
        if report.dual_violation > KKT_TOL:
            errs.append(f"dual violation {report.dual_violation:.2e}")
        if report.complementarity > KKT_TOL:
            errs.append(f"complementarity {report.complementarity:.2e}")
        return errs


WORKLOADS = {cls.name: cls for cls in (PhaseGrid, PredictSweep, SolveLarge)}

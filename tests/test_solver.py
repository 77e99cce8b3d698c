"""Tests for the weighted basis pursuit solver and its certificates."""

import os

import numpy as np
import pytest
from scipy import optimize

from wbp import (
    BPProblem,
    ExperimentConfig,
    SolverError,
    apply_strategy,
    generate_instance,
    kkt_residuals,
    load_experiment_config,
    load_matrix,
    load_vector,
    recovery_success,
    run_trial,
    save_matrix,
    save_vector,
    weighted_bp,
)
from wbp import solver
from wbp.ipm import LPResult

CONFIGS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "configs")


def random_problem(seed, m=10, d=24, sparsity=4, w_lo=0.2, w_hi=2.0):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((m, d))
    x = np.zeros(d)
    x[rng.choice(d, sparsity, replace=False)] = rng.standard_normal(sparsity)
    w = rng.uniform(w_lo, w_hi, d)
    return BPProblem(A, A @ x, w), x


# ----------------------------------------------------------------- problems


def test_problem_validation():
    A = np.eye(3)
    b = np.zeros(3)
    w = np.ones(3)
    with pytest.raises(ValueError):
        BPProblem(A[0], b, w)  # not a matrix
    with pytest.raises(ValueError):
        BPProblem(A, np.zeros(2), w)
    with pytest.raises(ValueError):
        BPProblem(A, b, np.ones(2))
    with pytest.raises(ValueError):
        BPProblem(A, b, -w)
    with pytest.raises(ValueError):
        BPProblem(A, np.array([np.inf, 0.0, 0.0]), w)


def test_tolerance_must_be_positive():
    problem, _ = random_problem(0)
    with pytest.raises(ValueError):
        weighted_bp(problem, tol=0.0)


# ------------------------------------------------------------------- solves


def test_identity_matrix_returns_rhs():
    b = np.array([0.5, -2.0, 0.0, 3.0])
    sol = weighted_bp(BPProblem(np.eye(4), b, np.ones(4)))
    assert sol.status == "optimal"
    np.testing.assert_allclose(sol.x_hat, b, atol=1e-9)
    np.testing.assert_allclose(sol.objective, np.abs(b).sum(), rtol=1e-9)


def test_two_column_analytic_solution():
    # min |x1| + 2 |x2|  s.t.  x1 + x2 = 1  ->  (1, 0)
    A = np.array([[1.0, 1.0]])
    b = np.array([1.0])
    sol = weighted_bp(BPProblem(A, b, np.array([1.0, 2.0])))
    np.testing.assert_allclose(sol.x_hat, [1.0, 0.0], atol=1e-8)
    # flipping the weight ordering flips the minimizer
    sol2 = weighted_bp(BPProblem(A, b, np.array([3.0, 1.0])))
    np.testing.assert_allclose(sol2.x_hat, [0.0, 1.0], atol=1e-8)


def test_weight_scale_invariance():
    problem, _ = random_problem(5)
    sol1 = weighted_bp(problem)
    sol2 = weighted_bp(BPProblem(problem.A, problem.b, 7.0 * problem.w))
    np.testing.assert_allclose(sol1.x_hat, sol2.x_hat, atol=1e-7)
    np.testing.assert_allclose(sol2.objective, 7.0 * sol1.objective, rtol=1e-8)


def test_overdetermined_full_rank_is_exact():
    rng = np.random.default_rng(8)
    A = rng.standard_normal((30, 12))
    x = rng.standard_normal(12)
    sol = weighted_bp(BPProblem(A, A @ x, rng.uniform(0.5, 1.5, 12)))
    assert sol.status == "optimal"
    np.testing.assert_allclose(sol.x_hat, x, atol=1e-9)


def test_infeasible_detection():
    A = np.array([[1.0], [1.0]])
    b = np.array([1.0, 2.0])
    sol = weighted_bp(BPProblem(A, b, np.ones(1)))
    assert sol.status == "infeasible"
    assert sol.x_hat is None
    assert not sol.ok
    assert np.isnan(sol.objective)


def test_zero_rhs_gives_zero_solution():
    problem, _ = random_problem(2)
    sol = weighted_bp(BPProblem(problem.A, np.zeros(problem.m), problem.w))
    np.testing.assert_allclose(sol.x_hat, 0.0, atol=1e-10)
    assert sol.objective == pytest.approx(0.0, abs=1e-10)


def test_zero_weight_coordinates_are_free():
    # min |x2|  s.t.  x1 + x2 = 1  with w = (0, 1)  ->  (1, 0), objective 0
    A = np.array([[1.0, 1.0]])
    b = np.array([1.0])
    sol = weighted_bp(BPProblem(A, b, np.array([0.0, 1.0])))
    assert sol.status == "degenerate-weights"
    assert sol.ok
    np.testing.assert_allclose(sol.x_hat, [1.0, 0.0], atol=1e-8)
    np.testing.assert_allclose(sol.objective, 0.0, atol=1e-10)


def test_zero_weight_block_still_certified():
    rng = np.random.default_rng(12)
    m, d = 12, 30
    A = rng.standard_normal((m, d))
    x = np.zeros(d)
    x[rng.choice(d, 5, replace=False)] = rng.standard_normal(5)
    w = rng.uniform(0.3, 1.2, d)
    w[:6] = 0.0
    sol = weighted_bp(BPProblem(A, A @ x, w))
    assert sol.status == "degenerate-weights"
    report = kkt_residuals(BPProblem(A, A @ x, w), sol)
    assert report.primal_residual < 1e-7
    assert report.dual_violation < 1e-7
    ref = optimize.linprog(np.concatenate([w, w]), A_eq=np.hstack([A, -A]),
                           b_eq=A @ x, bounds=(0, None), method="highs")
    np.testing.assert_allclose(sol.objective, ref.fun, rtol=1e-7, atol=1e-9)


@pytest.mark.parametrize("seed", range(10))
def test_objective_matches_linprog(seed):
    problem, _ = random_problem(seed, m=9, d=21, sparsity=3)
    sol = weighted_bp(problem)
    assert sol.status == "optimal"
    ref = optimize.linprog(
        np.concatenate([problem.w, problem.w]),
        A_eq=np.hstack([problem.A, -problem.A]),
        b_eq=problem.b, bounds=(0, None), method="highs",
    )
    np.testing.assert_allclose(sol.objective, ref.fun, rtol=1e-7, atol=1e-9)


# Trials on which the interior point iteration stalls just short of its
# certificate (primal-degenerate optimal vertices), each built like one
# 25-trial cell of a bundled config run with master seed ``seed``.  The
# seed-2 trials share one A and recover x0; the others are genuine
# non-recoveries.
STALLED_TRIALS = [
    (1, "k4_phase", "merge0-1-2+optimal", 15, 0, False),
    (2, "k2_phase", "unit", 31, 21, True),
    (2, "k2_phase", "one_minus_alpha", 31, 21, True),
    (2, "k2_phase", "optimal", 31, 21, True),
    (2, "k4_phase", "optimal", 31, 21, True),
    (2, "k4_phase", "merge0-1-2+optimal", 31, 21, True),
    (10, "k2_phase", "one_minus_alpha", 27, 12, False),
    (17, "k2_phase", "one_minus_alpha", 25, 19, False),
    (18, "k4_phase", "optimal", 22, 7, False),
]


@pytest.mark.parametrize("seed,name,label,m,trial,recovered", STALLED_TRIALS)
def test_stalled_trial_closes_on_a_certified_face(seed, name, label, m, trial, recovered):
    base = load_experiment_config(os.path.join(CONFIGS, name + ".json"))
    (strategy,) = [s for s in base.strategies if s.label == label]
    config = ExperimentConfig(model=base.model, strategies=(strategy,), m_values=(m,),
                              trials_per_m=25, master_seed=seed)
    inst_ss, mat_ss = np.random.SeedSequence((seed, 0, m, trial)).spawn(2)
    x0 = generate_instance(config.model, inst_ss).x0
    A = np.random.default_rng(mat_ss).standard_normal((m, config.model.d))
    problem = BPProblem(A, A @ x0, apply_strategy(config.model, strategy).original_weights.expand())
    sol = weighted_bp(problem)
    assert solver._certificate(problem.A, problem.b, problem.w, sol.x_hat, sol.y)[0] <= 1e-8
    assert run_trial(config, strategy, m, trial) is recovered
    if recovered:
        np.testing.assert_allclose(sol.x_hat, x0, atol=1e-9)
    else:
        ref = optimize.linprog(np.concatenate([problem.w, problem.w]),
                               A_eq=np.hstack([A, -A]), b_eq=problem.b,
                               bounds=(0, None), method="highs")
        np.testing.assert_allclose(sol.objective, ref.fun, rtol=1e-7)


def test_stall_without_a_certified_face_raises(monkeypatch):
    # a dual tight on every column leaves only the dense least-norm face,
    # which no dual closes, so the stall is reported instead of accepted
    def stalled(c, G, b, tol=1e-8, max_iter=100):
        m, n = G.shape
        return LPResult(np.zeros(n), np.full(m, 1e9), np.zeros(n), False, 0, 1.0, 1.0, 1.0)

    monkeypatch.setattr(solver, "solve_lp", stalled)
    problem, _ = random_problem(3)
    with pytest.raises(SolverError, match="stalled"):
        weighted_bp(problem)


def test_dual_certificate_properties():
    problem, _ = random_problem(7)
    sol = weighted_bp(problem)
    # y is feasible for the dual (|A^T y| <= w) and its value meets the primal
    assert np.max(np.abs(problem.A.T @ sol.y) - problem.w) <= 1e-7
    np.testing.assert_allclose(problem.b @ sol.y, sol.objective, rtol=1e-7,
                               atol=1e-9)
    assert sol.gap <= 1e-8


def test_kkt_residuals_small_on_solves():
    for seed in range(5):
        problem, _ = random_problem(seed, m=14, d=33, sparsity=6)
        sol = weighted_bp(problem)
        report = kkt_residuals(problem, sol)
        assert report.primal_residual < 1e-7
        assert report.dual_violation < 1e-7
        assert report.complementarity < 1e-6


def test_kkt_residuals_require_a_solution():
    A = np.array([[1.0], [1.0]])
    problem = BPProblem(A, np.array([1.0, 2.0]), np.ones(1))
    sol = weighted_bp(problem)
    with pytest.raises(ValueError):
        kkt_residuals(problem, sol)


# ------------------------------------------------------------------ success


def test_recovery_success_boundary_is_inclusive():
    x0 = np.zeros(4)
    exact = np.zeros(4)
    off = np.zeros(4)
    off[0] = 0.001
    assert recovery_success(exact, x0)
    assert recovery_success(off, x0)  # ||diff||_2 == threshold exactly
    off[0] = 0.0010000001
    assert not recovery_success(off, x0)


def test_recovery_success_uses_l2_norm():
    x0 = np.zeros(2)
    x = np.array([0.0008, 0.0008])  # l2 norm ~ 0.00113 > 0.001
    assert not recovery_success(x, x0)


def test_recovery_success_custom_threshold():
    x0 = np.ones(3)
    x = x0 + 0.01
    assert recovery_success(x, x0, threshold=0.1)
    assert not recovery_success(x, x0, threshold=0.001)


def test_recovery_success_shape_check():
    with pytest.raises(ValueError):
        recovery_success(np.zeros(3), np.zeros(4))


# ----------------------------------------------------------------- file I/O


def test_matrix_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    A = rng.standard_normal((5, 7))
    path = tmp_path / "mat.csv"
    save_matrix(path, A)
    B = load_matrix(path)
    np.testing.assert_array_equal(A, B)


def test_vector_round_trip(tmp_path):
    v = np.array([1.0, -2.5, 1e-17, 3.0])
    path = tmp_path / "vec.csv"
    save_vector(path, v)
    np.testing.assert_array_equal(load_vector(path), v)


def test_load_matrix_shape_mismatch(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("2,3\n1.0,2.0,3.0\n")
    with pytest.raises(ValueError):
        load_matrix(path)

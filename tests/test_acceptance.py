"""Acceptance suite: the end-to-end numerical claims the package stands on.

Each test pins one headline result at its stated tolerance: printed golden
weights, the per-block synthesis identity, the Monte Carlo check of the
expected-distance formula, sandwich-bound widths, desk-scale phase
transitions with strategy ordering, solver certificates on a large random
population, and the invariance properties that substitute for claims not
directly reproducible.

The two phase-transition experiments (200 trials per grid point) are shared
session fixtures; everything else runs in seconds.
"""

import math
import time

import numpy as np
import pytest

from wbp import (
    BPProblem,
    ExperimentConfig,
    Strategy,
    Weights,
    apply_strategy,
    blockwise_threshold,
    generate_instance,
    kkt_residuals,
    make_model,
    mc_expected_dist_sq,
    minimize_threshold,
    optimal_weight,
    optimal_weights,
    phi,
    run_phase_curve,
    statdim_bounds,
    threshold_objective,
    weight_objective,
    weighted_bp,
)

K2 = make_model(100, (10, 90), (0.5, "5/90"))
K4 = make_model(100, (5, 10, 15, 70), ("4/5", "3/10", "2/15", "1/70"))
K2_STRATEGIES = (Strategy("unit"), Strategy("zero_one"),
                 Strategy("one_minus_alpha"), Strategy("optimal"))
K4_STRATEGIES = (Strategy("optimal"), Strategy("optimal", merge=(0, 1, 2)))


def random_model(rng, max_k=5, max_d=200):
    """A random valid partition model with integer per-block support counts."""
    while True:
        k = int(rng.integers(1, max_k + 1))
        blocks = rng.integers(2, max(3, max_d // k), size=k)
        if blocks.sum() > max_d:
            continue
        counts = np.array([rng.integers(1, b + 1) for b in blocks])
        if counts.sum() >= blocks.sum():
            continue  # the support must not saturate the dimension
        d = int(blocks.sum())
        alpha = counts / blocks
        return make_model(d, tuple(int(b) for b in blocks), tuple(alpha))


@pytest.fixture(scope="session")
def k2_curve():
    config = ExperimentConfig(
        model=K2, strategies=K2_STRATEGIES, m_values=tuple(range(18, 44)),
        trials_per_m=200, master_seed=0,
    )
    start = time.perf_counter()
    curve = run_phase_curve(config)
    return curve, time.perf_counter() - start


@pytest.fixture(scope="session")
def k4_curve():
    config = ExperimentConfig(
        model=K4, strategies=K4_STRATEGIES, m_values=tuple(range(15, 34)),
        trials_per_m=200, master_seed=0,
    )
    start = time.perf_counter()
    curve = run_phase_curve(config)
    return curve, time.perf_counter() - start


def test_criterion_1_golden_weights_two_blocks():
    cases = [((0.3, "7/90"), 0.5539), ((0.5, "5/90"), 0.3208),
             ((0.7, "3/90"), 0.1599)]
    optimal_weight(0.5)  # warm-up outside the timed region
    start = time.perf_counter()
    results = [optimal_weights(make_model(100, (10, 90), alpha)).normalized
               for alpha, _ in cases]
    elapsed = time.perf_counter() - start
    for (_, expected), got in zip(cases, results):
        assert got[1] == 1.0
        assert abs(got[0] - expected) <= 5e-4, (
            f"first weight {got[0]:.6f} misses {expected} by "
            f"{abs(got[0] - expected):.2e}"
        )
    assert elapsed < 0.010
    print(f"criterion 1 PASS: {[round(r[0], 4) for r in results]} in {elapsed*1e3:.2f} ms")


def test_criterion_2_golden_weights_four_blocks():
    optimal_weight(0.5)
    start = time.perf_counter()
    full = optimal_weights(K4).normalized
    merged = apply_strategy(K4, Strategy("optimal", merge=(0, 1, 2)))
    two = merged.weights.omega
    elapsed = time.perf_counter() - start
    np.testing.assert_allclose(full, (0.0884, 0.3742, 0.5617, 1.0), atol=5e-4)
    np.testing.assert_allclose(two, (0.3742, 1.0), atol=5e-4)
    assert elapsed < 0.010
    print(f"criterion 2 PASS: {[round(v, 4) for v in full]} / {[round(v, 4) for v in two]}"
          f" in {elapsed*1e3:.2f} ms")


def test_criterion_3_synthesis_identity_on_random_models():
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        model = random_model(rng)
        w = optimal_weights(model).as_weights(model)
        direct = minimize_threshold(model, w).m_tilde
        synthesized = blockwise_threshold(model)
        worst = max(worst, abs(direct - synthesized))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-6
    assert elapsed < 5.0
    print(f"criterion 3 PASS: worst |direct - synthesized| = {worst:.2e} "
          f"over 100 models in {elapsed:.2f} s")


def test_criterion_4_monte_carlo_matches_objective():
    rng = np.random.default_rng(77)
    start = time.perf_counter()
    for trial in range(20):
        model = random_model(rng, max_d=150)
        omega = tuple(rng.uniform(0.1, 2.0, model.k))
        w = Weights(omega, model.blocks)
        tau = float(rng.uniform(0.1, 3.0))
        est, se = mc_expected_dist_sq(model, w, tau, 100_000, seed=1000 + trial)
        target = threshold_objective(model, w, tau)
        assert abs(est - target) <= 4 * se, (
            f"trial {trial}: estimate {est:.6f} vs {target:.6f} "
            f"exceeds 4 x SE = {4 * se:.2e}"
        )
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(f"criterion 4 PASS: 20/20 within 4 SE in {elapsed:.2f} s")


def test_criterion_5_sandwich_bound_widths():
    rng = np.random.default_rng(5)
    for _ in range(25):
        model = random_model(rng)
        w = Weights(tuple(rng.uniform(0.2, 2.0, model.k)), model.blocks)
        res = minimize_threshold(model, w)
        bounds = statdim_bounds(model, res)
        tight_width = bounds.tight[1] - bounds.tight[0]
        loose_width = bounds.loose[1] - bounds.loose[0]
        expected_tight = (2.0 / model.d) * math.sqrt(1.0 / min(model.alpha))
        np.testing.assert_allclose(tight_width, expected_tight, rtol=1e-13)
        np.testing.assert_allclose(loose_width, 2.0 / math.sqrt(model.d), rtol=1e-13)
        assert tight_width <= loose_width + 1e-15
    print("criterion 5 PASS: widths exact on 25 random models")


def test_criterion_6_phase_transition_desk_scale(k2_curve):
    curve, elapsed = k2_curve
    assert curve.solver_failures == 0
    assert elapsed < 600.0
    lines = []
    for strategy in K2_STRATEGIES:
        label = strategy.label
        predicted = curve.predicted_threshold(label)
        crossing = curve.crossing(label)
        assert crossing is not None
        assert abs(crossing - predicted) <= 5.0, (
            f"{label}: crossing {crossing:.2f} vs predicted {predicted:.2f}"
        )
        ms, rates = curve.series(label)
        at = dict(zip(ms.tolist(), rates.tolist()))
        high = at[math.ceil(predicted) + 10]
        low = at[math.floor(predicted) - 10]
        assert high >= 0.9, f"{label}: rate {high} at predicted+10"
        assert low <= 0.1, f"{label}: rate {low} at predicted-10"
        lines.append(f"{label}: crossing {crossing:.2f} vs {predicted:.2f}")
    print(f"criterion 6 PASS ({elapsed:.0f} s): " + "; ".join(lines))


def test_criterion_7_strategy_ordering(k2_curve, k4_curve):
    curve2, _ = k2_curve
    m_unit, rate_unit = curve2.series("unit")
    m_opt, rate_opt = curve2.series("optimal")
    np.testing.assert_array_equal(m_unit, m_opt)
    n = 200
    for m, r_u, r_o in zip(m_unit, rate_unit, rate_opt):
        combined_se = math.sqrt(r_u * (1 - r_u) / n + r_o * (1 - r_o) / n)
        assert r_o >= r_u - 3 * combined_se, (
            f"m={m}: optimal rate {r_o:.3f} below unit {r_u:.3f} - 3 SE"
        )

    curve4, _ = k4_curve
    assert curve4.solver_failures == 0
    full = curve4.crossing("optimal")
    merged = curve4.crossing("merge0-1-2+optimal")
    assert full is not None and merged is not None
    assert full < merged, f"4-block crossing {full:.2f} not below merged {merged:.2f}"
    print(f"criterion 7 PASS: ordering holds at every m; "
          f"k4 crossings {full:.2f} < {merged:.2f}")


def test_criterion_8_solver_certificates_population():
    rng = np.random.default_rng(11)
    start = time.perf_counter()
    worst_dual = 0.0
    worst_comp = 0.0
    for _ in range(1000):
        m = int(rng.integers(3, 36))
        d = int(rng.integers(m, 51))
        A = rng.standard_normal((m, d))
        x = np.zeros(d)
        k = int(rng.integers(1, m + 1))
        x[rng.choice(d, k, replace=False)] = rng.standard_normal(k)
        w = rng.uniform(0.05, 2.0, d)
        problem = BPProblem(A, A @ x, w)
        solution = weighted_bp(problem)
        assert solution.status == "optimal"
        report = kkt_residuals(problem, solution)
        worst_dual = max(worst_dual, report.dual_violation)
        worst_comp = max(worst_comp, report.complementarity)
    elapsed = time.perf_counter() - start
    assert worst_dual <= 1e-6
    assert worst_comp <= 1e-6
    print(f"criterion 8 PASS: 1000/1000 certified; worst dual violation "
          f"{worst_dual:.2e}, worst complementarity {worst_comp:.2e} in {elapsed:.1f} s")


def test_criterion_9_invariant_suite():
    rng = np.random.default_rng(99)

    # phi decreases and is midpoint-convex
    ts = np.sort(rng.uniform(0.0, 8.0, 40))
    vals = phi(ts)
    assert np.all(np.diff(vals) <= 1e-15)
    for a, b in rng.uniform(0.0, 8.0, (30, 2)):
        assert phi(0.5 * (a + b)) <= 0.5 * (phi(a) + phi(b)) + 1e-12

    # J is midpoint-convex in tau and scale-invariant in the weights
    w = Weights((0.4, 1.0), K2.blocks)
    for t1, t2 in rng.uniform(0.05, 5.0, (30, 2)):
        mid = threshold_objective(K2, w, 0.5 * (t1 + t2))
        chord = 0.5 * (threshold_objective(K2, w, t1) + threshold_objective(K2, w, t2))
        assert mid <= chord + 1e-12
    base = minimize_threshold(K2, w)
    for c in (0.3, 2.0, 11.0):
        scaled = minimize_threshold(K2, Weights((0.4 * c, c), K2.blocks))
        np.testing.assert_allclose(scaled.m_tilde, base.m_tilde, atol=1e-11)
        np.testing.assert_allclose(scaled.tau_star, base.tau_star / c, rtol=1e-7)

    # the weight objective is midpoint-convex around the optimum
    raw = np.array(optimal_weights(K2).raw)
    for _ in range(20):
        u = np.abs(raw + rng.normal(0.0, 0.2, 2))
        v = np.abs(raw + rng.normal(0.0, 0.2, 2))
        mid = weight_objective(K2, 0.5 * (u + v))
        chord = 0.5 * (weight_objective(K2, u) + weight_objective(K2, v))
        assert mid <= chord + 1e-12

    # raw roots depend only on alpha, not on block proportions
    a = make_model(100, (10, 90), (0.5, "5/90"))
    b = make_model(300, (60, 240), (0.5, "2/15"))  # 2/15 ~ different rho split
    np.testing.assert_allclose(optimal_weights(a).raw[0], optimal_weights(b).raw[0],
                               atol=1e-12)
    c = make_model(156, (30, 126), (0.5, "7/126"))  # same alphas, new proportions
    np.testing.assert_allclose(optimal_weights(a).raw, optimal_weights(c).raw,
                               atol=1e-12)

    # seeded generation is deterministic end to end
    inst1 = generate_instance(K2, np.random.SeedSequence(123))
    inst2 = generate_instance(K2, np.random.SeedSequence(123))
    np.testing.assert_array_equal(inst1.x0, inst2.x0)
    est1 = mc_expected_dist_sq(K2, w, 1.0, 2000, seed=5)
    est2 = mc_expected_dist_sq(K2, w, 1.0, 2000, seed=5)
    assert est1 == est2

    print("criterion 9 PASS: invariants hold")

"""Tests for the threshold objective J and its minimization.

The minimizer is cross-checked against scipy's bounded scalar minimizer, the
per-block synthesis identity, and frozen values re-derivable from either.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize

from wbp import (
    Strategy,
    Weights,
    apply_strategy,
    blockwise_threshold,
    l1_threshold,
    make_model,
    minimize_threshold,
    optimal_weights,
    phase_window,
    statdim_bounds,
    threshold_objective,
    weight_objective,
)

K2 = make_model(100, (10, 90), (0.5, "5/90"))
K4 = make_model(100, (5, 10, 15, 70), ("4/5", "3/10", "2/15", "1/70"))
UNIT2 = Weights((1.0, 1.0), (10, 90))


def scipy_min_oracle(model, weights):
    res = optimize.minimize_scalar(
        lambda t: threshold_objective(model, weights, t),
        bounds=(0.0, 25.0), method="bounded",
        options={"xatol": 1e-10},
    )
    return res.fun


# -------------------------------------------------------------- objective J


def test_objective_at_zero_is_one():
    for model, w in ((K2, UNIT2), (K4, Weights((1.0,) * 4, K4.blocks))):
        np.testing.assert_allclose(threshold_objective(model, w, 0.0), 1.0,
                                   rtol=1e-14)


def test_objective_agrees_with_weight_objective_bitwise():
    tau = 1.37
    w = Weights((0.25, 1.0), (10, 90))
    lhs = threshold_objective(K2, w, tau)
    rhs = weight_objective(K2, np.array([0.25 * tau, 1.0 * tau]))
    assert lhs == rhs


def test_objective_rejects_mismatched_weights():
    with pytest.raises(ValueError):
        threshold_objective(K2, Weights((1.0,), (100,)), 1.0)


# ------------------------------------------------------------- minimization


def test_minimizer_matches_scipy_bounded_search():
    for model, w in (
        (K2, UNIT2),
        (K2, optimal_weights(K2).as_weights(K2)),
        (K4, Weights((0.3, 0.5, 0.8, 1.0), K4.blocks)),
    ):
        res = minimize_threshold(model, w)
        np.testing.assert_allclose(res.m_tilde, scipy_min_oracle(model, w),
                                   atol=1e-8)


def test_frozen_strategy_thresholds():
    # strategy-level values for the half-supported two-block model
    expected = {
        "unit": (0.32879350545363006, 1.1401711458361206),
        "zero_one": (0.29770816701578273, 1.3601757512346921),
        "one_minus_alpha": (0.2851882861110867, 1.316951458276435),
        "optimal": (0.2808381575864283, 1.3601757512346921),
    }
    for kind, (m_tilde, tau_star) in expected.items():
        applied = apply_strategy(K2, Strategy(kind))
        res = minimize_threshold(applied.effective_model, applied.weights)
        np.testing.assert_allclose(res.m_tilde, m_tilde, atol=1e-12)
        np.testing.assert_allclose(res.tau_star, tau_star, atol=1e-9)


def test_measurement_scaling():
    res = minimize_threshold(K2, UNIT2)
    np.testing.assert_allclose(res.measurements(100), 100 * res.m_tilde, rtol=1e-15)


def test_scale_invariance_of_weights():
    w = Weights((0.4, 1.0), (10, 90))
    base = minimize_threshold(K2, w)
    scaled = minimize_threshold(K2, Weights((1.2, 3.0), (10, 90)))
    np.testing.assert_allclose(scaled.m_tilde, base.m_tilde, atol=1e-12)
    np.testing.assert_allclose(scaled.tau_star, base.tau_star / 3.0, atol=1e-9)


def test_all_zero_weights_rejected():
    with pytest.raises(ValueError):
        minimize_threshold(K2, Weights((0.0, 0.0), (10, 90)))


def test_zero_weight_on_uncertain_block_gives_trivial_threshold():
    # weighting only a fully known block leaves nothing to penalize on the
    # unknown one, so J is increasing and the infimum sits at tau = 0
    model = make_model(20, (4, 16), (1.0, "4/16"))
    res = minimize_threshold(model, Weights((1.0, 0.0), (4, 16)))
    assert res.tau_star == 0.0
    np.testing.assert_allclose(res.m_tilde, 1.0, rtol=1e-14)


@given(st.floats(0.05, 10.0))
@settings(max_examples=60, deadline=None)
def test_minimum_is_global_lower_bound(tau):
    res = minimize_threshold(K2, UNIT2)
    assert threshold_objective(K2, UNIT2, tau) >= res.m_tilde - 1e-12


def test_threshold_is_in_unit_interval():
    for model, w in ((K2, UNIT2), (K4, optimal_weights(K4).as_weights(K4))):
        res = minimize_threshold(model, w)
        assert 0.0 < res.m_tilde <= 1.0


# --------------------------------------------------------------- mu(s, d)


def test_frozen_mu_values():
    np.testing.assert_allclose(l1_threshold(10, 100), 0.32879350545363006,
                               atol=1e-12)
    np.testing.assert_allclose(l1_threshold(50, 100), 0.8312999057064561,
                               atol=1e-12)
    np.testing.assert_allclose(l1_threshold(5, 90), 0.21967574112864743,
                               atol=1e-12)


def test_mu_zero_support():
    assert l1_threshold(0, 50) == 0.0


def test_mu_monotone_in_s():
    vals = [l1_threshold(s, 100) for s in range(1, 21)]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_mu_domain_errors():
    with pytest.raises(ValueError):
        l1_threshold(100, 100)
    with pytest.raises(ValueError):
        l1_threshold(-1, 100)
    with pytest.raises(ValueError):
        l1_threshold(2.5, 100)


# ---------------------------------------------------------------- synthesis


def test_synthesis_identity():
    # the minimum at optimal weights decomposes into per-block plain-l1
    # thresholds weighted by the block proportions
    for model in (K2, K4):
        w = optimal_weights(model).as_weights(model)
        res = minimize_threshold(model, w)
        np.testing.assert_allclose(res.m_tilde, blockwise_threshold(model),
                                   atol=1e-9)


def test_blockwise_threshold_counts_certain_blocks_fully():
    model = make_model(20, (4, 16), (1.0, "4/16"))
    expected = 4 / 20 + (16 / 20) * l1_threshold(4, 16)
    np.testing.assert_allclose(blockwise_threshold(model), expected, rtol=1e-14)


def test_optimal_weights_beat_other_strategies():
    for a1, a2 in ((0.3, "7/90"), (0.5, "5/90"), (0.7, "3/90")):
        model = make_model(100, (10, 90), (a1, a2))
        best = None
        results = {}
        for kind in ("unit", "zero_one", "one_minus_alpha", "optimal"):
            applied = apply_strategy(model, Strategy(kind))
            results[kind] = minimize_threshold(applied.effective_model,
                                               applied.weights).m_tilde
        for kind, m_tilde in results.items():
            assert results["optimal"] <= m_tilde + 1e-12


def test_merging_blocks_cannot_help():
    applied4 = apply_strategy(K4, Strategy("optimal"))
    merged = apply_strategy(K4, Strategy("optimal", merge=(0, 1, 2)))
    full = minimize_threshold(applied4.effective_model, applied4.weights)
    two = minimize_threshold(merged.effective_model, merged.weights)
    np.testing.assert_allclose(full.measurements(100), 22.928970739475844,
                               atol=1e-9)
    np.testing.assert_allclose(two.measurements(100), 25.01455902281756,
                               atol=1e-9)
    assert full.m_tilde < two.m_tilde


# ------------------------------------------------------------------- bounds


def test_sandwich_bound_widths():
    res = minimize_threshold(K2, UNIT2)
    bounds = statdim_bounds(K2, res)
    tight_lo, tight_hi = bounds.tight
    loose_lo, loose_hi = bounds.loose
    alpha_min = min(K2.alpha)
    np.testing.assert_allclose(tight_hi - tight_lo,
                               (2.0 / K2.d) * math.sqrt(1.0 / alpha_min),
                               rtol=1e-14)
    np.testing.assert_allclose(loose_hi - loose_lo, 2.0 / math.sqrt(K2.d),
                               rtol=1e-14)
    assert tight_hi == res.m_tilde and loose_hi == res.m_tilde
    assert tight_hi - tight_lo <= loose_hi - loose_lo


def test_sandwich_bounds_frozen():
    model = make_model(100, (100,), ("10/100",))
    res = minimize_threshold(model, Weights((1.0,), (100,)))
    bounds = statdim_bounds(model, res)
    np.testing.assert_allclose(bounds.tight, (0.26554795225026245,
                                              0.32879350545363006), atol=1e-12)
    np.testing.assert_allclose(bounds.loose, (0.12879350545363005,
                                              0.32879350545363006), atol=1e-12)


def test_tight_never_wider_than_loose_across_models():
    for model in (K2, K4):
        res = minimize_threshold(model, Weights((1.0,) * model.k, model.blocks))
        bounds = statdim_bounds(model, res)
        assert bounds.tight[0] >= bounds.loose[0] - 1e-15


# ------------------------------------------------------------- phase window


def test_phase_window_frozen():
    np.testing.assert_allclose(phase_window(100, 0.05), 59.20828749203193,
                               rtol=1e-14)


def test_phase_window_scaling():
    np.testing.assert_allclose(phase_window(400, 0.05),
                               2.0 * phase_window(100, 0.05), rtol=1e-14)


def test_phase_window_validation():
    with pytest.raises(ValueError):
        phase_window(0, 0.05)
    with pytest.raises(ValueError):
        phase_window(100, 0.0)
    with pytest.raises(ValueError):
        phase_window(100, 1.0)

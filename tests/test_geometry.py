"""Tests for the subdifferential distance and its Monte Carlo expectation.

The per-coordinate projection formula is verified against a brute-force
grid search over the subdifferential box, and the Monte Carlo mean against
the closed-form objective it is supposed to estimate.
"""

import numpy as np
import pytest

from wbp import (
    Weights,
    dist_sq_to_subdiff,
    generate_instance,
    make_model,
    mc_expected_dist_sq,
    threshold_objective,
)
from wbp.model import SupportInstance

K2 = make_model(100, (10, 90), (0.5, "5/90"))
UNIT2 = Weights((1.0, 1.0), (10, 90))


def tiny_instance() -> SupportInstance:
    model = make_model(6, (3, 3), ("2/3", "1/3"))
    return generate_instance(model, np.random.SeedSequence(5))


# ---------------------------------------------------------------- distance


def test_distance_zero_inside_the_set():
    inst = tiny_instance()
    w = np.array([0.3, 1.0, 0.5, 2.0, 1.0, 0.7])
    tau = 1.3
    g = np.zeros(6)
    g[inst.support] = inst.signs * w[inst.support] * tau
    off = np.setdiff1d(np.arange(6), inst.support)
    g[off] = 0.5 * w[off] * tau  # strictly inside the box
    assert dist_sq_to_subdiff(g, inst, w, tau) == pytest.approx(0.0, abs=1e-28)


def test_distance_matches_brute_force_grid():
    # exhaustive oracle: projection of each coordinate onto its interval,
    # scanned on a fine grid instead of using the closed form
    inst = tiny_instance()
    w = np.array([0.3, 1.0, 0.5, 2.0, 1.0, 0.7])
    tau = 0.8
    rng = np.random.default_rng(11)
    for _ in range(10):
        g = rng.standard_normal(6)
        total = 0.0
        mask = inst.support_mask
        for j in range(6):
            if mask[j]:
                p_j = np.sign(inst.x0[j]) * w[j] * tau
                total += (g[j] - p_j) ** 2
            else:
                grid = np.linspace(-w[j] * tau, w[j] * tau, 4001)
                total += np.min((g[j] - grid) ** 2)
        assert dist_sq_to_subdiff(g, inst, w, tau) == pytest.approx(total, abs=1e-5)


def test_dist_sq_terms_decomposition():
    # the distance splits into on-support and off-support terms: zeroing g
    # off the support leaves only the first, moving g onto the fixed points
    # on the support leaves only the second
    inst = tiny_instance()
    w = np.full(6, 0.9)
    tau = 1.1
    g = np.random.default_rng(2).standard_normal(6)
    on = inst.support_mask
    g_on = np.where(on, g, 0.0)
    g_off = np.where(on, 0.0, g)
    g_off[on] = inst.signs * w[on] * tau
    assert dist_sq_to_subdiff(g_on, inst, w, tau) + dist_sq_to_subdiff(
        g_off, inst, w, tau
    ) == pytest.approx(dist_sq_to_subdiff(g, inst, w, tau), rel=1e-15)


def test_distance_over_leading_axes():
    inst = tiny_instance()
    w = np.array([0.3, 1.0, 0.5, 2.0, 1.0, 0.7])
    g = np.random.default_rng(4).standard_normal((2, 3, 6))
    batch = dist_sq_to_subdiff(g, inst, w, 0.8)
    assert batch.shape == (2, 3)
    for i in range(2):
        for j in range(3):
            single = dist_sq_to_subdiff(g[i, j], inst, w, 0.8)
            assert batch[i, j] == pytest.approx(single, rel=1e-15)
    with pytest.raises(ValueError):
        dist_sq_to_subdiff(g[..., :5], inst, w, 0.8)


def test_distance_accepts_blockwise_weights():
    inst = generate_instance(K2, np.random.SeedSequence(1))
    g = np.random.default_rng(3).standard_normal(100)
    via_obj = dist_sq_to_subdiff(g, inst, UNIT2, 1.0)
    via_arr = dist_sq_to_subdiff(g, inst, np.ones(100), 1.0)
    assert via_obj == via_arr


# ------------------------------------------------------------- monte carlo


def test_mc_mean_matches_objective():
    tau = 1.14
    est, se = mc_expected_dist_sq(K2, UNIT2, tau, 20_000, seed=0)
    target = threshold_objective(K2, UNIT2, tau)
    assert abs(est - target) < 4 * se
    assert se < 0.01


def test_mc_at_tau_zero_estimates_one():
    # tau = 0 collapses the set to the origin, so the distance is |g|^2 and
    # the normalized expectation is exactly 1
    est, se = mc_expected_dist_sq(K2, UNIT2, 0.0, 5_000, seed=4)
    assert abs(est - 1.0) < 4 * se


def test_mc_is_deterministic():
    a = mc_expected_dist_sq(K2, UNIT2, 1.0, 3_000, seed=9)
    b = mc_expected_dist_sq(K2, UNIT2, 1.0, 3_000, seed=9)
    assert a == b


def test_mc_se_shrinks_with_samples():
    _, se_small = mc_expected_dist_sq(K2, UNIT2, 1.0, 2_000, seed=1)
    _, se_big = mc_expected_dist_sq(K2, UNIT2, 1.0, 32_000, seed=1)
    ratio = se_big / se_small
    assert 0.15 < ratio < 0.4  # expect roughly 1/4


def test_mc_input_validation():
    with pytest.raises(ValueError):
        mc_expected_dist_sq(K2, UNIT2, -0.5, 100, seed=0)
    with pytest.raises(ValueError):
        mc_expected_dist_sq(K2, UNIT2, 1.0, 1, seed=0)
    with pytest.raises(ValueError):
        mc_expected_dist_sq(K2, Weights((1.0,), (100,)), 1.0, 100, seed=0)

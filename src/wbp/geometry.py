"""Subdifferential geometry behind the threshold formula.

The statistical dimension of the descent cone of ||.||_{1,w} at a signal
x0 supported on T is, up to the sandwich slack, the infimum over tau of

    E dist^2(g, tau * subdiff ||x0||_{1,w}),   g ~ N(0, I_d),

and the squared distance has the closed per-coordinate form

    sum_{j in T}     (g_j - sign(x0_j) * w_j * tau)^2
  + sum_{j not in T} max(|g_j| - w_j * tau, 0)^2.

Its expectation, divided by d, reproduces exactly the objective J evaluated
by :func:`wbp.thresholds.threshold_objective`; the Monte Carlo estimator
here is the independent check of that identity.
"""

from __future__ import annotations

import numpy as np

from wbp.model import PartitionModel, SeedLike, SupportInstance, Weights, generate_instance

_CHUNK = 10_000


def _expanded(weights) -> np.ndarray:
    if isinstance(weights, Weights):
        return weights.expand()
    return np.asarray(weights, dtype=float)


def dist_sq_to_subdiff(g: np.ndarray, instance: SupportInstance, weights, tau: float):
    """Squared distance from g to tau times the weighted-l1 subdifferential at x0.

    The subdifferential at x0 is the product set {p : p_j = w_j sign(x0_j)
    on the support, |p_j| <= w_j off it}, so the projection of g decouples:
    on-support coordinates pay the full offset to the fixed point, off-support
    ones only the overshoot beyond the box.  ``g`` may carry leading axes
    (one sample per row); the last axis indexes coordinates.  Returns a float
    for a single sample and an array over the leading axes otherwise.
    """
    g = np.asarray(g, dtype=float)
    w = _expanded(weights)
    if g.ndim == 0 or g.shape[-1] != instance.d or w.shape != (instance.d,):
        raise ValueError("g and weights must expand to the instance dimension")
    if tau < 0.0:
        raise ValueError(f"tau must be non-negative, got {tau}")
    on = instance.support_mask
    fixed = g[..., on] - instance.signs * w[on] * tau
    slack = np.maximum(np.abs(g[..., ~on]) - w[~on] * tau, 0.0)
    vals = np.einsum("...j,...j->...", fixed, fixed) + np.einsum("...j,...j->...", slack, slack)
    return float(vals) if vals.ndim == 0 else vals


def mc_expected_dist_sq(
    model: PartitionModel,
    weights: Weights,
    tau: float,
    n_samples: int,
    seed: SeedLike,
) -> tuple[float, float]:
    """Monte Carlo estimate of d^-1 E dist^2(g, tau * subdiff) with standard error.

    The expectation depends neither on which indices inside each block form
    the support nor on the sign pattern, so one support draw serves all
    samples.  Gaussians are generated in chunks (pairwise-summed by numpy)
    to bound memory.  Deterministic given the seed.  Returns
    ``(estimate, standard_error)``.
    """
    if weights.block_sizes != model.blocks:
        raise ValueError("weights block sizes do not match the model partition")
    if n_samples < 2:
        raise ValueError("need at least 2 samples for a standard error")
    if tau < 0.0:
        raise ValueError(f"tau must be non-negative, got {tau}")
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    inst_ss, g_ss = ss.spawn(2)

    inst = generate_instance(model, inst_ss)

    rng = np.random.default_rng(g_ss)
    total = 0.0
    total_sq = 0.0
    done = 0
    while done < n_samples:
        n = min(_CHUNK, n_samples - done)
        vals = dist_sq_to_subdiff(rng.standard_normal((n, model.d)), inst, weights, tau)
        vals /= model.d
        total += vals.sum()
        total_sq += (vals * vals).sum()
        done += n
    mean = total / n_samples
    var = max(total_sq / n_samples - mean * mean, 0.0) * n_samples / (n_samples - 1)
    return mean, float(np.sqrt(var / n_samples))

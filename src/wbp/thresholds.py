"""Phase-transition thresholds for weighted l1-minimization.

With Gaussian measurements, exact recovery of a signal drawn from a
:class:`~wbp.model.PartitionModel` undergoes a sharp transition as the
number of measurements m crosses the statistical dimension of the descent
cone of the weighted l1 norm.  In normalized units (everything divided by
the ambient dimension d) the threshold is

    m_tilde = inf_{tau > 0} J(tau),
    J(tau)  = sigma + sum_i rho_i * (alpha_i * (omega_i tau)^2
                                     + (1 - alpha_i) * phi(omega_i tau)),

and the statistical dimension itself is sandwiched in
[d * m_tilde - 2 * sqrt(d / min(alpha)), d * m_tilde].

J is strictly convex in tau whenever some block weight is positive, with
J(0) = 1, so the infimum is attained at the unique zero of dJ/dtau (or at
tau -> 0+ in the degenerate fully-observed-weighted case).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from wbp.kernels import phi, phi_prime
from wbp.model import PartitionModel, Weights
from wbp.optimal import increasing_root, optimal_weight, optimal_weights, weight_objective

_TAU_TOL = 1e-12
_TAU_EDGE = 1e-8


@dataclass(frozen=True)
class ThresholdResult:
    """Minimizer and value of the threshold objective, with sandwich bounds.

    ``m_tilde`` is the normalized threshold; ``delta_lower`` and
    ``delta_upper`` bracket the normalized statistical dimension delta/d
    via the tight sandwich (lower slack (2/d) * sqrt(1/min alpha)).
    """

    tau_star: float
    m_tilde: float
    delta_lower: float
    delta_upper: float

    def measurements(self, d: int) -> float:
        """Threshold in measurement units, d * m_tilde."""
        return d * self.m_tilde


@dataclass(frozen=True)
class StatDimBounds:
    """Tight and loose sandwich intervals for the normalized stat dimension."""

    tight: tuple[float, float]
    loose: tuple[float, float]


def _check_weights(model: PartitionModel, weights: Weights) -> np.ndarray:
    if weights.block_sizes != model.blocks:
        raise ValueError("weights block sizes do not match the model partition")
    return np.asarray(weights.omega, dtype=float)


def threshold_objective(model: PartitionModel, weights: Weights, tau: float) -> float:
    """Evaluate J(tau) for the given model and per-block weights."""
    omega = _check_weights(model, weights)
    if not (tau >= 0.0):
        raise ValueError(f"tau must be non-negative, got {tau}")
    return weight_objective(model, tau * omega)


def _objective_derivative(model: PartitionModel, omega: np.ndarray, tau: float) -> float:
    alpha = np.asarray(model.alpha)
    rho = np.asarray(model.rho)
    v = tau * omega
    terms = rho * omega * (2.0 * alpha * v + (1.0 - alpha) * phi_prime(v))
    return float(terms.sum())


def minimize_threshold(model: PartitionModel, weights: Weights) -> ThresholdResult:
    """Minimize J over tau > 0 by bisection on the strictly increasing dJ/dtau.

    If the derivative is already non-negative at the left edge (possible
    only when every positively weighted block is fully observed), the
    infimum sits at tau -> 0+ and is reported as tau_star = 0 with
    m_tilde = J(0).
    """
    omega = _check_weights(model, weights)
    if not np.any(omega > 0.0):
        raise ValueError("at least one block weight must be positive")

    def deriv(tau: float) -> float:
        return _objective_derivative(model, omega, tau)

    if deriv(_TAU_EDGE) >= 0.0:
        tau_star = 0.0
    else:
        tau_star = increasing_root(deriv, _TAU_EDGE, _TAU_TOL)
    m_tilde = threshold_objective(model, weights, tau_star)
    lower = m_tilde - (2.0 / model.d) * math.sqrt(1.0 / min(model.alpha))
    return ThresholdResult(
        tau_star=tau_star,
        m_tilde=m_tilde,
        delta_lower=lower,
        delta_upper=m_tilde,
    )


def statdim_bounds(model: PartitionModel, result: ThresholdResult) -> StatDimBounds:
    """Tight and loose sandwich intervals around the statistical dimension.

    The loose interval replaces the slack 2 sqrt(1 / min alpha) / d by
    2 / sqrt(d); it never beats the tight one because d * min(alpha) >= 1
    (the least observed block still contains a whole support index).
    """
    tight = (result.delta_lower, result.m_tilde)
    loose = (result.m_tilde - 2.0 / math.sqrt(model.d), result.m_tilde)
    return StatDimBounds(tight=tight, loose=loose)


def l1_threshold(s: int, d: int) -> float:
    """Normalized threshold mu_{s,d} of plain l1 recovery of s-sparse signals.

    This is the k = 1 case with unit weight, J(tau) = alpha (1 + tau^2) +
    (1 - alpha) phi(tau) with alpha = s/d.  Its stationarity condition is
    the optimal-weight equation, so the minimizer is ``optimal_weight(s/d)``
    and no root find of its own is needed.  This is the statistical
    dimension of the l1 descent cone divided by d (Amelunxen, Lotz, McCoy &
    Tropp 2014).  s = 0 gives 0 (the descent cone of the zero vector under
    any norm has statistical dimension 0 in normalized units).  Requires
    0 <= s < d.
    """
    if not (isinstance(s, (int, np.integer)) and isinstance(d, (int, np.integer))):
        raise ValueError("s and d must be integers")
    if not (0 <= s < d):
        raise ValueError(f"need 0 <= s < d, got s={s}, d={d}")
    if s == 0:
        return 0.0
    alpha = s / d
    w = optimal_weight(alpha)
    return alpha * (1.0 + w * w) + (1.0 - alpha) * phi(w)


def blockwise_threshold(model: PartitionModel) -> float:
    """Threshold under optimal weights, synthesized from per-block l1 thresholds.

    Optimally weighted recovery decouples: each block's raw optimal weight
    is the minimizer of its own plain-l1 threshold, so with tau = 1 at the
    raw weights J splits into sum_i rho_i * mu_{alpha_i |S_i|, |S_i|}, each
    block paying the plain l1 price of its own sparsity.  Fully observed
    blocks have weight 0 and contribute exactly their size fraction.
    Agrees with ``minimize_threshold(model, optimal weights)`` to solver
    tolerance.
    """
    return weight_objective(model, optimal_weights(model).raw)


def phase_window(d: int, eta: float) -> float:
    """Width sqrt(8 log(4 / eta)) * sqrt(d) of the transition band.

    Success probability is at least 1 - eta above the threshold plus this
    many measurements and at most eta the same distance below it.
    """
    if not (isinstance(d, (int, np.integer)) and d >= 1):
        raise ValueError("d must be a positive integer")
    if not (0.0 < eta < 1.0):
        raise ValueError(f"eta must lie in (0, 1), got {eta}")
    return math.sqrt(8.0 * math.log(4.0 / eta)) * math.sqrt(d)

"""Optimal per-block weights, computed one block at a time.

For a block with support fraction ``alpha``, the weight minimizing the
block's contribution to the phase-transition threshold solves

    alpha * w = (1 - alpha) * sqrt(2/pi) * integral_w^inf (x - w) e^{-x^2/2} dx.

The right-hand side equals -(1 - alpha) * phi'(w) / 2, so the optimal
weight is the unique root of

    f(w) = alpha * w + (1 - alpha) * phi'(w) / 2.

f is strictly increasing (f'(w) = alpha + (1 - alpha) * erfc(w/sqrt(2)) > 0)
with f(0) = -(1 - alpha) * sqrt(2/pi) < 0 for alpha < 1, so bisection on a
doubling bracket converges unconditionally.  Fully observed blocks
(alpha = 1) get weight exactly 0.  The root depends only on alpha, never on
the block's size fraction, so the weights decouple across blocks.

The same root is the minimizer of the block's plain-l1 threshold (the k = 1
objective under unit weight), so at the raw optimal weights the threshold
splits into per-block plain-l1 thresholds: :func:`weight_objective` at
``optimal_weights(model).raw`` is the optimal threshold itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from wbp.kernels import phi, phi_prime
from wbp.model import PartitionModel, Weights

_BISECT_TOL = 1e-12
_RESIDUAL_TOL = 1e-10


def increasing_root(f, lo: float, tol: float = _BISECT_TOL) -> float:
    """Root of a strictly increasing ``f`` with ``f(lo) < 0``, to width ``tol``.

    Doubles the right end from 1 until ``f`` turns non-negative, then bisects
    on the invariant ``f(lo) < 0 <= f(hi)`` and returns the midpoint.
    """
    hi = 1.0
    doublings = 0
    while f(hi) < 0.0:
        lo, hi = hi, 2.0 * hi
        doublings += 1
        if doublings > 60:  # pragma: no cover - both callers grow linearly
            raise RuntimeError("failed to bracket the root")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if f(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _fixed_point_residual(w: float, alpha: float) -> float:
    return alpha * w + (1.0 - alpha) * 0.5 * phi_prime(w)


def optimal_weight(alpha: float, tol: float = _BISECT_TOL) -> float:
    """Solve the fixed-point equation for one block's optimal weight.

    Returns 0.0 exactly when ``alpha == 1``.  Raises ``ValueError`` for
    alpha outside (0, 1] and ``RuntimeError`` if the final residual is not
    below 1e-10 (which would indicate a broken bracket, not a tight
    tolerance).
    """
    if not (0.0 < alpha <= 1.0):
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    if alpha == 1.0:
        return 0.0
    root = increasing_root(lambda w: _fixed_point_residual(w, alpha), 0.0, tol)
    residual = _fixed_point_residual(root, alpha)
    if abs(residual) > _RESIDUAL_TOL:  # pragma: no cover
        raise RuntimeError(
            f"optimal weight residual {residual:.3e} exceeds {_RESIDUAL_TOL:.0e}"
        )
    return root


@dataclass(frozen=True)
class OptimalWeights:
    """Raw fixed-point roots per block and their max-normalized form."""

    raw: tuple[float, ...]
    normalized: tuple[float, ...]
    residuals: tuple[float, ...]

    def as_weights(self, model: PartitionModel) -> Weights:
        return Weights(omega=self.normalized, block_sizes=model.blocks)


def optimal_weights(model: PartitionModel) -> OptimalWeights:
    """Optimal weights for every block of ``model``.

    Normalization divides by the largest raw weight, which rescales the
    program without changing its minimizer.  A model whose blocks are all
    fully observed has no normalizable weights and is rejected (such a
    model would have sigma = 1 and cannot be constructed anyway).
    """
    raw = tuple(optimal_weight(a) for a in model.alpha)
    top = max(raw)
    if top == 0.0:  # pragma: no cover - unreachable for valid models
        raise ValueError("all blocks fully observed; optimal weights vanish")
    normalized = tuple(w / top for w in raw)
    residuals = tuple(_fixed_point_residual(w, a) for w, a in zip(raw, model.alpha))
    return OptimalWeights(raw=raw, normalized=normalized, residuals=residuals)


def weight_objective(model: PartitionModel, v) -> float:
    """Normalized threshold objective as a function of per-block levels ``v``.

    Evaluates sigma + sum_i rho_i * (alpha_i * v_i^2 + (1 - alpha_i) * phi(v_i)),
    the predicted measurement fraction when block i is effectively weighted
    at level v_i.  At v = 0 this is exactly 1 (no weighting gain); it is
    jointly convex in v.
    """
    arr = np.asarray(v, dtype=float)
    if arr.shape != (model.k,):
        raise ValueError(f"expected {model.k} weight levels, got shape {arr.shape}")
    if np.any(arr < 0.0):
        raise ValueError("weight levels must be non-negative")
    alpha = np.asarray(model.alpha)
    rho = np.asarray(model.rho)
    terms = rho * (alpha * arr * arr + (1.0 - alpha) * phi(arr))
    return float(model.sigma + terms.sum())

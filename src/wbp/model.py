"""Problem data model: block partitions, support priors, weights, instances.

The ambient index set {0, ..., d-1} is split into k contiguous blocks.  Block
i has size ``blocks[i]`` and a known fraction ``alpha[i]`` of its indices
belonging to the support of the signal to recover.  Everything downstream
(weight choice, threshold prediction, instance generation) is parameterized
by this partition.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Sequence, Union

import numpy as np

SeedLike = Union[int, Sequence[int], np.random.SeedSequence, np.random.Generator]

# Slack allowed when checking that alpha_i * blocks[i] is an integer count.
_COUNT_TOL = 1e-9

STRATEGY_KINDS = ("unit", "zero_one", "one_minus_alpha", "optimal")


def parse_fraction(value) -> float:
    """Parse a number given as a float, int, or fraction string like ``"7/90"``.

    Fraction syntax lets callers state block fractions exactly, so that
    alpha_i * blocks[i] round-trips to an integer support count.
    """
    if isinstance(value, (int, float)):
        return float(value)
    text = str(value).strip()
    if "/" in text:
        return float(Fraction(text))
    return float(text)


@dataclass(frozen=True)
class PartitionModel:
    """Contiguous partition of ``d`` indices with per-block support fractions.

    ``alpha[i] * blocks[i]`` must be a (positive) integer: it counts the
    support indices falling in block i.  The overall sparsity fraction is
    ``sigma = s / d < 1``.
    """

    d: int
    blocks: tuple[int, ...]
    alpha: tuple[float, ...]

    def __post_init__(self):
        if not isinstance(self.d, int) or self.d <= 0:
            raise ValueError("d must be a positive integer")
        if len(self.blocks) == 0 or len(self.blocks) != len(self.alpha):
            raise ValueError("blocks and alpha must be non-empty and equally long")
        if any((not isinstance(b, int)) or b <= 0 for b in self.blocks):
            raise ValueError("block sizes must be positive integers")
        if sum(self.blocks) != self.d:
            raise ValueError(f"block sizes sum to {sum(self.blocks)}, expected d={self.d}")
        for a in self.alpha:
            if not (0.0 < a <= 1.0):
                raise ValueError(f"alpha entries must lie in (0, 1], got {a}")
        for a, b in zip(self.alpha, self.blocks):
            count = a * b
            if abs(count - round(count)) > _COUNT_TOL * max(1.0, b):
                raise ValueError(
                    f"alpha*size must be an integer support count, got {a} * {b} = {count}"
                )
        if self.s >= self.d:
            raise ValueError("total sparsity must satisfy s < d")

    @property
    def k(self) -> int:
        return len(self.blocks)

    @property
    def rho(self) -> tuple[float, ...]:
        """Block size fractions |S_i| / d."""
        return tuple(b / self.d for b in self.blocks)

    @property
    def support_counts(self) -> tuple[int, ...]:
        """Number of support indices per block, alpha_i * |S_i|."""
        return tuple(int(round(a * b)) for a, b in zip(self.alpha, self.blocks))

    @property
    def s(self) -> int:
        """Total sparsity of generated signals."""
        return sum(self.support_counts)

    @property
    def sigma(self) -> float:
        """Overall sparsity fraction s / d."""
        return self.s / self.d

    @property
    def block_ranges(self) -> tuple[tuple[int, int], ...]:
        """Half-open index ranges [start, stop) of each block."""
        edges = np.concatenate(([0], np.cumsum(self.blocks)))
        return tuple((int(a), int(b)) for a, b in zip(edges[:-1], edges[1:]))

    def block_of_index(self) -> np.ndarray:
        """Length-d array mapping each index to its block."""
        return np.repeat(np.arange(self.k), self.blocks)


def make_model(d: int, blocks: Sequence[int], alpha: Sequence) -> PartitionModel:
    """Validate and build a :class:`PartitionModel`.

    ``alpha`` entries may be numbers or fraction strings such as ``"7/90"``.
    """
    return PartitionModel(
        d=int(d),
        blocks=tuple(int(b) for b in blocks),
        alpha=tuple(parse_fraction(a) for a in alpha),
    )


@dataclass(frozen=True)
class Weights:
    """One non-negative weight per block plus the block sizes it expands over."""

    omega: tuple[float, ...]
    block_sizes: tuple[int, ...]

    def __post_init__(self):
        if len(self.omega) == 0 or len(self.omega) != len(self.block_sizes):
            raise ValueError("omega and block_sizes must be non-empty and equally long")
        for w in self.omega:
            if not np.isfinite(w) or w < 0.0:
                raise ValueError(f"weights must be finite and non-negative, got {w}")
        if any((not isinstance(b, int)) or b <= 0 for b in self.block_sizes):
            raise ValueError("block sizes must be positive integers")

    @property
    def k(self) -> int:
        return len(self.omega)

    @property
    def d(self) -> int:
        return sum(self.block_sizes)

    def expand(self) -> np.ndarray:
        """Per-index weight vector of length d."""
        return np.repeat(np.asarray(self.omega, dtype=float), self.block_sizes)


@dataclass(frozen=True)
class Strategy:
    """A named rule for choosing weights, optionally after merging blocks.

    kind
        One of ``unit`` (all ones), ``zero_one`` (zero on ``zero_blocks``,
        one elsewhere), ``one_minus_alpha`` (1 - alpha_i on all but the last
        block, 1 on the last), ``optimal`` (fixed-point optimal weights).
    merge
        Optional tuple of block indices to pool into a single block before
        the rule is applied; the merged block keeps the position of its
        first member.
    zero_blocks
        For ``zero_one`` only: blocks that receive weight zero.  Defaults to
        every block except the last.
    """

    kind: str
    merge: Optional[tuple[int, ...]] = None
    zero_blocks: Optional[tuple[int, ...]] = None

    def __post_init__(self):
        if self.kind not in STRATEGY_KINDS:
            raise ValueError(f"unknown strategy kind {self.kind!r}")
        if self.zero_blocks is not None and self.kind != "zero_one":
            raise ValueError("zero_blocks only applies to the zero_one strategy")
        if self.merge is not None:
            if len(self.merge) < 2 or len(set(self.merge)) != len(self.merge):
                raise ValueError("merge must list at least two distinct blocks")

    @property
    def label(self) -> str:
        """Stable, CSV-safe name used in experiment output."""
        parts = []
        if self.merge is not None:
            parts.append("merge" + "-".join(str(i) for i in self.merge))
        name = self.kind
        if self.zero_blocks is not None:
            name += "[" + "-".join(str(i) for i in self.zero_blocks) + "]"
        parts.append(name)
        return "+".join(parts)

    @staticmethod
    def from_spec(obj) -> "Strategy":
        """Build a strategy from a plain string or a JSON-style dict."""
        if isinstance(obj, Strategy):
            return obj
        if isinstance(obj, str):
            return Strategy(kind=obj)
        if isinstance(obj, dict):
            merge = obj.get("merge")
            zero = obj.get("zero_blocks")
            return Strategy(
                kind=obj["kind"],
                merge=None if merge is None else tuple(int(i) for i in merge),
                zero_blocks=None if zero is None else tuple(int(i) for i in zero),
            )
        raise ValueError(f"cannot interpret strategy spec {obj!r}")


def merge_blocks(model: PartitionModel, merge: Sequence[int]) -> tuple[PartitionModel, tuple[int, ...]]:
    """Pool the listed blocks of ``model`` into one block.

    Sizes add and support counts add, so the merged fraction is the
    count-weighted average of the member fractions.  Returns the merged
    model together with a map from original block index to merged block
    index.  The merged block sits at the position of its lowest-indexed
    member; sigma is unchanged.
    """
    merge = tuple(int(i) for i in merge)
    if len(merge) < 2 or len(set(merge)) != len(merge):
        raise ValueError("merge must list at least two distinct blocks")
    for i in merge:
        if not (0 <= i < model.k):
            raise ValueError(f"merge index {i} out of range for k={model.k}")
    member = set(merge)
    sizes: list[int] = []
    counts: list[int] = []
    block_map: list[int] = []
    merged_pos = -1
    for i in range(model.k):
        if i in member:
            if merged_pos < 0:
                merged_pos = len(sizes)
                sizes.append(0)
                counts.append(0)
            sizes[merged_pos] += model.blocks[i]
            counts[merged_pos] += model.support_counts[i]
            block_map.append(merged_pos)
        else:
            block_map.append(len(sizes))
            sizes.append(model.blocks[i])
            counts.append(model.support_counts[i])
    alpha = tuple(c / b for c, b in zip(counts, sizes))
    merged = PartitionModel(d=model.d, blocks=tuple(sizes), alpha=alpha)
    return merged, tuple(block_map)


def weights_for_strategy(model: PartitionModel, strategy: Strategy) -> Weights:
    """Apply a strategy's weight rule to ``model`` (no merging here).

    ``zero_one`` puts weight 0 on the designated blocks (default: all but
    the last) and 1 elsewhere.  ``one_minus_alpha`` uses 1 - alpha_i on all
    but the last block and 1 on the last.  ``optimal`` solves the per-block
    fixed-point equation and normalizes so the largest weight is 1.
    """
    k = model.k
    if strategy.kind == "unit":
        omega = (1.0,) * k
    elif strategy.kind == "zero_one":
        zero = strategy.zero_blocks
        if zero is None:
            zero = tuple(range(k - 1))
        for i in zero:
            if not (0 <= i < k):
                raise ValueError(f"zero_blocks index {i} out of range for k={k}")
        if len(zero) == k:
            raise ValueError("zero_one strategy requires at least one nonzero weight")
        omega = tuple(0.0 if i in set(zero) else 1.0 for i in range(k))
    elif strategy.kind == "one_minus_alpha":
        omega = tuple(1.0 - model.alpha[i] for i in range(k - 1)) + (1.0,)
    elif strategy.kind == "optimal":
        from wbp.optimal import optimal_weights

        omega = optimal_weights(model).normalized
    else:  # pragma: no cover - guarded by Strategy validation
        raise ValueError(f"unknown strategy kind {strategy.kind!r}")
    return Weights(omega=omega, block_sizes=model.blocks)


@dataclass(frozen=True)
class AppliedStrategy:
    """A strategy resolved against a concrete model.

    ``effective_model`` is the (possibly merged) partition the weight rule
    saw, with ``weights`` aligned to its blocks.  ``original_weights`` maps
    the same per-index weights back onto the source model's blocks, which
    is what the solver needs when instances come from the original model.
    """

    strategy: Strategy
    effective_model: PartitionModel
    weights: Weights
    original_weights: Weights


@lru_cache(maxsize=128)
def apply_strategy(model: PartitionModel, strategy: Strategy) -> AppliedStrategy:
    """Resolve ``strategy`` against ``model``, handling the optional merge."""
    if strategy.merge is None:
        w = weights_for_strategy(model, strategy)
        return AppliedStrategy(strategy, model, w, w)
    merged, block_map = merge_blocks(model, strategy.merge)
    base = Strategy(kind=strategy.kind, zero_blocks=strategy.zero_blocks)
    w = weights_for_strategy(merged, base)
    original = Weights(
        omega=tuple(w.omega[block_map[i]] for i in range(model.k)),
        block_sizes=model.blocks,
    )
    return AppliedStrategy(strategy, merged, w, original)


@dataclass(frozen=True, eq=False)
class SupportInstance:
    """One random sparse signal drawn to match a model's support counts."""

    d: int
    support: np.ndarray  # sorted global indices of the support
    values: np.ndarray  # nonzero entries, aligned with ``support``

    @property
    def signs(self) -> np.ndarray:
        return np.sign(self.values)

    @property
    def x0(self) -> np.ndarray:
        """Dense signal vector."""
        x = np.zeros(self.d)
        x[self.support] = self.values
        return x

    @property
    def support_mask(self) -> np.ndarray:
        mask = np.zeros(self.d, dtype=bool)
        mask[self.support] = True
        return mask


def generate_instance(model: PartitionModel, seed: SeedLike) -> SupportInstance:
    """Draw a support uniformly per block and i.i.d. standard normal values.

    Exactly ``alpha_i * blocks[i]`` support indices are chosen (without
    replacement) inside block i, so every instance realizes the model's
    counts exactly.  Values are resampled in the measure-zero event of an
    exact zero.
    """
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    parts = []
    for (start, stop), count in zip(model.block_ranges, model.support_counts):
        parts.append(rng.choice(np.arange(start, stop), size=count, replace=False))
    support = np.sort(np.concatenate(parts))
    values = rng.standard_normal(support.size)
    while np.any(values == 0.0):
        redo = values == 0.0
        values[redo] = rng.standard_normal(int(redo.sum()))
    return SupportInstance(d=model.d, support=support, values=values)

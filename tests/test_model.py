"""Tests for the partition model, weighting strategies, and instance sampling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wbp import (
    PartitionModel,
    Strategy,
    Weights,
    apply_strategy,
    generate_instance,
    make_model,
    merge_blocks,
    parse_fraction,
    weights_for_strategy,
)

K2 = make_model(100, (10, 90), (0.5, "5/90"))
K4 = make_model(100, (5, 10, 15, 70), ("4/5", "3/10", "2/15", "1/70"))


# ---------------------------------------------------------------- fractions


def test_parse_fraction_forms():
    assert parse_fraction("5/90") == 5.0 / 90.0
    assert parse_fraction(0.3) == 0.3
    assert parse_fraction(1) == 1.0
    assert parse_fraction("0.25") == 0.25


def test_parse_fraction_rejects_garbage():
    with pytest.raises(ValueError):
        parse_fraction("five over ninety")


# ------------------------------------------------------------------- model


def test_model_basic_properties():
    assert K2.k == 2
    assert K2.d == 100
    assert K2.support_counts == (5, 5)
    assert K2.s == 10
    assert K2.sigma == pytest.approx(0.1)
    np.testing.assert_allclose(K2.rho, (0.1, 0.9))
    assert K2.block_ranges == ((0, 10), (10, 100))


def test_k4_model_sigma():
    assert K4.support_counts == (4, 3, 2, 1)
    assert K4.sigma == pytest.approx(0.1)


def test_block_of_index():
    blocks = K2.block_of_index()
    assert blocks.shape == (100,)
    assert blocks[0] == 0 and blocks[9] == 0
    assert blocks[10] == 1 and blocks[99] == 1


def test_model_rejects_bad_partitions():
    with pytest.raises(ValueError):
        make_model(100, (10, 80), (0.5, 0.1))  # sizes do not cover d
    with pytest.raises(ValueError):
        make_model(100, (10, 90), (0.5,))  # length mismatch
    with pytest.raises(ValueError):
        make_model(0, (), ())


def test_model_rejects_alpha_out_of_range():
    with pytest.raises(ValueError):
        make_model(100, (10, 90), (1.5, 0.1))
    with pytest.raises(ValueError):
        make_model(100, (10, 90), (0.0, "9/90"))
    with pytest.raises(ValueError):
        make_model(100, (10, 90), (-0.3, "9/90"))


def test_model_rejects_non_integer_support_counts():
    with pytest.raises(ValueError):
        make_model(100, (10, 90), (0.33, "5/90"))


def test_model_rejects_saturated_support():
    # alpha identically 1 makes T = [d], violating |T| < d
    with pytest.raises(ValueError):
        make_model(10, (10,), (1.0,))


def test_full_prior_block_is_allowed():
    m = make_model(20, (4, 16), (1.0, "4/16"))
    assert m.support_counts == (4, 4)
    assert m.s == 8


# ------------------------------------------------------------------ weights


def test_weights_expand_repeats_blockwise():
    w = Weights((0.5, 2.0), (3, 2))
    np.testing.assert_array_equal(w.expand(), [0.5, 0.5, 0.5, 2.0, 2.0])


# --------------------------------------------------------------- strategies


def test_unit_strategy():
    w = weights_for_strategy(K2, Strategy("unit"))
    assert w.omega == (1.0, 1.0)


def test_zero_one_strategy_defaults_to_zeroing_estimate_blocks():
    w = weights_for_strategy(K2, Strategy("zero_one"))
    assert w.omega == (0.0, 1.0)
    w4 = weights_for_strategy(K4, Strategy("zero_one"))
    assert w4.omega == (0.0, 0.0, 0.0, 1.0)


def test_zero_one_strategy_explicit_blocks():
    w = weights_for_strategy(K4, Strategy("zero_one", zero_blocks=(1,)))
    assert w.omega == (1.0, 0.0, 1.0, 1.0)


def test_zero_one_rejects_all_zero():
    with pytest.raises(ValueError):
        weights_for_strategy(K2, Strategy("zero_one", zero_blocks=(0, 1)))


def test_one_minus_alpha_strategy():
    m = make_model(100, (10, 90), (0.3, "7/90"))
    w = weights_for_strategy(m, Strategy("one_minus_alpha"))
    np.testing.assert_allclose(w.omega, (0.7, 1.0))


def test_strategy_label_is_csv_safe():
    s = Strategy("optimal", merge=(0, 1, 2))
    assert "," not in s.label
    assert s.label == "merge0-1-2+optimal"
    assert Strategy("unit").label == "unit"


def test_strategy_from_spec():
    assert Strategy.from_spec("unit") == Strategy("unit")
    s = Strategy.from_spec({"kind": "optimal", "merge": [0, 1]})
    assert s.merge == (0, 1)


def test_strategy_rejects_unknown_kind():
    with pytest.raises(ValueError):
        Strategy("fancy")


# ------------------------------------------------------------------- merges


def test_merge_blocks_pools_sizes_and_counts():
    merged, block_map = merge_blocks(K4, (0, 1, 2))
    assert merged.blocks == (30, 70)
    assert merged.support_counts == (9, 1)
    assert block_map == (0, 0, 0, 1)


def test_merge_preserves_sigma():
    merged, _ = merge_blocks(K4, (1, 3))
    assert merged.sigma == pytest.approx(K4.sigma)


def test_merge_nonadjacent_blocks():
    merged, block_map = merge_blocks(K4, (0, 2))
    assert merged.blocks == (20, 10, 70)
    assert block_map == (0, 1, 0, 2)


def test_merge_rejects_bad_subsets():
    with pytest.raises(ValueError):
        merge_blocks(K4, ())
    with pytest.raises(ValueError):
        merge_blocks(K4, (0, 0))
    with pytest.raises(ValueError):
        merge_blocks(K4, (0, 9))


def test_apply_strategy_maps_weights_back():
    applied = apply_strategy(K4, Strategy("optimal", merge=(0, 1, 2)))
    assert applied.effective_model.blocks == (30, 70)
    # the merged block's weight is copied to each original member block
    np.testing.assert_allclose(applied.original_weights.omega[:3],
                               [applied.weights.omega[0]] * 3)
    assert applied.original_weights.omega[3] == applied.weights.omega[1]
    assert applied.original_weights.block_sizes == K4.blocks


def test_apply_strategy_without_merge_keeps_the_model():
    applied = apply_strategy(K2, Strategy("unit"))
    assert applied.effective_model == K2
    assert applied.weights.omega == (1.0, 1.0)
    assert applied.original_weights == applied.weights


# ---------------------------------------------------------------- instances


def test_instance_counts_match_model():
    inst = generate_instance(K4, np.random.SeedSequence(1))
    for i, (lo, hi) in enumerate(K4.block_ranges):
        in_block = [j for j in inst.support if lo <= j < hi]
        assert len(in_block) == K4.support_counts[i]


def test_instance_is_deterministic():
    a = generate_instance(K2, np.random.SeedSequence(42))
    b = generate_instance(K2, np.random.SeedSequence(42))
    np.testing.assert_array_equal(a.support, b.support)
    np.testing.assert_array_equal(a.values, b.values)


def test_instance_varies_with_seed():
    a = generate_instance(K2, np.random.SeedSequence(0))
    b = generate_instance(K2, np.random.SeedSequence(1))
    assert not (np.array_equal(a.support, b.support)
                and np.array_equal(a.values, b.values))


def test_instance_x0_and_masks():
    inst = generate_instance(K2, np.random.SeedSequence(7))
    x0 = inst.x0
    assert x0.shape == (100,)
    mask = inst.support_mask
    assert mask.sum() == K2.s
    assert np.all(x0[~mask] == 0.0)
    assert np.all(x0[mask] != 0.0)
    np.testing.assert_array_equal(np.sign(x0[inst.support]), inst.signs)


def test_instance_block_of():
    inst = generate_instance(K4, np.random.SeedSequence(3))
    block_of = K4.block_of_index()
    for j in inst.support:
        lo, hi = K4.block_ranges[block_of[j]]
        assert lo <= j < hi


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_instance_counts_property(seed):
    inst = generate_instance(K2, np.random.SeedSequence(seed))
    assert len(inst.support) == K2.s
    assert len(set(inst.support.tolist())) == K2.s

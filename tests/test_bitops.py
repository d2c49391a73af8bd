"""Tests for bit-level fault primitives."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.quant.bitops import (
    OP_CLEAR,
    OP_FLIP,
    OP_SET,
    _CHOICE_POPULATION_LIMIT,
    apply_bit_ops,
    apply_stuck_at,
    clear_bits,
    flip_bits,
    random_bit_positions,
    scatter_bits,
    set_bits,
)
from repro.quant.qformat import QFormat


class TestFlipBits:
    def test_single_flip(self):
        raw = np.array([0b0000], dtype=np.int64)
        out = flip_bits(raw, np.array([0]), np.array([2]), total_bits=8)
        assert out[0] == 0b0100

    def test_double_flip_same_bit_cancels(self):
        raw = np.array([0b1010], dtype=np.int64)
        out = flip_bits(raw, np.array([0, 0]), np.array([1, 1]), total_bits=8)
        assert out[0] == 0b1010

    def test_input_not_modified(self):
        raw = np.array([1, 2, 3], dtype=np.int64)
        flip_bits(raw, np.array([1]), np.array([0]), total_bits=8)
        assert raw.tolist() == [1, 2, 3]

    def test_flip_on_2d_array_uses_flat_indexing(self):
        raw = np.zeros((2, 3), dtype=np.int64)
        out = flip_bits(raw, np.array([4]), np.array([0]), total_bits=8)
        assert out[1, 1] == 1

    def test_out_of_range_bit_rejected(self):
        raw = np.zeros(2, dtype=np.int64)
        with pytest.raises(ValueError):
            flip_bits(raw, np.array([0]), np.array([8]), total_bits=8)

    def test_mismatched_shapes_rejected(self):
        raw = np.zeros(2, dtype=np.int64)
        with pytest.raises(ValueError):
            flip_bits(raw, np.array([0, 1]), np.array([1]), total_bits=8)

    def test_out_of_range_element_rejected(self):
        raw = np.zeros(4, dtype=np.int64)
        with pytest.raises(ValueError, match=r"element indices must lie in \[0, 4\)"):
            flip_bits(raw, np.array([4]), np.array([0]), total_bits=8)

    def test_negative_element_rejected(self):
        raw = np.zeros(4, dtype=np.int64)
        with pytest.raises(ValueError, match="element indices"):
            flip_bits(raw, np.array([-1]), np.array([0]), total_bits=8)


class TestStuckAt:
    def test_set_bits(self):
        raw = np.array([0b0000], dtype=np.int64)
        out = set_bits(raw, np.array([0]), np.array([3]), total_bits=8)
        assert out[0] == 0b1000

    def test_clear_bits(self):
        raw = np.array([0b1111], dtype=np.int64)
        out = clear_bits(raw, np.array([0]), np.array([1]), total_bits=8)
        assert out[0] == 0b1101

    def test_stuck_at_idempotent(self):
        raw = np.array([0b0101], dtype=np.int64)
        once = apply_stuck_at(raw, np.array([0]), np.array([1]), 1, total_bits=8)
        twice = apply_stuck_at(once, np.array([0]), np.array([1]), 1, total_bits=8)
        assert np.array_equal(once, twice)

    def test_stuck_at_invalid_value(self):
        raw = np.zeros(1, dtype=np.int64)
        with pytest.raises(ValueError):
            apply_stuck_at(raw, np.array([0]), np.array([0]), 2, total_bits=8)

    def test_set_bits_mismatched_shapes_rejected(self):
        raw = np.zeros(2, dtype=np.int64)
        with pytest.raises(ValueError, match="same shape"):
            set_bits(raw, np.array([0, 1]), np.array([1]), total_bits=8)

    def test_clear_bits_mismatched_shapes_rejected(self):
        raw = np.zeros(2, dtype=np.int64)
        with pytest.raises(ValueError, match="same shape"):
            clear_bits(raw, np.array([0, 1]), np.array([1]), total_bits=8)

    def test_set_bits_out_of_range_element_rejected(self):
        raw = np.zeros(2, dtype=np.int64)
        with pytest.raises(ValueError, match="element indices"):
            set_bits(raw, np.array([7]), np.array([1]), total_bits=8)


class TestApplyBitOps:
    def test_fused_equals_per_kind_calls(self):
        rng = np.random.default_rng(5)
        raw = rng.integers(0, 256, size=20).astype(np.int64)
        # Distinct sites per op kind (the fused-path contract).
        elements = np.array([0, 3, 5, 7, 11, 13], dtype=np.int64)
        bits = np.array([0, 7, 3, 1, 6, 4], dtype=np.int64)
        ops = np.array(
            [OP_FLIP, OP_FLIP, OP_SET, OP_SET, OP_CLEAR, OP_CLEAR], dtype=np.int64
        )
        fused = apply_bit_ops(raw, elements, bits, ops, total_bits=8)
        expected = flip_bits(raw, elements[:2], bits[:2], total_bits=8)
        expected = set_bits(expected, elements[2:4], bits[2:4], total_bits=8)
        expected = clear_bits(expected, elements[4:], bits[4:], total_bits=8)
        assert np.array_equal(fused, expected)
        assert not np.shares_memory(fused, raw)

    def test_empty_ops_is_identity(self):
        raw = np.arange(4, dtype=np.int64)
        out = apply_bit_ops(
            raw, np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0, np.int64), 8
        )
        assert np.array_equal(out, raw)

    def test_invalid_op_code_rejected(self):
        raw = np.zeros(2, dtype=np.int64)
        with pytest.raises(ValueError, match="op_codes"):
            apply_bit_ops(raw, np.array([0]), np.array([0]), np.array([9]), 8)

    def test_mismatched_op_shape_rejected(self):
        raw = np.zeros(2, dtype=np.int64)
        with pytest.raises(ValueError, match="op_codes"):
            apply_bit_ops(raw, np.array([0]), np.array([0]), np.array([0, 1]), 8)


class TestRandomBitPositions:
    def test_zero_ber_gives_no_faults(self, rng):
        elements, bits = random_bit_positions(100, 8, 0.0, rng)
        assert elements.size == 0 and bits.size == 0

    def test_full_ber_faults_every_bit(self, rng):
        elements, bits = random_bit_positions(10, 8, 1.0, rng)
        assert elements.size == 80
        # Each (element, bit) pair is unique.
        assert len({(e, b) for e, b in zip(elements.tolist(), bits.tolist())}) == 80

    def test_expected_count_approximate(self, rng):
        counts = [random_bit_positions(1000, 8, 0.01, rng)[0].size for _ in range(50)]
        assert 60 <= np.mean(counts) * 1 <= 100  # expectation is 80 faults

    def test_invalid_ber_rejected(self, rng):
        with pytest.raises(ValueError):
            random_bit_positions(10, 8, 1.5, rng)

    def test_max_faults_cap(self, rng):
        elements, _ = random_bit_positions(100, 8, 1.0, rng, max_faults=5)
        assert elements.size == 5

    def test_bit_positions_within_word(self, rng):
        _, bits = random_bit_positions(50, 12, 0.5, rng)
        assert bits.min() >= 0 and bits.max() < 12

    def test_small_population_keeps_historical_choice_draw(self):
        # Seed compatibility: below the population threshold the sampler must
        # consume the RNG exactly like the original rng.choice formulation,
        # so every existing figure seed reproduces its historical fault sites.
        elements, bits = random_bit_positions(100, 8, 0.05, np.random.default_rng(77))
        rng = np.random.default_rng(77)
        expected = 100 * 8 * 0.05
        n = int(np.floor(expected))
        if rng.random() < expected - n:
            n += 1
        flat = rng.choice(800, size=n, replace=False)
        assert np.array_equal(elements, flat // 8)
        assert np.array_equal(bits, flat % 8)

    def test_large_population_pinned_golden_draw(self):
        # The >2**20-bit rejection-sampling path is a *different* draw from
        # rng.choice for the same seed; pin it so it can never drift silently.
        elements, bits = random_bit_positions(
            200_000, 16, 1e-5, np.random.default_rng(1234), max_faults=8
        )
        assert elements.tolist() == [
            197588, 76039, 34271, 184649, 20978, 52338, 27756, 63819
        ]
        assert bits.tolist() == [1, 2, 15, 3, 8, 7, 1, 6]

    def test_large_population_sites_unique_bounded_deterministic(self):
        population_elements = (_CHOICE_POPULATION_LIMIT // 16) * 4
        draws = []
        for _ in range(2):
            elements, bits = random_bit_positions(
                population_elements, 16, 1e-6, np.random.default_rng(9)
            )
            assert elements.size > 0
            assert elements.min() >= 0 and elements.max() < population_elements
            assert bits.min() >= 0 and bits.max() < 16
            flat = elements * 16 + bits
            assert np.unique(flat).size == flat.size
            draws.append(flat)
        assert np.array_equal(draws[0], draws[1])

    def test_dense_draw_uses_choice_even_when_population_large(self):
        # n_faults near the population would make rejection sampling slow;
        # the dense regime stays on the exact permutation path.
        population_elements = _CHOICE_POPULATION_LIMIT // 16 + 1024
        elements, bits = random_bit_positions(
            population_elements, 16, 1.0, np.random.default_rng(3)
        )
        flat = elements * 16 + bits
        assert flat.size == population_elements * 16
        assert np.unique(flat).size == flat.size


@settings(max_examples=40, deadline=None)
@given(
    words=st.lists(st.integers(min_value=0, max_value=255), min_size=1, max_size=16),
    bit=st.integers(min_value=0, max_value=7),
)
def test_property_flip_twice_is_identity(words, bit):
    raw = np.array(words, dtype=np.int64)
    idx = np.array([len(words) // 2])
    bits = np.array([bit])
    flipped = flip_bits(raw, idx, bits, total_bits=8)
    restored = flip_bits(flipped, idx, bits, total_bits=8)
    assert np.array_equal(restored, raw)


@settings(max_examples=40, deadline=None)
@given(
    words=st.lists(st.integers(min_value=0, max_value=255), min_size=1, max_size=16),
    bit=st.integers(min_value=0, max_value=7),
    stuck=st.integers(min_value=0, max_value=1),
)
def test_property_stuck_at_forces_bit(words, bit, stuck):
    raw = np.array(words, dtype=np.int64)
    idx = np.arange(len(words))
    bits = np.full(len(words), bit)
    out = apply_stuck_at(raw, idx, bits, stuck, total_bits=8)
    observed = (out >> bit) & 1
    assert np.all(observed == stuck)


# --------------------------------------------------------------------------- #
# Edge properties of the in-place scatter at the int64 word boundaries
# --------------------------------------------------------------------------- #
WIDE = QFormat(1, 30, 31)  # 62-bit words: bit 61 is the sign bit

_WIDE_WORDS = st.lists(
    st.integers(min_value=0, max_value=(1 << 62) - 1), min_size=1, max_size=8
)


def _scatter(raw, elements, bits, op_code):
    out = raw.copy()
    scatter_bits(out, elements, bits, op_code)
    return out


class TestWordEdgeProperties:
    @settings(max_examples=30, deadline=None)
    @given(words=_WIDE_WORDS, op=st.sampled_from([OP_FLIP, OP_SET, OP_CLEAR]))
    def test_sign_bit_of_wide_words(self, words, op):
        raw = np.array(words, dtype=np.int64)
        elements = np.arange(len(words), dtype=np.int64)
        bits = np.full(len(words), WIDE.total_bits - 1, dtype=np.int64)
        out = _scatter(raw, elements, bits, op)
        observed = (out >> (WIDE.total_bits - 1)) & 1
        if op == OP_SET:
            assert np.all(observed == 1)
        elif op == OP_CLEAR:
            assert np.all(observed == 0)
        else:
            assert np.array_equal(observed, 1 - ((raw >> (WIDE.total_bits - 1)) & 1))

    @settings(max_examples=30, deadline=None)
    @given(words=_WIDE_WORDS, op=st.sampled_from([OP_FLIP, OP_SET, OP_CLEAR]))
    def test_bit_zero(self, words, op):
        raw = np.array(words, dtype=np.int64)
        elements = np.arange(len(words), dtype=np.int64)
        bits = np.zeros(len(words), dtype=np.int64)
        out = _scatter(raw, elements, bits, op)
        # Only bit 0 may differ.
        assert np.array_equal(out >> 1, raw >> 1)

    def test_all_sites_all_bits(self, rng):
        raw = rng.integers(0, 1 << 16, size=8).astype(np.int64)
        elements = np.repeat(np.arange(8, dtype=np.int64), 16)
        bits = np.tile(np.arange(16, dtype=np.int64), 8)
        out = _scatter(raw, elements, bits, OP_FLIP)
        assert np.array_equal(out, raw ^ ((1 << 16) - 1))
        out = _scatter(raw, elements, bits, OP_SET)
        assert np.all(out == (1 << 16) - 1)
        out = _scatter(raw, elements, bits, OP_CLEAR)
        assert np.all(out == 0)

    def test_empty_pattern_is_identity(self):
        raw = np.arange(6, dtype=np.int64)
        empty = np.empty(0, dtype=np.int64)
        out = _scatter(raw, empty, empty, OP_FLIP)
        assert np.array_equal(out, raw)

"""Tests for the bit-addressable quantized tensor."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.injector import PermanentTrainingFaultHook
from repro.core.sites import FaultPattern
from repro.quant import Q8_GRID, Q16_MID, Q16_NARROW, Q16_WIDE, QFormat, QTensor
from repro.quant.bitops import OP_FLIP, OP_SET
from repro.quant.statistics import bit_histogram, bit_level_stats, value_histogram
from repro.rl.base import Transition
from repro.rl.tabular import TabularQAgent


class TestQTensorViews:
    def test_values_round_trip(self, rng):
        values = Q8_GRID.quantize(rng.uniform(-7, 7, size=(3, 3)))
        tensor = QTensor(values, Q8_GRID)
        assert np.allclose(tensor.values, values)

    def test_set_values_reencodes(self, small_qtensor):
        new = np.zeros(small_qtensor.shape)
        small_qtensor.values = new
        assert np.all(small_qtensor.raw == 0)

    def test_shape_mismatch_rejected(self, small_qtensor):
        with pytest.raises(ValueError):
            small_qtensor.values = np.zeros((2, 2))
        with pytest.raises(ValueError):
            small_qtensor.raw = np.zeros((2, 2), dtype=np.int64)

    def test_from_raw_masks_extra_bits(self):
        tensor = QTensor.from_raw(np.array([0x1FF]), Q8_GRID)
        assert tensor.raw[0] == 0xFF

    def test_zeros_constructor(self):
        tensor = QTensor.zeros((2, 3), Q8_GRID, name="buf")
        assert tensor.size == 6
        assert np.all(tensor.values == 0)
        assert tensor.name == "buf"

    def test_copy_is_independent(self, small_qtensor):
        copy = small_qtensor.copy()
        copy.inject_bit_flips(np.array([0]), np.array([7]))
        assert copy != small_qtensor

    def test_equality(self, small_qtensor):
        assert small_qtensor == small_qtensor.copy()
        other = QTensor(small_qtensor.values, Q16_NARROW)
        assert small_qtensor != other


class TestQTensorFaults:
    def test_bit_flip_changes_value(self, small_qtensor):
        before = small_qtensor.values.flat[0]
        small_qtensor.inject_bit_flips(np.array([0]), np.array([7]))
        after = small_qtensor.values.flat[0]
        assert before != after

    def test_msb_flip_changes_sign_region(self):
        tensor = QTensor(np.array([1.0]), Q8_GRID)
        tensor.inject_bit_flips(np.array([0]), np.array([7]))
        # Flipping the sign bit of +1.0 (raw 0x10) gives raw 0x90 = -7.0.
        assert tensor.values[0] == pytest.approx(-7.0)

    def test_stuck_at_zero_on_zero_is_benign(self):
        tensor = QTensor.zeros((4,), Q8_GRID)
        tensor.inject_stuck_at(np.arange(4), np.full(4, 3), stuck_value=0)
        assert np.all(tensor.values == 0)

    def test_stuck_at_one_on_zero_corrupts(self):
        tensor = QTensor.zeros((4,), Q8_GRID)
        tensor.inject_stuck_at(np.arange(4), np.full(4, 6), stuck_value=1)
        assert np.all(tensor.values != 0)

    def test_random_flip_count_matches_ber(self, rng):
        tensor = QTensor.zeros((100, 10), Q16_NARROW)
        count = tensor.inject_random_bit_flips(0.01, rng)
        # 100*10*16 = 16000 bits -> expect ~160 flips.
        assert 100 < count < 240

    def test_sample_fault_sites_does_not_mutate(self, small_qtensor, rng):
        before = small_qtensor.raw
        small_qtensor.sample_fault_sites(0.5, rng)
        assert np.array_equal(small_qtensor.raw, before)

    def test_sign_integer_words_mask(self):
        tensor = QTensor(np.array([1.5]), Q8_GRID)  # raw 0b0001_1000
        masked = tensor.sign_integer_words()[0]
        assert masked == 0b00010000


class TestStatistics:
    def test_bit_counts_all_zero_tensor(self):
        tensor = QTensor.zeros((4, 4), Q8_GRID)
        zeros, ones = tensor.bit_counts()
        assert ones == 0
        assert zeros == 4 * 4 * 8

    def test_bit_counts_sum_invariant(self, wide_qtensor):
        zeros, ones = wide_qtensor.bit_counts()
        assert zeros + ones == wide_qtensor.size * 16

    def test_bit_level_stats(self, wide_qtensor):
        stats = bit_level_stats(wide_qtensor)
        assert 0.0 < stats.zero_fraction < 1.0
        assert stats.zero_fraction + stats.one_fraction == pytest.approx(1.0)
        assert stats.min_value <= stats.max_value

    def test_bit_histogram_length(self, small_qtensor):
        counts = bit_histogram(small_qtensor)
        assert counts.shape == (8,)
        assert counts.max() <= small_qtensor.size

    def test_value_histogram_covers_all_elements(self, small_qtensor):
        counts, edges = value_histogram(small_qtensor, bins=16)
        assert counts.sum() == small_qtensor.size
        assert len(edges) == 17

    def test_value_range(self, small_qtensor):
        lo, hi = small_qtensor.value_range()
        assert lo <= hi
        vals = small_qtensor.values
        assert lo == vals.min() and hi == vals.max()

    def test_out_of_range_mask(self):
        tensor = QTensor(np.array([0.0, 5.0, -5.0]), Q8_GRID)
        mask = tensor.out_of_range_mask(-1.0, 1.0)
        assert mask.tolist() == [False, True, True]


@settings(max_examples=40, deadline=None)
@given(
    values=st.lists(
        st.floats(min_value=-7.5, max_value=7.5, allow_nan=False), min_size=1, max_size=20
    ),
    bit=st.integers(min_value=0, max_value=7),
)
def test_property_double_flip_restores_tensor(values, bit):
    tensor = QTensor(np.array(values), Q8_GRID)
    original = tensor.raw
    index = np.array([len(values) - 1])
    tensor.inject_bit_flips(index, np.array([bit]))
    tensor.inject_bit_flips(index, np.array([bit]))
    assert np.array_equal(tensor.raw, original)


@settings(max_examples=40, deadline=None)
@given(
    values=st.lists(
        st.floats(min_value=-15.0, max_value=15.0, allow_nan=False), min_size=1, max_size=20
    )
)
def test_property_values_always_in_format_range(values):
    tensor = QTensor(np.array(values), Q16_NARROW)
    decoded = tensor.values
    assert decoded.max() <= Q16_NARROW.max_value
    assert decoded.min() >= Q16_NARROW.min_value


# --------------------------------------------------------------------------- #
# Element access and the cached decoded view
# --------------------------------------------------------------------------- #
FORMATS = [Q8_GRID, Q16_NARROW, Q16_MID, Q16_WIDE]


def _codec_inputs(fmt: QFormat) -> np.ndarray:
    """Every Q8 word's value, half-LSB ties, saturation and random floats."""
    lsb = fmt.scale
    if fmt is Q8_GRID:
        grid = fmt.decode(np.arange(1 << fmt.total_bits, dtype=np.int64))
    else:
        grid = np.random.default_rng(fmt.total_bits + fmt.fraction_bits).uniform(
            1.5 * fmt.min_value, 1.5 * fmt.max_value, size=512
        )
        grid = np.concatenate([grid, fmt.quantize(grid)])
    edges = np.array([
        fmt.min_value, fmt.max_value, fmt.min_value - lsb, fmt.max_value + lsb,
        fmt.min_value - lsb / 2, fmt.max_value + lsb / 2, 1e6, -1e6, 0.0, -0.0,
    ])
    values = np.concatenate([grid, grid + lsb / 2, grid - lsb / 2, edges])
    return np.concatenate([values, np.zeros(-values.size % 4)])  # whole rows of 4


class TestWordCodec:
    @pytest.mark.parametrize("fmt", FORMATS, ids=str)
    def test_encode_word_matches_encode(self, fmt):
        values = _codec_inputs(fmt)
        words = [fmt.encode_word(x) for x in values]
        assert words == fmt.encode(values).tolist()

    def test_half_lsb_rounds_to_even(self):
        lsb = Q8_GRID.scale
        assert Q8_GRID.encode_word(0.5 * lsb) == 0
        assert Q8_GRID.encode_word(1.5 * lsb) == 2
        assert Q8_GRID.encode_word(-0.5 * lsb) == 0
        assert Q8_GRID.decode_word(Q8_GRID.encode_word(-1.5 * lsb)) == -2 * lsb

    def test_saturates_at_both_ends(self):
        assert Q8_GRID.encode_word(100.0) == Q8_GRID.encode_word(Q8_GRID.max_value)
        assert Q8_GRID.encode_word(-100.0) == Q8_GRID.encode_word(Q8_GRID.min_value)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 1e300, -1e300])
    def test_non_finite_and_huge_match_encode(self, value):
        with np.errstate(invalid="ignore"):
            expected = int(Q8_GRID.encode(np.array(value)))
            assert Q8_GRID.encode_word(value) == expected

    @pytest.mark.parametrize("fmt", FORMATS, ids=str)
    def test_decode_word_matches_decode(self, fmt):
        words = fmt.encode(_codec_inputs(fmt))
        decoded = [fmt.decode_word(w) for w in words.tolist()]
        assert decoded == fmt.decode(words).tolist()


class TestElementAccess:
    @pytest.mark.parametrize("fmt", FORMATS, ids=str)
    @pytest.mark.parametrize("view_built", [False, True])
    def test_item_write_then_read(self, fmt, view_built):
        values = _codec_inputs(fmt)
        tensor = QTensor.zeros((values.size // 4, 4), fmt)
        if view_built:
            tensor.row(0)
        for flat, x in enumerate(values):
            tensor.set_item(divmod(flat, 4), x)
        expected = values.reshape(tensor.shape)
        assert np.array_equal(tensor.raw, fmt.encode(expected))
        decoded = fmt.decode(fmt.encode(expected))
        for row in range(tensor.shape[0]):
            assert tensor.row(row) == decoded[row].tolist()
            for col in range(4):
                assert tensor.item((row, col)) == decoded[row, col]

    @pytest.fixture
    def decode_calls(self, monkeypatch):
        """Count every ``QFormat.decode`` call made while the test runs."""
        calls = []
        decode = QFormat.decode

        def counting_decode(qformat, raw):
            calls.append(qformat)
            return decode(qformat, raw)

        monkeypatch.setattr(QFormat, "decode", counting_decode)
        return calls

    def test_values_stays_a_fresh_decode(self, small_qtensor, decode_calls):
        small_qtensor.row(0)
        before = len(decode_calls)
        first = small_qtensor.values
        first[:] = 0.0
        assert not np.array_equal(small_qtensor.values, first)
        assert len(decode_calls) - before == 2

    def test_element_reads_decode_once_per_raw_change(self, small_qtensor, decode_calls):
        before = len(decode_calls)
        for _ in range(3):
            small_qtensor.row(1)
            small_qtensor.item((2, 3))
            small_qtensor.set_item((0, 0), 1.25)
        assert len(decode_calls) - before == 1
        small_qtensor.inject_bit_flips(np.array([0]), np.array([0]))
        small_qtensor.row(0)
        assert len(decode_calls) - before == 2


_ELEMENTS, _BITS = np.array([0, 3, 3, 7]), np.array([7, 0, 5, 2])


def _from_raw(t):
    return QTensor.from_raw(t.raw ^ 0x5A, t.qformat)


def _set_raw(t):
    t.raw = t.raw ^ 0x33
    return t


def _set_values(t):
    t.values = -t.values
    return t


def _flip(t):
    t.inject_bit_flips(_ELEMENTS, _BITS)
    return t


def _stuck_at(value):
    def mutate(t):
        t.inject_stuck_at(_ELEMENTS, _BITS, value)
        return t
    return mutate


def _bit_ops(t):
    t.inject_bit_ops(_ELEMENTS[:2], _BITS[:2], np.array([OP_SET, OP_FLIP]))
    return t


def _random_flips(t):
    t.inject_random_bit_flips(0.2, np.random.default_rng(3))
    return t


MUTATORS = {
    "from_raw": _from_raw,
    "raw_setter": _set_raw,
    "values_setter": _set_values,
    "inject_bit_flips": _flip,
    "inject_stuck_at_0": _stuck_at(0),
    "inject_stuck_at_1": _stuck_at(1),
    "inject_bit_ops": _bit_ops,
    "inject_random_bit_flips": _random_flips,
}


class TestViewCoherence:
    @pytest.mark.parametrize("name", sorted(MUTATORS))
    def test_reads_follow_every_raw_mutator(self, small_qtensor, name):
        small_qtensor.row(0)  # build the view before the mutation
        before = small_qtensor.raw
        tensor = MUTATORS[name](small_qtensor)
        assert not np.array_equal(tensor.raw, before)
        decoded = tensor.qformat.decode(tensor.raw)
        for row in range(tensor.shape[0]):
            assert tensor.row(row) == decoded[row].tolist()
            for col in range(tensor.shape[1]):
                assert tensor.item((row, col)) == decoded[row, col]

    def test_copy_and_replicate_read_their_own_words(self, small_qtensor):
        small_qtensor.row(0)
        copy = small_qtensor.copy()
        copy.set_item((0, 0), 5.0)
        assert small_qtensor.item((0, 0)) != 5.0
        stacked = small_qtensor.replicate(2)
        assert stacked.row((1, 2)) == small_qtensor.row(2)

    def test_stuck_bits_reach_select_action_after_reapply(self):
        """A permanent training fault re-applied mid-training is what the
        next greedy decision sees, even though the agent's own write
        cleared the stuck bit in between."""
        agent = TabularQAgent(4, 4, initial_q=0.0, rng=np.random.default_rng(0))
        table = agent.memory_buffers()["qtable"]
        table.set_item((0, 2), 1.5)  # action 2 is the clean greedy choice
        assert agent.select_action(0, explore=False) == 2
        hook = PermanentTrainingFaultHook(0.0, stuck_value=1)
        # Stick bit 6 (+4.0 in Q(1,3,4)) of element (0, 1).
        hook.patterns = [FaultPattern("qtable", [1], [6], stuck_value=1)]
        hook.on_episode_start(1, agent, env=None)
        assert agent.select_action(0, explore=False) == 1
        agent.observe(Transition(0, 1, -1.0, 3, True))  # rewrites (0, 1)
        assert agent.select_action(0, explore=False) == 2
        hook.on_episode_end(1, agent, env=None, record=None)
        assert agent.select_action(0, explore=False) == 1
        assert table.item((0, 1)) >= 4.0
        assert table.row(0) == table.qformat.decode(table.raw)[0].tolist()

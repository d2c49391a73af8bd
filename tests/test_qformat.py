"""Unit and property tests for fixed-point formats."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.quant import Q8_GRID, Q16_MID, Q16_NARROW, Q16_WIDE, QFormat


class TestQFormatBasics:
    def test_total_bits(self):
        assert QFormat(1, 4, 11).total_bits == 16
        assert Q8_GRID.total_bits == 8

    def test_scale_is_lsb_value(self):
        assert QFormat(1, 4, 11).scale == 2.0**-11
        assert Q8_GRID.scale == 2.0**-4

    def test_value_range_q1_4_11(self):
        fmt = Q16_NARROW
        assert fmt.max_value == pytest.approx(16.0 - 2.0**-11)
        assert fmt.min_value == pytest.approx(-16.0)

    def test_value_range_q8(self):
        assert Q8_GRID.max_value == pytest.approx(8.0 - 2.0**-4)
        assert Q8_GRID.min_value == pytest.approx(-8.0)

    def test_paper_formats_widths(self):
        for fmt in (Q16_NARROW, Q16_MID, Q16_WIDE):
            assert fmt.total_bits == 16
        assert Q16_WIDE.max_value > Q16_MID.max_value > Q16_NARROW.max_value

    def test_sign_bit_position(self):
        assert Q16_NARROW.sign_bit_position == 15
        assert QFormat(0, 4, 4).sign_bit_position == -1

    def test_sign_and_integer_mask(self):
        fmt = QFormat(1, 3, 4)
        assert fmt.sign_and_integer_mask == 0b11110000
        assert fmt.word_mask == 0xFF

    def test_bit_position_ranges(self):
        fmt = QFormat(1, 4, 11)
        assert list(fmt.fraction_bit_positions) == list(range(11))
        assert list(fmt.integer_bit_positions) == list(range(11, 15))

    def test_invalid_formats_rejected(self):
        with pytest.raises(ValueError):
            QFormat(2, 4, 4)
        with pytest.raises(ValueError):
            QFormat(1, -1, 4)
        with pytest.raises(ValueError):
            QFormat(1, 0, 0)
        with pytest.raises(ValueError):
            QFormat(1, 60, 10)

    def test_parse_round_trip(self):
        fmt = QFormat.parse("Q(1,4,11)")
        assert fmt == Q16_NARROW
        assert QFormat.parse("1, 7, 8") == Q16_MID
        assert str(fmt) == "Q(1,4,11)"

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            QFormat.parse("Q(1,4)")


class TestEncodeDecode:
    def test_zero_round_trips(self):
        raw = Q8_GRID.encode(np.array([0.0]))
        assert raw[0] == 0
        assert Q8_GRID.decode(raw)[0] == 0.0

    def test_exact_values_round_trip(self):
        values = np.array([1.0, -1.0, 0.5, -0.25, 7.9375, -8.0])
        assert np.allclose(Q8_GRID.decode(Q8_GRID.encode(values)), values)

    def test_saturation_at_max(self):
        out = Q8_GRID.quantize(np.array([100.0, -100.0]))
        assert out[0] == pytest.approx(Q8_GRID.max_value)
        assert out[1] == pytest.approx(Q8_GRID.min_value)

    def test_negative_values_use_twos_complement(self):
        raw = Q8_GRID.encode(np.array([-1.0]))
        # -1.0 = -16 LSBs -> two's complement 0xF0
        assert raw[0] == 0xF0

    def test_quantization_error_bounded_by_half_lsb(self):
        values = np.linspace(-7.9, 7.9, 201)
        quantized = Q8_GRID.quantize(values)
        assert np.max(np.abs(quantized - values)) <= Q8_GRID.scale / 2 + 1e-12

    def test_representable_mask(self):
        mask = Q8_GRID.representable(np.array([0.0, 7.0, 9.0, -9.0]))
        assert mask.tolist() == [True, True, False, False]


@settings(max_examples=60, deadline=None)
@given(
    st.floats(min_value=-15.9, max_value=15.9, allow_nan=False),
)
def test_property_q16_round_trip_error(value):
    """Quantization error never exceeds half an LSB inside the range."""
    fmt = Q16_NARROW
    quantized = fmt.quantize(np.array([value]))[0]
    assert abs(quantized - value) <= fmt.scale / 2 + 1e-12


@settings(max_examples=60, deadline=None)
@given(
    sign=st.integers(min_value=0, max_value=1),
    integer=st.integers(min_value=1, max_value=10),
    fraction=st.integers(min_value=1, max_value=12),
)
def test_property_format_bit_accounting(sign, integer, fraction):
    """Total bits and masks are internally consistent for any format."""
    fmt = QFormat(sign, integer, fraction)
    assert fmt.total_bits == sign + integer + fraction
    assert fmt.word_mask == (1 << fmt.total_bits) - 1
    assert fmt.sign_and_integer_mask | ((1 << fraction) - 1) == fmt.word_mask


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(min_value=-7.5, max_value=7.5, allow_nan=False), min_size=1, max_size=30))
def test_property_quantize_idempotent(values):
    """Quantizing an already-quantized array changes nothing."""
    arr = np.array(values)
    once = Q8_GRID.quantize(arr)
    twice = Q8_GRID.quantize(once)
    assert np.array_equal(once, twice)


# --------------------------------------------------------------------------- #
# The QFormat codec and fused forward helpers vs. the plain numpy formulas
# --------------------------------------------------------------------------- #
QFORMATS = [Q8_GRID, Q16_NARROW, Q16_MID, Q16_WIDE]
QFORMAT_IDS = ["q8_grid", "q16_narrow", "q16_mid", "q16_wide"]


def _special_values():
    return np.array(
        [0.0, -0.0, 0.5, -0.5, 1e300, -1e300, np.inf, -np.inf, np.nan, 2.0**60],
        dtype=np.float64,
    )


class TestReferenceFormulas:
    @pytest.mark.parametrize("qf", QFORMATS, ids=QFORMAT_IDS)
    def test_quantize_matches_inline_formula(self, rng, qf):
        values = np.concatenate(
            [rng.normal(0, qf.max_value, size=64), _special_values()]
        )
        # NaN exercises the historical invalid-cast path on both sides;
        # silence numpy's warning about it (the *values* are the contract).
        with np.errstate(invalid="ignore"):
            out = qf.quantize(values)
            raw = np.rint(values * (2.0**qf.fraction_bits)).astype(np.int64)
        raw = np.minimum(np.maximum(raw, np.int64(qf.min_raw)), np.int64(qf.max_raw))
        expected = raw.astype(np.float64) * (2.0**-qf.fraction_bits)
        assert np.array_equal(out, expected)

    @pytest.mark.parametrize("qf", QFORMATS, ids=QFORMAT_IDS)
    def test_encode_decode_roundtrip(self, rng, qf):
        values = rng.normal(0, qf.max_value, size=128)
        raw = qf.encode(values)
        assert np.array_equal(qf.decode(raw), qf.quantize(values))

    def test_fused_matmul_equals_unfused(self, rng):
        qf = Q16_NARROW
        x = qf.quantize(rng.normal(size=(3, 2, 6)))
        w = qf.quantize(rng.normal(size=(3, 6, 4)))
        b = qf.quantize(rng.normal(size=(3, 4)))
        fused = qf.matmul_bias_quantize(x, w, b)
        assert np.array_equal(fused, qf.quantize(np.matmul(x, w) + b[:, None, :]))
        assert np.array_equal(fused, qf.bias_quantize_stacked(np.matmul(x, w), b))

    def test_relu_quantize_keeps_nan_behaviour(self):
        values = np.array([-1.0, 0.0, 2.5, np.nan, -np.inf, np.inf])
        qf = Q8_GRID
        # NaN deliberately exercises the historical invalid-cast behaviour;
        # silence numpy's warning about it (the *values* are the contract).
        with np.errstate(invalid="ignore"):
            fused = qf.relu_quantize(values)
            unfused = qf.quantize(np.maximum(values, 0.0))
        assert np.array_equal(fused, unfused)

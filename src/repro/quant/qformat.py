"""Fixed-point format descriptors.

The paper quantizes policies to fixed-point two's-complement formats written
``Q(sign, integer, fraction)``.  For example ``Q(1,4,11)`` is a 16-bit word
with one sign bit, four integer bits and eleven fractional bits, representing
values in ``[-16, 16 - 2**-11]`` with a resolution of ``2**-11``.

Formats are immutable value objects; all numeric conversion logic lives here
so that :class:`~repro.quant.qtensor.QTensor` stays a thin container.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["QFormat", "Q8_GRID", "Q16_NARROW", "Q16_MID", "Q16_WIDE"]

#: 2**63: scaled values at or beyond it overflow numpy's int64 cast.
_INT64_LIMIT = 2.0**63


@dataclass(frozen=True)
class QFormat:
    """A signed two's-complement fixed-point format ``Q(sign, integer, fraction)``.

    Parameters
    ----------
    sign_bits:
        Number of sign bits.  The paper always uses 1; 0 is allowed for
        unsigned experiments.
    integer_bits:
        Number of integer (magnitude) bits.
    fraction_bits:
        Number of fractional bits.  The scale factor is ``2**fraction_bits``.
    """

    sign_bits: int
    integer_bits: int
    fraction_bits: int

    def __post_init__(self) -> None:
        if self.sign_bits not in (0, 1):
            raise ValueError(f"sign_bits must be 0 or 1, got {self.sign_bits}")
        if self.integer_bits < 0 or self.fraction_bits < 0:
            raise ValueError("integer_bits and fraction_bits must be non-negative")
        if self.total_bits < 2:
            raise ValueError("a QFormat needs at least 2 bits")
        if self.total_bits > 62:
            raise ValueError("QFormat wider than 62 bits is not supported")
        # encode/decode run once per layer per forward pass, so the derived
        # constants are cached as numpy scalars instead of being recomputed
        # through the Python-level properties on every call.  The scale is a
        # power of two, so multiplying by the cached reciprocal is exactly
        # the division it replaces.
        object.__setattr__(self, "_scale", 2.0 ** (-self.fraction_bits))
        object.__setattr__(self, "_inv_scale", 2.0 ** self.fraction_bits)
        object.__setattr__(self, "_min_raw_i64", np.int64(self.min_raw))
        object.__setattr__(self, "_max_raw_i64", np.int64(self.max_raw))
        object.__setattr__(self, "_word_mask_i64", np.int64(self.word_mask))
        object.__setattr__(
            self,
            "_sign_bit_i64",
            np.int64(1 << (self.total_bits - 1)) if self.sign_bits else np.int64(0),
        )
        object.__setattr__(self, "_modulus_i64", np.int64(1 << self.total_bits))
        # Python-int twins for the scalar word codec (encode_word /
        # decode_word), which tabular training calls once per step: plain
        # int arithmetic there is several times cheaper than numpy scalars.
        object.__setattr__(self, "_min_raw_int", self.min_raw)
        object.__setattr__(self, "_max_raw_int", self.max_raw)
        object.__setattr__(self, "_word_mask_int", self.word_mask)
        object.__setattr__(
            self, "_sign_bit_int", 1 << (self.total_bits - 1) if self.sign_bits else 0
        )
        object.__setattr__(self, "_modulus_int", 1 << self.total_bits)

    # ------------------------------------------------------------------ #
    # Derived properties
    # ------------------------------------------------------------------ #
    @property
    def total_bits(self) -> int:
        """Total word width in bits."""
        return self.sign_bits + self.integer_bits + self.fraction_bits

    @property
    def signed(self) -> bool:
        """Whether the format carries a sign bit."""
        return self.sign_bits == 1

    @property
    def scale(self) -> float:
        """Value of one least-significant bit."""
        return 2.0 ** (-self.fraction_bits)

    @property
    def max_value(self) -> float:
        """Largest representable value."""
        return (self.max_raw) * self.scale

    @property
    def min_value(self) -> float:
        """Smallest (most negative) representable value."""
        return (self.min_raw) * self.scale

    @property
    def max_raw(self) -> int:
        """Largest raw integer word (as a signed integer)."""
        if self.signed:
            return (1 << (self.total_bits - 1)) - 1
        return (1 << self.total_bits) - 1

    @property
    def min_raw(self) -> int:
        """Smallest raw integer word (as a signed integer)."""
        if self.signed:
            return -(1 << (self.total_bits - 1))
        return 0

    @property
    def sign_bit_position(self) -> int:
        """Bit index of the sign bit (MSB), or -1 for unsigned formats."""
        return self.total_bits - 1 if self.signed else -1

    @property
    def integer_bit_positions(self) -> range:
        """Bit indices (LSB = 0) covered by the integer part."""
        return range(self.fraction_bits, self.fraction_bits + self.integer_bits)

    @property
    def fraction_bit_positions(self) -> range:
        """Bit indices (LSB = 0) covered by the fractional part."""
        return range(0, self.fraction_bits)

    @property
    def sign_and_integer_mask(self) -> int:
        """Bit mask selecting the sign and integer bits.

        The paper's anomaly detector compares only these bits (Sec. 5.2) to
        reduce hardware cost, since the fractional part has little impact.
        """
        high_bits = self.sign_bits + self.integer_bits
        return ((1 << high_bits) - 1) << self.fraction_bits

    @property
    def word_mask(self) -> int:
        """Mask of all bits in the word."""
        return (1 << self.total_bits) - 1

    # ------------------------------------------------------------------ #
    # Value <-> raw conversion
    # ------------------------------------------------------------------ #
    def _to_raw(self, values: np.ndarray) -> np.ndarray:
        """Round-half-even to raw words (signed ``int64``), saturating."""
        raw = np.rint(values * self._inv_scale).astype(np.int64)
        return np.minimum(np.maximum(raw, self._min_raw_i64), self._max_raw_i64)

    def _quantized(self, values: np.ndarray) -> np.ndarray:
        """The real values of :meth:`_to_raw`'s words."""
        return self._to_raw(values).astype(np.float64) * self._scale

    def quantize(self, values: np.ndarray) -> np.ndarray:
        """Quantize real values to this format, returning real-valued output.

        Values outside the representable range saturate.  Equivalent to
        ``decode(encode(values))`` for every input (including non-finite
        ones, which go through the same int64 conversion): after clipping,
        the raw words already equal their decoded signed value, so the
        two's-complement mask/unmask round trip is skipped.
        """
        values = np.asarray(values, dtype=np.float64)
        return self._quantized(values)

    def encode(self, values: np.ndarray) -> np.ndarray:
        """Encode real values into raw unsigned integer words (two's complement).

        Returns an ``int64`` array where each element holds the word's bit
        pattern in its low ``total_bits`` bits.
        """
        values = np.asarray(values, dtype=np.float64)
        return self._to_raw(values) & self._word_mask_i64

    def decode(self, raw: np.ndarray) -> np.ndarray:
        """Decode raw unsigned words (two's complement) back to real values."""
        raw = np.asarray(raw, dtype=np.int64) & self._word_mask_i64
        if self.sign_bits:
            raw = np.where(raw & self._sign_bit_i64, raw - self._modulus_i64, raw)
        return raw.astype(np.float64) * self._scale

    def encode_word(self, value: float) -> int:
        """Encode one real value into its raw word; scalar :meth:`encode`.

        Bit-identical to ``int(encode(value))``: Python's ``round`` on a
        float is round-half-even like ``np.rint``, and the clip and mask use
        the same bounds.  Values whose scaled magnitude leaves the int64
        range (or that are not finite) take the array path, so they get the
        exact result of numpy's cast.
        """
        scaled = float(value) * self._inv_scale
        if not -_INT64_LIMIT <= scaled < _INT64_LIMIT:
            return int(self.encode(np.float64(value)))
        raw = round(scaled)
        if raw < self._min_raw_int:
            raw = self._min_raw_int
        elif raw > self._max_raw_int:
            raw = self._max_raw_int
        return raw & self._word_mask_int

    def decode_word(self, word: int) -> float:
        """Decode one raw word to its real value; scalar :meth:`decode`."""
        word = int(word) & self._word_mask_int
        if word & self._sign_bit_int:
            word -= self._modulus_int
        return float(word) * self._scale

    # ------------------------------------------------------------------ #
    # Fused forward-path helpers
    # ------------------------------------------------------------------ #
    def bias_quantize(self, y: np.ndarray, bias: np.ndarray) -> np.ndarray:
        """``quantize(y + bias)`` with a shared trailing-axis bias."""
        y = np.asarray(y, dtype=np.float64)
        bias = np.asarray(bias, dtype=np.float64)
        return self._quantized(y + bias)

    def bias_quantize_stacked(self, y: np.ndarray, bias: np.ndarray) -> np.ndarray:
        """``quantize(y + bias[:, None, :])`` for a per-replica bias stack."""
        y = np.asarray(y, dtype=np.float64)
        bias = np.asarray(bias, dtype=np.float64)
        return self._quantized(y + bias[:, None, :])

    def matmul_bias_quantize(
        self, x: np.ndarray, w: np.ndarray, b: np.ndarray
    ) -> np.ndarray:
        """Per-replica ``quantize(x @ w + b)`` for stacked weights.

        Shapes: ``x (R, rows, in)``, ``w (R, in, out)``, ``b (R, out)``.
        """
        x = np.asarray(x, dtype=np.float64)
        w = np.asarray(w, dtype=np.float64)
        b = np.asarray(b, dtype=np.float64)
        return self._quantized(np.matmul(x, w) + b[:, None, :])

    def relu_quantize(self, values: np.ndarray) -> np.ndarray:
        """``quantize(relu(values))`` (NaN propagates, like ``np.maximum``)."""
        values = np.asarray(values, dtype=np.float64)
        return self._quantized(np.maximum(values, 0.0))

    def representable(self, values: np.ndarray, rtol: float = 0.0) -> np.ndarray:
        """Boolean mask of values that fall inside the representable range."""
        values = np.asarray(values, dtype=np.float64)
        lo = self.min_value * (1.0 + rtol)
        hi = self.max_value * (1.0 + rtol)
        return (values >= lo) & (values <= hi)

    # ------------------------------------------------------------------ #
    # Presentation helpers
    # ------------------------------------------------------------------ #
    def __str__(self) -> str:
        return f"Q({self.sign_bits},{self.integer_bits},{self.fraction_bits})"

    @classmethod
    def parse(cls, spec: str) -> "QFormat":
        """Parse a string like ``"Q(1,4,11)"`` or ``"1,4,11"`` into a QFormat."""
        text = spec.strip()
        if text.upper().startswith("Q"):
            text = text[1:]
        text = text.strip("() ")
        parts = [p.strip() for p in text.split(",")]
        if len(parts) != 3:
            raise ValueError(f"cannot parse QFormat spec {spec!r}")
        sign, integer, fraction = (int(p) for p in parts)
        return cls(sign, integer, fraction)


#: 8-bit format used for the Grid World policies (Sec. 4.1): Q(1,3,4)
#: covers roughly [-8, 8) with 1/16 resolution, matching the tabular value
#: histogram range in Fig. 2b.
Q8_GRID = QFormat(1, 3, 4)

#: The three 16-bit formats compared in Fig. 7e.
Q16_NARROW = QFormat(1, 4, 11)
Q16_MID = QFormat(1, 7, 8)
Q16_WIDE = QFormat(1, 10, 5)

"""Quantized tensors addressable by value and by bit.

A :class:`QTensor` stores the raw two's-complement words of a real-valued
array under a given :class:`~repro.quant.qformat.QFormat`.  The raw words
are the only source of truth: fault injectors mutate them (bit flips,
stuck-at patterns) and every value read decodes them.

Two kinds of value access sit on top of the words:

* :attr:`QTensor.values` decodes the whole tensor into a fresh array on
  every read, and its setter re-encodes the whole tensor.  Inference paths
  that consume a buffer once per pass use it.
* :meth:`QTensor.row`, :meth:`QTensor.item` and :meth:`QTensor.set_item`
  read and write single elements through a decoded view that is built on
  the first element read and dropped by every raw mutation.  An element
  write quantizes and encodes only the touched word and writes it through
  to both the raw words and the view.  Tabular training, which touches one
  row and one element per step, uses these.
"""

from __future__ import annotations

from typing import Iterable, Optional, Tuple

import numpy as np

from repro.quant.bitops import (
    apply_bit_ops,
    apply_stuck_at,
    flip_bits,
    random_bit_positions,
)
from repro.quant.qformat import QFormat

__all__ = ["QTensor"]


class QTensor:
    """A fixed-point tensor addressable both by value and by bit.

    Parameters
    ----------
    values:
        Real-valued data to quantize into the tensor.
    qformat:
        The fixed-point format.
    name:
        Optional buffer name (e.g. ``"weight"``, ``"activation"``) used by
        the fault-injection framework to address fault locations.
    """

    def __init__(self, values: np.ndarray, qformat: QFormat, name: str = "") -> None:
        self.qformat = qformat
        self.name = name
        values = np.asarray(values, dtype=np.float64)
        self._raw = qformat.encode(values)
        self._shape = values.shape
        self._view: Optional[np.ndarray] = None

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_raw(cls, raw: np.ndarray, qformat: QFormat, name: str = "") -> "QTensor":
        """Build a QTensor directly from raw two's-complement words."""
        obj = cls.__new__(cls)
        obj.qformat = qformat
        obj.name = name
        raw = np.asarray(raw, dtype=np.int64) & qformat.word_mask
        obj._raw = raw
        obj._shape = raw.shape
        obj._view = None
        return obj

    @classmethod
    def zeros(cls, shape: Tuple[int, ...], qformat: QFormat, name: str = "") -> "QTensor":
        """Create an all-zero QTensor with the given shape."""
        return cls(np.zeros(shape, dtype=np.float64), qformat, name=name)

    def copy(self) -> "QTensor":
        """Deep copy of the tensor (raw words copied)."""
        return QTensor.from_raw(self._raw.copy(), self.qformat, name=self.name)

    def replicate(self, n_replicas: int) -> "QTensor":
        """Stack ``n_replicas`` copies along a new leading replica axis.

        The raw words are tiled, so every replica slice is bit-identical to
        this tensor — the starting point for batched fault injection, where
        each replica's bits are then corrupted independently (see
        :func:`repro.core.sites.apply_patterns_stacked`).
        """
        if n_replicas <= 0:
            raise ValueError(f"n_replicas must be positive, got {n_replicas}")
        raw = np.broadcast_to(self._raw, (n_replicas,) + self._shape).copy()
        return QTensor.from_raw(raw, self.qformat, name=self.name)

    # ------------------------------------------------------------------ #
    # Views
    # ------------------------------------------------------------------ #
    @property
    def shape(self) -> Tuple[int, ...]:
        return self._shape

    @property
    def size(self) -> int:
        return self._raw.size

    @property
    def values(self) -> np.ndarray:
        """Decoded real-valued view (a fresh array each call)."""
        return self.qformat.decode(self._raw)

    @values.setter
    def values(self, new_values: np.ndarray) -> None:
        new_values = np.asarray(new_values, dtype=np.float64)
        if new_values.shape != self._shape:
            raise ValueError(
                f"shape mismatch: tensor is {self._shape}, got {new_values.shape}"
            )
        self._raw = self.qformat.encode(new_values)
        self._view = None

    @property
    def raw(self) -> np.ndarray:
        """Raw two's-complement word view (a copy; use setters to mutate)."""
        return self._raw.copy()

    @raw.setter
    def raw(self, new_raw: np.ndarray) -> None:
        new_raw = np.asarray(new_raw, dtype=np.int64)
        if new_raw.shape != self._shape:
            raise ValueError(
                f"shape mismatch: tensor is {self._shape}, got {new_raw.shape}"
            )
        self._raw = new_raw & self.qformat.word_mask
        self._view = None

    # ------------------------------------------------------------------ #
    # Element access (cached decoded view)
    # ------------------------------------------------------------------ #
    def _decoded(self) -> np.ndarray:
        view = self._view
        if view is None:
            view = self._view = self.qformat.decode(self._raw)
        return view

    def row(self, index) -> list:
        """Decoded values of ``tensor[index]`` as a list of Python floats."""
        return self._decoded()[index].tolist()

    def item(self, index) -> float:
        """Decoded value of one element.

        ``index`` addresses a single element, as in :meth:`set_item`: a
        tuple with one entry per axis (or an int for a 1-D tensor).
        """
        return self._decoded().item(index)

    def set_item(self, index, value: float) -> None:
        """Quantize ``value`` into one element, touching only its word."""
        word = self.qformat.encode_word(value)
        self._raw[index] = word
        if self._view is not None:
            self._view[index] = self.qformat.decode_word(word)

    # ------------------------------------------------------------------ #
    # Fault primitives
    # ------------------------------------------------------------------ #
    def inject_bit_flips(
        self,
        element_indices: np.ndarray,
        bit_positions: np.ndarray,
    ) -> None:
        """Flip the addressed bits in place (transient fault)."""
        self._raw = flip_bits(
            self._raw, element_indices, bit_positions, self.qformat.total_bits
        )
        self._view = None

    def inject_stuck_at(
        self,
        element_indices: np.ndarray,
        bit_positions: np.ndarray,
        stuck_value: int,
    ) -> None:
        """Force the addressed bits to 0 or 1 in place (permanent fault)."""
        self._raw = apply_stuck_at(
            self._raw,
            element_indices,
            bit_positions,
            stuck_value,
            self.qformat.total_bits,
        )
        self._view = None

    def inject_bit_ops(
        self,
        element_indices: np.ndarray,
        bit_positions: np.ndarray,
        op_codes: np.ndarray,
    ) -> None:
        """Apply mixed flip/set/clear operations in one fused pass.

        ``op_codes`` uses the :data:`~repro.quant.bitops.OP_FLIP` /
        ``OP_SET`` / ``OP_CLEAR`` codes; sites carrying different codes must
        be distinct (see :func:`~repro.quant.bitops.apply_bit_ops`).  This is
        the batched engine's single-copy injection primitive.
        """
        self._raw = apply_bit_ops(
            self._raw,
            element_indices,
            bit_positions,
            op_codes,
            self.qformat.total_bits,
        )
        self._view = None

    def inject_random_bit_flips(
        self, bit_error_rate: float, rng: np.random.Generator
    ) -> int:
        """Flip a random set of bits at the given BER.  Returns the flip count."""
        elements, bits = random_bit_positions(
            self.size, self.qformat.total_bits, bit_error_rate, rng
        )
        if elements.size:
            self.inject_bit_flips(elements, bits)
        return int(elements.size)

    def sample_fault_sites(
        self, bit_error_rate: float, rng: np.random.Generator
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Sample (element, bit) fault sites at the given BER without injecting."""
        return random_bit_positions(
            self.size, self.qformat.total_bits, bit_error_rate, rng
        )

    # ------------------------------------------------------------------ #
    # Inspection helpers
    # ------------------------------------------------------------------ #
    def bit_counts(self) -> Tuple[int, int]:
        """Return (number of 0 bits, number of 1 bits) across the tensor.

        Used for the bit-level sparsity statistics of Fig. 2b / 2d, which
        explain why stuck-at-1 faults are more damaging than stuck-at-0.
        """
        total_bits = self.qformat.total_bits
        ones = 0
        flat = self._raw.reshape(-1)
        for bit in range(total_bits):
            ones += int(np.count_nonzero(flat & (np.int64(1) << bit)))
        zeros = self.size * total_bits - ones
        return zeros, ones

    def value_range(self) -> Tuple[float, float]:
        """Minimum and maximum decoded values."""
        vals = self.values
        return float(vals.min()), float(vals.max())

    def out_of_range_mask(self, low: float, high: float) -> np.ndarray:
        """Boolean mask of elements whose decoded value is outside [low, high]."""
        vals = self.values
        return (vals < low) | (vals > high)

    def sign_integer_words(self) -> np.ndarray:
        """Raw words masked to sign+integer bits only.

        The range-based anomaly detector compares these truncated words
        against the instrumented bounds so the comparator hardware can skip
        the fractional bits entirely (Sec. 5.2).
        """
        return self._raw & self.qformat.sign_and_integer_mask

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        label = f" {self.name!r}" if self.name else ""
        return f"QTensor({self.qformat},{label} shape={self._shape})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QTensor):
            return NotImplemented
        return (
            self.qformat == other.qformat
            and self._shape == other._shape
            and bool(np.array_equal(self._raw, other._raw))
        )

    def __hash__(self) -> int:  # QTensors are mutable; identity hash
        return id(self)

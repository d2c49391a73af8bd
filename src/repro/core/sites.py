"""Fault-site addressing.

A fault is located by *which buffer*, *which element* and *which bit* it
affects.  :class:`FaultPattern` captures a concrete set of such sites (the
output of sampling a fault model at some bit error rate) so that permanent
faults can be re-applied to the same physical locations every time the
underlying memory is rewritten, and so experiments can report exactly what
was injected.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.quant.qtensor import QTensor

__all__ = ["FaultPattern", "BufferSelector", "apply_patterns_stacked"]


@dataclass(frozen=True)
class FaultPattern:
    """A concrete set of faulty bits inside one named buffer.

    Attributes
    ----------
    buffer_name:
        Name of the targeted buffer (e.g. ``"qtable"`` or
        ``"weight:fc2.weight"``).
    element_indices / bit_positions:
        Parallel arrays addressing each faulty bit (flat element index and
        bit position, LSB = 0).
    stuck_value:
        ``None`` for transient bit-flips, 0 or 1 for stuck-at faults.
    """

    buffer_name: str
    element_indices: np.ndarray
    bit_positions: np.ndarray
    stuck_value: Optional[int] = None

    def __post_init__(self) -> None:
        elements = np.asarray(self.element_indices, dtype=np.int64)
        bits = np.asarray(self.bit_positions, dtype=np.int64)
        if elements.shape != bits.shape:
            raise ValueError("element_indices and bit_positions must have the same shape")
        if self.stuck_value not in (None, 0, 1):
            raise ValueError(f"stuck_value must be None, 0 or 1, got {self.stuck_value}")
        object.__setattr__(self, "element_indices", elements)
        object.__setattr__(self, "bit_positions", bits)

    @property
    def num_faults(self) -> int:
        """Number of faulty bits in this pattern."""
        return int(self.element_indices.size)

    @property
    def is_permanent(self) -> bool:
        return self.stuck_value is not None

    def apply(self, tensor: QTensor) -> None:
        """Apply the pattern to a buffer in place."""
        if self.num_faults == 0:
            return
        if self.element_indices.max(initial=0) >= tensor.size:
            raise ValueError(
                f"pattern addresses element {int(self.element_indices.max())} but "
                f"buffer {tensor.name!r} has only {tensor.size} elements"
            )
        if self.is_permanent:
            tensor.inject_stuck_at(self.element_indices, self.bit_positions, self.stuck_value)
        else:
            tensor.inject_bit_flips(self.element_indices, self.bit_positions)

    def describe(self) -> Dict[str, object]:
        """Summary dictionary for experiment logs."""
        kind = "transient" if not self.is_permanent else f"stuck-at-{self.stuck_value}"
        return {
            "buffer": self.buffer_name,
            "kind": kind,
            "num_faults": self.num_faults,
        }


def apply_patterns_stacked(
    patterns: Sequence[Optional[FaultPattern]], tensor: QTensor
) -> None:
    """Apply one fault pattern per replica to a stacked ``(B, ...)`` buffer.

    ``tensor`` holds B replicas of one logical buffer along its leading
    axis (see :meth:`~repro.quant.qtensor.QTensor.replicate`);
    ``patterns[r]`` addresses flat elements of replica ``r``'s *unit*
    buffer, exactly as it would address the scalar buffer.  ``None``
    entries (and empty patterns) leave their replica untouched.

    The B patterns must share one fault kind (transient, stuck-at-0 or
    stuck-at-1), as patterns sampled from one fault model do; mixed kinds
    raise ``ValueError``.  Their sites are concatenated and applied through
    one :meth:`~repro.quant.qtensor.QTensor.inject_bit_flips` or
    :meth:`~repro.quant.qtensor.QTensor.inject_stuck_at` pass (one buffer
    copy + one scatter).  Each replica's sites land in its own disjoint
    flat range, so the result is bit-identical to applying every pattern to
    its replica's slice on its own.
    """
    if tensor.shape == () or tensor.shape[0] != len(patterns):
        raise ValueError(
            f"stacked buffer {tensor.name!r} has leading axis "
            f"{tensor.shape[0] if tensor.shape else 'none'} but "
            f"{len(patterns)} patterns were given"
        )
    kinds = {pattern.stuck_value for pattern in patterns if pattern is not None}
    if len(kinds) > 1:
        raise ValueError(
            f"patterns for {tensor.name!r} mix fault kinds; apply one kind per call"
        )
    unit_size = tensor.size // len(patterns)
    all_elements: List[np.ndarray] = []
    all_bits: List[np.ndarray] = []
    for replica, pattern in enumerate(patterns):
        if pattern is None or pattern.num_faults == 0:
            continue
        elements = pattern.element_indices
        if elements.max() >= unit_size:
            raise ValueError(
                f"pattern for replica {replica} addresses element "
                f"{int(elements.max())} but each replica of "
                f"{tensor.name!r} has only {unit_size} elements"
            )
        all_elements.append(elements + replica * unit_size if replica else elements)
        all_bits.append(pattern.bit_positions)

    if not all_elements:
        return
    # One faulted replica (every pass of a one-replica batch) needs no copies.
    if len(all_elements) == 1:
        (elements,), (bits,) = all_elements, all_bits
    else:
        elements, bits = np.concatenate(all_elements), np.concatenate(all_bits)
    (stuck_value,) = kinds
    if stuck_value is None:
        tensor.inject_bit_flips(elements, bits)
    else:
        tensor.inject_stuck_at(elements, bits, stuck_value)


@dataclass
class BufferSelector:
    """Selects which buffers a fault model targets.

    Buffers can be selected by exact name, by prefix (e.g. ``"weight:"`` for
    all weight buffers), by layer name (e.g. ``"fc2"``), or by an arbitrary
    predicate.  An empty selector matches every buffer.
    """

    names: Sequence[str] = field(default_factory=tuple)
    prefixes: Sequence[str] = field(default_factory=tuple)
    layers: Sequence[str] = field(default_factory=tuple)
    predicate: Optional[Callable[[str], bool]] = None

    def matches(self, buffer_name: str) -> bool:
        if not (self.names or self.prefixes or self.layers or self.predicate):
            return True
        if buffer_name in self.names:
            return True
        if any(buffer_name.startswith(prefix) for prefix in self.prefixes):
            return True
        for layer in self.layers:
            # Weight buffers are named "weight:<layer>.<param>",
            # activation buffers "activation:<layer>".
            if f":{layer}." in buffer_name or buffer_name.endswith(f":{layer}"):
                return True
        if self.predicate is not None and self.predicate(buffer_name):
            return True
        return False

    def select(self, buffers: Dict[str, QTensor]) -> Dict[str, QTensor]:
        """Subset of ``buffers`` matching this selector (raises if empty)."""
        selected = {name: t for name, t in buffers.items() if self.matches(name)}
        if not selected:
            raise ValueError(
                f"selector matched no buffers; available: {sorted(buffers)}"
            )
        return selected

    @classmethod
    def all_weights(cls) -> "BufferSelector":
        """Every weight buffer of an NN policy."""
        return cls(prefixes=("weight:",))

    @classmethod
    def for_layer(cls, layer_name: str) -> "BufferSelector":
        """Weight/activation buffers belonging to one named layer."""
        return cls(layers=(layer_name,))

    @classmethod
    def by_name(cls, *names: str) -> "BufferSelector":
        return cls(names=tuple(names))

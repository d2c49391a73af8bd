"""Range-based anomaly detection for inference (Sec. 5.2).

After training, the value range of every layer's weights and activations is
instrumented; during inference each value read from a buffer is compared —
using only its sign and integer bits — against the instrumented range widened
by a detection margin (10% in the paper).  Values outside the range raise an
alarm and the operations consuming them are skipped, which in a sparse NN is
well-approximated by treating the value as zero.

The detector is *value-level*, not bit-level: bit-flips that land in the
fractional part (or that leave the value inside the trained range) are
deliberately ignored, because they rarely change the selected action.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple, Union

import numpy as np

from repro.nn.buffers import BatchedQuantizedExecutor, LayerRangeProfile, QuantizedExecutor
from repro.nn.layers import Layer
from repro.quant.qtensor import QTensor

__all__ = ["RangeAnomalyDetector", "estimate_runtime_overhead"]


@dataclass
class _DetectionCounters:
    checked_values: int = 0
    detected_anomalies: int = 0


class RangeAnomalyDetector:
    """Detects and suppresses out-of-range values in quantized buffers.

    Parameters
    ----------
    profile:
        Per-layer weight/activation ranges instrumented on the clean policy
        (see :meth:`repro.nn.buffers.QuantizedExecutor.profile_ranges`).
    margin:
        Detection margin applied to each bound (0.1 = 10%).
    compare_integer_bits_only:
        If True (paper default) the comparison uses only the sign and integer
        bits of each value, i.e. a value is anomalous only when its *integer
        part* falls outside the widened range.  This keeps the comparator
        narrow in hardware while catching the high-magnitude corruptions that
        actually destroy flight quality.
    """

    def __init__(
        self,
        profile: LayerRangeProfile,
        margin: float = 0.1,
        compare_integer_bits_only: bool = True,
    ) -> None:
        if margin < 0:
            raise ValueError(f"margin must be non-negative, got {margin}")
        self.profile = profile
        self.margin = margin
        self.compare_integer_bits_only = compare_integer_bits_only
        self.counters = _DetectionCounters()
        self.per_layer_detections: Dict[str, int] = {}

    # ------------------------------------------------------------------ #
    # Core check
    # ------------------------------------------------------------------ #
    def _effective_bound(self, bound: Tuple[float, float]) -> Tuple[float, float]:
        low, high = bound
        span = self.margin * max(abs(low), abs(high))
        low, high = low - span, high + span
        if self.compare_integer_bits_only:
            # Comparing sign+integer bits is equivalent to comparing the
            # floor of the value against integer-resolution bounds.
            low, high = math.floor(low), math.ceil(high)
        return low, high

    def _anomaly_mask(self, values: np.ndarray, bound: Tuple[float, float]) -> np.ndarray:
        low, high = self._effective_bound(bound)
        if self.compare_integer_bits_only:
            compared = np.floor(values)
        else:
            compared = values
        return (compared < low) | (compared > high)

    def filter_tensor(
        self, tensor: QTensor, bound: Tuple[float, float], layer_name: str
    ) -> int:
        """Zero out anomalous elements of ``tensor`` in place; return the count."""
        values = tensor.values
        mask = self._anomaly_mask(values, bound)
        count = int(mask.sum())
        self.counters.checked_values += values.size
        self.counters.detected_anomalies += count
        self.per_layer_detections[layer_name] = (
            self.per_layer_detections.get(layer_name, 0) + count
        )
        if count:
            values[mask] = 0.0
            tensor.values = values
        return count

    # ------------------------------------------------------------------ #
    # Integration points
    # ------------------------------------------------------------------ #
    def activation_hook(self, tensor: QTensor, layer: Optional[Layer]) -> None:
        """Buffer hook for :class:`QuantizedExecutor` activation buffers."""
        if layer is None:
            return
        bound = self.profile.activation_ranges.get(layer.name)
        if bound is None:
            return
        self.filter_tensor(tensor, self.profile.activation_bound(layer.name, self.margin), layer.name)

    def apply_to_weights(
        self, executor: Union[QuantizedExecutor, BatchedQuantizedExecutor]
    ) -> int:
        """Scrub the executor's weight buffers; returns total anomalies removed.

        Call after weight faults have been injected (statically) and before
        running inference, mirroring the detector sitting on the filter
        buffer's read port.  A batched executor's stacked buffers are
        scrubbed for every replica at once (the bounds are per layer).
        """
        total = 0

        def scrub(param_name: str, tensor: QTensor) -> None:
            nonlocal total
            layer_name = param_name.split(".", 1)[0]
            bound = self.profile.weight_ranges.get(layer_name)
            if bound is None:
                return
            total += self.filter_tensor(
                tensor, self.profile.weight_bound(layer_name, self.margin), layer_name
            )

        executor.apply_weight_faults(scrub)
        return total

    # ------------------------------------------------------------------ #
    # Reporting
    # ------------------------------------------------------------------ #
    @property
    def detection_rate(self) -> float:
        """Fraction of checked values flagged as anomalous."""
        if self.counters.checked_values == 0:
            return 0.0
        return self.counters.detected_anomalies / self.counters.checked_values

    def reset_counters(self) -> None:
        self.counters = _DetectionCounters()
        self.per_layer_detections.clear()


def estimate_runtime_overhead(
    qformat_total_bits: int,
    sign_integer_bits: int,
    macs_per_value: float = 16.0,
) -> float:
    """Analytical runtime-overhead estimate of the range detector.

    Every value read from a buffer incurs one narrow comparison over its sign
    and integer bits, against ``macs_per_value`` multiply-accumulates that
    consume the same buffered value before it is re-read (convolution reuses
    each buffered input/filter value across at least a small output tile; 16
    is a conservative reuse factor for the C3F2 layer shapes).  A b-bit
    comparison costs roughly ``b / total_bits`` of a full-word operation, so
    the relative overhead is::

        (sign_integer_bits / total_bits) / macs_per_value

    With Q(1,4,11) this is about 2.0%, consistent with the paper's "<3%
    runtime overhead" claim.
    """
    if qformat_total_bits <= 0 or sign_integer_bits <= 0:
        raise ValueError("bit widths must be positive")
    if sign_integer_bits > qformat_total_bits:
        raise ValueError("sign_integer_bits cannot exceed the word width")
    if macs_per_value <= 0:
        raise ValueError(f"macs_per_value must be positive, got {macs_per_value}")
    return (sign_integer_bits / qformat_total_bits) / macs_per_value

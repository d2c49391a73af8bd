"""Accelerator buffer model and quantized execution.

The paper's fault model targets the on-chip memories of an edge NN
accelerator: the *input buffer* (feature maps), the *filter buffer* (weights)
and the *output buffer* (activations).  Faults in MAC datapaths are assumed to
manifest as corrupted values in the output buffer (Sec. 3.2).

:class:`BufferSet` materializes those memories as named
:class:`~repro.quant.qtensor.QTensor` instances, and
:class:`QuantizedExecutor` runs a :class:`~repro.nn.network.Sequential`
network *through* them: inputs, weights and every layer's activations are
quantized into their buffers where fault injectors and the anomaly detector
can observe and mutate them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.nn.layers import Layer
from repro.nn.network import Sequential
from repro.quant.qformat import QFormat
from repro.quant.qtensor import QTensor

__all__ = [
    "BufferSet",
    "QuantizedExecutor",
    "BatchedQuantizedExecutor",
    "LayerRangeProfile",
    "INPUT_BUFFER",
    "weight_buffer_name",
    "activation_buffer_name",
]

#: Canonical name of the input (feature-map) buffer.
INPUT_BUFFER = "input"


def weight_buffer_name(param_name: str) -> str:
    """Buffer name for a network parameter (e.g. ``"weight:conv1.weight"``)."""
    return f"weight:{param_name}"


def activation_buffer_name(layer_name: str) -> str:
    """Buffer name for a layer's output activations."""
    return f"activation:{layer_name}"


class BufferSet:
    """The set of named quantized memories backing a network's execution.

    Weight buffers are persistent (created from the network's trained
    parameters); the input and activation buffers are transient and rewritten
    on every forward pass, mirroring how the accelerator reuses its SRAM.
    """

    def __init__(self, network: Sequential, qformat: QFormat) -> None:
        self.network = network
        self.qformat = qformat
        self.buffers: Dict[str, QTensor] = {}
        self.refresh_weights_from_network()

    # ------------------------------------------------------------------ #
    # Weight buffers
    # ------------------------------------------------------------------ #
    def refresh_weights_from_network(self) -> None:
        """Re-quantize all network parameters into their weight buffers."""
        for name, param in self.network.named_params().items():
            buffer_name = weight_buffer_name(name)
            self.buffers[buffer_name] = QTensor(param, self.qformat, name=buffer_name)

    def sync_weights_to_network(self) -> None:
        """Decode weight buffers back into the network parameters.

        Any faults injected into the weight buffers become visible to the
        float execution path after this call.
        """
        params = self.network.named_params()
        for name, param in params.items():
            buffer = self.buffers.get(weight_buffer_name(name))
            if buffer is not None:
                param[...] = buffer.values

    def weight_buffers(self) -> Dict[str, QTensor]:
        """All weight buffers keyed by buffer name."""
        return {
            name: tensor
            for name, tensor in self.buffers.items()
            if name.startswith("weight:")
        }

    def weight_buffers_for_layer(self, layer_name: str) -> Dict[str, QTensor]:
        """Weight buffers whose parameter belongs to ``layer_name``."""
        prefix = f"weight:{layer_name}."
        return {
            name: tensor
            for name, tensor in self.buffers.items()
            if name.startswith(prefix)
        }

    # ------------------------------------------------------------------ #
    # Transient buffers
    # ------------------------------------------------------------------ #
    def write_input(self, values: np.ndarray) -> QTensor:
        """Quantize input feature maps into the input buffer."""
        tensor = QTensor(values, self.qformat, name=INPUT_BUFFER)
        self.buffers[INPUT_BUFFER] = tensor
        return tensor

    def write_activation(self, layer_name: str, values: np.ndarray) -> QTensor:
        """Quantize a layer's output into its activation buffer."""
        name = activation_buffer_name(layer_name)
        tensor = QTensor(values, self.qformat, name=name)
        self.buffers[name] = tensor
        return tensor

    def get(self, name: str) -> QTensor:
        if name not in self.buffers:
            raise KeyError(f"no buffer named {name!r}; known: {sorted(self.buffers)}")
        return self.buffers[name]

    def names(self) -> List[str]:
        return sorted(self.buffers)

    def total_bits(self) -> int:
        """Total number of memory bits across all current buffers."""
        return sum(t.size * t.qformat.total_bits for t in self.buffers.values())


@dataclass
class LayerRangeProfile:
    """Per-layer value ranges instrumented on the fault-free trained policy.

    Used by the range-based anomaly detector (Sec. 5.2): after training, the
    minimum/maximum of every layer's weights and activations are recorded;
    during inference a configurable margin (10% in the paper) is applied and
    any value outside the widened bound is declared anomalous.
    """

    weight_ranges: Dict[str, Tuple[float, float]] = field(default_factory=dict)
    activation_ranges: Dict[str, Tuple[float, float]] = field(default_factory=dict)

    def record_weight(self, layer_name: str, values: np.ndarray) -> None:
        self.weight_ranges[layer_name] = _merge_range(
            self.weight_ranges.get(layer_name), values
        )

    def record_activation(self, layer_name: str, values: np.ndarray) -> None:
        self.activation_ranges[layer_name] = _merge_range(
            self.activation_ranges.get(layer_name), values
        )

    def weight_bound(self, layer_name: str, margin: float = 0.1) -> Tuple[float, float]:
        """Widened (low, high) bound for a layer's weights."""
        return _widen(self.weight_ranges[layer_name], margin)

    def activation_bound(
        self, layer_name: str, margin: float = 0.1
    ) -> Tuple[float, float]:
        """Widened (low, high) bound for a layer's activations."""
        return _widen(self.activation_ranges[layer_name], margin)

    def layers(self) -> List[str]:
        return sorted(set(self.weight_ranges) | set(self.activation_ranges))


def _merge_range(
    existing: Optional[Tuple[float, float]], values: np.ndarray
) -> Tuple[float, float]:
    lo = float(np.min(values))
    hi = float(np.max(values))
    if existing is not None:
        lo = min(lo, existing[0])
        hi = max(hi, existing[1])
    return lo, hi


def _widen(bound: Tuple[float, float], margin: float) -> Tuple[float, float]:
    lo, hi = bound
    span = margin * max(abs(lo), abs(hi))
    return lo - span, hi + span


#: Hook signature used by the executor: called with the buffer holding a
#: freshly written tensor plus the owning layer (None for the input buffer);
#: the hook may mutate the QTensor in place.
BufferHook = Callable[[QTensor, Optional[Layer]], None]


class QuantizedExecutor:
    """Run a network through quantized accelerator buffers.

    Parameters
    ----------
    network:
        The trained policy network.
    qformat:
        Fixed-point format of every buffer.
    input_hooks / activation_hooks:
        Callables applied after the input / each layer's activations are
        written to their buffer — this is where dynamic (input-dependent)
        transient faults and the anomaly detector plug in.
    """

    def __init__(
        self,
        network: Sequential,
        qformat: QFormat,
        input_hooks: Optional[List[BufferHook]] = None,
        activation_hooks: Optional[List[BufferHook]] = None,
    ) -> None:
        self.network = network
        self.qformat = qformat
        self.buffer_set = BufferSet(network, qformat)
        self.input_hooks: List[BufferHook] = list(input_hooks or [])
        self.activation_hooks: List[BufferHook] = list(activation_hooks or [])
        self._clean_state = network.state_dict()

    # ------------------------------------------------------------------ #
    # Weight-side fault plumbing
    # ------------------------------------------------------------------ #
    def restore_clean_weights(self) -> None:
        """Undo any weight-buffer faults by restoring the trained parameters."""
        self.network.load_state_dict(self._clean_state)
        self.buffer_set.refresh_weights_from_network()

    def apply_weight_faults(self, mutator: Callable[[str, QTensor], None]) -> None:
        """Apply a mutator to every weight buffer, then sync to the network.

        ``mutator(param_name, qtensor)`` receives the *network* parameter name
        (e.g. ``"fc2.weight"``) and the buffer tensor to corrupt in place.
        """
        for buffer_name, tensor in self.buffer_set.weight_buffers().items():
            param_name = buffer_name.split(":", 1)[1]
            mutator(param_name, tensor)
        self.buffer_set.sync_weights_to_network()

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def forward(self, x: np.ndarray) -> np.ndarray:
        """Quantized forward pass through input and activation buffers."""
        input_tensor = self.buffer_set.write_input(x)
        for hook in self.input_hooks:
            hook(input_tensor, None)
        out = input_tensor.values
        for layer in self.network.layers:
            out = layer.forward(out, training=False)
            activation = self.buffer_set.write_activation(layer.name, out)
            for hook in self.activation_hooks:
                hook(activation, layer)
            out = activation.values
        return out

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)

    # ------------------------------------------------------------------ #
    # Range profiling (for the anomaly detector)
    # ------------------------------------------------------------------ #
    def profile_ranges(self, calibration_inputs: np.ndarray) -> LayerRangeProfile:
        """Instrument per-layer weight and activation ranges on clean inputs.

        ``calibration_inputs`` is a batch of representative states; the
        profile records the min/max of each layer's quantized weights and of
        the activations it produces on the calibration batch.
        """
        profile = LayerRangeProfile()
        for buffer_name, tensor in self.buffer_set.weight_buffers().items():
            param_name = buffer_name.split(":", 1)[1]
            layer_name = param_name.split(".", 1)[0]
            profile.record_weight(layer_name, tensor.values)
        out = QTensor(calibration_inputs, self.qformat).values
        for layer in self.network.layers:
            out = layer.forward(out, training=False)
            quantized = self.qformat.quantize(out)
            profile.record_activation(layer.name, quantized)
            out = quantized
        return profile


class BatchedQuantizedExecutor:
    """Run B fault-injected replicas of one network through stacked buffers.

    This is the vectorized counterpart of :class:`QuantizedExecutor`: every
    weight buffer is held as one ``(B, *param_shape)`` stacked
    :class:`~repro.quant.qtensor.QTensor`, so B independently sampled fault
    patterns can be applied in a single bit operation (see
    :func:`~repro.core.sites.apply_patterns_stacked`), and a forward pass
    evaluates all replicas through one stacked numpy call per layer.

    The semantics mirror the scalar executor replica-wise, and every
    replica's result is bit-identical to what a scalar
    :class:`QuantizedExecutor` produces for the same faults:

    * before :meth:`apply_weight_faults` is called, forwards use the live
      (float) network parameters broadcast across replicas — exactly like a
      fresh scalar executor, whose construction does not quantize the
      network in place;
    * after it, forwards use each replica's decoded (quantized, possibly
      corrupted) weight stack — exactly like a scalar executor after its
      ``apply_weight_faults`` synced the buffers back into the network.

    Unlike the scalar executor, the batched one never mutates the network
    it wraps, so no ``restore_clean_weights`` step is needed between
    trials.  :meth:`apply_weight_faults` keeps the scalar contract, so a
    weight mutator written for :class:`QuantizedExecutor` — such as the
    range detector's weight scrub — applies to every replica unchanged.

    Parameters
    ----------
    network:
        The trained policy network (read-only from this executor's side).
    qformat:
        Fixed-point format of every buffer.
    n_replicas:
        Number of replicas B evaluated together.
    input_hooks / activation_hooks:
        As for :class:`QuantizedExecutor`, but each hook receives the
        *stacked* ``(B, ...)`` buffer.
    """

    def __init__(
        self,
        network: Sequential,
        qformat: QFormat,
        n_replicas: int,
        input_hooks: Optional[List[BufferHook]] = None,
        activation_hooks: Optional[List[BufferHook]] = None,
    ) -> None:
        if n_replicas <= 0:
            raise ValueError(f"n_replicas must be positive, got {n_replicas}")
        self.network = network
        self.qformat = qformat
        self.n_replicas = n_replicas
        self.input_hooks: List[BufferHook] = list(input_hooks or [])
        self.activation_hooks: List[BufferHook] = list(activation_hooks or [])
        #: Unit-shaped clean quantized buffers, used as sampling templates.
        self.unit_buffers: Dict[str, QTensor] = {}
        #: Stacked (B, *shape) quantized weight buffers, one per parameter.
        self.weight_buffers: Dict[str, QTensor] = {}
        for name, param in network.named_params().items():
            buffer_name = weight_buffer_name(name)
            unit = QTensor(param, qformat, name=buffer_name)
            self.unit_buffers[buffer_name] = unit
            self.weight_buffers[buffer_name] = unit.replicate(n_replicas)
        self._param_stacks: Optional[Dict[str, Dict[str, np.ndarray]]] = None
        #: The last replica subset's weight stacks, keyed by its indices.
        self._subset: Optional[Tuple[np.ndarray, Dict[str, Dict[str, np.ndarray]]]] = None

    @property
    def faulted(self) -> bool:
        """Whether the stacked weight buffers have been made the active weights."""
        return self._param_stacks is not None

    def restore_clean_weights(self) -> None:
        """Return the stacked buffers to their clean pre-fault state.

        Every stacked weight buffer goes back to B bit-identical copies of
        the clean quantized parameters and the stacks are deactivated, so a
        reused executor is indistinguishable from a freshly constructed one
        (campaign engines reuse one executor across batches instead of
        re-encoding the network's weights every batch).
        """
        for buffer_name, stacked in self.weight_buffers.items():
            unit = self.unit_buffers[buffer_name]
            stacked.raw = np.broadcast_to(unit.raw, stacked.shape)
        self._param_stacks = None
        self._subset = None

    # ------------------------------------------------------------------ #
    # Weight-side fault plumbing
    # ------------------------------------------------------------------ #
    def apply_weight_faults(self, mutator: Callable[[str, QTensor], None]) -> None:
        """Apply a mutator to every stacked weight buffer, then activate them.

        ``mutator(param_name, stacked_tensor)`` receives the *network*
        parameter name (e.g. ``"fc2.weight"``) and the ``(B, *shape)``
        stacked buffer to corrupt in place — typically through
        :func:`~repro.core.sites.apply_patterns_stacked`.  Buffers are
        visited in the same order the scalar executor visits them.  After
        the sweep, the decoded stacks become the active weights for
        :meth:`forward` (the stacked analogue of the scalar executor's
        sync back into the network).
        """
        for buffer_name, stacked in self.weight_buffers.items():
            mutator(buffer_name.split(":", 1)[1], stacked)
        stacks: Dict[str, Dict[str, np.ndarray]] = {}
        for buffer_name, stacked in self.weight_buffers.items():
            param_name = buffer_name.split(":", 1)[1]
            layer_name, local_name = param_name.split(".", 1)
            stacks.setdefault(layer_name, {})[local_name] = stacked.values
        self._param_stacks = stacks
        self._subset = None

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def _stacks_for(
        self, replicas: Optional[np.ndarray]
    ) -> Optional[Dict[str, Dict[str, np.ndarray]]]:
        if self._param_stacks is None:
            return None
        if replicas is None or (
            # Full-batch identity (the common case while every replica's
            # episode is still running): skip the fancy-index copy of every
            # weight stack on the hot path.
            replicas.size == self.n_replicas
            and np.array_equal(replicas, np.arange(self.n_replicas))
        ):
            return self._param_stacks
        # Replicas drop out only as their episodes end, so consecutive steps
        # usually evaluate the same subset: keep its gathered stacks.
        if self._subset is not None and np.array_equal(replicas, self._subset[0]):
            return self._subset[1]
        self._subset = None
        subset = {
            layer_name: {local: stack[replicas] for local, stack in locals_.items()}
            for layer_name, locals_ in self._param_stacks.items()
        }
        self._subset = (replicas.copy(), subset)
        return subset

    def forward(
        self, x: np.ndarray, replicas: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Quantized forward pass of the selected replicas.

        ``x`` has shape ``(k, *scalar_input_shape)`` where
        ``scalar_input_shape`` is what the scalar executor's ``forward``
        receives (including its own leading batch axis).  ``replicas``
        selects which replica's weights evaluate each row of ``x``
        (default: row ``i`` uses replica ``i``; required when ``k`` differs
        from ``n_replicas``, e.g. when some replicas have already finished
        their episodes).
        """
        x = np.asarray(x, dtype=np.float64)
        if replicas is not None:
            replicas = np.asarray(replicas, dtype=np.int64)
            if replicas.shape != (x.shape[0],):
                raise ValueError(
                    f"replicas must have shape ({x.shape[0]},), got {replicas.shape}"
                )
        elif x.shape[0] != self.n_replicas:
            raise ValueError(
                f"got {x.shape[0]} input rows for {self.n_replicas} replicas; "
                "pass replica indices to evaluate a subset"
            )
        # Without hooks the buffer QTensors are unobservable (the batched
        # executor keeps no persistent activation buffers), so the common
        # fault-free forward quantizes through the format directly — the same
        # encode/decode round trip without the per-layer tensor wrapping.
        if self.input_hooks:
            input_tensor = QTensor(x, self.qformat, name=INPUT_BUFFER)
            for hook in self.input_hooks:
                hook(input_tensor, None)
            x_q = input_tensor.values
        else:
            x_q = self.qformat.quantize(x)
        param_stacks = self._stacks_for(replicas)

        if self.activation_hooks:

            def quantize(index: int, layer, out: np.ndarray) -> np.ndarray:
                activation = QTensor(
                    out, self.qformat, name=activation_buffer_name(layer.name)
                )
                for hook in self.activation_hooks:
                    hook(activation, layer)
                return activation.values

            return self.network.forward_replicas(x_q, param_stacks, hooks=[quantize])

        # No activation hooks (the common fault-free-activations hot path):
        # run the fused per-layer forward+quantize kernels — bit-identical to
        # the hook formulation above with a plain qformat.quantize hook.
        return self.network.forward_replicas_quantized(x_q, param_stacks, self.qformat)

    def __call__(self, x: np.ndarray, replicas: Optional[np.ndarray] = None) -> np.ndarray:
        return self.forward(x, replicas=replicas)

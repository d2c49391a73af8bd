"""Batched fault-injected inference evaluation.

:class:`BatchedEvaluator` is the orchestration layer of the batched
inference-campaign engine: it evaluates B *replicas* of one trained policy —
each carrying an independently sampled fault pattern — through a single
vectorized pipeline:

* the replicas' quantized weight buffers live as stacked ``(B, ...)``
  tensors in a :class:`~repro.nn.buffers.BatchedQuantizedExecutor`;
* the B fault patterns are applied with one vectorized bit operation per
  buffer (:func:`~repro.core.sites.apply_patterns_stacked`);
* forward passes evaluate all replicas through one stacked numpy call per
  layer, with the same per-layer activation quantization as the scalar
  :class:`~repro.nn.buffers.QuantizedExecutor`.

The engine is *differentially exact*: every replica's Q-values (and hence
greedy actions, episode trajectories and campaign outcomes) are
bit-identical to evaluating that replica's faults through the scalar
executor.  Fault sites are sampled per replica from that replica's own
trial RNG, in the scalar executor's buffer order, so a trial's outcome does
not depend on the batch it ran in; a single trial is a one-replica batch.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.fault_models import FaultModel
from repro.core.sites import BufferSelector, FaultPattern, apply_patterns_stacked
from repro.nn.buffers import BatchedQuantizedExecutor, weight_buffer_name
from repro.nn.network import Sequential
from repro.quant.qformat import QFormat
from repro.quant.qtensor import QTensor

__all__ = ["BatchedEvaluator"]


class BatchedEvaluator:
    """Evaluates B fault-injected replicas of a quantized policy at once.

    Parameters
    ----------
    network:
        The trained policy network (never mutated by the evaluator).
    qformat:
        Fixed-point format of the accelerator buffers.
    n_replicas:
        Number of replicas B evaluated together.  A batched campaign maps
        one campaign trial onto one replica, so B is the campaign engine's
        ``batch_size`` (ragged final batches simply build a smaller
        evaluator).
    """

    def __init__(self, network: Sequential, qformat: QFormat, n_replicas: int) -> None:
        self.network = network
        self.qformat = qformat
        self.executor = BatchedQuantizedExecutor(network, qformat, n_replicas)

    @property
    def n_replicas(self) -> int:
        return self.executor.n_replicas

    def restore_clean_weights(self) -> None:
        """Undo injected weight faults (see ``BatchedQuantizedExecutor``)."""
        self.executor.restore_clean_weights()

    # ------------------------------------------------------------------ #
    # Fault injection
    # ------------------------------------------------------------------ #
    def inject_weight_faults(
        self,
        fault_model: FaultModel,
        rngs: Sequence[np.random.Generator],
        selector: Optional[BufferSelector] = None,
    ) -> Dict[str, List[FaultPattern]]:
        """Sample and apply one independent fault pattern per replica.

        ``rngs[r]`` is replica ``r``'s trial generator.  For every selected
        weight buffer — visited in the same order the scalar executor visits
        them — a pattern is sampled per replica from that replica's
        generator, and the B patterns are then applied to the stacked buffer
        in one vectorized bit operation.  Each replica's RNG consumption and
        resulting buffer bits exactly match the scalar
        ``executor.apply_weight_faults(lambda name, t: model.inject(t, rng))``
        on a :class:`~repro.nn.buffers.QuantizedExecutor`.

        Returns the sampled patterns keyed by buffer name (one list entry
        per replica), so permanent faults can be re-applied after rewrites
        with :func:`~repro.core.sites.apply_patterns_stacked`.
        """
        if len(rngs) != self.n_replicas:
            raise ValueError(
                f"got {len(rngs)} generators for {self.n_replicas} replicas"
            )
        selector = selector or BufferSelector()
        all_patterns: Dict[str, List[FaultPattern]] = {}

        def mutator(param_name: str, stacked: QTensor) -> None:
            buffer_name = weight_buffer_name(param_name)
            if not (selector.matches(buffer_name) or selector.matches(param_name)):
                return
            template = self.executor.unit_buffers[buffer_name]
            patterns = [fault_model.sample_pattern(template, rng) for rng in rngs]
            apply_patterns_stacked(patterns, stacked)
            all_patterns[buffer_name] = patterns

        self.executor.apply_weight_faults(mutator)
        return all_patterns

    # ------------------------------------------------------------------ #
    # Inference
    # ------------------------------------------------------------------ #
    def forward(
        self, x: np.ndarray, replicas: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Quantized stacked forward pass (see ``BatchedQuantizedExecutor``)."""
        return self.executor.forward(x, replicas=replicas)

    def greedy_actions(
        self, x: np.ndarray, replicas: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Greedy action per replica: ``argmax`` over each replica's Q-row.

        ``x`` stacks each replica's encoded state as ``(k, 1, features)``;
        the result is the ``int(np.argmax(q))`` the scalar inference loop
        computes, for every replica at once.
        """
        q = self.forward(x, replicas=replicas)
        return q.reshape(q.shape[0], -1).argmax(axis=1)

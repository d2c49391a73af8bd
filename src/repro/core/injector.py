"""Static and dynamic fault injection (Sec. 3.3).

Injection is performed in two modes:

* **Static** — before training or before inference begins: permanent faults
  (which are independent of execution) and transient faults in weights
  (which are known once training has finished).
* **Dynamic** — during execution, implemented as cheap tensor operations on
  the quantized buffers: transient faults in activations (input-dependent)
  and training-time faults at a chosen episode/step.

Training-time injection is packaged as :class:`~repro.rl.trainer.TrainingHooks`
subclasses so fault campaigns compose with the ordinary training loop, and
inference-time activation/input injection as buffer hooks for
:class:`~repro.nn.buffers.QuantizedExecutor`.
"""

from __future__ import annotations

import logging
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.fault_models import FaultModel, StuckAtFault, TransientBitFlip
from repro.core.sites import BufferSelector, FaultPattern, apply_patterns_stacked
from repro.nn.buffers import QuantizedExecutor
from repro.nn.layers import Layer
from repro.quant.qtensor import QTensor
from repro.rl.base import Agent
from repro.rl.trainer import EpisodeRecord, TrainingHooks

__all__ = [
    "FaultInjector",
    "TransientTrainingFaultHook",
    "PermanentTrainingFaultHook",
    "ActivationFaultInjector",
    "InputFaultInjector",
    "ReplicaFanoutHook",
    "inject_weight_faults",
]

logger = logging.getLogger(__name__)


class FaultInjector:
    """Injects faults into an agent's quantized memory buffers."""

    def __init__(self, rng: Optional[np.random.Generator] = None) -> None:
        self.rng = rng or np.random.default_rng()

    def inject(
        self,
        agent: Agent,
        model: FaultModel,
        selector: Optional[BufferSelector] = None,
    ) -> List[FaultPattern]:
        """Sample and apply faults to every selected buffer of ``agent``.

        Returns the concrete patterns so permanent faults can be re-applied
        later with :meth:`reapply`.
        """
        selector = selector or BufferSelector()
        buffers = agent.memory_buffers()
        selected = selector.select(buffers)
        patterns = [model.inject(tensor, self.rng) for tensor in selected.values()]
        agent.reload_from_buffers()
        return patterns

    def sample(
        self,
        agent: Agent,
        model: FaultModel,
        selector: Optional[BufferSelector] = None,
    ) -> List[FaultPattern]:
        """Sample fault patterns for the selected buffers without applying them."""
        selector = selector or BufferSelector()
        buffers = agent.memory_buffers()
        selected = selector.select(buffers)
        return [model.sample_pattern(tensor, self.rng) for tensor in selected.values()]

    def reapply(self, agent: Agent, patterns: List[FaultPattern]) -> None:
        """Re-apply previously sampled patterns (permanent-fault persistence)."""
        if not patterns:
            return
        buffers = agent.memory_buffers()
        for pattern in patterns:
            tensor = buffers.get(pattern.buffer_name)
            if tensor is None:
                raise KeyError(
                    f"pattern targets unknown buffer {pattern.buffer_name!r}; "
                    f"available: {sorted(buffers)}"
                )
            pattern.apply(tensor)
        agent.reload_from_buffers()


class TransientTrainingFaultHook(TrainingHooks):
    """Inject a transient fault once, at a chosen training episode (and step).

    Matches the campaigns of Fig. 2 / Fig. 7a: bit-flips are injected in a
    single episode (optionally a single step within it) at a given BER, and
    training then continues normally.
    """

    def __init__(
        self,
        bit_error_rate: float,
        inject_episode: int,
        inject_step: Optional[int] = None,
        selector: Optional[BufferSelector] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        if inject_episode < 0:
            raise ValueError(f"inject_episode must be >= 0, got {inject_episode}")
        self.model = TransientBitFlip(bit_error_rate)
        self.inject_episode = inject_episode
        self.inject_step = inject_step
        self.selector = selector or BufferSelector()
        self.injector = FaultInjector(rng)
        self.injected_patterns: List[FaultPattern] = []

    @property
    def has_injected(self) -> bool:
        return bool(self.injected_patterns)

    def _do_inject(self, agent: Agent) -> None:
        self.injected_patterns = self.injector.inject(agent, self.model, self.selector)

    def on_episode_start(self, episode: int, agent: Agent, env) -> None:
        if self.inject_step is None and episode == self.inject_episode:
            self._do_inject(agent)

    def on_step(self, episode: int, step: int, agent: Agent, env, transition) -> None:
        if (
            self.inject_step is not None
            and episode == self.inject_episode
            and step == self.inject_step
            and not self.has_injected
        ):
            self._do_inject(agent)


class PermanentTrainingFaultHook(TrainingHooks):
    """Hold a stuck-at fault pattern in place throughout training.

    The concrete fault sites are sampled once (at ``start_episode``) and then
    re-applied every episode — and optionally every step — because training
    keeps rewriting the underlying memory while the physical defect keeps
    forcing those bits to the stuck level.
    """

    def __init__(
        self,
        bit_error_rate: float,
        stuck_value: int,
        selector: Optional[BufferSelector] = None,
        start_episode: int = 0,
        reapply_every_step: bool = False,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        self.model = StuckAtFault(bit_error_rate, stuck_value=stuck_value)
        self.selector = selector or BufferSelector()
        self.start_episode = start_episode
        self.reapply_every_step = reapply_every_step
        self.injector = FaultInjector(rng)
        self.patterns: List[FaultPattern] = []

    def on_episode_start(self, episode: int, agent: Agent, env) -> None:
        if episode < self.start_episode:
            return
        if not self.patterns:
            self.patterns = self.injector.sample(agent, self.model, self.selector)
        self.injector.reapply(agent, self.patterns)

    def on_step(self, episode: int, step: int, agent: Agent, env, transition) -> None:
        if self.reapply_every_step and self.patterns:
            self.injector.reapply(agent, self.patterns)

    def on_episode_end(self, episode: int, agent: Agent, env, record: EpisodeRecord) -> None:
        if self.patterns:
            self.injector.reapply(agent, self.patterns)


class ActivationFaultInjector:
    """Buffer hook corrupting layer activations during quantized inference.

    ``mode="transient"`` samples fresh fault sites on every forward pass
    (dynamic injection — activations are input-dependent, Sec. 3.3);
    ``mode="permanent"`` samples sites once per buffer and re-applies the
    same stuck-at pattern on every pass.

    Activation buffers are rewritten per forward pass and their size tracks
    the batch size, so a permanent pattern can stop fitting when a smaller
    batch shrinks its buffer.  Such patterns are resampled; each resample is
    logged and counted in :attr:`resample_count` because the new pattern no
    longer pins the *same* physical sites as the old one.
    """

    def __init__(
        self,
        fault_model: FaultModel,
        layer_names: Optional[List[str]] = None,
        mode: str = "transient",
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        if mode not in ("transient", "permanent"):
            raise ValueError(f"mode must be 'transient' or 'permanent', got {mode!r}")
        if mode == "permanent" and not isinstance(fault_model, StuckAtFault):
            raise ValueError("permanent activation injection requires a StuckAtFault model")
        self.fault_model = fault_model
        self.layer_names = set(layer_names) if layer_names else None
        self.mode = mode
        self.rng = rng or np.random.default_rng()
        self._patterns: Dict[str, FaultPattern] = {}
        self.injection_count = 0
        self.resample_count = 0

    def _targets(self, layer: Optional[Layer]) -> bool:
        if layer is None:
            return False
        if self.layer_names is None:
            return True
        return layer.name in self.layer_names

    def pattern(self, tensor: QTensor, layer: Optional[Layer]) -> Optional[FaultPattern]:
        """This pass's fault pattern for ``tensor``, without applying it.

        Returns ``None`` when ``layer`` is not targeted.  Transient mode
        samples fresh sites; permanent mode returns the buffer's pattern,
        sampled on first use and resampled when it no longer fits.  Counts
        the injection.  Only the buffer's name, size and format are read,
        so a stacked fan-out can pass one unit-shaped template for all
        replicas.
        """
        if not self._targets(layer):
            return None
        if self.mode == "transient":
            pattern = self.fault_model.sample_pattern(tensor, self.rng)
        else:
            pattern = self._patterns.get(tensor.name)
            if pattern is not None and pattern.element_indices.max(initial=-1) >= tensor.size:
                self.resample_count += 1
                logger.warning(
                    "permanent fault pattern for buffer %r no longer fits "
                    "(max element %d >= buffer size %d, likely a smaller batch); "
                    "resampling fault sites (resample #%d)",
                    tensor.name,
                    int(pattern.element_indices.max()),
                    tensor.size,
                    self.resample_count,
                )
                pattern = None
            if pattern is None:
                pattern = self.fault_model.sample_pattern(tensor, self.rng)
                self._patterns[tensor.name] = pattern
        self.injection_count += 1
        return pattern

    def __call__(self, tensor: QTensor, layer: Optional[Layer]) -> None:
        pattern = self.pattern(tensor, layer)
        if pattern is not None:
            pattern.apply(tensor)


class InputFaultInjector:
    """Buffer hook corrupting the input (feature-map) buffer each forward pass."""

    def __init__(
        self,
        fault_model: FaultModel,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        self.fault_model = fault_model
        self.rng = rng or np.random.default_rng()
        self.injection_count = 0

    def pattern(self, tensor: QTensor, layer: Optional[Layer]) -> Optional[FaultPattern]:
        """This pass's fault pattern for the input buffer, without applying it.

        Returns ``None`` for activation buffers (``layer`` is not ``None``).
        Counts the injection; reads only the buffer's name, size and format.
        """
        if layer is not None:
            return None
        pattern = self.fault_model.sample_pattern(tensor, self.rng)
        self.injection_count += 1
        return pattern

    def __call__(self, tensor: QTensor, layer: Optional[Layer]) -> None:
        pattern = self.pattern(tensor, layer)
        if pattern is not None:
            pattern.apply(tensor)


class ReplicaFanoutHook:
    """Adapts per-replica scalar buffer hooks to stacked batched buffers.

    The batched executor passes its hooks one ``(k, ...)`` stacked
    :class:`~repro.quant.qtensor.QTensor` covering the ``k`` active replicas
    of a forward pass, while the scalar injectors
    (:class:`ActivationFaultInjector`, :class:`InputFaultInjector`) sample
    patterns for one scalar-shaped buffer.  This hook asks replica ``r``'s
    own injector for its pattern (``hook.pattern(unit, layer)``) against a
    unit-shaped template of the buffer — so each replica consumes its trial
    RNG, counts its injections and caches its permanent patterns exactly as
    the scalar executor would — and applies every replica's pattern to the
    stack in one :func:`~repro.core.sites.apply_patterns_stacked` call.

    Call :meth:`set_replicas` with the active replica indices before every
    forward pass (the batched rollout policy does this); row ``j`` of the
    stacked buffer then maps to ``hooks[indices[j]]``.
    """

    def __init__(self, hooks: Sequence) -> None:
        self.hooks = list(hooks)
        self._replicas = np.arange(len(self.hooks), dtype=np.intp)

    def set_replicas(self, indices: Sequence[int]) -> None:
        """Declare which replica each stacked row belongs to."""
        self._replicas = np.asarray(indices, dtype=np.intp)

    def __call__(self, tensor: QTensor, layer: Optional[Layer]) -> None:
        shape = tensor.shape
        if shape[0] != self._replicas.size:
            raise ValueError(
                f"stacked buffer has {shape[0]} rows for "
                f"{self._replicas.size} active replicas"
            )
        unit = QTensor.from_raw(
            np.zeros(shape[1:], dtype=np.int64), tensor.qformat, name=tensor.name
        )
        patterns = [self.hooks[r].pattern(unit, layer) for r in self._replicas.tolist()]
        apply_patterns_stacked(patterns, tensor)


def inject_weight_faults(
    executor: QuantizedExecutor,
    fault_model: FaultModel,
    selector: Optional[BufferSelector] = None,
    rng: Optional[np.random.Generator] = None,
) -> List[FaultPattern]:
    """Statically corrupt the weight buffers of a quantized executor.

    Transient faults in weights are injected statically since the weights are
    known after training (Sec. 3.3).  The executor's network is updated so
    the faulty values take effect on subsequent forward passes; call
    :meth:`QuantizedExecutor.restore_clean_weights` to undo.
    """
    selector = selector or BufferSelector.all_weights()
    rng = rng or np.random.default_rng()
    patterns: List[FaultPattern] = []

    def mutate(param_name: str, tensor: QTensor) -> None:
        if selector.matches(f"weight:{param_name}") or selector.matches(param_name):
            patterns.append(fault_model.inject(tensor, rng))

    executor.apply_weight_faults(mutate)
    return patterns

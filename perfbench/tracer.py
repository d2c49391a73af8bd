"""Per-layer spans recorded from outside the program.

The benchmark never edits ``src/repro``.  Instead, :class:`Tracer` wraps the
public functions and methods at each module boundary (the ``LAYERS`` table
below) for the duration of one traced driver call and restores the
originals afterwards.  Every wrapped call that crosses into a layer opens a
span; a call made from inside the same layer (``QFormat.quantize`` calling
``QFormat.decode``) is not a boundary crossing and is passed straight
through.

Spans keep name, start, end and parent in flat in-memory arrays and are
written out once, when the traced run ends.  A layer's self time is the
sum over its spans of the span duration minus the durations of its direct
child spans, so the self times of all layers add up to the root span.

Which end-to-end metric each layer metric should move, and where:

==============================================  ================  ================================
layer metric                                    moves             on workload
==============================================  ================  ================================
quant.codec.{calls,self_s,per_env_step}         trials_per_cpu_s  grid-tabular-train (and must not
                                                                  get worse on drone-infer)
quant.bits.{calls,self_s}                       call_cpu_s        grid-nn-infer, drone-infer
rl.tabular.{act,update}.{calls,self_s}          trials_per_cpu_s  grid-tabular-train
rl.dqn.update.*, nn.train.self_s                call_cpu_s        grid-nn-infer
rl.rollout.self_s                               call_cpu_s        grid-nn-infer, drone-infer
nn.forward.{calls,self_s,replica_steps,         trials_per_cpu_s  grid-nn-infer (MLP, B=64; the
occupancy}                                                        only one masking finished
                                                                  replicas moves), drone-infer
envs.grid.step.*                                call_cpu_s        grid-tabular-train
envs.grid.batch.*, envs.encode.*                call_cpu_s        grid-nn-infer
envs.drone.batch.*                              call_cpu_s        drone-infer
core.fault.sample.*, core.fault.apply.self_s    call_cpu_s        grid-nn-infer, drone-infer
                                                                  (FaultInjector.reapply also on
                                                                  grid-tabular-train)
core.injector.hooks.*                           call_cpu_s        drone-infer
core.evaluator.{builds,self_s}                  call_cpu_s        grid-nn-infer
core.runner.*                                   call_cpu_s        all
io.checkpoint.*                                 call_cpu_s        grid-nn-infer
==============================================  ================  ================================

``store``, ``sweep`` and ``telemetry`` are on no figure campaign's hot path
and are not traced; the detached telemetry guard's cost stays inside every
timed call.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import sys
import time
from array import array
from collections import Counter
from typing import Callable, Dict, List, Tuple

#: Root span: the driver call itself, whose self time is experiment glue.
ROOT = "experiments"

#: Span name -> targets.  A target is ``"module:function"`` (patched in every
#: loaded ``repro`` module that imported it by name) or
#: ``"module:Class.method"`` (patched on the class and on every subclass that
#: overrides the method).  Targets missing from the program are skipped and
#: reported, so the table survives refactors that delete code.
LAYERS: Dict[str, Tuple[str, ...]] = {
    # kernels only dispatches QFormat/bitops work, so it is folded into quant.
    "quant.codec": tuple(
        f"repro.quant.qformat:QFormat.{name}"
        for name in (
            "quantize", "encode", "decode", "bias_quantize",
            "bias_quantize_stacked", "matmul_bias_quantize", "relu_quantize",
        )
    ),
    "quant.bits": tuple(
        f"repro.quant.bitops:{name}"
        for name in (
            "flip_bits", "set_bits", "clear_bits", "apply_stuck_at",
            "apply_bit_ops", "random_bit_positions",
        )
    ),
    "rl.tabular.act": ("repro.rl.tabular:TabularQAgent.select_action",),
    "rl.tabular.update": ("repro.rl.tabular:TabularQAgent.observe",),
    "rl.dqn.update": ("repro.rl.dqn:DQNAgent.observe",),
    "rl.train": ("repro.rl.trainer:train_agent",),
    "rl.rollout": tuple(
        f"repro.rl.evaluation:{name}"
        for name in (
            "greedy_rollout", "greedy_rollouts", "evaluate_success_rate",
            "evaluate_mean_metric", "evaluate_mean_metrics",
        )
    ),
    "nn.forward": (
        "repro.nn.network:Sequential.forward",
        "repro.nn.network:Sequential.forward_replicas",
        "repro.nn.network:Sequential.forward_replicas_quantized",
        "repro.nn.buffers:QuantizedExecutor.forward",
        "repro.nn.buffers:BatchedQuantizedExecutor.forward",
    ),
    "nn.train": (
        "repro.nn.network:Sequential.backward",
        "repro.nn.optim:Optimizer.step",
    ),
    "envs.grid.step": ("repro.envs.gridworld:GridWorld.step",),
    "envs.grid.batch": ("repro.envs.gridworld:GridWorldBatch.step_many",),
    "envs.encode": ("repro.envs.gridworld:GridWorld.one_hot",),
    "envs.drone.batch": ("repro.envs.drone.batch:DroneNavEnvBatch.step_many",),
    "core.fault.sample": (
        "repro.core.fault_models:FaultModel.sample_pattern",
        "repro.core.injector:FaultInjector.sample",
    ),
    "core.fault.apply": (
        "repro.core.sites:apply_patterns_stacked",
        "repro.core.sites:FaultPattern.apply",
        "repro.core.injector:FaultInjector.reapply",
    ),
    "core.injector.hooks": (
        "repro.core.injector:ActivationFaultInjector.__call__",
        "repro.core.injector:InputFaultInjector.__call__",
        "repro.core.injector:ReplicaFanoutHook.__call__",
    ),
    "core.evaluator": (
        "repro.core.evaluator:BatchedEvaluator.__init__",
        "repro.core.evaluator:BatchedEvaluator.restore_clean_weights",
        "repro.core.evaluator:BatchedEvaluator.inject_weight_faults",
        "repro.core.evaluator:BatchedEvaluator.forward",
        "repro.core.evaluator:BatchedEvaluator.greedy_actions",
    ),
    "core.runner": ("repro.core.runner:CampaignRunner.run_trials",),
    "core.runner.batch": ("repro.core.runner:_execute_batch",),
    "io.checkpoint": (
        "repro.io.results:CampaignCheckpoint.reset",
        "repro.io.results:CampaignCheckpoint.append",
        "repro.io.results:CampaignCheckpoint.load",
    ),
}

SPAN_NAMES: Tuple[str, ...] = (ROOT,) + tuple(LAYERS)


def _rows(args, kwargs, index: int, name: str) -> int:
    value = kwargs[name] if name in kwargs else args[index]
    return len(value)


def _sites(result) -> int:
    patterns = result if isinstance(result, list) else [result]
    return sum(len(p.element_indices) for p in patterns)


#: Extra counters taken from a wrapped call: target -> (counter, function of
#: ``(args, kwargs, result)``).  ``args[0]`` is ``self`` for methods.
EXTRA_COUNTS: Dict[str, Tuple[str, Callable]] = {
    "repro.envs.gridworld:GridWorldBatch.step_many": (
        "envs.grid.batch.replica_steps", lambda a, k, r: _rows(a, k, 2, "indices")),
    "repro.envs.drone.batch:DroneNavEnvBatch.step_many": (
        "envs.drone.batch.replica_steps", lambda a, k, r: _rows(a, k, 2, "indices")),
    "repro.nn.buffers:BatchedQuantizedExecutor.forward": (
        "nn.forward.replica_steps", lambda a, k, r: _rows(a, k, 1, "x")),
    "repro.core.fault_models:FaultModel.sample_pattern": (
        "core.fault.sample.sites", lambda a, k, r: _sites(r)),
    "repro.core.injector:FaultInjector.sample": (
        "core.fault.sample.sites", lambda a, k, r: _sites(r)),
    "repro.core.evaluator:BatchedEvaluator.__init__": (
        "core.evaluator.builds", lambda a, k, r: 1),
}


class Tracer:
    """Installs span wrappers, records spans, and derives per-layer metrics."""

    def __init__(self) -> None:
        self._name_ids = {name: i for i, name in enumerate(SPAN_NAMES)}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack: List[Tuple[int, int]] = []  # (span index, name id)
        self.counts: Counter = Counter()
        self.missing: List[str] = []
        self._patches: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #
    def _open(self, name_id: int) -> int:
        index = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1][0] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append((index, name_id))
        self.start.append(time.perf_counter())
        return index

    def _close(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self._stack.pop()

    def span(self, name: str, fn: Callable, *args, **kwargs):
        """Call ``fn`` inside one span named ``name``."""
        index = self._open(self._name_ids[name])
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(index)

    def _wrapper(self, fn: Callable, name: str, target: str) -> Callable:
        name_id = self._name_ids[name]
        extra = EXTRA_COUNTS.get(target)
        stack = self._stack
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack and stack[-1][1] == name_id:
                return fn(*args, **kwargs)
            index = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if extra is not None:
                counts[extra[0]] += extra[1](args, kwargs, result)
            return result

        return wrapper

    # ------------------------------------------------------------------ #
    # Installing and restoring wrappers
    # ------------------------------------------------------------------ #
    def install(self) -> None:
        for name, targets in LAYERS.items():
            for target in targets:
                if not self._install_target(name, target):
                    self.missing.append(target)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _install_target(self, name: str, target: str) -> bool:
        module_name, _, qualname = target.partition(":")
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            return False
        if "." not in qualname:
            original = getattr(module, qualname, None)
            if not inspect.isfunction(original):
                return False
            wrapper = self._wrapper(original, name, target)
            for loaded in list(sys.modules.values()):
                namespace = getattr(loaded, "__dict__", None)
                if not getattr(loaded, "__name__", "").startswith("repro") or namespace is None:
                    continue
                for attr, value in list(namespace.items()):
                    if value is original:
                        self._patch(loaded, attr, wrapper)
            return True
        class_name, method = qualname.split(".")
        base = getattr(module, class_name, None)
        if not inspect.isclass(base):
            return False
        found = False
        for cls in [base] + _subclasses(base):
            original = cls.__dict__.get(method)
            if inspect.isfunction(original):
                self._patch(cls, method, self._wrapper(original, name, target))
                found = True
        return found

    def restore(self) -> None:
        """Put every patched attribute back, newest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def patched(self) -> List[Tuple[object, str, object]]:
        return list(self._patches)

    # ------------------------------------------------------------------ #
    # Results
    # ------------------------------------------------------------------ #
    def save(self, path) -> None:
        """Write the recorded spans (names, start, end, parent) as ``.npz``."""
        import numpy as np

        np.savez(
            path,
            names=np.array(SPAN_NAMES),
            name=np.frombuffer(self.name, dtype=np.uint16),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
        )

    def metrics(self, untraced_wall_s: float) -> Dict[str, float]:
        """Per-layer metrics from the recorded spans and counters."""
        import numpy as np

        if self._stack:
            raise RuntimeError("metrics() called with spans still open")
        name = np.frombuffer(self.name, dtype=np.uint16).astype(np.intp)
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        duration = end - start
        has_parent = parent >= 0
        children = np.bincount(
            parent[has_parent], weights=duration[has_parent], minlength=len(duration)
        )
        n_names = len(SPAN_NAMES)
        self_s = np.bincount(name, weights=duration - children, minlength=n_names)
        calls = np.bincount(name, minlength=n_names)

        out: Dict[str, float] = {}
        for i, span in enumerate(SPAN_NAMES):
            if span == ROOT:
                out["experiments.glue.self_s"] = float(self_s[i])
                continue
            out[f"{span}.calls"] = int(calls[i])
            out[f"{span}.self_s"] = float(self_s[i])
        for counter in sorted({c for c, _ in EXTRA_COUNTS.values()}):
            out[counter] = int(self.counts[counter])

        batch_ms = duration[name == SPAN_NAMES.index("core.runner.batch")] * 1e3
        out["core.runner.batches"] = int(batch_ms.size)
        out["core.runner.batch_ms_p50"] = _quantile(batch_ms, 0.5)
        out["core.runner.batch_ms_p90"] = _quantile(batch_ms, 0.9)

        env_steps = (
            out["envs.grid.step.calls"]
            + out["envs.grid.batch.replica_steps"]
            + out["envs.drone.batch.replica_steps"]
        )
        out["envs.replica_steps"] = int(env_steps)
        out["quant.codec.per_env_step"] = out["quant.codec.calls"] / env_steps if env_steps else 0.0
        live = out["envs.grid.batch.replica_steps"] + out["envs.drone.batch.replica_steps"]
        rows = out["nn.forward.replica_steps"]
        out["nn.forward.occupancy"] = live / rows if rows else 0.0

        root = duration[name == 0]
        traced_wall_s = float(root.sum())
        out["trace.wall_s"] = traced_wall_s
        out["trace.spans"] = int(duration.size)
        out["trace.overhead_frac"] = traced_wall_s / untraced_wall_s - 1.0
        return out


def _quantile(values, q: float) -> float:
    if len(values) == 0:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    return float(statistics.quantiles(values.tolist(), n=100, method="inclusive")[round(q * 100) - 1])


def _subclasses(cls) -> List[type]:
    found: List[type] = []
    pending = list(cls.__subclasses__())
    while pending:
        sub = pending.pop()
        if sub not in found:
            found.append(sub)
            pending.extend(sub.__subclasses__())
    return found


def per_layer_units() -> Dict[str, str]:
    """Unit of every per-layer metric :meth:`Tracer.metrics` returns."""
    units: Dict[str, str] = {"experiments.glue.self_s": "s"}
    for span in LAYERS:
        units[f"{span}.calls"] = "count"
        units[f"{span}.self_s"] = "s"
    for counter, _ in EXTRA_COUNTS.values():
        units[counter] = "count"
    units.update({
        "core.runner.batches": "count",
        "core.runner.batch_ms_p50": "ms",
        "core.runner.batch_ms_p90": "ms",
        "envs.replica_steps": "count",
        "quant.codec.per_env_step": "calls/step",
        "nn.forward.occupancy": "fraction",
        "trace.wall_s": "s",
        "trace.spans": "count",
        "trace.overhead_frac": "fraction",
    })
    return units

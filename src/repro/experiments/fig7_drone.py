"""Fig. 7 — fault characterization on the drone navigation task.

Panel (a): faults during *online fine-tuning* of the pre-trained policy
(transient bit-flips at different steps / BERs, plus stuck-at faults held
throughout), measured as the fine-tuned policy's Mean Safe Flight distance.

Panels (b)-(e): faults during *inference* of the trained policy —
(b) the two environments, (c) fault location (input buffer / weight buffer /
activations transient / activations permanent), (d) per-layer sensitivity
(conv1..fc2), and (e) fixed-point data type (Q(1,4,11) / Q(1,7,8) / Q(1,10,5)).

The inference panels (and Fig. 10b) run one trial, ``_DroneMSFTrial``,
whose only implementation is the batched ``run_batch``: each batch of
trials becomes policy *replicas* evaluated through stacked quantized
buffers and the replica-axis vectorized drone environment
(:class:`~repro.envs.drone.DroneNavEnvBatch`).  A single trial is a
one-replica batch, and outcomes are bit-identical for every batch size
(``tests/test_batched_parity.py`` checks them against a scalar oracle).

At BER 0 an inference trial injects nothing, and its RNG depends only on
the campaign seed and trial index, so every fault location (7c) or layer
(7d) runs the same fault-free campaign.  Each panel runs it once per
environment (7b), per data type (7e) or once in all (7c, 7d) through
:func:`~repro.experiments.common.run_fault_campaign`, and its BER-0 rows
share that result.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.api.execution import ExecutionConfig
from repro.core.campaign import Campaign, TrialOutcome
from repro.core.evaluator import BatchedEvaluator
from repro.core.fault_models import FaultModel, StuckAtFault, TransientBitFlip
from repro.core.injector import (
    ActivationFaultInjector,
    InputFaultInjector,
    PermanentTrainingFaultHook,
    ReplicaFanoutHook,
    TransientTrainingFaultHook,
)
from repro.core.mitigation.anomaly import RangeAnomalyDetector
from repro.core.sites import BufferSelector
from repro.envs.batched import BatchedEnv
from repro.experiments.common import (
    DronePolicyBundle,
    build_drone_bundle,
    evaluate_drone_msf,
    run_fault_campaign,
)
from repro.experiments.config import (
    FAST_PARAM,
    DroneConfig,
    drone_ber_sweep,
    drone_config_for,
)
from repro.experiments.registry import register_experiment
from repro.io.results import ResultTable
from repro.policies.c3f2 import C3F2_LAYER_NAMES
from repro.quant.qformat import Q16_MID, Q16_NARROW, Q16_WIDE, QFormat
from repro.rl import DecayingEpsilonGreedy, DoubleDQNAgent, train_agent
from repro.rl.evaluation import evaluate_mean_metrics

__all__ = [
    "run_drone_training_faults",
    "run_environment_comparison",
    "run_fault_location_sweep",
    "run_layer_sweep",
    "run_datatype_sweep",
]


# --------------------------------------------------------------------------- #
# Inference-side sweeps (Fig. 7b-e)
# --------------------------------------------------------------------------- #
class _DroneMSFTrial:
    """One drone inference trial (Fig. 7b-e, Fig. 10b): the MSF under faults.

    Each batch of trials is evaluated as policy replicas: weight-fault
    patterns apply to stacked quantized buffers in one vectorized bit
    operation, the optional ``weight_scrub`` range detector then scrubs
    every replica's weight buffers (Fig. 10b), activation/input injectors
    fan out per replica via :class:`~repro.core.injector.ReplicaFanoutHook`,
    and the episodes run against the replica-axis vectorized
    :class:`~repro.envs.drone.DroneNavEnvBatch`.  A single trial
    (``__call__``) is a one-replica batch.
    """

    def __init__(
        self,
        bundle: DronePolicyBundle,
        env_name: str,
        *,
        qformat: Optional[QFormat] = None,
        weight_fault: Optional[FaultModel] = None,
        weight_selector: Optional[BufferSelector] = None,
        activation_fault: Optional[FaultModel] = None,
        activation_mode: str = "transient",
        input_fault: Optional[FaultModel] = None,
        weight_scrub: Optional[RangeAnomalyDetector] = None,
    ) -> None:
        self.bundle = bundle
        self.env_name = env_name
        self.qformat = qformat
        self.weight_fault = weight_fault
        self.weight_selector = weight_selector
        self.activation_fault = activation_fault
        self.activation_mode = activation_mode
        self.input_fault = input_fault
        self.weight_scrub = weight_scrub
        # Per-batch-size caches: campaigns call run_batch once per batch,
        # and rebuilding the stacked evaluator (re-encoding every weight
        # buffer) and the environments each time is pure fixed overhead.
        # Reuse is exact: the evaluator is restored to its clean pre-fault
        # state after each batch and every rollout starts with reset_all().
        self._evaluators: Dict[int, BatchedEvaluator] = {}
        self._envs: Dict[int, BatchedEnv] = {}

    def __call__(self, rng: np.random.Generator) -> TrialOutcome:
        return self.run_batch([rng])[0]

    def run_batch(self, rngs: Sequence[np.random.Generator]) -> List[TrialOutcome]:
        n = len(rngs)
        config = self.bundle.config
        self.bundle.restore_clean()
        evaluator = self._evaluators.get(n)
        if evaluator is None:
            evaluator = BatchedEvaluator(
                self.bundle.network, self.qformat or config.qformat, n
            )
            self._evaluators[n] = evaluator
        try:
            msfs = self._batched_msfs(evaluator, rngs)
        finally:
            # Leave the cached evaluator clean: its faulted stacks (and the
            # replica-subset stacks its forwards kept) are not held past
            # the batch.
            evaluator.restore_clean_weights()
            evaluator.executor.input_hooks.clear()
            evaluator.executor.activation_hooks.clear()
        return [TrialOutcome(metric=msf) for msf in msfs]

    def _batched_msfs(
        self, evaluator: BatchedEvaluator, rngs: Sequence[np.random.Generator]
    ) -> List[float]:
        config = self.bundle.config
        if self.weight_fault is not None and self.weight_fault.bit_error_rate > 0:
            evaluator.inject_weight_faults(
                self.weight_fault,
                rngs,
                selector=self.weight_selector or BufferSelector.all_weights(),
            )
        if self.weight_scrub is not None:
            # Faults live in the weight buffers, so the detector sits on the
            # filter-buffer read port (weight scrub).
            self.weight_scrub.apply_to_weights(evaluator.executor)
        fanouts: List[ReplicaFanoutHook] = []
        if self.activation_fault is not None:
            fanout = ReplicaFanoutHook(
                [
                    ActivationFaultInjector(
                        self.activation_fault, mode=self.activation_mode, rng=rng
                    )
                    for rng in rngs
                ]
            )
            evaluator.executor.activation_hooks.append(fanout)
            fanouts.append(fanout)
        if self.input_fault is not None:
            fanout = ReplicaFanoutHook(
                [InputFaultInjector(self.input_fault, rng=rng) for rng in rngs]
            )
            evaluator.executor.input_hooks.append(fanout)
            fanouts.append(fanout)

        def policy(step: int, indices: np.ndarray, states: List[object]) -> List[int]:
            for fanout in fanouts:
                fanout.set_replicas(indices)
            stacked = np.stack(states)[:, None]
            greedy = evaluator.greedy_actions(stacked, replicas=indices)
            return [int(action) for action in greedy]

        return evaluate_mean_metrics(
            policy,
            self._batched_env(len(rngs)),
            "flight_distance",
            trials=config.eval_trials,
            max_steps=config.max_eval_steps,
        )

    def _batched_env(self, n: int) -> BatchedEnv:
        env = self._envs.get(n)
        if env is None:
            env = self.bundle.env(self.env_name).batched(n)
            self._envs[n] = env
        return env


def run_environment_comparison(
    config: DroneConfig,
    bit_error_rates: Sequence[float],
    environments: Sequence[str] = ("indoor-long", "indoor-vanleer"),
    *,
    execution: ExecutionConfig = ExecutionConfig(),
) -> ResultTable:
    """Fig. 7b — MSF vs BER for transient weight faults in each environment."""
    seed = execution.seed
    repetitions = execution.resolve_repetitions(config.repetitions)
    bundle = build_drone_bundle(config, seed=seed)
    table = ResultTable(title="Fig7b drone inference: environment comparison")
    fault_free = {}
    for env_name in environments:
        for ber in bit_error_rates:
            trial = _DroneMSFTrial(
                bundle, env_name, weight_fault=TransientBitFlip(ber)
            )
            result = run_fault_campaign(
                Campaign(f"fig7b-{env_name}-ber{ber}", repetitions, seed=seed + 1),
                trial,
                ber,
                fault_free,
                execution=execution,
                key=env_name,
            )
            table.add(
                environment=env_name,
                bit_error_rate=ber,
                mean_safe_flight=result.mean_metric,
                repetitions=repetitions,
            )
    return table


def run_fault_location_sweep(
    config: DroneConfig,
    bit_error_rates: Sequence[float],
    *,
    execution: ExecutionConfig = ExecutionConfig(),
) -> ResultTable:
    """Fig. 7c — MSF vs BER per fault location (input / weight / act-T / act-P)."""
    seed = execution.seed
    repetitions = execution.resolve_repetitions(config.repetitions)
    bundle = build_drone_bundle(config, seed=seed)
    table = ResultTable(title="Fig7c drone inference: fault location")
    locations = ("input", "weight", "activation-transient", "activation-permanent")
    fault_free = {}
    for location in locations:
        for ber in bit_error_rates:
            weight_fault = None
            activation_fault = None
            activation_mode = "transient"
            input_fault = None
            if ber > 0:
                if location == "weight":
                    weight_fault = TransientBitFlip(ber)
                elif location == "input":
                    input_fault = TransientBitFlip(ber)
                elif location == "activation-transient":
                    activation_fault = TransientBitFlip(ber)
                else:
                    activation_fault = StuckAtFault(ber, stuck_value=1)
                    activation_mode = "permanent"
            trial = _DroneMSFTrial(
                bundle,
                config.environment,
                weight_fault=weight_fault,
                activation_fault=activation_fault,
                activation_mode=activation_mode,
                input_fault=input_fault,
            )
            result = run_fault_campaign(
                Campaign(f"fig7c-{location}-ber{ber}", repetitions, seed=seed + 2),
                trial,
                ber,
                fault_free,
                execution=execution,
            )
            table.add(
                location=location,
                bit_error_rate=ber,
                mean_safe_flight=result.mean_metric,
                repetitions=repetitions,
            )
    return table


def run_layer_sweep(
    config: DroneConfig,
    bit_error_rates: Sequence[float],
    layers: Sequence[str] = C3F2_LAYER_NAMES,
    *,
    execution: ExecutionConfig = ExecutionConfig(),
) -> ResultTable:
    """Fig. 7d — MSF vs BER with transient weight faults confined to one layer."""
    seed = execution.seed
    repetitions = execution.resolve_repetitions(config.repetitions)
    bundle = build_drone_bundle(config, seed=seed)
    table = ResultTable(title="Fig7d drone inference: per-layer sensitivity")
    fault_free = {}
    for layer in layers:
        for ber in bit_error_rates:
            trial = _DroneMSFTrial(
                bundle,
                config.environment,
                weight_fault=TransientBitFlip(ber),
                weight_selector=BufferSelector.for_layer(layer),
            )
            result = run_fault_campaign(
                Campaign(f"fig7d-{layer}-ber{ber}", repetitions, seed=seed + 3),
                trial,
                ber,
                fault_free,
                execution=execution,
            )
            table.add(
                layer=layer,
                bit_error_rate=ber,
                mean_safe_flight=result.mean_metric,
                repetitions=repetitions,
            )
    return table


def run_datatype_sweep(
    config: DroneConfig,
    bit_error_rates: Sequence[float],
    qformats: Sequence[QFormat] = (Q16_NARROW, Q16_MID, Q16_WIDE),
    *,
    execution: ExecutionConfig = ExecutionConfig(),
) -> ResultTable:
    """Fig. 7e — MSF vs BER for each fixed-point weight data type."""
    seed = execution.seed
    repetitions = execution.resolve_repetitions(config.repetitions)
    bundle = build_drone_bundle(config, seed=seed)
    table = ResultTable(title="Fig7e drone inference: data type")
    fault_free = {}
    for qformat in qformats:
        for ber in bit_error_rates:
            trial = _DroneMSFTrial(
                bundle,
                config.environment,
                qformat=qformat,
                weight_fault=TransientBitFlip(ber),
            )
            result = run_fault_campaign(
                Campaign(f"fig7e-{qformat}-ber{ber}", repetitions, seed=seed + 4),
                trial,
                ber,
                fault_free,
                execution=execution,
                key=qformat,
            )
            table.add(
                qformat=str(qformat),
                bit_error_rate=ber,
                mean_safe_flight=result.mean_metric,
                repetitions=repetitions,
            )
    return table


# --------------------------------------------------------------------------- #
# Online fine-tuning faults (Fig. 7a)
# --------------------------------------------------------------------------- #
def _finetune_and_measure(
    bundle: DronePolicyBundle,
    rng: np.random.Generator,
    hooks,
) -> float:
    """Fine-tune the last two layers online under fault hooks, then measure MSF."""
    config = bundle.config
    bundle.restore_clean()
    env = bundle.env(config.environment)
    agent = DoubleDQNAgent(
        bundle.network,
        state_encoder=lambda state: state,
        n_actions=config.n_actions,
        gamma=0.95,
        learning_rate=1e-4,
        schedule=DecayingEpsilonGreedy(0.3, 0.05, 0.9),
        replay_capacity=500,
        batch_size=8,
        train_every=4,
        target_update_every=100,
        min_replay_size=16,
        weight_qformat=config.qformat,
        frozen_prefixes=["conv1", "conv2", "conv3"],
        rng=rng,
    )
    train_agent(
        agent,
        env,
        episodes=config.finetune_episodes,
        max_steps_per_episode=config.finetune_max_steps,
        hooks=hooks,
    )
    return evaluate_drone_msf(
        lambda state: agent.select_action(state, explore=False),
        env,
        trials=config.eval_trials,
        max_steps=config.max_eval_steps,
    )


def run_drone_training_faults(
    config: DroneConfig,
    bit_error_rates: Sequence[float],
    injection_episodes: Optional[Sequence[int]] = None,
    *,
    execution: ExecutionConfig = ExecutionConfig(),
) -> ResultTable:
    """Fig. 7a — MSF after online fine-tuning with transient / stuck-at faults."""
    seed = execution.seed
    repetitions = execution.resolve_repetitions(config.repetitions)
    bundle = build_drone_bundle(config, seed=seed)
    if injection_episodes is None:
        injection_episodes = [0, max(0, config.finetune_episodes - 1)]
    table = ResultTable(title="Fig7a drone online-training faults")
    fault_free = {}

    for ber in bit_error_rates:
        for episode in injection_episodes:
            def trial(rng: np.random.Generator, ber=ber, episode=episode) -> TrialOutcome:
                hooks = []
                if ber > 0:
                    hooks.append(
                        TransientTrainingFaultHook(
                            ber,
                            inject_episode=episode,
                            selector=BufferSelector.all_weights(),
                            rng=rng,
                        )
                    )
                msf = _finetune_and_measure(bundle, rng, hooks)
                return TrialOutcome(metric=msf)

            result = run_fault_campaign(
                Campaign(f"fig7a-transient-ber{ber}-ep{episode}", repetitions, seed=seed + 5),
                trial,
                ber,
                fault_free,
                execution=execution,
            )
            table.add(
                fault_type="transient",
                bit_error_rate=ber,
                injection_episode=episode,
                mean_safe_flight=result.mean_metric,
                repetitions=repetitions,
            )

    for stuck_value in (0, 1):
        for ber in bit_error_rates:
            def trial(rng: np.random.Generator, ber=ber, stuck=stuck_value) -> TrialOutcome:
                hooks = []
                if ber > 0:
                    hooks.append(
                        PermanentTrainingFaultHook(
                            ber,
                            stuck_value=stuck,
                            selector=BufferSelector.all_weights(),
                            rng=rng,
                        )
                    )
                msf = _finetune_and_measure(bundle, rng, hooks)
                return TrialOutcome(metric=msf)

            result = run_fault_campaign(
                Campaign(f"fig7a-sa{stuck_value}-ber{ber}", repetitions, seed=seed + 6),
                trial,
                ber,
                fault_free,
                execution=execution,
            )
            table.add(
                fault_type=f"stuck-at-{stuck_value}",
                bit_error_rate=ber,
                injection_episode=0,
                mean_safe_flight=result.mean_metric,
                repetitions=repetitions,
            )
    return table


# --------------------------------------------------------------------------- #
# Declarative specs
# --------------------------------------------------------------------------- #
@register_experiment(
    "fig7.training_faults",
    description="Fig. 7a — drone MSF after online fine-tuning under "
    "transient / stuck-at faults",
    params=(FAST_PARAM,),
)
def _training_faults_spec(execution: ExecutionConfig, *, fast: bool) -> ResultTable:
    config = drone_config_for(fast, scale=execution.scale)
    return run_drone_training_faults(
        config, drone_ber_sweep(execution.scale), execution=execution
    )


@register_experiment(
    "fig7.environments",
    description="Fig. 7b — drone inference MSF vs BER per environment",
    params=(FAST_PARAM,),
)
def _environments_spec(execution: ExecutionConfig, *, fast: bool) -> ResultTable:
    config = drone_config_for(fast, scale=execution.scale)
    return run_environment_comparison(
        config, drone_ber_sweep(execution.scale), execution=execution
    )


@register_experiment(
    "fig7.locations",
    description="Fig. 7c — drone inference MSF vs BER per fault location",
    params=(FAST_PARAM,),
)
def _locations_spec(execution: ExecutionConfig, *, fast: bool) -> ResultTable:
    config = drone_config_for(fast, scale=execution.scale)
    return run_fault_location_sweep(
        config, drone_ber_sweep(execution.scale), execution=execution
    )


@register_experiment(
    "fig7.layers",
    description="Fig. 7d — drone inference MSF vs BER per faulted layer",
    params=(FAST_PARAM,),
)
def _layers_spec(execution: ExecutionConfig, *, fast: bool) -> ResultTable:
    config = drone_config_for(fast, scale=execution.scale)
    return run_layer_sweep(config, drone_ber_sweep(execution.scale), execution=execution)


@register_experiment(
    "fig7.datatypes",
    description="Fig. 7e — drone inference MSF vs BER per fixed-point data type",
    params=(FAST_PARAM,),
)
def _datatypes_spec(execution: ExecutionConfig, *, fast: bool) -> ResultTable:
    config = drone_config_for(fast, scale=execution.scale)
    return run_datatype_sweep(
        config, drone_ber_sweep(execution.scale), execution=execution
    )

"""Fig. 10 — effectiveness of range-based anomaly detection at inference.

Transient faults are injected into the NN weights; the range detector
(per-layer bounds + 10% margin, sign+integer-bit comparison) scrubs anomalous
values before they reach the policy.  Panel (a) is the Grid World success
rate with / without mitigation; panel (b) is the drone flight distance with /
without mitigation.  The paper reports roughly a 2x success-rate improvement
and a 39% flight-quality improvement at high BER, at <3% runtime overhead.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.api.execution import ExecutionConfig
from repro.core.campaign import Campaign, TrialOutcome
from repro.core.fault_models import TransientBitFlip
from repro.core.injector import inject_weight_faults
from repro.core.mitigation.anomaly import RangeAnomalyDetector
from repro.experiments.common import (
    build_drone_bundle,
    evaluate_drone_msf,
    run_campaign,
    train_grid_nn,
)
from repro.experiments.config import (
    FAST_PARAM,
    DroneConfig,
    GridNNConfig,
    drone_ber_sweep,
    drone_config_for,
    grid_ber_sweep,
    grid_config_for,
)
from repro.experiments.fig7_drone import executor_policy
from repro.experiments.registry import ParamSpec, register_experiment
from repro.io.results import ResultTable
from repro.nn.buffers import QuantizedExecutor
from repro.rl.evaluation import evaluate_success_rate

__all__ = ["run_gridworld_anomaly_mitigation", "run_drone_anomaly_mitigation"]


def run_gridworld_anomaly_mitigation(
    config: GridNNConfig,
    bit_error_rates: Sequence[float],
    margin: float = 0.1,
    episodes_per_trial: int = 5,
    *,
    execution: ExecutionConfig = ExecutionConfig(),
) -> ResultTable:
    """Fig. 10a — Grid World NN inference success rate, mitigation on vs off."""
    seed = execution.seed
    repetitions = execution.resolve_repetitions(config.repetitions)
    rng = np.random.default_rng(seed)
    agent, eval_env, _ = train_grid_nn(config, rng)

    # Profile layer ranges on the clean policy using every state's encoding.
    calibration = eval_env.one_hot(np.arange(eval_env.n_states))
    clean_executor = QuantizedExecutor(agent.network, config.weight_qformat)
    profile = clean_executor.profile_ranges(calibration)

    table = ResultTable(title="Fig10a Grid World anomaly-detection mitigation")
    for mitigation in (False, True):
        for ber in bit_error_rates:
            def trial(rng: np.random.Generator, ber=ber, mitigation=mitigation) -> TrialOutcome:
                executor = QuantizedExecutor(agent.network, config.weight_qformat)
                try:
                    if ber > 0:
                        inject_weight_faults(executor, TransientBitFlip(ber), rng=rng)
                    if mitigation:
                        # Faults live in the weight buffers, so the detector
                        # sits on the filter-buffer read port (weight scrub).
                        detector = RangeAnomalyDetector(profile, margin=margin)
                        detector.apply_to_weights(executor)
                    policy = lambda s: int(
                        np.argmax(executor.forward(agent.state_encoder(s)[None])[0])
                    )
                    rate = evaluate_success_rate(
                        policy, eval_env, trials=episodes_per_trial, max_steps=config.max_steps
                    )
                    return TrialOutcome(metric=rate)
                finally:
                    executor.restore_clean_weights()

            label = "mitigated" if mitigation else "no-mitigation"
            result = run_campaign(
                Campaign(f"fig10a-{label}-ber{ber}", repetitions, seed=seed + 1),
                trial,
                execution=execution,
            )
            table.add(
                mitigation=mitigation,
                bit_error_rate=ber,
                success_rate=result.mean_metric,
                repetitions=repetitions,
            )
    return table


def run_drone_anomaly_mitigation(
    config: DroneConfig,
    bit_error_rates: Sequence[float],
    margin: float = 0.1,
    *,
    execution: ExecutionConfig = ExecutionConfig(),
) -> ResultTable:
    """Fig. 10b — drone flight distance under weight faults, mitigation on vs off."""
    seed = execution.seed
    repetitions = execution.resolve_repetitions(config.repetitions)
    bundle = build_drone_bundle(config, seed=seed)

    table = ResultTable(title="Fig10b drone anomaly-detection mitigation")
    for mitigation in (False, True):
        for ber in bit_error_rates:
            def trial(rng: np.random.Generator, ber=ber, mitigation=mitigation) -> TrialOutcome:
                executor = bundle.make_executor()
                try:
                    if ber > 0:
                        inject_weight_faults(executor, TransientBitFlip(ber), rng=rng)
                    if mitigation:
                        # Faults live in the weight buffers, so the detector
                        # sits on the filter-buffer read port (weight scrub).
                        detector = RangeAnomalyDetector(bundle.range_profile, margin=margin)
                        detector.apply_to_weights(executor)
                    msf = evaluate_drone_msf(
                        executor_policy(executor),
                        bundle.env(config.environment),
                        trials=config.eval_trials,
                        max_steps=config.max_eval_steps,
                    )
                    return TrialOutcome(metric=msf)
                finally:
                    executor.restore_clean_weights()

            label = "mitigated" if mitigation else "no-mitigation"
            result = run_campaign(
                Campaign(f"fig10b-{label}-ber{ber}", repetitions, seed=seed + 2),
                trial,
                execution=execution,
            )
            table.add(
                mitigation=mitigation,
                bit_error_rate=ber,
                mean_safe_flight=result.mean_metric,
                repetitions=repetitions,
            )
    return table


# --------------------------------------------------------------------------- #
# Declarative specs
# --------------------------------------------------------------------------- #
_MARGIN_PARAM = ParamSpec(
    "margin", float, 0.1, help="range-detector margin around the profiled bounds"
)


@register_experiment(
    "fig10.gridworld",
    description="Fig. 10a — Grid World NN inference success rate with and "
    "without range-based anomaly detection",
    params=(FAST_PARAM, _MARGIN_PARAM),
    batched=True,
)
def _gridworld_anomaly_spec(
    execution: ExecutionConfig, *, fast: bool, margin: float
) -> ResultTable:
    config = grid_config_for("nn", fast, scale=execution.scale)
    return run_gridworld_anomaly_mitigation(
        config, grid_ber_sweep(execution.scale), margin=margin, execution=execution
    )


@register_experiment(
    "fig10.drone",
    description="Fig. 10b — drone flight distance under weight faults with "
    "and without range-based anomaly detection",
    params=(FAST_PARAM, _MARGIN_PARAM),
    batched=True,
)
def _drone_anomaly_spec(
    execution: ExecutionConfig, *, fast: bool, margin: float
) -> ResultTable:
    config = drone_config_for(fast, scale=execution.scale)
    return run_drone_anomaly_mitigation(
        config, drone_ber_sweep(execution.scale), margin=margin, execution=execution
    )

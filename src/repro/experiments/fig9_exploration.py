"""Fig. 9 — how the mitigation scheme adjusts exploration.

Panel (a)/(b): for each bit error rate and fault type, the exploration ratio
the controller adjusts to (transient: higher with more faults) and the number
of episodes taken before the schedule returns to steady exploitation
(permanent: longer with more faults, because the decay speed is slowed).

Panel (c): the correlation between the adjusted exploration ratio and the
recovery time — adjusting to a higher exploration rate costs more episodes to
converge back, which is the trade-off the controller navigates dynamically.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

import numpy as np

from repro.api.execution import ExecutionConfig
from repro.core.campaign import Campaign, TrialOutcome
from repro.core.injector import PermanentTrainingFaultHook, TransientTrainingFaultHook
from repro.experiments.common import (
    run_campaign,
    run_fault_campaign,
    train_grid_nn,
    train_tabular,
)
from repro.experiments.config import (
    APPROACH_PARAM,
    FAST_PARAM,
    GridNNConfig,
    GridTabularConfig,
    grid_ber_sweep,
    grid_config_for,
)
from repro.experiments.fig8_mitigation_training import make_controller
from repro.experiments.registry import register_experiment
from repro.io.results import ResultTable

__all__ = ["run_exploration_adjustment_sweep", "run_recovery_speed_correlation"]

GridConfig = Union[GridTabularConfig, GridNNConfig]


def _train(config: GridConfig, rng: np.random.Generator, hooks):
    if isinstance(config, GridNNConfig):
        return train_grid_nn(config, rng, hooks=hooks)
    return train_tabular(config, rng, hooks=hooks)


def run_exploration_adjustment_sweep(
    config: GridConfig,
    bit_error_rates: Sequence[float],
    fault_types: Sequence[str] = ("transient", "stuck-at-0", "stuck-at-1"),
    *,
    execution: ExecutionConfig = ExecutionConfig(),
) -> ResultTable:
    """Fig. 9a/9b — adjusted exploration ratio and episodes to steady exploitation."""
    seed = execution.seed
    approach = "nn" if isinstance(config, GridNNConfig) else "tabular"
    repetitions = execution.resolve_repetitions(config.repetitions)
    inject_episode = config.episodes // 2
    table = ResultTable(title=f"Fig9 exploration adjustment ({approach})")
    fault_free = {}

    for fault_type in fault_types:
        for ber in bit_error_rates:
            def trial(rng: np.random.Generator, fault_type=fault_type, ber=ber) -> TrialOutcome:
                hooks = []
                if ber > 0:
                    if fault_type == "transient":
                        hooks.append(
                            TransientTrainingFaultHook(
                                ber, inject_episode=inject_episode, rng=rng
                            )
                        )
                    else:
                        stuck = 1 if fault_type.endswith("1") else 0
                        hooks.append(
                            PermanentTrainingFaultHook(ber, stuck_value=stuck, rng=rng)
                        )
                controller = make_controller(config)
                hooks.append(controller)
                agent, _, history = _train(config, rng, hooks)

                peak_rate = (
                    max(a.new_rate for a in controller.adjustments)
                    if controller.adjustments
                    else 0.0
                )
                episodes_to_steady = _episodes_to_steady(history.exploration_rates, config)
                return TrialOutcome(
                    metric=peak_rate,
                    extras={
                        "episodes_to_steady": float(episodes_to_steady),
                        "transient_detections": float(controller.transient_detections),
                        "permanent_detections": float(controller.permanent_detections),
                    },
                )

            result = run_fault_campaign(
                Campaign(f"fig9-{approach}-{fault_type}-ber{ber}", repetitions, seed=seed),
                trial,
                ber,
                fault_free,
                execution=execution,
            )
            table.add(
                approach=approach,
                fault_type=fault_type,
                bit_error_rate=ber,
                adjusted_exploration_ratio=result.mean_metric,
                episodes_to_steady=result.extras_mean("episodes_to_steady"),
                transient_detections=result.extras_mean("transient_detections"),
                permanent_detections=result.extras_mean("permanent_detections"),
                repetitions=repetitions,
            )
    return table


def _episodes_to_steady(exploration_rates: np.ndarray, config: GridConfig) -> int:
    """Last episode at which exploration was still above the steady floor."""
    floor = config.epsilon_floor + 1e-9
    above = np.flatnonzero(exploration_rates > floor)
    return int(above[-1] + 1) if above.size else 0


def run_recovery_speed_correlation(
    config: GridConfig,
    exploration_boosts: Sequence[float] = (0.25, 0.5, 0.75),
    bit_error_rate: float = 0.006,
    recovery_threshold: float = 0.8,
    recovery_window: int = 25,
    *,
    execution: ExecutionConfig = ExecutionConfig(),
) -> ResultTable:
    """Fig. 9c — recovery time as a function of the (forced) exploration boost.

    A transient fault is injected mid-training, the exploration rate is then
    forced to each boost level, and the number of episodes until the windowed
    success rate recovers is measured.
    """
    seed = execution.seed
    approach = "nn" if isinstance(config, GridNNConfig) else "tabular"
    repetitions = execution.resolve_repetitions(config.repetitions)
    inject_episode = config.episodes // 2
    table = ResultTable(title=f"Fig9c recovery speed vs exploration ratio ({approach})")

    for boost in exploration_boosts:
        def trial(rng: np.random.Generator, boost=boost) -> TrialOutcome:
            fault_hook = TransientTrainingFaultHook(
                bit_error_rate, inject_episode=inject_episode, rng=rng
            )
            booster = _ForcedBoostHook(inject_episode, boost)
            _, _, history = _train(config, rng, [fault_hook, booster])
            successes = history.successes[inject_episode:]
            recovery = _episodes_to_recover(successes, recovery_window, recovery_threshold)
            recovered = recovery is not None
            return TrialOutcome(
                success=recovered,
                metric=float(recovery if recovered else len(successes)),
            )

        result = run_campaign(
            Campaign(f"fig9c-{approach}-boost{boost}", repetitions, seed=seed + 7),
            trial,
            execution=execution,
        )
        table.add(
            approach=approach,
            exploration_ratio=boost,
            recovery_episodes=result.mean_metric,
            recovery_rate=result.success_rate,
            repetitions=repetitions,
        )
    return table


# --------------------------------------------------------------------------- #
# Declarative specs
# --------------------------------------------------------------------------- #
@register_experiment(
    "fig9.exploration_adjustment",
    description="Fig. 9a/9b — adjusted exploration ratio and episodes to "
    "steady exploitation per fault type and BER",
    params=(APPROACH_PARAM, FAST_PARAM),
    batched=True,
)
def _exploration_adjustment_spec(
    execution: ExecutionConfig, *, approach: str, fast: bool
) -> ResultTable:
    config = grid_config_for(approach, fast, scale=execution.scale)
    return run_exploration_adjustment_sweep(
        config, grid_ber_sweep(execution.scale), execution=execution
    )


@register_experiment(
    "fig9.recovery_correlation",
    description="Fig. 9c — recovery time vs forced exploration boost after a "
    "mid-training transient fault",
    params=(APPROACH_PARAM, FAST_PARAM),
    batched=True,
)
def _recovery_correlation_spec(
    execution: ExecutionConfig, *, approach: str, fast: bool
) -> ResultTable:
    config = grid_config_for(approach, fast, scale=execution.scale)
    return run_recovery_speed_correlation(config, execution=execution)


def _episodes_to_recover(successes: np.ndarray, window: int, threshold: float) -> Optional[int]:
    if successes.size == 0:
        return None
    window = min(window, successes.size)
    flags = successes.astype(np.float64)
    for end in range(window, flags.size + 1):
        if flags[end - window : end].mean() >= threshold:
            return end
    return None


class _ForcedBoostHook:
    """Training hook that forces a fixed exploration boost at a given episode."""

    def __init__(self, episode: int, boost: float) -> None:
        self.episode = episode
        self.boost = boost

    def on_training_start(self, agent, env) -> None:  # pragma: no cover - trivial
        pass

    def on_episode_start(self, episode: int, agent, env) -> None:
        if episode == self.episode and hasattr(agent.schedule, "boost"):
            agent.schedule.boost(self.boost)

    def on_step(self, episode, step, agent, env, transition) -> None:  # pragma: no cover
        pass

    def on_episode_end(self, episode, agent, env, record) -> None:  # pragma: no cover
        pass

    def on_training_end(self, agent, env, result) -> None:  # pragma: no cover - trivial
        pass

"""Fig. 4 — long-term convergence after faults.

Panels (a)/(c): how many episodes the tabular / NN agent needs to converge
back (>95% success over a window) after a transient fault is injected late in
training, as a function of the bit error rate.  The paper finds both
converge, with the tabular agent needing roughly twice as many episodes.

Panels (b)/(d): the policy's success rate after training an *additional*
1000/2000 episodes under stuck-at-0 / stuck-at-1 faults — extra training does
not help once the BER passes a threshold.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

import numpy as np

from repro.api.execution import ExecutionConfig
from repro.core.campaign import Campaign, TrialOutcome
from repro.core.injector import PermanentTrainingFaultHook, TransientTrainingFaultHook
from repro.experiments.common import (
    evaluate_grid_policy,
    greedy_policy,
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
from repro.experiments.registry import register_experiment
from repro.io.results import ResultTable

__all__ = ["run_transient_convergence", "run_permanent_extra_training"]

GridConfig = Union[GridTabularConfig, GridNNConfig]

#: Extra training episodes of Fig. 4b/4d, as in the paper.
EXTRA_EPISODE_GRID = (1000, 2000)

#: The ``fast`` preset's extra episodes: a tenth of the paper's, in step
#: with the fast presets' shortened base training (250 / 150 episodes).
FAST_EXTRA_EPISODE_GRID = (100, 200)


def _train(config: GridConfig, rng: np.random.Generator, hooks, episodes: int):
    if isinstance(config, GridNNConfig):
        return train_grid_nn(config, rng, hooks=hooks, episodes=episodes)
    return train_tabular(config, rng, hooks=hooks, episodes=episodes)


def run_transient_convergence(
    config: GridConfig,
    bit_error_rates: Sequence[float],
    injection_fraction: float = 0.9,
    extra_episodes: Optional[int] = None,
    convergence_window: int = 50,
    convergence_threshold: float = 0.9,
    *,
    execution: ExecutionConfig = ExecutionConfig(),
) -> ResultTable:
    """Episodes needed to converge back after a late transient fault (Fig. 4a/4c).

    The fault is injected at ``injection_fraction`` of the nominal training
    length; training then continues for ``extra_episodes`` more episodes and
    the convergence point is measured on the post-injection success history.
    """
    seed = execution.seed
    approach = "nn" if isinstance(config, GridNNConfig) else "tabular"
    repetitions = execution.resolve_repetitions(config.repetitions)
    inject_episode = int(config.episodes * injection_fraction)
    extra = extra_episodes if extra_episodes is not None else config.episodes
    total_episodes = inject_episode + extra
    table = ResultTable(title=f"Fig4 transient convergence ({approach})")

    for ber in bit_error_rates:
        def trial(rng: np.random.Generator, ber=ber) -> TrialOutcome:
            hooks = []
            if ber > 0:
                hooks.append(
                    TransientTrainingFaultHook(ber, inject_episode=inject_episode, rng=rng)
                )
            _, _, history = _train(config, rng, hooks, total_episodes)
            successes = history.successes[inject_episode:]
            episodes_needed = _episodes_to_recover(
                successes, convergence_window, convergence_threshold
            )
            converged = episodes_needed is not None
            return TrialOutcome(
                success=converged,
                metric=float(episodes_needed if converged else len(successes)),
            )

        campaign = Campaign(f"fig4-{approach}-transient-ber{ber}", repetitions, seed=seed)
        result = run_campaign(campaign, trial, execution=execution)
        table.add(
            approach=approach,
            bit_error_rate=ber,
            episodes_to_converge=result.mean_metric,
            convergence_rate=result.success_rate,
            repetitions=repetitions,
        )
    return table


def _episodes_to_recover(
    successes: np.ndarray, window: int, threshold: float
) -> Optional[int]:
    """First index at which the windowed success rate reaches the threshold."""
    if successes.size == 0:
        return None
    window = min(window, successes.size)
    flags = successes.astype(np.float64)
    for end in range(window, flags.size + 1):
        if flags[end - window : end].mean() >= threshold:
            return end
    return None


def run_permanent_extra_training(
    config: GridConfig,
    bit_error_rates: Sequence[float],
    extra_episode_grid: Sequence[int] = EXTRA_EPISODE_GRID,
    *,
    execution: ExecutionConfig = ExecutionConfig(),
) -> ResultTable:
    """Success rate after extended training under stuck-at faults (Fig. 4b/4d)."""
    seed = execution.seed
    approach = "nn" if isinstance(config, GridNNConfig) else "tabular"
    repetitions = execution.resolve_repetitions(config.repetitions)
    table = ResultTable(title=f"Fig4 permanent extra training ({approach})")
    fault_free = {}

    for stuck_value in (0, 1):
        for extra in extra_episode_grid:
            for ber in bit_error_rates:
                def trial(rng: np.random.Generator, ber=ber, stuck=stuck_value, extra=extra) -> TrialOutcome:
                    hooks = []
                    if ber > 0:
                        hooks.append(
                            PermanentTrainingFaultHook(ber, stuck_value=stuck, rng=rng)
                        )
                    agent, eval_env, _ = _train(
                        config, rng, hooks, config.episodes + extra
                    )
                    rate = evaluate_grid_policy(
                        greedy_policy(agent),
                        eval_env,
                        config.eval_trials,
                        max_steps=config.max_steps,
                    )
                    return TrialOutcome(success=None, metric=rate)

                campaign = Campaign(
                    f"fig4-{approach}-sa{stuck_value}-extra{extra}-ber{ber}",
                    repetitions,
                    seed=seed,
                )
                result = run_fault_campaign(
                    campaign, trial, ber, fault_free, execution=execution, key=extra
                )
                table.add(
                    approach=approach,
                    fault_type=f"stuck-at-{stuck_value}",
                    extra_episodes=extra,
                    bit_error_rate=ber,
                    success_rate=result.mean_metric,
                    repetitions=repetitions,
                )
    return table


# --------------------------------------------------------------------------- #
# Declarative specs
# --------------------------------------------------------------------------- #
@register_experiment(
    "fig4.transient_convergence",
    description="Fig. 4a/4c — episodes needed to converge back after a late "
    "transient training fault, per BER",
    params=(APPROACH_PARAM, FAST_PARAM),
)
def _transient_convergence_spec(
    execution: ExecutionConfig, *, approach: str, fast: bool
) -> ResultTable:
    config = grid_config_for(approach, fast, scale=execution.scale)
    return run_transient_convergence(
        config, grid_ber_sweep(execution.scale), execution=execution
    )


@register_experiment(
    "fig4.permanent_extra_training",
    description="Fig. 4b/4d — success rate after extended training under "
    "stuck-at faults",
    params=(APPROACH_PARAM, FAST_PARAM),
)
def _permanent_extra_training_spec(
    execution: ExecutionConfig, *, approach: str, fast: bool
) -> ResultTable:
    config = grid_config_for(approach, fast, scale=execution.scale)
    return run_permanent_extra_training(
        config,
        grid_ber_sweep(execution.scale),
        extra_episode_grid=FAST_EXTRA_EPISODE_GRID if fast else EXTRA_EPISODE_GRID,
        execution=execution,
    )

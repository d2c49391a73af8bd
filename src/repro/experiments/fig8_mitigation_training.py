"""Fig. 8 — effect of the adaptive exploration-rate adjustment on training.

Repeats the Fig. 2 training-fault campaigns with the
:class:`~repro.core.mitigation.exploration.AdaptiveExplorationController`
hooked into training.  The paper finds that with mitigation almost all
transient faults injected before ~80% of training become benign, the impact
of late faults is greatly reduced, and permanent-fault impact is relieved by
about 10%.
"""

from __future__ import annotations

from typing import List, Sequence, Union

import numpy as np

from repro.api.execution import ExecutionConfig
from repro.core.campaign import Campaign, TrialOutcome
from repro.core.injector import PermanentTrainingFaultHook, TransientTrainingFaultHook
from repro.core.mitigation.exploration import AdaptiveExplorationController
from repro.experiments.common import (
    evaluate_grid_policy,
    greedy_policy,
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
    injection_episodes as injection_episode_grid,
)
from repro.experiments.registry import ParamSpec, register_experiment
from repro.io.results import ResultTable
from repro.rl.trainer import TrainingHooks

__all__ = ["make_controller", "run_mitigated_transient_heatmap", "run_mitigated_permanent_sweep"]

GridConfig = Union[GridTabularConfig, GridNNConfig]

#: Paper adjustment coefficients: 0.8 for tabular, 0.4 for the (self-healing) NN.
TABULAR_ALPHA = 0.8
NN_ALPHA = 0.4


def make_controller(config: GridConfig) -> AdaptiveExplorationController:
    """Controller with the paper's parameters for the given approach."""
    is_nn = isinstance(config, GridNNConfig)
    return AdaptiveExplorationController(
        alpha=NN_ALPHA if is_nn else TABULAR_ALPHA,
        drop_threshold=0.25,
        drop_window=50,
        steady_episodes=100,
    )


def _train_and_evaluate(
    config: GridConfig, rng: np.random.Generator, hooks: List[TrainingHooks]
) -> float:
    if isinstance(config, GridNNConfig):
        agent, eval_env, _ = train_grid_nn(config, rng, hooks=hooks)
    else:
        agent, eval_env, _ = train_tabular(config, rng, hooks=hooks)
    return evaluate_grid_policy(
        greedy_policy(agent), eval_env, config.eval_trials, max_steps=config.max_steps
    )


def run_mitigated_transient_heatmap(
    config: GridConfig,
    bit_error_rates: Sequence[float],
    injection_episodes: Sequence[int],
    mitigation: bool = True,
    *,
    execution: ExecutionConfig = ExecutionConfig(),
) -> ResultTable:
    """Fig. 8 transient heatmap, with or without the mitigation controller."""
    seed = execution.seed
    approach = "nn" if isinstance(config, GridNNConfig) else "tabular"
    repetitions = execution.resolve_repetitions(config.repetitions)
    label = "mitigated" if mitigation else "unmitigated"
    table = ResultTable(title=f"Fig8 transient training with mitigation ({approach}, {label})")
    fault_free = {}
    for ber in bit_error_rates:
        for episode in injection_episodes:
            def trial(rng: np.random.Generator, ber=ber, episode=episode) -> TrialOutcome:
                hooks: List[TrainingHooks] = []
                if ber > 0:
                    hooks.append(
                        TransientTrainingFaultHook(ber, inject_episode=episode, rng=rng)
                    )
                if mitigation:
                    hooks.append(make_controller(config))
                rate = _train_and_evaluate(config, rng, hooks)
                return TrialOutcome(metric=rate)

            result = run_fault_campaign(
                Campaign(
                    f"fig8-{approach}-{label}-ber{ber}-ep{episode}", repetitions, seed=seed
                ),
                trial,
                ber,
                fault_free,
                execution=execution,
            )
            table.add(
                approach=approach,
                mitigation=mitigation,
                fault_type="transient",
                bit_error_rate=ber,
                injection_episode=episode,
                success_rate=result.mean_metric,
                repetitions=repetitions,
            )
    return table


def run_mitigated_permanent_sweep(
    config: GridConfig,
    bit_error_rates: Sequence[float],
    mitigation: bool = True,
    *,
    execution: ExecutionConfig = ExecutionConfig(),
) -> ResultTable:
    """Fig. 8 stuck-at columns, with or without the mitigation controller."""
    seed = execution.seed
    approach = "nn" if isinstance(config, GridNNConfig) else "tabular"
    repetitions = execution.resolve_repetitions(config.repetitions)
    label = "mitigated" if mitigation else "unmitigated"
    table = ResultTable(title=f"Fig8 permanent training with mitigation ({approach}, {label})")
    fault_free = {}
    for stuck_value in (0, 1):
        for ber in bit_error_rates:
            def trial(rng: np.random.Generator, ber=ber, stuck=stuck_value) -> TrialOutcome:
                hooks: List[TrainingHooks] = []
                if ber > 0:
                    hooks.append(
                        PermanentTrainingFaultHook(ber, stuck_value=stuck, rng=rng)
                    )
                if mitigation:
                    hooks.append(make_controller(config))
                rate = _train_and_evaluate(config, rng, hooks)
                return TrialOutcome(metric=rate)

            result = run_fault_campaign(
                Campaign(
                    f"fig8-{approach}-{label}-sa{stuck_value}-ber{ber}", repetitions, seed=seed
                ),
                trial,
                ber,
                fault_free,
                execution=execution,
            )
            table.add(
                approach=approach,
                mitigation=mitigation,
                fault_type=f"stuck-at-{stuck_value}",
                bit_error_rate=ber,
                success_rate=result.mean_metric,
                repetitions=repetitions,
            )
    return table


# --------------------------------------------------------------------------- #
# Declarative specs
# --------------------------------------------------------------------------- #
_MITIGATION_PARAM = ParamSpec(
    "mitigation",
    bool,
    True,
    help="run with the adaptive exploration controller hooked into training",
)


@register_experiment(
    "fig8.transient_heatmap",
    description="Fig. 8 — Fig. 2 transient heatmap repeated with the adaptive "
    "exploration mitigation",
    params=(APPROACH_PARAM, FAST_PARAM, _MITIGATION_PARAM),
)
def _mitigated_transient_spec(
    execution: ExecutionConfig, *, approach: str, fast: bool, mitigation: bool
) -> ResultTable:
    config = grid_config_for(approach, fast, scale=execution.scale)
    return run_mitigated_transient_heatmap(
        config,
        grid_ber_sweep(execution.scale),
        injection_episode_grid(config.episodes, execution.scale),
        mitigation=mitigation,
        execution=execution,
    )


@register_experiment(
    "fig8.permanent_sweep",
    description="Fig. 8 stuck-at columns with the adaptive exploration mitigation",
    params=(APPROACH_PARAM, FAST_PARAM, _MITIGATION_PARAM),
)
def _mitigated_permanent_spec(
    execution: ExecutionConfig, *, approach: str, fast: bool, mitigation: bool
) -> ResultTable:
    config = grid_config_for(approach, fast, scale=execution.scale)
    return run_mitigated_permanent_sweep(
        config,
        grid_ber_sweep(execution.scale),
        mitigation=mitigation,
        execution=execution,
    )

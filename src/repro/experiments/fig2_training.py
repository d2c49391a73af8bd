"""Fig. 2 — impact of faults on Grid World training, plus value histograms.

Panels (a) and (c) are success-rate heatmaps over (bit error rate x fault
injection episode) for transient faults, with additional stuck-at-0 /
stuck-at-1 columns, for the tabular and NN-based approaches respectively.
Panels (b) and (d) are the histograms / bit-level statistics of the trained
tabular values and NN weights that explain the stuck-at asymmetry.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Union

import numpy as np

from repro.api.execution import ExecutionConfig
from repro.core.campaign import Campaign, TrialOutcome
from repro.core.injector import PermanentTrainingFaultHook, TransientTrainingFaultHook
from repro.core.sites import BufferSelector
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
from repro.experiments.registry import register_experiment
from repro.io.results import ResultTable
from repro.quant.statistics import bit_level_stats
from repro.rl.trainer import TrainingHooks

__all__ = [
    "run_transient_training_heatmap",
    "run_permanent_training_sweep",
    "run_value_histograms",
    "heatmap_matrix",
]

GridConfig = Union[GridTabularConfig, GridNNConfig]


def _train_and_evaluate(
    config: GridConfig,
    rng: np.random.Generator,
    hooks: Iterable[TrainingHooks],
) -> float:
    """One trial: train under the given fault hooks, return eval success rate."""
    seed = int(rng.integers(2**31 - 1))
    trial_rng = np.random.default_rng(seed)
    if isinstance(config, GridNNConfig):
        agent, eval_env, _ = train_grid_nn(config, trial_rng, hooks=hooks)
    else:
        agent, eval_env, _ = train_tabular(config, trial_rng, hooks=hooks)
    return evaluate_grid_policy(
        greedy_policy(agent), eval_env, config.eval_trials, max_steps=config.max_steps
    )


def run_transient_training_heatmap(
    config: GridConfig,
    bit_error_rates: Sequence[float],
    injection_episodes: Sequence[int],
    *,
    execution: ExecutionConfig = ExecutionConfig(),
) -> ResultTable:
    """Success rate after training with a transient fault at each (BER, episode)."""
    seed = execution.seed
    approach = "nn" if isinstance(config, GridNNConfig) else "tabular"
    repetitions = execution.resolve_repetitions(config.repetitions)
    table = ResultTable(title=f"Fig2 transient training heatmap ({approach})")
    fault_free = {}
    for ber in bit_error_rates:
        for episode in injection_episodes:
            def trial(rng: np.random.Generator, ber=ber, episode=episode) -> TrialOutcome:
                hooks: List[TrainingHooks] = []
                if ber > 0:
                    hooks.append(
                        TransientTrainingFaultHook(
                            ber, inject_episode=episode, rng=rng
                        )
                    )
                rate = _train_and_evaluate(config, rng, hooks)
                return TrialOutcome(success=None, metric=rate)

            campaign = Campaign(
                f"fig2-{approach}-transient-ber{ber}-ep{episode}", repetitions, seed=seed
            )
            result = run_fault_campaign(campaign, trial, ber, fault_free, execution=execution)
            table.add(
                approach=approach,
                fault_type="transient",
                bit_error_rate=ber,
                injection_episode=episode,
                success_rate=result.mean_metric,
                repetitions=repetitions,
            )
    return table


def run_permanent_training_sweep(
    config: GridConfig,
    bit_error_rates: Sequence[float],
    *,
    execution: ExecutionConfig = ExecutionConfig(),
) -> ResultTable:
    """Success rate after training under stuck-at-0 / stuck-at-1 faults."""
    seed = execution.seed
    approach = "nn" if isinstance(config, GridNNConfig) else "tabular"
    repetitions = execution.resolve_repetitions(config.repetitions)
    table = ResultTable(title=f"Fig2 permanent training sweep ({approach})")
    fault_free = {}
    for stuck_value in (0, 1):
        for ber in bit_error_rates:
            def trial(rng: np.random.Generator, ber=ber, stuck=stuck_value) -> TrialOutcome:
                hooks: List[TrainingHooks] = []
                if ber > 0:
                    hooks.append(
                        PermanentTrainingFaultHook(ber, stuck_value=stuck, rng=rng)
                    )
                rate = _train_and_evaluate(config, rng, hooks)
                return TrialOutcome(success=None, metric=rate)

            campaign = Campaign(
                f"fig2-{approach}-sa{stuck_value}-ber{ber}", repetitions, seed=seed
            )
            result = run_fault_campaign(campaign, trial, ber, fault_free, execution=execution)
            table.add(
                approach=approach,
                fault_type=f"stuck-at-{stuck_value}",
                bit_error_rate=ber,
                injection_episode=0,
                success_rate=result.mean_metric,
                repetitions=repetitions,
            )
    return table


def run_value_histograms(
    tabular_config: Optional[GridTabularConfig] = None,
    nn_config: Optional[GridNNConfig] = None,
    *,
    execution: ExecutionConfig = ExecutionConfig(),
) -> ResultTable:
    """Fig. 2b/2d — bit-level statistics of trained tabular values and NN weights.

    The paper reports ~76% zero bits for tabular values (3.18x more 0s than
    1s) and ~88% zero bits for NN weights (7.17x), which is why stuck-at-1
    faults are so much more damaging for the NN policy.  There is no
    campaign here, so only the ``seed`` of ``execution`` is used.
    """
    seed = execution.seed
    tabular_config = tabular_config or GridTabularConfig()
    nn_config = nn_config or GridNNConfig()
    table = ResultTable(title="Fig2b/2d value and bit histograms")

    rng = np.random.default_rng(seed)
    agent, _, _ = train_tabular(tabular_config, rng)
    stats = bit_level_stats(agent.memory_buffers()["qtable"])
    table.add(policy="tabular", buffer="qtable", **stats.as_dict())

    rng = np.random.default_rng(seed)
    nn_agent, _, _ = train_grid_nn(nn_config, rng)
    buffers = nn_agent.memory_buffers()
    weight_buffers = {k: v for k, v in buffers.items() if k.endswith(".weight")}
    zero_bits = one_bits = 0
    lo, hi = np.inf, -np.inf
    for tensor in weight_buffers.values():
        stats = bit_level_stats(tensor)
        zero_bits += stats.zero_bits
        one_bits += stats.one_bits
        lo, hi = min(lo, stats.min_value), max(hi, stats.max_value)
    total = zero_bits + one_bits
    table.add(
        policy="nn",
        buffer="weights",
        zero_bits=zero_bits,
        one_bits=one_bits,
        zero_fraction=zero_bits / total,
        one_fraction=one_bits / total,
        zero_to_one_ratio=zero_bits / max(one_bits, 1),
        min_value=lo,
        max_value=hi,
    )
    return table


# --------------------------------------------------------------------------- #
# Declarative specs
# --------------------------------------------------------------------------- #
@register_experiment(
    "fig2.transient_heatmap",
    description="Fig. 2a/2c — success rate after a transient training fault "
    "at each (BER, injection episode)",
    params=(APPROACH_PARAM, FAST_PARAM),
)
def _transient_heatmap_spec(
    execution: ExecutionConfig, *, approach: str, fast: bool
) -> ResultTable:
    config = grid_config_for(approach, fast, scale=execution.scale)
    return run_transient_training_heatmap(
        config,
        grid_ber_sweep(execution.scale),
        injection_episode_grid(config.episodes, execution.scale),
        execution=execution,
    )


@register_experiment(
    "fig2.permanent_sweep",
    description="Fig. 2a/2c stuck-at columns — success rate after training "
    "under stuck-at-0/1 faults",
    params=(APPROACH_PARAM, FAST_PARAM),
)
def _permanent_sweep_spec(
    execution: ExecutionConfig, *, approach: str, fast: bool
) -> ResultTable:
    config = grid_config_for(approach, fast, scale=execution.scale)
    return run_permanent_training_sweep(
        config, grid_ber_sweep(execution.scale), execution=execution
    )


def heatmap_matrix(
    table: ResultTable,
    bit_error_rates: Sequence[float],
    injection_episodes: Sequence[int],
    value_column: str = "success_rate",
) -> np.ndarray:
    """Reshape a Fig. 2-style table into a (BER x episode) matrix for rendering."""
    matrix = np.full((len(bit_error_rates), len(injection_episodes)), np.nan)
    for row in table.rows:
        try:
            i = list(bit_error_rates).index(row["bit_error_rate"])
            j = list(injection_episodes).index(row["injection_episode"])
        except ValueError:
            continue
        matrix[i, j] = row[value_column]
    return matrix

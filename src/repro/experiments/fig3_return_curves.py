"""Fig. 3 — example cumulative-return curves under transient and permanent faults.

The paper plots the per-episode cumulative return of single training runs
with (a) transient bit-flips at example (BER, injection-episode) pairs and
(b) stuck-at faults present throughout, for both the tabular and NN-based
approaches.  The takeaway is the *recovery* behaviour: the NN agent's return
dips after a transient fault but recovers within a few episodes, while the
tabular agent takes much longer or fails to recover.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Union

import numpy as np

from repro.api.execution import ExecutionConfig
from repro.core.injector import PermanentTrainingFaultHook, TransientTrainingFaultHook
from repro.experiments.common import train_grid_nn, train_tabular
from repro.experiments.config import (
    APPROACH_PARAM,
    FAST_PARAM,
    GridNNConfig,
    GridTabularConfig,
    grid_config_for,
)
from repro.experiments.registry import register_experiment
from repro.io.results import SeriesResult
from repro.rl.trainer import TrainingHooks

__all__ = ["FaultScenario", "default_scenarios", "run_return_curves", "recovery_episodes"]

GridConfig = Union[GridTabularConfig, GridNNConfig]


@dataclass(frozen=True)
class FaultScenario:
    """One curve of Fig. 3: a fault type, BER and (for transient) injection episode."""

    label: str
    fault_type: str  # "transient", "stuck-at-0" or "stuck-at-1"
    bit_error_rate: float
    injection_episode: Optional[int] = None

    def hooks(self, rng: np.random.Generator) -> List[TrainingHooks]:
        if self.bit_error_rate <= 0:
            return []
        if self.fault_type == "transient":
            if self.injection_episode is None:
                raise ValueError("transient scenarios need an injection_episode")
            return [
                TransientTrainingFaultHook(
                    self.bit_error_rate, inject_episode=self.injection_episode, rng=rng
                )
            ]
        stuck_value = 1 if self.fault_type.endswith("1") else 0
        return [
            PermanentTrainingFaultHook(self.bit_error_rate, stuck_value=stuck_value, rng=rng)
        ]


def default_scenarios(total_episodes: int, approach: str) -> List[FaultScenario]:
    """The example scenarios plotted in Fig. 3 (episode indices scaled to the run length)."""
    quarter = total_episodes // 4
    late = int(total_episodes * 0.8)
    if approach == "tabular":
        return [
            FaultScenario("fault-free", "transient", 0.0, None),
            FaultScenario("transient BER=0.6% early", "transient", 0.006, quarter),
            FaultScenario("transient BER=0.6% late", "transient", 0.006, late),
            FaultScenario("stuck-at-0 BER=0.2%", "stuck-at-0", 0.002),
            FaultScenario("stuck-at-1 BER=0.3%", "stuck-at-1", 0.003),
        ]
    return [
        FaultScenario("fault-free", "transient", 0.0, None),
        FaultScenario("transient BER=0.8% late", "transient", 0.008, late),
        FaultScenario("transient BER=0.6% mid", "transient", 0.006, total_episodes // 2),
        FaultScenario("stuck-at-0 BER=0.3%", "stuck-at-0", 0.003),
        FaultScenario("stuck-at-1 BER=0.2%", "stuck-at-1", 0.002),
    ]


def run_return_curves(
    config: GridConfig,
    scenarios: Optional[Sequence[FaultScenario]] = None,
    smoothing_window: int = 25,
    *,
    execution: ExecutionConfig = ExecutionConfig(),
) -> SeriesResult:
    """Train once per scenario and return the smoothed cumulative-return curves.

    There is no campaign here (one training run per scenario), so only the
    ``seed`` of an :class:`~repro.api.execution.ExecutionConfig` is used.
    """
    seed = execution.seed
    approach = "nn" if isinstance(config, GridNNConfig) else "tabular"
    scenarios = list(
        scenarios if scenarios is not None else default_scenarios(config.episodes, approach)
    )
    result = SeriesResult(
        title=f"Fig3 cumulative return curves ({approach})", x_label="episode"
    )
    for scenario in scenarios:
        rng = np.random.default_rng(seed)
        hooks = scenario.hooks(rng)
        if approach == "nn":
            _, _, history = train_grid_nn(config, rng, hooks=hooks)
        else:
            _, _, history = train_tabular(config, rng, hooks=hooks)
        smoothed = history.moving_average_reward(window=smoothing_window)
        if not result.x_values:
            result.x_values = list(range(len(smoothed)))
        # All runs have the same episode count, so the smoothed lengths match.
        result.add_series(scenario.label, smoothed.tolist())
    return result


# --------------------------------------------------------------------------- #
# Declarative specs
# --------------------------------------------------------------------------- #
@register_experiment(
    "fig3.return_curves",
    description="Fig. 3 — per-episode cumulative-return curves under example "
    "transient and stuck-at fault scenarios",
    params=(APPROACH_PARAM, FAST_PARAM),
)
def _return_curves_spec(
    execution: ExecutionConfig, *, approach: str, fast: bool
) -> SeriesResult:
    config = grid_config_for(approach, fast, scale=execution.scale)
    return run_return_curves(config, execution=execution)


def recovery_episodes(
    curve: Sequence[float],
    injection_episode: int,
    recovery_fraction: float = 0.9,
) -> Optional[int]:
    """Episodes needed after an injection for the return to regain its pre-fault level.

    Returns None if the curve never recovers to ``recovery_fraction`` of its
    pre-injection value (the tabular agent's failure mode in Fig. 3a).
    """
    curve = np.asarray(curve, dtype=np.float64)
    if not 0 <= injection_episode < curve.size:
        raise ValueError(
            f"injection_episode {injection_episode} outside the curve of length {curve.size}"
        )
    baseline = curve[:injection_episode].max() if injection_episode else curve[0]
    target = recovery_fraction * baseline
    for offset, value in enumerate(curve[injection_episode:]):
        if value >= target:
            return offset
    return None

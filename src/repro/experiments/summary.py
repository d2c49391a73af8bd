"""Headline numbers of Sec. 5.2.

Derives the paper's three headline claims from the Fig. 10 sweeps plus the
analytical overhead model:

* up to ~2x success-rate improvement in Grid World inference,
* ~39% quality-of-flight (MSF) improvement in drone inference,
* <3% runtime overhead for the range detector, with no redundant bits.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.api.execution import ExecutionConfig
from repro.core.mitigation.anomaly import estimate_runtime_overhead
from repro.experiments.config import (
    FAST_PARAM,
    DroneConfig,
    GridNNConfig,
    drone_config_for,
    grid_config_for,
)
from repro.experiments.fig10_anomaly import (
    run_drone_anomaly_mitigation,
    run_gridworld_anomaly_mitigation,
)
from repro.experiments.registry import register_experiment
from repro.io.results import ResultTable
from repro.metrics.navigation import quality_of_flight_improvement

__all__ = ["summarize_mitigation_gains", "run_headline_summary"]


def summarize_mitigation_gains(
    table: ResultTable, value_column: str, ber_column: str = "bit_error_rate"
) -> ResultTable:
    """Per-BER improvement factor of mitigated over unmitigated results."""
    summary = ResultTable(title=f"{table.title} — improvement factors")
    unmitigated = {
        row[ber_column]: row[value_column] for row in table.filter(mitigation=False).rows
    }
    for row in table.filter(mitigation=True).rows:
        ber = row[ber_column]
        base = unmitigated.get(ber)
        if base is None:
            continue
        improved = row[value_column]
        factor = improved / base if base > 0 else float("inf") if improved > 0 else 1.0
        summary.add(
            **{
                ber_column: ber,
                "unmitigated": base,
                "mitigated": improved,
                "improvement_factor": factor,
                "relative_improvement": quality_of_flight_improvement(base, improved)
                if base > 0
                else float("inf"),
            }
        )
    return summary


def run_headline_summary(
    grid_config: Optional[GridNNConfig] = None,
    drone_config: Optional[DroneConfig] = None,
    grid_bers: Sequence[float] = (0.0, 0.005, 0.01),
    drone_bers: Sequence[float] = (0.0, 1e-3, 1e-2),
    *,
    execution: ExecutionConfig = ExecutionConfig(),
) -> ResultTable:
    """End-to-end headline summary (Sec. 5.2): 2x, +39%, <3% overhead."""
    grid_config = grid_config or GridNNConfig()
    drone_config = drone_config or DroneConfig()

    grid_table = run_gridworld_anomaly_mitigation(
        grid_config, grid_bers, execution=execution
    )
    drone_table = run_drone_anomaly_mitigation(
        drone_config, drone_bers, execution=execution
    )
    grid_gains = summarize_mitigation_gains(grid_table, "success_rate")
    drone_gains = summarize_mitigation_gains(drone_table, "mean_safe_flight")

    best_grid = max(
        (row["improvement_factor"] for row in grid_gains.rows if row["unmitigated"] > 0),
        default=1.0,
    )
    best_drone = max(
        (row["relative_improvement"] for row in drone_gains.rows if row["unmitigated"] > 0),
        default=0.0,
    )
    overhead = estimate_runtime_overhead(
        qformat_total_bits=drone_config.qformat.total_bits,
        sign_integer_bits=drone_config.qformat.sign_bits + drone_config.qformat.integer_bits,
    )

    summary = ResultTable(title="Headline summary (paper Sec. 5.2)")
    summary.add(
        claim="Grid World success-rate improvement (paper: ~2x)",
        measured=best_grid,
    )
    summary.add(
        claim="Drone quality-of-flight improvement (paper: ~+39%)",
        measured=best_drone,
    )
    summary.add(
        claim="Detector runtime overhead (paper: <3%)",
        measured=overhead,
    )
    return summary


# --------------------------------------------------------------------------- #
# Declarative specs
# --------------------------------------------------------------------------- #
@register_experiment(
    "summary.headline",
    description="Sec. 5.2 headline claims — ~2x Grid World success, ~+39% "
    "drone flight quality, <3% detector overhead",
    params=(FAST_PARAM,),
)
def _headline_spec(execution: ExecutionConfig, *, fast: bool) -> ResultTable:
    return run_headline_summary(
        grid_config=grid_config_for("nn", fast, scale=execution.scale),
        drone_config=drone_config_for(fast, scale=execution.scale),
        execution=execution,
    )

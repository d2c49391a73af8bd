"""Experiment drivers, one per paper figure.

Each module exposes ``run_*`` functions that return
:class:`~repro.io.results.ResultTable` / :class:`~repro.io.results.SeriesResult`
objects reproducing the rows and series of the corresponding figure, and
registers each experiment as a declarative
:class:`~repro.experiments.registry.ExperimentSpec` — the preferred way to
run them is :func:`repro.api.run` (or the registry-generated CLI).  The
benchmark harness under ``benchmarks/`` calls these drivers and prints the
resulting tables.

Experiment sizes (repetitions, sweep densities, training lengths) are
controlled by the config presets in :mod:`repro.experiments.config`; the
defaults are sized for a laptop CPU and can be scaled up through environment
variables (``REPRO_SCALE``, ``REPRO_CAMPAIGN_REPS``).
"""

from repro.experiments.config import (
    ExperimentScale,
    GridTabularConfig,
    GridNNConfig,
    DroneConfig,
    drone_config_for,
    get_scale,
    grid_config_for,
)
from repro.experiments.registry import (
    ExperimentSpec,
    ParamSpec,
    get_spec,
    list_specs,
    register_experiment,
)

__all__ = [
    "ExperimentScale",
    "GridTabularConfig",
    "GridNNConfig",
    "DroneConfig",
    "get_scale",
    "grid_config_for",
    "drone_config_for",
    "ExperimentSpec",
    "ParamSpec",
    "register_experiment",
    "get_spec",
    "list_specs",
]

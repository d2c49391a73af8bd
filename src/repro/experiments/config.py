"""Experiment configuration presets.

The paper's campaigns are large (1000 repetitions, 1000-6000 training
episodes, 10x11 heatmap grids).  To keep the reproduction runnable on a
laptop CPU the drivers are parameterized by these config dataclasses, whose
defaults produce the same *sweep structure* at reduced density, and which can
be scaled back up:

* ``REPRO_SCALE`` environment variable: ``"small"`` (default), ``"medium"``
  or ``"paper"`` — controls repetition counts and sweep densities.
* ``REPRO_CAMPAIGN_REPS``: overrides campaign repetitions everywhere.
* ``REPRO_CAMPAIGN_WORKERS``: campaign worker processes (``"auto"`` = one
  per CPU); every driver also accepts an explicit ``workers`` argument.
"""

from __future__ import annotations

import enum
import os
from dataclasses import dataclass, field
from typing import ClassVar, List, Optional, Tuple, Union

import numpy as np

from repro.core.campaign import default_repetitions
from repro.core.runner import WORKERS_ENV_VAR, default_workers
from repro.experiments.registry import ParamSpec
from repro.quant.qformat import Q8_GRID, Q16_NARROW, QFormat

__all__ = [
    "ExperimentScale",
    "get_scale",
    "GridTabularConfig",
    "GridNNConfig",
    "DroneConfig",
    "GRID_APPROACHES",
    "APPROACH_PARAM",
    "FAST_PARAM",
    "grid_config_for",
    "drone_config_for",
    "default_workers",
    "WORKERS_ENV_VAR",
]

#: Environment variable selecting the experiment scale preset.
SCALE_ENV_VAR = "REPRO_SCALE"


class ExperimentScale(str, enum.Enum):
    """How large the sweeps and campaigns are."""

    SMALL = "small"
    MEDIUM = "medium"
    PAPER = "paper"


def get_scale() -> ExperimentScale:
    """Read the scale preset from the environment (default: small)."""
    raw = os.environ.get(SCALE_ENV_VAR, ExperimentScale.SMALL.value).lower()
    try:
        return ExperimentScale(raw)
    except ValueError as exc:
        valid = [scale.value for scale in ExperimentScale]
        raise ValueError(f"{SCALE_ENV_VAR} must be one of {valid}, got {raw!r}") from exc


def _scaled(
    small: int,
    medium: int,
    paper: int,
    scale: Optional[Union[ExperimentScale, str]] = None,
) -> int:
    scale = ExperimentScale(scale) if scale is not None else get_scale()
    if scale is ExperimentScale.SMALL:
        return small
    if scale is ExperimentScale.MEDIUM:
        return medium
    return paper


@dataclass
class GridTabularConfig:
    """Grid World tabular Q-learning setup (paper-pure rewards)."""

    density: str = "middle"
    episodes: int = 1000
    max_steps: int = 100
    gamma: float = 0.95
    learning_rate: float = 0.3
    epsilon_start: float = 1.0
    epsilon_floor: float = 0.05
    epsilon_decay: float = 0.99
    qformat: QFormat = Q8_GRID
    value_scale: float = 7.5
    initial_q: float = 0.5
    eval_trials: int = 30
    #: (small, medium, paper) campaign repetition presets.
    REPS_PRESET: ClassVar[Tuple[int, int, int]] = (3, 10, 1000)
    repetitions: int = field(
        default_factory=lambda: default_repetitions(_scaled(*GridTabularConfig.REPS_PRESET))
    )

    @classmethod
    def fast(cls) -> "GridTabularConfig":
        """A heavily reduced preset for unit tests."""
        return cls(episodes=250, max_steps=60, eval_trials=10, repetitions=2)


@dataclass
class GridNNConfig:
    """Grid World NN-based Q-learning setup.

    Training uses exploring starts and a small step/bump penalty; both are
    training-protocol aids for the numpy DQN's convergence (see
    :class:`~repro.envs.gridworld.GridWorld`'s ``random_start`` and
    ``bump_reward``) and do not change the optimal navigation policy.
    """

    density: str = "middle"
    episodes: int = 600
    max_steps: int = 60
    gamma: float = 0.99
    learning_rate: float = 2e-3
    hidden_sizes: Tuple[int, ...] = (64,)
    epsilon_start: float = 1.0
    epsilon_floor: float = 0.05
    epsilon_decay: float = 0.992
    free_reward: float = -0.08
    bump_reward: float = -0.15
    replay_capacity: int = 5000
    batch_size: int = 64
    train_every: int = 1
    target_update_every: int = 100
    weight_qformat: QFormat = Q16_NARROW
    eval_trials: int = 30
    #: (small, medium, paper) campaign repetition presets.
    REPS_PRESET: ClassVar[Tuple[int, int, int]] = (2, 8, 1000)
    repetitions: int = field(
        default_factory=lambda: default_repetitions(_scaled(*GridNNConfig.REPS_PRESET))
    )

    @classmethod
    def fast(cls) -> "GridNNConfig":
        """A heavily reduced preset for unit tests."""
        return cls(episodes=150, max_steps=40, eval_trials=5, repetitions=1)


@dataclass
class DroneConfig:
    """Drone navigation setup (PEDRA substitute)."""

    environment: str = "indoor-long"
    image_size: int = 32
    n_actions: int = 25
    pretrain_samples: int = 400
    pretrain_extra_env_samples: int = 600
    pretrain_epochs: int = 40
    pretrain_learning_rate: float = 1.5e-3
    qformat: QFormat = Q16_NARROW
    eval_trials: int = 2
    max_eval_steps: int = 300
    finetune_episodes: int = 8
    finetune_max_steps: int = 60
    #: (small, medium, paper) campaign repetition presets.
    REPS_PRESET: ClassVar[Tuple[int, int, int]] = (2, 5, 100)
    repetitions: int = field(
        default_factory=lambda: default_repetitions(_scaled(*DroneConfig.REPS_PRESET))
    )

    @classmethod
    def fast(cls) -> "DroneConfig":
        """A heavily reduced preset for unit tests."""
        return cls(
            pretrain_samples=60,
            pretrain_extra_env_samples=60,
            pretrain_epochs=4,
            eval_trials=1,
            max_eval_steps=80,
            finetune_episodes=2,
            finetune_max_steps=20,
            repetitions=1,
        )


#: BER sweeps used across the Grid World experiments (fractions, not %).
GRID_BER_SWEEP_SMALL: List[float] = [0.0, 0.002, 0.005, 0.01]
GRID_BER_SWEEP_PAPER: List[float] = [0.0] + [round(0.001 * k, 4) for k in range(1, 11)]

#: BER sweeps used for the drone experiments.  The reproduction's C3F2 is two
#: orders of magnitude smaller than the paper's, so each bit flip matters more
#: and the interesting degradation happens at lower BER; the small sweep
#: therefore includes 1e-5 and 5e-5 points.
DRONE_BER_SWEEP_SMALL: List[float] = [0.0, 1e-5, 5e-5, 1e-4, 1e-3, 1e-2]
DRONE_BER_SWEEP_PAPER: List[float] = [0.0, 1e-5, 5e-5, 1e-4, 5e-4, 1e-3, 5e-3, 1e-2, 5e-2, 1e-1]


def grid_ber_sweep(scale: Optional[Union[ExperimentScale, str]] = None) -> List[float]:
    """Grid World bit-error-rate sweep for the current scale."""
    scale = ExperimentScale(scale) if scale is not None else get_scale()
    return GRID_BER_SWEEP_PAPER if scale is not ExperimentScale.SMALL else GRID_BER_SWEEP_SMALL


def drone_ber_sweep(scale: Optional[Union[ExperimentScale, str]] = None) -> List[float]:
    """Drone bit-error-rate sweep for the current scale."""
    scale = ExperimentScale(scale) if scale is not None else get_scale()
    return DRONE_BER_SWEEP_PAPER if scale is not ExperimentScale.SMALL else DRONE_BER_SWEEP_SMALL


#: Valid ``approach`` values for the Grid World experiments.
GRID_APPROACHES: Tuple[str, ...] = ("tabular", "nn")

#: Shared spec parameters (every Grid World spec takes ``approach``; every
#: spec takes ``fast``).  Declared once so the registry and CLI stay aligned.
APPROACH_PARAM = ParamSpec(
    "approach",
    str,
    "tabular",
    help="Grid World agent approach",
    choices=GRID_APPROACHES,
)
FAST_PARAM = ParamSpec(
    "fast", bool, False, help="use the heavily reduced unit-test presets (smoke runs)"
)


def _preset(cls, fast: bool, scale: "Optional[Union[ExperimentScale, str]]"):
    """Build a config preset, optionally pinning the scale's repetition count."""
    if fast:
        return cls.fast()
    if scale is None:
        return cls()
    scale = ExperimentScale(scale)
    return cls(repetitions=default_repetitions(_scaled(*cls.REPS_PRESET, scale=scale)))


def grid_config_for(
    approach: str = "tabular",
    fast: bool = False,
    scale: Optional[Union[ExperimentScale, str]] = None,
) -> "Union[GridTabularConfig, GridNNConfig]":
    """Grid World config preset for an ``approach`` / ``fast`` selection.

    This is how the declarative specs (and the CLI's ``--approach`` /
    ``--fast`` flags) construct configs; ``scale`` pins the repetition
    preset explicitly instead of re-reading ``REPRO_SCALE``.
    """
    if approach not in GRID_APPROACHES:
        raise ValueError(f"approach must be one of {GRID_APPROACHES}, got {approach!r}")
    cls = GridNNConfig if approach == "nn" else GridTabularConfig
    return _preset(cls, fast, scale)


def drone_config_for(
    fast: bool = False, scale: Optional[Union[ExperimentScale, str]] = None
) -> DroneConfig:
    """Drone config preset (the CLI's ``--fast`` flag), like :func:`grid_config_for`."""
    return _preset(DroneConfig, fast, scale)


def injection_episodes(
    total_episodes: int, scale: Optional[Union[ExperimentScale, str]] = None
) -> List[int]:
    """Fault-injection episode grid (Fig. 2 x-axis) for the current scale."""
    scale = ExperimentScale(scale) if scale is not None else get_scale()
    points = _scaled(3, 6, 11, scale)
    return [int(round(e)) for e in np.linspace(0, total_episodes - 1, points)]

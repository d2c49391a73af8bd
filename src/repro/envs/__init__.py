"""Navigation environments.

Two template problems from the paper:

* :mod:`repro.envs.gridworld` — the Grid World navigation task of Sec. 4.1
  (Fig. 1), with the three obstacle-density presets.
* :mod:`repro.envs.drone` — a procedural indoor-corridor drone navigation
  simulator standing in for the PEDRA / Unreal Engine environments of
  Sec. 4.2, because a game-engine simulator cannot run in a numpy-only
  reproduction.
"""

from repro.envs.base import Environment
from repro.envs.batched import BatchedEnv
from repro.envs.gridworld import (
    GridWorld,
    GridWorldBatch,
    GridLayout,
    LOW_DENSITY,
    MIDDLE_DENSITY,
    HIGH_DENSITY,
    make_gridworld,
)
from repro.envs.drone import DroneNavEnv, DroneNavEnvBatch, make_drone_env

__all__ = [
    "Environment",
    "BatchedEnv",
    "GridWorld",
    "GridWorldBatch",
    "GridLayout",
    "LOW_DENSITY",
    "MIDDLE_DENSITY",
    "HIGH_DENSITY",
    "make_gridworld",
    "DroneNavEnv",
    "DroneNavEnvBatch",
    "make_drone_env",
]

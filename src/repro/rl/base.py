"""Common agent interface and transition container."""

from __future__ import annotations

from typing import Any, Dict, NamedTuple

import numpy as np

from repro.quant.qtensor import QTensor

__all__ = ["Transition", "Agent"]


class Transition(NamedTuple):
    """One environment interaction ``(s, a, r, s', done)``.

    Matches the data tuple :math:`D_i = (s_i, a_i, s_{i+1}, r_i)` of Sec. 3.1,
    extended with the terminal flag needed for bootstrapped targets.  A named
    tuple: immutable, and cheap to build once per training step.
    """

    state: Any
    action: int
    reward: float
    next_state: Any
    done: bool


class Agent:
    """Interface shared by the tabular and NN-based Q-learning agents.

    The fault-injection framework interacts with agents exclusively through
    :meth:`memory_buffers` / :meth:`reload_from_buffers`: every tensor the
    hardware fault model can corrupt is exposed as a named
    :class:`~repro.quant.qtensor.QTensor`.
    """

    #: Number of discrete actions.
    n_actions: int

    # -- acting --------------------------------------------------------- #
    def select_action(self, state: Any, explore: bool = True) -> int:
        """Choose an action; ``explore=False`` forces greedy exploitation."""
        raise NotImplementedError

    def q_values(self, state: Any) -> np.ndarray:
        """Q-values for every action in ``state``."""
        raise NotImplementedError

    # -- learning ------------------------------------------------------- #
    def observe(self, transition: Transition) -> None:
        """Consume one transition (update tables / replay / networks)."""
        raise NotImplementedError

    def end_episode(self) -> None:
        """Hook called at the end of every training episode."""

    # -- exploration ---------------------------------------------------- #
    @property
    def exploration_rate(self) -> float:
        """Current epsilon of the exploration schedule."""
        raise NotImplementedError

    # -- fault-injection surface ---------------------------------------- #
    def memory_buffers(self) -> Dict[str, QTensor]:
        """All quantized memories the fault model can target, by name."""
        raise NotImplementedError

    def reload_from_buffers(self) -> None:
        """Propagate (possibly faulted) buffer contents back into the agent."""
        raise NotImplementedError

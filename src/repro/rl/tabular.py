"""Tabular Q-learning with a quantized Q table.

The Grid World policies of Sec. 4.1 are quantized to 8 bits during both
training and inference; the Q table is therefore held in a
:class:`~repro.quant.qtensor.QTensor` ("data buffer storing tabular values",
Sec. 3.2) so the fault injector can flip or stick its bits directly.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Union

import numpy as np

from repro.quant.qformat import Q8_GRID, QFormat
from repro.quant.qtensor import QTensor
from repro.rl.base import Agent, Transition
from repro.rl.schedules import ConstantSchedule, DecayingEpsilonGreedy

__all__ = ["TabularQAgent", "greedy_tie_break"]

Schedule = Union[ConstantSchedule, DecayingEpsilonGreedy]

#: Name of the tabular value buffer in :meth:`TabularQAgent.memory_buffers`.
QTABLE_BUFFER = "qtable"


def greedy_tie_break(row: Sequence[float], rng: np.random.Generator) -> int:
    """Index of the largest entry of ``row``, ties broken uniformly at random.

    Returns what ``rng.choice(np.flatnonzero(row == row.max()))`` returns and
    leaves ``rng`` in the same state: ``Generator.choice`` over ``n``
    candidates draws one ``integers(n)``, which is all this makes.  A unique
    maximum is returned without calling ``rng``: ``Generator.choice`` over
    one element draws nothing.
    """
    top = max(row)
    best = [index for index, value in enumerate(row) if value == top]
    if len(best) == 1:
        return best[0]
    return best[int(rng.integers(len(best)))]


class TabularQAgent(Agent):
    """Q-learning agent with an explicit quantized Q-table buffer.

    Parameters
    ----------
    n_states, n_actions:
        Sizes of the discrete state and action spaces.
    gamma:
        Discount factor.
    learning_rate:
        Bellman-update step size (alpha).
    schedule:
        Epsilon-greedy exploration schedule (stepped once per episode).
    qformat:
        Fixed-point storage format of the Q table (8-bit by default).
    value_scale:
        Q values are stored multiplied by this factor so that the table uses
        the full dynamic range of the fixed-point format (the Fig. 2b
        histogram spans roughly [-8, 8) for unit rewards).
    initial_q:
        Initial Q value (in reward units) for every table entry.  A small
        optimistic value (e.g. 0.5) makes the agent systematically try
        untried actions, which speeds up convergence and makes it far more
        reliable on the sparse-reward Grid World.
    """

    def __init__(
        self,
        n_states: int,
        n_actions: int,
        gamma: float = 0.95,
        learning_rate: float = 0.3,
        schedule: Optional[Schedule] = None,
        qformat: QFormat = Q8_GRID,
        value_scale: float = 7.5,
        initial_q: float = 0.0,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        if n_states <= 0 or n_actions <= 0:
            raise ValueError("n_states and n_actions must be positive")
        if not 0.0 < gamma < 1.0:
            raise ValueError(f"gamma must be in (0, 1), got {gamma}")
        if not 0.0 < learning_rate <= 1.0:
            raise ValueError(f"learning_rate must be in (0, 1], got {learning_rate}")
        if value_scale <= 0:
            raise ValueError(f"value_scale must be positive, got {value_scale}")
        self.n_states = n_states
        self.n_actions = n_actions
        self.gamma = gamma
        self.learning_rate = learning_rate
        self.schedule: Schedule = schedule or DecayingEpsilonGreedy()
        self.qformat = qformat
        self.value_scale = value_scale
        self.initial_q = initial_q
        self.rng = rng or np.random.default_rng()
        initial = np.full((n_states, n_actions), initial_q * value_scale, dtype=np.float64)
        self._table = QTensor(initial, qformat, name=QTABLE_BUFFER)

    # ------------------------------------------------------------------ #
    # Value access
    # ------------------------------------------------------------------ #
    @property
    def q_table(self) -> np.ndarray:
        """Decoded Q-value table (in reward units, scale removed)."""
        return self._table.values / self.value_scale

    def q_values(self, state: int) -> np.ndarray:
        """Q-values for every action in a state."""
        self._check_state(state)
        return self._table.values[state] / self.value_scale

    def _check_state(self, state: int) -> None:
        if not 0 <= state < self.n_states:
            raise ValueError(f"state {state} outside [0, {self.n_states})")

    # ------------------------------------------------------------------ #
    # Acting
    # ------------------------------------------------------------------ #
    def select_action(self, state: int, explore: bool = True) -> int:
        """Epsilon-greedy action selection (ties broken randomly).

        The greedy pick compares the stored values directly: dividing every
        entry by the positive ``value_scale`` keeps their order and their
        ties, as stored values are fixed-point words far apart in ``float``.
        """
        rng = self.rng
        if explore and rng.random() < self.schedule.epsilon:
            return int(rng.integers(self.n_actions))
        self._check_state(state)
        return greedy_tie_break(self._table.row(state), rng)

    # ------------------------------------------------------------------ #
    # Learning
    # ------------------------------------------------------------------ #
    def observe(self, transition: Transition) -> None:
        """Apply the Bellman backup of Eq. 4 to the quantized table.

        Reads one element and one row and writes back one element through
        the table's element accessors, so a step encodes a single word.
        """
        state = int(transition.state)
        next_state = int(transition.next_state)
        self._check_state(state)
        self._check_state(next_state)
        table = self._table
        scale = self.value_scale
        index = (state, transition.action)
        current = table.item(index) / scale
        if transition.done:
            bootstrap = 0.0
        else:
            bootstrap = max(table.row(next_state)) / scale
        target = transition.reward + self.gamma * bootstrap
        updated = current + self.learning_rate * (target - current)
        table.set_item(index, updated * scale)

    def end_episode(self) -> None:
        self.schedule.step()

    # ------------------------------------------------------------------ #
    # Exploration
    # ------------------------------------------------------------------ #
    @property
    def exploration_rate(self) -> float:
        return self.schedule.epsilon

    # ------------------------------------------------------------------ #
    # Fault-injection surface
    # ------------------------------------------------------------------ #
    def memory_buffers(self) -> Dict[str, QTensor]:
        return {QTABLE_BUFFER: self._table}

    def reload_from_buffers(self) -> None:
        """The Q table *is* the buffer, so nothing needs to be copied back."""

    # ------------------------------------------------------------------ #
    # Policy export
    # ------------------------------------------------------------------ #
    def greedy_policy(self) -> np.ndarray:
        """Greedy action for every state (Eq. 5)."""
        return self.q_table.argmax(axis=1)

    def clone(self, rng: Optional[np.random.Generator] = None) -> "TabularQAgent":
        """Deep copy of the agent (table and schedule state preserved).

        Without ``rng`` the copy's generator is seeded by drawing from this
        agent's generator, which *advances the parent's RNG state*.  Callers
        that need cloning to be side-effect free (e.g. campaign trials that
        clone a shared agent and must stay pure functions of their trial
        RNG) should pass an explicit generator.
        """
        if rng is None:
            rng = np.random.default_rng(self.rng.integers(2**32))
        copy = TabularQAgent(
            self.n_states,
            self.n_actions,
            gamma=self.gamma,
            learning_rate=self.learning_rate,
            schedule=ConstantSchedule(self.schedule.epsilon),
            qformat=self.qformat,
            value_scale=self.value_scale,
            initial_q=self.initial_q,
            rng=rng,
        )
        copy._table = self._table.copy()
        return copy

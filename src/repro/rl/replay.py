"""Experience replay buffer for DQN training."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Tuple

import numpy as np

from repro.rl.base import Transition

__all__ = ["ReplayBatch", "ReplayBuffer"]


@dataclass(frozen=True)
class ReplayBatch:
    """Sampled transitions as columns: row ``i`` of every array is one draw."""

    states: np.ndarray
    actions: np.ndarray
    rewards: np.ndarray
    next_states: np.ndarray
    dones: np.ndarray

    def __len__(self) -> int:
        return len(self.actions)


class ReplayBuffer:
    """Fixed-capacity FIFO replay memory with uniform sampling.

    Transitions live in ring-buffer columns, one array per
    :class:`~repro.rl.base.Transition` field with ``capacity`` rows: raw
    states (int64 for Grid World, the observation arrays for the drone)
    and next states, int64 actions, float64 rewards and boolean done flags.
    The state columns take their row shape and dtype from the first pushed
    state.  Once full, each push overwrites the oldest row.
    """

    def __init__(self, capacity: int, rng: Optional[np.random.Generator] = None) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._rng = rng or np.random.default_rng()
        self._columns: Optional[Tuple[np.ndarray, ...]] = None
        #: Row the next push writes, and the number of stored transitions.
        self._next = 0
        self._size = 0

    def _allocate(self, transition: Transition) -> Tuple[np.ndarray, ...]:
        state = np.asarray(transition.state)
        dtypes = (state.dtype, np.int64, np.float64, state.dtype, bool)
        shapes = (state.shape, (), (), state.shape, ())
        return tuple(
            np.empty((self.capacity,) + shape, dtype=dtype)
            for shape, dtype in zip(shapes, dtypes)
        )

    def push(self, transition: Transition) -> None:
        """Append a transition, evicting the oldest if at capacity."""
        if self._columns is None:
            self._columns = self._allocate(transition)
        for column, value in zip(self._columns, transition):
            column[self._next] = value
        self._next = (self._next + 1) % self.capacity
        self._size = min(self._size + 1, self.capacity)

    def _rows(self, positions: np.ndarray) -> np.ndarray:
        """Ring rows of FIFO positions (0 is the oldest stored transition)."""
        return (positions + (self._next - self._size)) % self.capacity

    def sample(self, batch_size: int) -> ReplayBatch:
        """Uniformly sample ``batch_size`` transitions (with replacement if needed).

        Draws ``rng.choice(len(self), batch_size, replace)`` over FIFO
        positions (0 is the oldest), so the draws do not depend on where
        the ring wraps, and gathers those rows from every column.
        """
        if not self._size:
            raise ValueError("cannot sample from an empty replay buffer")
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        replace = batch_size > self._size
        positions = self._rng.choice(self._size, size=batch_size, replace=replace)
        rows = self._rows(positions)
        return ReplayBatch(*(column[rows] for column in self._columns))

    def __len__(self) -> int:
        return self._size

    def __iter__(self) -> Iterator[Transition]:
        """Stored transitions, oldest first."""
        for row in self._rows(np.arange(self._size)):
            yield Transition(*(column[row] for column in self._columns))

    def clear(self) -> None:
        self._next = 0
        self._size = 0

    def is_full(self) -> bool:
        return self._size == self.capacity

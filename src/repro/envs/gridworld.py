"""Grid World navigation environment (paper Sec. 4.1, Fig. 1).

A 10x10 grid in which each cell is one of ``source``, ``goal``, ``hell``
(obstacle) or ``free``.  The agent starts at the source and must reach the
goal while avoiding hell cells.  Rewards are +1 (goal), -1 (hell) and 0
(free); reaching goal or hell ends the episode.  Three layouts with low,
middle and high obstacle density mirror Fig. 1a-c (the exact obstacle cells
of the figure are not published, so the layouts here are representative
placements at matching densities with a guaranteed path to the goal).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.envs.base import Environment
from repro.envs.batched import BatchedEnv

__all__ = [
    "GridLayout",
    "GridOutcomes",
    "GridWorld",
    "GridWorldBatch",
    "LOW_DENSITY",
    "MIDDLE_DENSITY",
    "HIGH_DENSITY",
    "grid_outcomes",
    "make_gridworld",
]

#: Cell symbols used in layout maps.
SOURCE, GOAL, HELL, FREE = "S", "G", "#", "."

#: Action indices: move-up, move-down, move-left, move-right (|A| = 4).
ACTION_DELTAS: Dict[int, Tuple[int, int]] = {
    0: (-1, 0),  # up
    1: (1, 0),  # down
    2: (0, -1),  # left
    3: (0, 1),  # right
}
ACTION_NAMES = ("up", "down", "left", "right")


@dataclass(frozen=True)
class GridLayout:
    """An immutable Grid World map."""

    name: str
    rows: Tuple[str, ...]

    def __post_init__(self) -> None:
        widths = {len(row) for row in self.rows}
        if len(widths) != 1:
            raise ValueError(f"layout {self.name!r} has ragged rows")
        flat = "".join(self.rows)
        if flat.count(SOURCE) != 1:
            raise ValueError(f"layout {self.name!r} must have exactly one source cell")
        if flat.count(GOAL) != 1:
            raise ValueError(f"layout {self.name!r} must have exactly one goal cell")
        invalid = set(flat) - {SOURCE, GOAL, HELL, FREE}
        if invalid:
            raise ValueError(f"layout {self.name!r} has invalid symbols {invalid}")

    @property
    def size(self) -> Tuple[int, int]:
        return len(self.rows), len(self.rows[0])

    @property
    def n_cells(self) -> int:
        height, width = self.size
        return height * width

    def cell(self, row: int, col: int) -> str:
        return self.rows[row][col]

    def find(self, symbol: str) -> Tuple[int, int]:
        """Coordinates of the first cell holding ``symbol``."""
        for r, row in enumerate(self.rows):
            c = row.find(symbol)
            if c >= 0:
                return r, c
        raise ValueError(f"symbol {symbol!r} not present in layout {self.name!r}")

    def obstacle_density(self) -> float:
        """Fraction of cells that are hell (obstacles)."""
        flat = "".join(self.rows)
        return flat.count(HELL) / len(flat)

    def obstacle_cells(self) -> List[Tuple[int, int]]:
        return [
            (r, c)
            for r, row in enumerate(self.rows)
            for c, symbol in enumerate(row)
            if symbol == HELL
        ]


#: Fig. 1a — low obstacle density (~8%).
LOW_DENSITY = GridLayout(
    name="low",
    rows=(
        "S.........",
        "..........",
        "...#......",
        "......#...",
        "..#.......",
        ".......#..",
        "...#......",
        ".....#....",
        "..#.......",
        ".........G",
    ),
)

#: Fig. 1b — middle obstacle density (~16%); the layout used for the paper's
#: reported Grid World numbers.
MIDDLE_DENSITY = GridLayout(
    name="middle",
    rows=(
        "S.........",
        "..#...#...",
        "....#....#",
        ".#...#....",
        "...#....#.",
        ".#...#....",
        "....#...#.",
        ".#....#...",
        "...#....#.",
        ".....#...G",
    ),
)

#: Fig. 1c — high obstacle density (~24%).
HIGH_DENSITY = GridLayout(
    name="high",
    rows=(
        "S..#....#.",
        "..#...#...",
        ".#..#....#",
        "...#..#...",
        ".#...#...#",
        "..#....#..",
        "#...#.....",
        "..#...#.#.",
        ".#..#.....",
        "...#..#..G",
    ),
)

_LAYOUTS = {layout.name: layout for layout in (LOW_DENSITY, MIDDLE_DENSITY, HIGH_DENSITY)}

#: One step's result: ``(next_state, reward, done, success)``.
Outcome = Tuple[int, float, bool, bool]


@dataclass(frozen=True, eq=False)
class GridOutcomes:
    """The Grid World dynamics of one layout and reward set, as a table.

    ``table[state][action]`` is the :data:`Outcome` of taking ``action`` in
    ``state``.  The arrays hold the same entries with shape
    ``(n_states, n_actions)`` for vectorized gathers, and ``start_states``
    lists the free and source cells an exploring start draws from.
    """

    table: Tuple[Tuple[Outcome, ...], ...]
    next_state: np.ndarray
    reward: np.ndarray
    done: np.ndarray
    success: np.ndarray
    start_states: Tuple[int, ...]


@lru_cache(maxsize=None)
def grid_outcomes(
    layout: GridLayout,
    goal_reward: float,
    hell_reward: float,
    free_reward: float,
    bump_reward: float,
) -> GridOutcomes:
    """Every (state, action) outcome of ``layout``; cached, as layouts are frozen.

    Moving off the grid leaves the agent in place with ``bump_reward``;
    entering the goal or a hell cell ends the episode with ``goal_reward`` /
    ``hell_reward``; any other move pays ``free_reward``.
    """
    height, width = layout.size
    table = []
    for state in range(layout.n_cells):
        row, col = divmod(state, width)
        outcomes = []
        for action in range(len(ACTION_DELTAS)):
            d_row, d_col = ACTION_DELTAS[action]
            new_row, new_col = row + d_row, col + d_col
            bumped = not (0 <= new_row < height and 0 <= new_col < width)
            if bumped:
                new_row, new_col = row, col
            next_state = new_row * width + new_col
            cell = layout.cell(new_row, new_col)
            if cell == GOAL:
                outcomes.append((next_state, float(goal_reward), True, True))
            elif cell == HELL:
                outcomes.append((next_state, float(hell_reward), True, False))
            else:
                reward = bump_reward if bumped else free_reward
                outcomes.append((next_state, float(reward), False, False))
        table.append(tuple(outcomes))
    columns = zip(*(outcome for outcomes in table for outcome in outcomes))
    arrays = []
    for column, dtype in zip(columns, (np.int64, np.float64, bool, bool)):
        array = np.array(column, dtype=dtype).reshape(layout.n_cells, len(ACTION_DELTAS))
        array.flags.writeable = False  # shared by every env of this layout
        arrays.append(array)
    start_states = tuple(
        state for state, symbol in enumerate("".join(layout.rows)) if symbol in (FREE, SOURCE)
    )
    return GridOutcomes(tuple(table), *arrays, start_states=start_states)


@lru_cache(maxsize=None)
def _one_hot_table(n_states: int) -> np.ndarray:
    """The read-only ``(n_states, n_states)`` identity that one-hot rows come from."""
    table = np.eye(n_states, dtype=np.float64)
    table.flags.writeable = False
    return table


class GridWorld(Environment):
    """Episodic Grid World MDP.

    States are flattened cell indices ``row * width + col`` (``|S| = n**2``);
    actions are the four cardinal moves.  Moving off the grid leaves the
    agent in place (reward 0).  A step is a lookup in the layout's
    :func:`grid_outcomes` table, built from the rewards given here.
    """

    def __init__(
        self,
        layout: GridLayout = MIDDLE_DENSITY,
        goal_reward: float = 1.0,
        hell_reward: float = -1.0,
        free_reward: float = 0.0,
        bump_reward: float = 0.0,
        random_start: bool = False,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        self.layout = layout
        self.goal_reward = goal_reward
        self.hell_reward = hell_reward
        self.free_reward = free_reward
        #: Optional penalty for bumping into the boundary (the agent stays in
        #: place).  The paper's reward is {+1 goal, -1 hell, 0 free}; the NN
        #: training preset uses a small bump/step penalty to discourage
        #: degenerate wall-hugging policies under function approximation
        #: (see repro.experiments.config).
        self.bump_reward = bump_reward
        #: With ``random_start=True`` each episode begins at a random free
        #: cell instead of the source (exploring starts).  Used only while
        #: *training* the NN-based policy, whose function approximation needs
        #: broader state coverage than the tabular agent; evaluation always
        #: starts from the source cell.
        self.random_start = random_start
        self.rng = rng or np.random.default_rng()
        self.height, self.width = layout.size
        self.n_states = layout.n_cells
        self.n_actions = len(ACTION_DELTAS)
        self._source = layout.find(SOURCE)
        self._goal = layout.find(GOAL)
        self._outcomes = grid_outcomes(
            layout, goal_reward, hell_reward, free_reward, bump_reward
        )
        self._one_hot_rows = _one_hot_table(self.n_states)
        self._state = self.state_index(self._source)

    # ------------------------------------------------------------------ #
    # State helpers
    # ------------------------------------------------------------------ #
    def state_index(self, position: Tuple[int, int]) -> int:
        row, col = position
        return row * self.width + col

    def position_of(self, state: int) -> Tuple[int, int]:
        if not 0 <= state < self.n_states:
            raise ValueError(f"state {state} outside [0, {self.n_states})")
        return divmod(state, self.width)

    def one_hot(self, state) -> np.ndarray:
        """One-hot feature encoding used by the NN-based policy.

        ``state`` is one state index, giving an ``(n_states,)`` row, or an
        array of them, giving one row per state.  Rows are gathered (copied)
        from one cached identity table.
        """
        return np.take(self._one_hot_rows, state, axis=0)

    @property
    def goal_state(self) -> int:
        return self.state_index(self._goal)

    @property
    def source_state(self) -> int:
        return self.state_index(self._source)

    # ------------------------------------------------------------------ #
    # Episode dynamics
    # ------------------------------------------------------------------ #
    def reset(self) -> int:
        if self.random_start:
            starts = self._outcomes.start_states
            self._state = starts[int(self.rng.integers(len(starts)))]
        else:
            self._state = self.state_index(self._source)
        return self._state

    def step(self, action: int) -> Tuple[int, float, bool, Dict[str, bool]]:
        self._check_action(action)
        next_state, reward, done, success = self._outcomes.table[self._state][action]
        self._state = next_state
        return next_state, reward, done, {"success": success}

    # ------------------------------------------------------------------ #
    # Batched stepping
    # ------------------------------------------------------------------ #
    def batched(self, n_replicas: int) -> "GridWorldBatch":
        """A vectorized batch of ``n_replicas`` independent copies of this env.

        The batch shares this environment's layout and reward structure and
        steps all replicas through vectorized integer math; each replica's
        episode is bit-identical to stepping this environment scalar-ly with
        the same actions.  Only deterministic (source-cell) starts are
        supported — evaluation episodes always start from the source, and a
        ``random_start`` environment would need per-replica RNG plumbing
        that batched campaigns deliberately avoid.
        """
        if self.random_start:
            raise ValueError("batched stepping supports deterministic starts only")
        return GridWorldBatch(self, n_replicas)

    # ------------------------------------------------------------------ #
    # Analysis helpers
    # ------------------------------------------------------------------ #
    def shortest_path_length(self) -> int:
        """BFS shortest source->goal path length avoiding hell cells."""
        from collections import deque

        start = self._source
        goal = self._goal
        visited = {start}
        queue = deque([(start, 0)])
        while queue:
            (row, col), dist = queue.popleft()
            if (row, col) == goal:
                return dist
            for d_row, d_col in ACTION_DELTAS.values():
                nxt = (row + d_row, col + d_col)
                if not (0 <= nxt[0] < self.height and 0 <= nxt[1] < self.width):
                    continue
                if nxt in visited or self.layout.cell(*nxt) == HELL:
                    continue
                visited.add(nxt)
                queue.append((nxt, dist + 1))
        raise ValueError(f"layout {self.layout.name!r} has no path from source to goal")

    def render(self, agent_state: Optional[int] = None) -> str:
        """ASCII rendering with the agent marked ``A``."""
        position = self.position_of(self._state if agent_state is None else agent_state)
        lines = []
        for r, row in enumerate(self.layout.rows):
            chars = list(row)
            if (r, None) is not None and position[0] == r:
                chars[position[1]] = "A"
            lines.append("".join(chars))
        return "\n".join(lines)


class GridWorldBatch(BatchedEnv):
    """Vectorized lockstep stepping of B independent Grid World episodes.

    This is the Grid World's batched-stepping mode (built through
    :meth:`GridWorld.batched`): replica states live in one integer array,
    and :meth:`step_many` gathers every active replica's outcome from the
    same :func:`grid_outcomes` table the scalar :meth:`GridWorld.step`
    reads, so each replica's trajectory is exactly the scalar trajectory
    for the same actions.
    """

    def __init__(self, env: GridWorld, n_replicas: int) -> None:
        if n_replicas <= 0:
            raise ValueError(f"n_replicas must be positive, got {n_replicas}")
        self.layout = env.layout
        self.n_actions = env.n_actions
        self.n_replicas = n_replicas
        self.height, self.width = env.height, env.width
        self._source_state = env.source_state
        self._outcomes = env._outcomes
        self._states = np.full(n_replicas, self._source_state, dtype=np.int64)

    def reset_all(self) -> List[int]:
        self._states[:] = self._source_state
        return [int(s) for s in self._states]

    def step_many(
        self, actions: Sequence[int], indices: Sequence[int]
    ) -> Tuple[List[int], np.ndarray, np.ndarray, List[Dict[str, bool]]]:
        actions = np.asarray(actions, dtype=np.int64)
        indices = np.asarray(indices, dtype=np.int64)
        if actions.shape != indices.shape:
            raise ValueError("actions and indices must have the same shape")
        self._check_actions(actions)
        outcomes = self._outcomes
        current = self._states[indices]
        states = outcomes.next_state[current, actions]
        self._states[indices] = states
        infos = [{"success": success} for success in outcomes.success[current, actions].tolist()]
        return (
            states.tolist(),
            outcomes.reward[current, actions],
            outcomes.done[current, actions],
            infos,
        )


def make_gridworld(density: str = "middle", **kwargs) -> GridWorld:
    """Build a GridWorld by density name: ``"low"``, ``"middle"`` or ``"high"``."""
    if density not in _LAYOUTS:
        raise ValueError(f"unknown density {density!r}; choose from {sorted(_LAYOUTS)}")
    return GridWorld(layout=_LAYOUTS[density], **kwargs)

"""Neural-network Q-learning agents (DQN and Double DQN).

The Grid World NN-based policy (Sec. 4.1) is a small fully-connected
Q-network over one-hot states; the drone policy (Sec. 4.2) is the C3F2
convolutional network trained with Double DQN and experience replay.  Both
are served by the agents in this module, parameterized by a state encoder
and a :class:`~repro.nn.network.Sequential` network.

Weight storage is exposed to the fault injector as quantized buffers
(:meth:`DQNAgent.memory_buffers`); permanent faults are re-applied by the
injection framework on every episode because training keeps rewriting the
underlying values.
"""

from __future__ import annotations

import copy
from typing import Callable, Dict, List, Optional, Union

import numpy as np

from repro.nn.buffers import BufferSet
from repro.nn.losses import huber_loss
from repro.nn.network import Sequential
from repro.nn.optim import Adam, Optimizer
from repro.quant.qformat import QFormat, Q16_NARROW
from repro.quant.qtensor import QTensor
from repro.rl.base import Agent, Transition
from repro.rl.replay import ReplayBatch, ReplayBuffer
from repro.rl.schedules import ConstantSchedule, DecayingEpsilonGreedy
from repro.rl.tabular import greedy_tie_break

__all__ = ["DQNAgent", "DoubleDQNAgent"]

Schedule = Union[ConstantSchedule, DecayingEpsilonGreedy]
StateEncoder = Callable[[object], np.ndarray]


class DQNAgent(Agent):
    """Deep Q-learning agent with experience replay and a target network.

    Parameters
    ----------
    network:
        Online Q-network mapping encoded states to per-action Q-values.
    state_encoder:
        Maps an environment state to the network's input array (no batch
        dim), and an array of states to those inputs stacked on a leading
        axis; replay batches are encoded with one call.
    n_actions:
        Size of the discrete action space (must match the network output).
    gamma, learning_rate:
        Discount factor and optimizer step size.
    replay_capacity, batch_size, train_every, target_update_every:
        Experience-replay and target-network hyperparameters.
    weight_qformat:
        Fixed-point format of the weight buffers exposed to the fault
        injector (Q(1,4,11) by default, the paper's most resilient format).
    frozen_prefixes:
        Parameter-name prefixes excluded from training; used to fine-tune
        only the last layers of a pre-trained policy (transfer learning).
    """

    def __init__(
        self,
        network: Sequential,
        state_encoder: StateEncoder,
        n_actions: int,
        gamma: float = 0.95,
        learning_rate: float = 1e-3,
        schedule: Optional[Schedule] = None,
        replay_capacity: int = 2000,
        batch_size: int = 32,
        train_every: int = 1,
        target_update_every: int = 200,
        min_replay_size: int = 64,
        weight_qformat: QFormat = Q16_NARROW,
        frozen_prefixes: Optional[List[str]] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        if n_actions <= 0:
            raise ValueError(f"n_actions must be positive, got {n_actions}")
        if not 0.0 < gamma < 1.0:
            raise ValueError(f"gamma must be in (0, 1), got {gamma}")
        self.network = network
        self.state_encoder = state_encoder
        self.n_actions = n_actions
        self.gamma = gamma
        self.schedule: Schedule = schedule or DecayingEpsilonGreedy()
        self.rng = rng or np.random.default_rng()
        self.replay = ReplayBuffer(replay_capacity, rng=self.rng)
        self.batch_size = batch_size
        self.train_every = train_every
        self.target_update_every = target_update_every
        self.min_replay_size = min_replay_size
        self.weight_qformat = weight_qformat
        self.optimizer: Optimizer = Adam(
            network, learning_rate=learning_rate, frozen=frozen_prefixes
        )
        #: Target network: a copy of the online network whose parameters are
        #: refreshed every ``target_update_every`` steps.
        self._target_network = copy.deepcopy(network)
        self._steps = 0
        self._buffer_set: Optional[BufferSet] = None

    # ------------------------------------------------------------------ #
    # Value access
    # ------------------------------------------------------------------ #
    def q_values(self, state: object) -> np.ndarray:
        encoded = self.state_encoder(state)[None, ...]
        return self.network.forward(encoded)[0]

    def _refresh_target(self) -> None:
        self._target_network.load_named_params(self.network.named_params())

    # ------------------------------------------------------------------ #
    # Acting
    # ------------------------------------------------------------------ #
    def select_action(self, state: object, explore: bool = True) -> int:
        if explore and self.rng.random() < self.schedule.epsilon:
            return int(self.rng.integers(self.n_actions))
        return greedy_tie_break(self.q_values(state).tolist(), self.rng)

    # ------------------------------------------------------------------ #
    # Learning
    # ------------------------------------------------------------------ #
    def observe(self, transition: Transition) -> None:
        self.replay.push(transition)
        self._steps += 1
        if len(self.replay) < self.min_replay_size:
            return
        if self._steps % self.train_every == 0:
            self._train_step()
        if self._steps % self.target_update_every == 0:
            self._refresh_target()

    def _bootstrap(self, batch: ReplayBatch, next_q: np.ndarray) -> np.ndarray:
        """``r`` for terminal rows, else ``r + gamma * next_q``."""
        return np.where(batch.dones, batch.rewards, batch.rewards + self.gamma * next_q)

    def _compute_targets(self, batch: ReplayBatch) -> np.ndarray:
        """Standard DQN targets: ``r + gamma * max_a Q_target(s', a)``."""
        next_states = self.state_encoder(batch.next_states)
        return self._bootstrap(batch, self._target_network.forward(next_states).max(axis=1))

    def _train_step(self) -> float:
        batch = self.replay.sample(self.batch_size)
        states = self.state_encoder(batch.states)
        targets = self._compute_targets(batch)

        predictions = self.network.forward(states, training=True)
        target_matrix = predictions.copy()
        target_matrix[np.arange(len(batch)), batch.actions] = targets
        loss, grad = huber_loss(predictions, target_matrix)
        self.network.backward(grad)
        self.optimizer.step()
        return loss

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
        """Quantized weight buffers, refreshed from the current parameters.

        Each call re-quantizes the live (float) parameters, so stuck-at
        faults must be re-applied by the campaign after every refresh — which
        matches their physical persistence in the memory array.
        """
        self._buffer_set = BufferSet(self.network, self.weight_qformat)
        return dict(self._buffer_set.weight_buffers())

    def reload_from_buffers(self) -> None:
        if self._buffer_set is None:
            raise RuntimeError("memory_buffers() must be called before reload_from_buffers()")
        self._buffer_set.sync_weights_to_network()

    # ------------------------------------------------------------------ #
    # Snapshots
    # ------------------------------------------------------------------ #
    def state_dict(self) -> Dict[str, np.ndarray]:
        return self.network.state_dict()

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        self.network.load_state_dict(state)
        self._refresh_target()


class DoubleDQNAgent(DQNAgent):
    """Double DQN: online network selects the bootstrap action, target evaluates it.

    This is the algorithm used to train the drone navigation policy offline
    before transfer-learning fine-tuning (Sec. 4.2.1).
    """

    def _compute_targets(self, batch: ReplayBatch) -> np.ndarray:
        next_states = self.state_encoder(batch.next_states)
        best_actions = self.network.forward(next_states).argmax(axis=1)
        target_next = self._target_network.forward(next_states)
        return self._bootstrap(batch, target_next[np.arange(len(batch)), best_actions])

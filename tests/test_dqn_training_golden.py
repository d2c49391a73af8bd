"""Golden bit-identity of DQN training and its building blocks.

The trained Grid World DQN weights are pinned to hashes recorded with the
deque replay of ``Transition`` tuples, the per-state one-hot encoder, the
per-row target loop, the target weights swapped in and out of the online
network, and per-parameter Adam state.  The replay buffer and Adam are also
checked against in-test copies of those implementations (the oracles), so a
failure names the component that drifted.
"""

import hashlib
from collections import deque

import numpy as np
import pytest

from repro.experiments.common import train_grid_nn
from repro.experiments.config import GridNNConfig
from repro.nn import Adam, Conv2D, Dense, Flatten, MaxPool2D, ReLU, Sequential
from repro.rl import ReplayBuffer, Transition

#: sha256 of the trained parameters (sorted-name order, little-endian f8)
#: and the number of training steps, for ``GridNNConfig.fast()``.
TRAINED_WEIGHTS = {
    0: ("c4fc5932d71a963c356b7a8b7695a21fcd79f50ee04a2544a15ea16bdb9343bb", 1295),
    1: ("bfcd8fea7e1e86f5ba61290bb8058a4b823a5b003f026eccb8624eee3f7b17c8", 1281),
}


def _state_sha256(state):
    digest = hashlib.sha256()
    for name in sorted(state):
        digest.update(np.ascontiguousarray(state[name], dtype="<f8").tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("seed", sorted(TRAINED_WEIGHTS))
def test_trained_grid_dqn_weights(seed):
    agent, _, result = train_grid_nn(GridNNConfig.fast(), np.random.default_rng(seed))
    expected_sha, expected_steps = TRAINED_WEIGHTS[seed]
    assert sum(record.steps for record in result.records) == expected_steps
    assert _state_sha256(agent.network.state_dict()) == expected_sha


# --------------------------------------------------------------------------- #
# Replay buffer vs a deque oracle
# --------------------------------------------------------------------------- #
def _sampled_columns(batch):
    """The sampled ``(state, action, reward, next_state, done)`` rows."""
    columns = (batch.states, batch.actions, batch.rewards, batch.next_states, batch.dones)
    return list(zip(*(column.tolist() for column in columns)))


@pytest.mark.parametrize("capacity, pushes", [(7, 5), (7, 7), (7, 23), (1, 4)])
def test_replay_matches_deque_oracle(capacity, pushes):
    buffer = ReplayBuffer(capacity, rng=np.random.default_rng(3))
    oracle = deque(maxlen=capacity)
    oracle_rng = np.random.default_rng(3)
    for i in range(pushes):
        transition = Transition(i * 3 % 10, i % 4, float(i) / 4, (i * 7) % 10, i % 5 == 0)
        buffer.push(transition)
        oracle.append(transition)
        assert len(buffer) == len(oracle)
        for batch_size in (1, 3, 9):
            replace = batch_size > len(oracle)
            indices = oracle_rng.choice(len(oracle), size=batch_size, replace=replace)
            expected = [tuple(oracle[int(j)]) for j in indices]
            assert _sampled_columns(buffer.sample(batch_size)) == expected
            assert buffer._rng.bit_generator.state == oracle_rng.bit_generator.state
    assert [tuple(t) for t in buffer] == [tuple(t) for t in oracle]
    assert buffer.is_full() == (len(oracle) == capacity)


# --------------------------------------------------------------------------- #
# Adam vs the per-parameter oracle
# --------------------------------------------------------------------------- #
class _PerParameterAdam:
    """Adam with one lazily created ``m``/``v`` pair per parameter."""

    def __init__(self, network, learning_rate, frozen):
        self.network = network
        self.learning_rate = learning_rate
        self.frozen = set(frozen)
        self.beta1, self.beta2, self.eps = 0.9, 0.999, 1e-8
        self._m, self._v, self._t = {}, {}, 0

    def step(self):
        self._t += 1
        grads = self.network.named_grads()
        for name, param in self.network.named_params().items():
            if any(name.startswith(prefix) for prefix in self.frozen):
                continue
            grad = grads[name]
            m = self._m.setdefault(name, np.zeros_like(param))
            v = self._v.setdefault(name, np.zeros_like(param))
            m *= self.beta1
            m += (1.0 - self.beta1) * grad
            v *= self.beta2
            v += (1.0 - self.beta2) * grad * grad
            m_hat = m / (1.0 - self.beta1**self._t)
            v_hat = v / (1.0 - self.beta2**self._t)
            param -= self.learning_rate * m_hat / (np.sqrt(v_hat) + self.eps)


def _drone_like_network(seed):
    rng = np.random.default_rng(seed)
    return Sequential(
        [
            Conv2D(2, 3, 3, name="conv1", rng=rng),
            ReLU(),
            MaxPool2D(2),
            Conv2D(3, 4, 2, name="conv2", rng=rng),
            ReLU(),
            Flatten(),
            Dense(4 * 3 * 3, 6, name="fc1", rng=rng),
            ReLU(),
            Dense(6, 3, name="fc2", rng=rng),
        ]
    )


@pytest.mark.parametrize("frozen", [(), ("conv1", "conv2"), ("conv1", "fc2")])
def test_adam_matches_per_parameter_oracle(frozen):
    network, reference = _drone_like_network(4), _drone_like_network(4)
    optimizer = Adam(network, learning_rate=3e-2, frozen=frozen)
    oracle = _PerParameterAdam(reference, 3e-2, frozen)
    data = np.random.default_rng(9)
    for step in range(12):
        if step == 6:
            # Mid-training freeze changes, as a staged fine-tune would make.
            for opt in (optimizer, oracle):
                opt.frozen ^= {"conv2"}
        inputs = data.normal(size=(5, 2, 10, 10))
        targets = data.normal(size=(5, 3))
        for net, opt in ((network, optimizer), (reference, oracle)):
            predictions = net.forward(inputs, training=True)
            net.backward(2.0 * (predictions - targets) / predictions.size)
            opt.step()
        for name, param in reference.named_params().items():
            assert network.named_params()[name].tobytes() == param.tobytes(), (step, name)

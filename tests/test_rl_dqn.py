"""Tests for the DQN / Double DQN agents and imitation pre-training."""

import numpy as np
import pytest

from repro.envs import make_gridworld
from repro.policies import build_grid_q_network
from repro.rl import ConstantSchedule, DQNAgent, DoubleDQNAgent, Transition
from repro.rl.replay import ReplayBatch
from repro.rl.imitation import behaviour_clone
from repro.nn import Dense, ReLU, Sequential
from repro.quant import Q16_NARROW


def make_agent(rng, cls=DQNAgent, **kwargs):
    env = make_gridworld("low", rng=rng)
    net = build_grid_q_network(env.n_states, env.n_actions, hidden_sizes=(16,), rng=rng)
    defaults = dict(
        gamma=0.9,
        learning_rate=1e-3,
        schedule=ConstantSchedule(0.1),
        replay_capacity=100,
        batch_size=8,
        min_replay_size=8,
        rng=rng,
    )
    defaults.update(kwargs)
    agent = cls(net, env.one_hot, env.n_actions, **defaults)
    return agent, env


def as_batch(transitions):
    """A replay batch holding ``transitions`` in order."""
    return ReplayBatch(*(np.array(column) for column in zip(*transitions)))


class TestDQNAgent:
    def test_q_values_shape(self, rng):
        agent, env = make_agent(rng)
        assert agent.q_values(env.reset()).shape == (4,)

    def test_select_action_in_range(self, rng):
        agent, env = make_agent(rng)
        for _ in range(20):
            assert 0 <= agent.select_action(env.reset()) < 4

    def test_observe_fills_replay(self, rng):
        agent, env = make_agent(rng)
        state = env.reset()
        for _ in range(5):
            agent.observe(Transition(state, 0, 0.0, state, False))
        assert len(agent.replay) == 5

    def test_training_changes_weights(self, rng):
        agent, env = make_agent(rng)
        before = agent.network.state_dict()
        state = env.reset()
        for i in range(50):
            agent.observe(Transition(state, i % 4, 1.0, state, False))
        after = agent.network.state_dict()
        assert any(
            not np.array_equal(before[key], after[key]) for key in before
        )

    def test_target_network_update(self, rng):
        agent, env = make_agent(rng, target_update_every=10)
        state = env.reset()
        for _ in range(10):
            agent.observe(Transition(state, 0, 1.0, state, False))
        at_refresh = agent.network.state_dict()
        for _ in range(2):
            agent.observe(Transition(state, 0, 1.0, state, False))
        # Target refreshed at step 10 -> equal to the online network then,
        # and left alone by the two training steps after it.
        target = agent._target_network.state_dict()
        assert set(target) == set(at_refresh)
        assert all(np.array_equal(target[key], at_refresh[key]) for key in target)
        online = agent.network.state_dict()
        assert any(not np.array_equal(target[key], online[key]) for key in target)

    def test_memory_buffers_and_reload(self, rng):
        agent, env = make_agent(rng)
        buffers = agent.memory_buffers()
        assert any(name.startswith("weight:") for name in buffers)
        key = next(iter(buffers))
        tensor = buffers[key]
        tensor.values = np.zeros(tensor.shape)
        agent.reload_from_buffers()
        param_name = key.split(":", 1)[1]
        assert np.all(agent.network.named_params()[param_name] == 0)

    def test_reload_before_buffers_raises(self, rng):
        agent, _ = make_agent(rng)
        with pytest.raises(RuntimeError):
            agent.reload_from_buffers()

    def test_invalid_constructor(self, rng):
        env = make_gridworld("low", rng=rng)
        net = build_grid_q_network(env.n_states, env.n_actions, rng=rng)
        with pytest.raises(ValueError):
            DQNAgent(net, env.one_hot, 0, rng=rng)
        with pytest.raises(ValueError):
            DQNAgent(net, env.one_hot, 4, gamma=2.0, rng=rng)

    def test_state_dict_round_trip(self, rng):
        agent, env = make_agent(rng)
        state = agent.state_dict()
        for param in agent.network.named_params().values():
            param += 1.0
        agent.load_state_dict(state)
        assert np.allclose(agent.network.named_params()["fc1.weight"], state["fc1.weight"])


class TestDoubleDQN:
    def test_targets_use_online_argmax(self, rng):
        agent, env = make_agent(rng, cls=DoubleDQNAgent)
        transitions = [Transition(s, 0, 1.0, (s + 1) % 100, s == 3) for s in range(4)]
        # Make the online and target networks disagree.
        agent.network.named_params()["fc1.bias"][:] += 0.5
        targets = agent._compute_targets(as_batch(transitions))
        assert targets.shape == (4,)
        for target, t in zip(targets, transitions):
            encoded = env.one_hot(t.next_state)[None]
            best = int(np.argmax(agent.network.forward(encoded)[0]))
            bootstrap = agent._target_network.forward(encoded)[0, best]
            assert target == (t.reward if t.done else t.reward + agent.gamma * bootstrap)

    def test_terminal_targets_equal_reward(self, rng):
        agent, env = make_agent(rng, cls=DoubleDQNAgent)
        batch = as_batch([Transition(env.reset(), 0, 0.7, env.reset(), True)])
        targets = agent._compute_targets(batch)
        assert targets[0] == pytest.approx(0.7)

    def test_frozen_prefixes_keep_conv_weights(self, rng):
        net = Sequential(
            [Dense(4, 8, name="conv1", rng=rng), ReLU(), Dense(8, 2, name="fc2", rng=rng)]
        )
        agent = DoubleDQNAgent(
            net,
            lambda s: np.asarray(s, dtype=float),
            2,
            schedule=ConstantSchedule(0.0),
            replay_capacity=50,
            batch_size=4,
            min_replay_size=4,
            frozen_prefixes=["conv1"],
            rng=rng,
        )
        before = net.named_params()["conv1.weight"].copy()
        state = np.ones(4)
        for _ in range(30):
            agent.observe(Transition(state, 0, 1.0, state, False))
        assert np.array_equal(net.named_params()["conv1.weight"], before)


class TestImitation:
    def test_behaviour_clone_reduces_loss(self, rng):
        net = Sequential([Dense(6, 16, rng=rng, name="fc1"), ReLU(), Dense(16, 3, rng=rng, name="fc2")])
        images = rng.normal(size=(64, 6))
        targets = rng.normal(size=(64, 3)) * 0.1
        result = behaviour_clone(net, images, targets, epochs=15, batch_size=16, rng=rng)
        assert result.losses[-1] < result.losses[0]
        assert result.final_loss == result.losses[-1]

    def test_behaviour_clone_shape_mismatch(self, rng):
        net = Sequential([Dense(4, 2, rng=rng)])
        with pytest.raises(ValueError):
            behaviour_clone(net, np.zeros((4, 4)), np.zeros((5, 2)), rng=rng)

    def test_behaviour_clone_invalid_epochs(self, rng):
        net = Sequential([Dense(4, 2, rng=rng)])
        with pytest.raises(ValueError):
            behaviour_clone(net, np.zeros((4, 4)), np.zeros((4, 2)), epochs=0, rng=rng)

"""Tests for schedules, replay, tabular Q-learning and the training loop."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.envs import make_gridworld
from repro.rl import (
    ConstantSchedule,
    DecayingEpsilonGreedy,
    ReplayBuffer,
    TabularQAgent,
    Transition,
    TrainingHooks,
    evaluate_success_rate,
    greedy_rollout,
    train_agent,
)
from repro.rl.tabular import greedy_tie_break


class TestSchedules:
    def test_constant_schedule(self):
        schedule = ConstantSchedule(0.3)
        assert schedule.epsilon == 0.3
        schedule.step()
        assert schedule.epsilon == 0.3
        assert schedule.is_steady()

    def test_constant_schedule_validation(self):
        with pytest.raises(ValueError):
            ConstantSchedule(1.5)

    def test_decay_reaches_floor(self):
        schedule = DecayingEpsilonGreedy(1.0, 0.1, 0.5)
        for _ in range(20):
            schedule.step()
        assert schedule.epsilon == pytest.approx(0.1)
        assert schedule.is_steady()

    def test_boost_caps_at_one(self):
        schedule = DecayingEpsilonGreedy(0.9, 0.05, 0.9)
        schedule.boost(0.5)
        assert schedule.epsilon == 1.0

    def test_boost_negative_rejected(self):
        with pytest.raises(ValueError):
            DecayingEpsilonGreedy().boost(-0.1)

    def test_restart_slows_decay(self):
        schedule = DecayingEpsilonGreedy(1.0, 0.05, 0.9)
        for _ in range(10):
            schedule.step()
        schedule.restart(decay_slowdown=2.0)
        assert schedule.epsilon == 1.0
        assert schedule.decay == pytest.approx(0.9**0.5)

    def test_restart_invalid_slowdown(self):
        with pytest.raises(ValueError):
            DecayingEpsilonGreedy().restart(decay_slowdown=0.5)

    def test_episodes_to_steady(self):
        schedule = DecayingEpsilonGreedy(1.0, 0.05, 0.9)
        estimate = schedule.episodes_to_steady()
        for _ in range(estimate):
            schedule.step()
        assert schedule.is_steady()

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            DecayingEpsilonGreedy(0.1, 0.5, 0.9)
        with pytest.raises(ValueError):
            DecayingEpsilonGreedy(1.0, 0.1, 0.0)


@settings(max_examples=40, deadline=None)
@given(
    start=st.floats(min_value=0.2, max_value=1.0),
    floor=st.floats(min_value=0.01, max_value=0.15),
    decay=st.floats(min_value=0.5, max_value=0.999),
    steps=st.integers(min_value=0, max_value=200),
)
def test_property_epsilon_monotone_and_bounded(start, floor, decay, steps):
    schedule = DecayingEpsilonGreedy(start, floor, decay)
    previous = schedule.epsilon
    for _ in range(steps):
        current = schedule.step()
        assert floor - 1e-12 <= current <= previous + 1e-12
        previous = current


class TestReplayBuffer:
    def make_transition(self, i):
        return Transition(i, 0, float(i), i + 1, False)

    def test_push_and_len(self):
        buffer = ReplayBuffer(10)
        for i in range(5):
            buffer.push(self.make_transition(i))
        assert len(buffer) == 5

    def test_capacity_eviction(self):
        buffer = ReplayBuffer(3)
        for i in range(5):
            buffer.push(self.make_transition(i))
        assert len(buffer) == 3
        states = [t.state for t in buffer]
        assert states == [2, 3, 4]
        assert buffer.is_full()

    def test_sample_size(self, rng):
        buffer = ReplayBuffer(10, rng=rng)
        for i in range(10):
            buffer.push(self.make_transition(i))
        assert len(buffer.sample(4)) == 4

    def test_sample_empty_raises(self):
        with pytest.raises(ValueError):
            ReplayBuffer(4).sample(1)

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            ReplayBuffer(0)

    def test_clear(self):
        buffer = ReplayBuffer(4)
        buffer.push(self.make_transition(0))
        buffer.clear()
        assert len(buffer) == 0


class TestGreedyTieBreak:
    @pytest.mark.parametrize("n_tied", [1, 2, 3, 4])
    def test_matches_choice_over_flatnonzero(self, n_tied):
        for seed in range(50):
            layout = np.random.default_rng(seed)
            row = layout.integers(-8, 0, size=6).astype(np.float64) / 16
            row[layout.choice(6, size=n_tied, replace=False)] = 0.5
            reference_rng = np.random.default_rng(seed)
            helper_rng = np.random.default_rng(seed)
            expected = int(reference_rng.choice(np.flatnonzero(row == row.max())))
            assert greedy_tie_break(row.tolist(), helper_rng) == expected
            assert greedy_tie_break(row, np.random.default_rng(seed)) == expected
            assert helper_rng.bit_generator.state == reference_rng.bit_generator.state

    @pytest.mark.parametrize("n_tied", [2, 3, 4])
    @pytest.mark.parametrize("draws", [("random",), ("integers",), ("integers", "random"),
                                       ("random", "integers", "integers")])
    def test_matches_choice_after_earlier_draws(self, n_tied, draws):
        # integers(4) leaves half of a 64-bit output in the bit generator's
        # 32-bit buffer; the tie-break must consume it exactly as choice does.
        row = [0.25] * n_tied + [-0.5] * (4 - n_tied)
        for seed in range(100):
            reference_rng = np.random.default_rng(seed)
            helper_rng = np.random.default_rng(seed)
            for draw in draws * 2:
                for rng in (reference_rng, helper_rng):
                    if draw == "random":
                        rng.random()
                    else:
                        rng.integers(4)
            assert helper_rng.bit_generator.state == reference_rng.bit_generator.state
            expected = int(reference_rng.choice(np.flatnonzero(np.array(row) == 0.25)))
            assert greedy_tie_break(row, helper_rng) == expected
            assert helper_rng.bit_generator.state == reference_rng.bit_generator.state
            # The generators stay in step afterwards, too.
            assert helper_rng.integers(4) == reference_rng.integers(4)
            assert helper_rng.random() == reference_rng.random()

    def test_single_element_choice_draws_nothing(self):
        for seed in range(200):
            rng = np.random.default_rng(seed)
            before = rng.bit_generator.state
            assert rng.choice(np.array([3])) == 3
            assert rng.bit_generator.state == before


class TestTabularAgent:
    def test_q_update_moves_toward_target(self, rng):
        agent = TabularQAgent(4, 2, gamma=0.9, learning_rate=0.5, rng=rng)
        agent.observe(Transition(0, 1, 1.0, 1, True))
        assert agent.q_values(0)[1] > 0.0
        assert agent.q_values(0)[0] == 0.0

    def test_terminal_transition_ignores_bootstrap(self, rng):
        agent = TabularQAgent(3, 2, gamma=0.9, learning_rate=1.0, rng=rng)
        # Give the next state a large value; terminal updates must ignore it.
        agent.observe(Transition(1, 0, 1.0, 2, True))
        agent.observe(Transition(0, 0, 0.5, 1, True))
        assert agent.q_values(0)[0] == pytest.approx(0.5, abs=0.1)

    def test_quantization_limits_resolution(self, rng):
        agent = TabularQAgent(2, 2, learning_rate=1.0, value_scale=1.0, rng=rng)
        agent.observe(Transition(0, 0, 0.001, 1, True))
        # 0.001 is below the representable resolution at value_scale 1.
        assert agent.q_values(0)[0] == 0.0

    def test_greedy_action_selection(self, rng):
        agent = TabularQAgent(2, 3, schedule=ConstantSchedule(0.0), rng=rng)
        agent.observe(Transition(0, 2, 1.0, 1, True))
        assert agent.select_action(0, explore=True) == 2

    def test_exploration_uses_schedule(self, rng):
        agent = TabularQAgent(2, 3, schedule=ConstantSchedule(1.0), rng=rng)
        agent.observe(Transition(0, 2, 1.0, 1, True))
        actions = {agent.select_action(0) for _ in range(50)}
        assert len(actions) > 1

    def test_clone_with_explicit_rng_leaves_parent_rng_untouched(self, rng):
        # Campaign trials clone shared agents; with an explicit rng the clone
        # must not advance the parent's generator (execution-order purity).
        agent = TabularQAgent(4, 2, rng=np.random.default_rng(3))
        state_before = agent.rng.bit_generator.state
        copy = agent.clone(rng=np.random.default_rng(0))
        assert agent.rng.bit_generator.state == state_before
        assert np.array_equal(copy.q_table, agent.q_table)
        # Default behaviour (no rng) still draws from the parent.
        agent.clone()
        assert agent.rng.bit_generator.state != state_before

    def test_memory_buffer_is_live(self, rng):
        agent = TabularQAgent(2, 2, rng=rng)
        table = agent.memory_buffers()["qtable"]
        table.values = np.full((2, 2), 7.0)
        assert agent.q_values(0)[0] == pytest.approx(7.0 / agent.value_scale, abs=0.01)

    def test_initial_q(self, rng):
        agent = TabularQAgent(3, 2, initial_q=0.5, rng=rng)
        assert np.allclose(agent.q_table, 0.5, atol=0.01)

    def test_invalid_state_rejected(self, rng):
        agent = TabularQAgent(2, 2, rng=rng)
        with pytest.raises(ValueError):
            agent.q_values(5)

    def test_clone_is_independent(self, rng):
        agent = TabularQAgent(2, 2, rng=rng)
        agent.observe(Transition(0, 0, 1.0, 1, True))
        clone = agent.clone()
        clone.observe(Transition(0, 1, 1.0, 1, True))
        assert agent.q_values(0)[1] == 0.0

    def test_constructor_validation(self, rng):
        with pytest.raises(ValueError):
            TabularQAgent(0, 2)
        with pytest.raises(ValueError):
            TabularQAgent(2, 2, gamma=1.5)
        with pytest.raises(ValueError):
            TabularQAgent(2, 2, learning_rate=0.0)
        with pytest.raises(ValueError):
            TabularQAgent(2, 2, value_scale=-1.0)


class TestTrainingLoop:
    def test_tabular_training_learns_gridworld(self, rng):
        env = make_gridworld("middle", rng=rng)
        agent = TabularQAgent(
            env.n_states,
            env.n_actions,
            schedule=DecayingEpsilonGreedy(1.0, 0.05, 0.99),
            initial_q=0.5,
            rng=rng,
        )
        result = train_agent(agent, env, episodes=400, max_steps_per_episode=100)
        assert result.episodes == 400
        eval_env = make_gridworld("middle")
        rate = evaluate_success_rate(
            lambda s: agent.select_action(s, explore=False), eval_env, trials=10
        )
        assert rate > 0.8

    def test_hooks_are_called(self, rng):
        env = make_gridworld("low", rng=rng)
        agent = TabularQAgent(env.n_states, env.n_actions, rng=rng)
        calls = {"start": 0, "episode": 0, "step": 0, "end": 0}

        class Recorder(TrainingHooks):
            def on_training_start(self, agent, env):
                calls["start"] += 1

            def on_episode_start(self, episode, agent, env):
                calls["episode"] += 1

            def on_step(self, episode, step, agent, env, transition):
                calls["step"] += 1

            def on_training_end(self, agent, env, result):
                calls["end"] += 1

        train_agent(agent, env, episodes=3, max_steps_per_episode=5, hooks=[Recorder()])
        assert calls["start"] == 1 and calls["end"] == 1
        assert calls["episode"] == 3
        assert calls["step"] >= 3

    def test_invalid_episode_count(self, rng):
        env = make_gridworld("low", rng=rng)
        agent = TabularQAgent(env.n_states, env.n_actions, rng=rng)
        with pytest.raises(ValueError):
            train_agent(agent, env, episodes=0)

    def test_training_result_metrics(self, rng):
        env = make_gridworld("low", rng=rng)
        agent = TabularQAgent(env.n_states, env.n_actions, rng=rng)
        result = train_agent(agent, env, episodes=30, max_steps_per_episode=20)
        assert result.rewards.shape == (30,)
        assert result.moving_average_reward(10).shape == (21,)
        assert 0.0 <= result.success_rate() <= 1.0
        with pytest.raises(ValueError):
            result.moving_average_reward(0)

    def test_greedy_rollout_step_hook(self, grid_env):
        seen = []
        greedy_rollout(lambda s: 3, grid_env, max_steps=3, step_hook=lambda st, s, a: seen.append(a))
        assert seen == [3, 3, 3]

"""Tests for the fault-injection tool-chain (models, sites, injector, campaigns)."""

import numpy as np
import pytest

from repro.core import (
    ActivationFaultInjector,
    BufferSelector,
    Campaign,
    FaultInjector,
    FaultPattern,
    FaultType,
    InputFaultInjector,
    PermanentTrainingFaultHook,
    StuckAtFault,
    TransientBitFlip,
    TransientTrainingFaultHook,
    TrialOutcome,
    apply_patterns_stacked,
    make_fault_model,
)
from repro.core.campaign import default_repetitions
from repro.core.injector import ReplicaFanoutHook, inject_weight_faults
from repro.envs import make_gridworld
from repro.nn import Dense, ReLU
from repro.nn.buffers import QuantizedExecutor
from repro.policies import build_grid_q_network
from repro.quant import Q8_GRID, Q16_NARROW, QTensor
from repro.rl import ConstantSchedule, TabularQAgent, train_agent
from repro.rl.dqn import DQNAgent


class TestFaultModels:
    def test_fault_type_properties(self):
        assert not FaultType.TRANSIENT.is_permanent
        assert FaultType.STUCK_AT_0.is_permanent
        assert FaultType.STUCK_AT_1.is_permanent

    def test_factory(self):
        assert isinstance(make_fault_model("transient", 0.1), TransientBitFlip)
        assert make_fault_model("stuck-at-1", 0.1).stuck_value == 1
        assert make_fault_model(FaultType.STUCK_AT_0, 0.1).stuck_value == 0

    def test_invalid_ber_rejected(self):
        with pytest.raises(ValueError):
            TransientBitFlip(1.5)
        with pytest.raises(ValueError):
            StuckAtFault(0.1, stuck_value=3)

    def test_transient_injection_changes_bits(self, wide_qtensor, rng):
        before = wide_qtensor.raw
        pattern = TransientBitFlip(0.2).inject(wide_qtensor, rng)
        assert pattern.num_faults > 0
        assert not np.array_equal(wide_qtensor.raw, before)
        assert not pattern.is_permanent

    def test_stuck_at_pattern_reapplication_idempotent(self, wide_qtensor, rng):
        model = StuckAtFault(0.3, stuck_value=1)
        pattern = model.inject(wide_qtensor, rng)
        after_first = wide_qtensor.raw
        pattern.apply(wide_qtensor)
        assert np.array_equal(wide_qtensor.raw, after_first)
        assert pattern.is_permanent

    def test_zero_ber_injects_nothing(self, wide_qtensor, rng):
        before = wide_qtensor.raw
        pattern = TransientBitFlip(0.0).inject(wide_qtensor, rng)
        assert pattern.num_faults == 0
        assert np.array_equal(wide_qtensor.raw, before)


class TestFaultPatternAndSelector:
    def test_pattern_validation(self):
        with pytest.raises(ValueError):
            FaultPattern("buf", np.array([0, 1]), np.array([0]), None)
        with pytest.raises(ValueError):
            FaultPattern("buf", np.array([0]), np.array([0]), stuck_value=5)

    def test_pattern_out_of_range_element(self):
        tensor = QTensor.zeros((2,), Q8_GRID, name="buf")
        pattern = FaultPattern("buf", np.array([5]), np.array([0]), None)
        with pytest.raises(ValueError):
            pattern.apply(tensor)

    def test_pattern_describe(self):
        pattern = FaultPattern("buf", np.array([0]), np.array([1]), stuck_value=1)
        info = pattern.describe()
        assert info["kind"] == "stuck-at-1" and info["num_faults"] == 1

    def test_selector_by_prefix_and_layer(self):
        buffers = {
            "weight:fc1.weight": QTensor.zeros((2, 2), Q8_GRID),
            "weight:fc2.weight": QTensor.zeros((2, 2), Q8_GRID),
            "activation:fc1": QTensor.zeros((2,), Q8_GRID),
        }
        assert set(BufferSelector.all_weights().select(buffers)) == {
            "weight:fc1.weight",
            "weight:fc2.weight",
        }
        assert set(BufferSelector.for_layer("fc1").select(buffers)) == {
            "weight:fc1.weight",
            "activation:fc1",
        }
        assert set(BufferSelector.by_name("activation:fc1").select(buffers)) == {
            "activation:fc1"
        }
        assert len(BufferSelector().select(buffers)) == 3

    def test_selector_no_match_raises(self):
        buffers = {"qtable": QTensor.zeros((2, 2), Q8_GRID)}
        with pytest.raises(ValueError):
            BufferSelector.by_name("missing").select(buffers)

    def test_selector_predicate(self):
        selector = BufferSelector(predicate=lambda name: name.endswith(".bias"))
        assert selector.matches("weight:fc1.bias")
        assert not selector.matches("weight:fc1.weight")


class TestFaultInjector:
    def test_inject_into_tabular_agent(self, rng):
        agent = TabularQAgent(10, 4, rng=rng)
        injector = FaultInjector(rng)
        patterns = injector.inject(agent, StuckAtFault(0.2, stuck_value=1))
        assert len(patterns) == 1
        assert np.any(agent.memory_buffers()["qtable"].raw != 0)

    def test_sample_then_reapply(self, rng):
        agent = TabularQAgent(10, 4, rng=rng)
        injector = FaultInjector(rng)
        patterns = injector.sample(agent, StuckAtFault(0.2, stuck_value=1))
        assert np.all(agent.memory_buffers()["qtable"].raw == 0)
        injector.reapply(agent, patterns)
        assert np.any(agent.memory_buffers()["qtable"].raw != 0)

    def test_reapply_unknown_buffer_raises(self, rng):
        agent = TabularQAgent(4, 2, rng=rng)
        injector = FaultInjector(rng)
        bad = FaultPattern("nonexistent", np.array([0]), np.array([0]), 1)
        with pytest.raises(KeyError):
            injector.reapply(agent, [bad])


class TestTrainingHooks:
    def test_transient_hook_fires_once_at_episode(self, rng):
        env = make_gridworld("low", rng=rng)
        agent = TabularQAgent(env.n_states, env.n_actions, schedule=ConstantSchedule(0.5), rng=rng)
        hook = TransientTrainingFaultHook(0.05, inject_episode=2, rng=rng)
        train_agent(agent, env, episodes=5, max_steps_per_episode=10, hooks=[hook])
        assert hook.has_injected
        assert sum(p.num_faults for p in hook.injected_patterns) > 0

    def test_transient_hook_step_level_injection(self, rng):
        env = make_gridworld("low", rng=rng)
        agent = TabularQAgent(env.n_states, env.n_actions, schedule=ConstantSchedule(0.5), rng=rng)
        hook = TransientTrainingFaultHook(0.05, inject_episode=1, inject_step=2, rng=rng)
        train_agent(agent, env, episodes=3, max_steps_per_episode=10, hooks=[hook])
        assert hook.has_injected

    def test_permanent_hook_keeps_bits_stuck(self, rng):
        env = make_gridworld("low", rng=rng)
        agent = TabularQAgent(env.n_states, env.n_actions, schedule=ConstantSchedule(0.5), rng=rng)
        hook = PermanentTrainingFaultHook(0.1, stuck_value=1, rng=rng)
        train_agent(agent, env, episodes=4, max_steps_per_episode=10, hooks=[hook])
        pattern = hook.patterns[0]
        raw = agent.memory_buffers()["qtable"].raw.reshape(-1)
        observed = (raw[pattern.element_indices] >> pattern.bit_positions) & 1
        assert np.all(observed == 1)

    def test_invalid_episode_rejected(self):
        with pytest.raises(ValueError):
            TransientTrainingFaultHook(0.1, inject_episode=-1)


class TestInferenceInjectors:
    def make_executor(self, rng):
        net = build_grid_q_network(10, 4, hidden_sizes=(8,), rng=rng)
        return QuantizedExecutor(net, Q16_NARROW)

    def test_inject_weight_faults_and_restore(self, rng):
        executor = self.make_executor(rng)
        clean = executor.network.state_dict()
        patterns = inject_weight_faults(executor, TransientBitFlip(0.05), rng=rng)
        assert sum(p.num_faults for p in patterns) > 0
        executor.restore_clean_weights()
        for key, value in executor.network.state_dict().items():
            assert np.allclose(value, clean[key])

    def test_weight_fault_selector_limits_layers(self, rng):
        executor = self.make_executor(rng)
        clean = executor.network.state_dict()
        inject_weight_faults(
            executor,
            TransientBitFlip(0.3),
            selector=BufferSelector.for_layer("fc2"),
            rng=rng,
        )
        state = executor.network.state_dict()
        assert np.allclose(state["fc1.weight"], clean["fc1.weight"], atol=1e-3)
        assert not np.allclose(state["fc2.weight"], clean["fc2.weight"], atol=1e-6)

    def test_activation_injector_transient(self, rng):
        executor = self.make_executor(rng)
        injector = ActivationFaultInjector(TransientBitFlip(0.3), layer_names=["fc2"], rng=rng)
        executor.activation_hooks.append(injector)
        executor.forward(np.eye(10)[:1])
        assert injector.injection_count == 1

    def test_activation_injector_permanent_requires_stuck_model(self, rng):
        with pytest.raises(ValueError):
            ActivationFaultInjector(TransientBitFlip(0.1), mode="permanent", rng=rng)
        with pytest.raises(ValueError):
            ActivationFaultInjector(TransientBitFlip(0.1), mode="bogus", rng=rng)

    def test_input_injector_only_hits_input(self, rng):
        executor = self.make_executor(rng)
        injector = InputFaultInjector(TransientBitFlip(0.3), rng=rng)
        executor.input_hooks.append(injector)
        executor.activation_hooks.append(injector)  # should ignore layer buffers
        executor.forward(np.eye(10)[:1])
        assert injector.injection_count == 1


class TestFaultRoundTrips:
    """Property-style invariants of the fault models and patterns."""

    @pytest.mark.parametrize("seed", [0, 1, 7, 42])
    @pytest.mark.parametrize("ber", [0.01, 0.1, 0.5])
    def test_transient_applied_twice_restores_bits(self, seed, ber):
        # Bit-flips are XOR involutions: re-applying the same pattern must
        # restore the original tensor bit-for-bit.
        rng = np.random.default_rng(seed)
        tensor = QTensor(rng.normal(0, 0.5, size=(6, 7)), Q16_NARROW, name="w")
        original = tensor.raw.copy()
        pattern = TransientBitFlip(ber).sample_pattern(tensor, rng)
        pattern.apply(tensor)
        if pattern.num_faults:
            assert not np.array_equal(tensor.raw, original)
        pattern.apply(tensor)
        assert np.array_equal(tensor.raw, original)

    @pytest.mark.parametrize("seed", [0, 3, 11])
    @pytest.mark.parametrize(
        "model",
        [TransientBitFlip(0.2), StuckAtFault(0.2, stuck_value=0), StuckAtFault(0.2, stuck_value=1)],
        ids=["transient", "sa0", "sa1"],
    )
    def test_sample_then_apply_equals_direct_inject(self, seed, model):
        # For the same RNG state, sampling a pattern and applying it must be
        # indistinguishable from model.inject (same sites, same bits).
        values = np.random.default_rng(99).uniform(-4, 4, size=(5, 8))
        t_sampled = QTensor(values, Q8_GRID, name="buf")
        t_injected = QTensor(values, Q8_GRID, name="buf")

        pattern = model.sample_pattern(t_sampled, np.random.default_rng(seed))
        assert np.array_equal(t_sampled.raw, t_injected.raw)  # sampling is pure
        pattern.apply(t_sampled)
        injected_pattern = model.inject(t_injected, np.random.default_rng(seed))

        assert np.array_equal(t_sampled.raw, t_injected.raw)
        assert np.array_equal(pattern.element_indices, injected_pattern.element_indices)
        assert np.array_equal(pattern.bit_positions, injected_pattern.bit_positions)
        assert pattern.stuck_value == injected_pattern.stuck_value

    def test_injector_sample_reapply_equals_inject(self):
        # The same invariant through the agent-level FaultInjector API.
        model = StuckAtFault(0.2, stuck_value=1)

        def make_agent():
            return TabularQAgent(12, 4, rng=np.random.default_rng(0))

        sampled_agent, injected_agent = make_agent(), make_agent()
        injector_a = FaultInjector(np.random.default_rng(21))
        patterns = injector_a.sample(sampled_agent, model)
        injector_a.reapply(sampled_agent, patterns)
        injector_b = FaultInjector(np.random.default_rng(21))
        injector_b.inject(injected_agent, model)
        assert np.array_equal(
            sampled_agent.memory_buffers()["qtable"].raw,
            injected_agent.memory_buffers()["qtable"].raw,
        )


class TestActivationPatternResampling:
    def make_executor(self, rng):
        net = build_grid_q_network(10, 4, hidden_sizes=(8,), rng=rng)
        return QuantizedExecutor(net, Q16_NARROW)

    def test_shrunken_buffer_resample_is_counted_and_logged(self, rng, caplog):
        # Activation buffers track the batch size; a permanent pattern sampled
        # on a large batch stops fitting when a smaller batch shrinks the
        # buffer and must be (visibly) resampled.
        executor = self.make_executor(rng)
        injector = ActivationFaultInjector(
            StuckAtFault(0.3, stuck_value=1), mode="permanent", rng=rng
        )
        executor.activation_hooks.append(injector)
        with caplog.at_level("WARNING", logger="repro.core.injector"):
            executor.forward(np.eye(10)[:8])  # batch 8: sample the patterns
            assert injector.resample_count == 0
            executor.forward(np.eye(10)[:1])  # batch 1: buffers shrink
        assert injector.resample_count > 0
        assert any("resampling fault sites" in r.message for r in caplog.records)

    def test_stable_buffer_size_never_resamples(self, rng):
        executor = self.make_executor(rng)
        injector = ActivationFaultInjector(
            StuckAtFault(0.3, stuck_value=1), mode="permanent", rng=rng
        )
        executor.activation_hooks.append(injector)
        executor.forward(np.eye(10)[:4])
        first_patterns = dict(injector._patterns)
        executor.forward(np.eye(10)[:4])
        assert injector.resample_count == 0
        assert all(injector._patterns[k] is v for k, v in first_patterns.items())


def _fanout_reference(hooks, replicas, tensor: QTensor, layer) -> None:
    """The per-replica loop ``ReplicaFanoutHook`` ran before it stacked its
    patterns: each replica's own hook on a scalar copy of its row, written
    back.  Kept as the oracle."""
    raw = tensor.raw
    for j, replica in enumerate(replicas):
        row = QTensor.from_raw(raw[j], tensor.qformat, name=tensor.name)
        hooks[replica](row, layer)
        raw[j] = row.raw
    tensor.raw = raw


FANOUT_HOOKS = {
    "act-transient": lambda rng: ActivationFaultInjector(
        TransientBitFlip(0.05), layer_names=["fc1", "fc2"], rng=rng
    ),
    "act-permanent": lambda rng: ActivationFaultInjector(
        StuckAtFault(0.05, stuck_value=1), mode="permanent", rng=rng
    ),
    "input": lambda rng: InputFaultInjector(TransientBitFlip(0.05), rng=rng),
}


class TestReplicaFanoutMatchesScalarHooks:
    """One stacked apply per buffer equals every replica's own scalar hook."""

    N_REPLICAS = 4
    # (active replicas, per-replica batch): the full stack, a subset after
    # set_replicas, a subset whose buffers shrank (permanent patterns stop
    # fitting and resample), and the full stack again.
    PASSES = [([0, 1, 2, 3], 4), ([2, 0, 3], 4), ([3, 1], 1), ([0, 1, 2, 3], 4)]

    def make_hooks(self, case):
        return [
            FANOUT_HOOKS[case](np.random.default_rng(100 + r))
            for r in range(self.N_REPLICAS)
        ]

    @pytest.mark.parametrize("case", sorted(FANOUT_HOOKS))
    def test_stacked_fanout_equals_per_replica_hooks(self, case, caplog):
        stacked_hooks, scalar_hooks = self.make_hooks(case), self.make_hooks(case)
        fanout = ReplicaFanoutHook(stacked_hooks)
        data = np.random.default_rng(0)
        layers = [None, Dense(6, 6, name="fc1"), ReLU(name="relu1"), Dense(6, 6, name="fc2")]
        with caplog.at_level("WARNING", logger="repro.core.injector"):
            for replicas, batch in self.PASSES:
                fanout.set_replicas(replicas)
                for layer in layers:
                    name = "input" if layer is None else f"activation:{layer.name}"
                    values = data.uniform(-20, 20, size=(len(replicas), batch, 6))
                    stacked = QTensor(values, Q16_NARROW, name=name)
                    expected = QTensor(values, Q16_NARROW, name=name)
                    fanout(stacked, layer)
                    _fanout_reference(scalar_hooks, replicas, expected, layer)
                    assert np.array_equal(stacked.raw, expected.raw)
        for got, want in zip(stacked_hooks, scalar_hooks):
            assert got.rng.bit_generator.state == want.rng.bit_generator.state
            assert got.injection_count == want.injection_count > 0
            assert getattr(got, "resample_count", 0) == getattr(want, "resample_count", 0)
        resamples = sum(getattr(h, "resample_count", 0) for h in stacked_hooks)
        assert (resamples > 0) == (case == "act-permanent")
        warnings = [r for r in caplog.records if "resampling fault sites" in r.message]
        assert len(warnings) == 2 * resamples

    def test_row_count_must_match_active_replicas(self):
        fanout = ReplicaFanoutHook(self.make_hooks("input"))
        fanout.set_replicas([0, 2])
        with pytest.raises(ValueError, match="3 rows for 2 active replicas"):
            fanout(QTensor(np.zeros((3, 1, 6)), Q16_NARROW, name="input"), None)


def _all_sites_pattern(tensor: QTensor, stuck_value=None) -> FaultPattern:
    """A pattern addressing every (element, bit) site of a unit buffer."""
    total_bits = tensor.qformat.total_bits
    elements = np.repeat(np.arange(tensor.size, dtype=np.int64), total_bits)
    bits = np.tile(np.arange(total_bits, dtype=np.int64), tensor.size)
    return FaultPattern(tensor.name, elements, bits, stuck_value=stuck_value)


class TestPatternEdgeCases:
    """Empty patterns, all-sites-faulty patterns, stacked-buffer persistence."""

    def test_empty_pattern_apply_is_noop(self, wide_qtensor):
        empty = FaultPattern("weights", np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
        before = wide_qtensor.raw
        empty.apply(wide_qtensor)
        assert empty.num_faults == 0
        assert np.array_equal(wide_qtensor.raw, before)

    def test_stacked_apply_with_empty_and_none_entries(self, wide_qtensor):
        stacked = wide_qtensor.replicate(3)
        before = stacked.raw
        empty = FaultPattern("weights", np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
        apply_patterns_stacked([None, empty, None], stacked)
        assert np.array_equal(stacked.raw, before)

    def test_ber_one_samples_every_site(self, wide_qtensor, rng):
        elements, bits = wide_qtensor.sample_fault_sites(1.0, rng)
        population = wide_qtensor.size * wide_qtensor.qformat.total_bits
        assert elements.size == population
        sites = set(zip(elements.tolist(), bits.tolist()))
        assert len(sites) == population  # without replacement: every site once

    def test_all_sites_stuck_at_saturates_buffer(self, wide_qtensor):
        word_mask = wide_qtensor.qformat.word_mask
        stuck1 = _all_sites_pattern(wide_qtensor, stuck_value=1)
        stuck1.apply(wide_qtensor)
        assert np.all(wide_qtensor.raw == word_mask)
        stuck0 = _all_sites_pattern(wide_qtensor, stuck_value=0)
        stuck0.apply(wide_qtensor)
        assert np.all(wide_qtensor.raw == 0)

    def test_all_sites_transient_is_involution(self, wide_qtensor):
        original = wide_qtensor.raw
        flip_all = _all_sites_pattern(wide_qtensor)
        flip_all.apply(wide_qtensor)
        assert np.array_equal(wide_qtensor.raw, original ^ wide_qtensor.qformat.word_mask)
        flip_all.apply(wide_qtensor)
        assert np.array_equal(wide_qtensor.raw, original)

    def test_all_sites_faulty_on_stacked_buffer(self, wide_qtensor):
        stacked = wide_qtensor.replicate(3)
        word_mask = wide_qtensor.qformat.word_mask
        patterns = [
            _all_sites_pattern(wide_qtensor, stuck_value=1),
            None,
            _all_sites_pattern(wide_qtensor, stuck_value=1),
        ]
        apply_patterns_stacked(patterns, stacked)
        raw = stacked.raw
        assert np.all(raw[0] == word_mask)
        assert np.array_equal(raw[1], wide_qtensor.raw)  # untouched replica
        assert np.all(raw[2] == word_mask)

    def test_stuck_at_reapply_after_rewrite_on_stacked_buffer(self, wide_qtensor, rng):
        # Permanent faults must keep forcing their bits after the stacked
        # memory is rewritten (training updates, buffer refreshes, ...).
        stacked = wide_qtensor.replicate(4)
        model = StuckAtFault(0.25, stuck_value=1)
        patterns = [
            model.sample_pattern(wide_qtensor, np.random.default_rng(seed))
            for seed in range(4)
        ]
        apply_patterns_stacked(patterns, stacked)

        rewrite = np.zeros(stacked.shape)  # all-zero rewrite clears every bit...
        stacked.values = rewrite
        apply_patterns_stacked(patterns, stacked)  # ...the defect re-asserts
        flat = stacked.raw.reshape(4, -1)
        for replica, pattern in enumerate(patterns):
            observed = (flat[replica, pattern.element_indices] >> pattern.bit_positions) & 1
            assert np.all(observed == 1)
        # Sites outside the patterns stay at the rewritten (zero) value.
        untouched = flat.copy()
        for replica, pattern in enumerate(patterns):
            np.bitwise_and.at(
                untouched[replica],
                pattern.element_indices,
                ~(np.int64(1) << pattern.bit_positions),
            )
        assert np.all(untouched == 0)

    def test_stacked_apply_validates_replica_count(self, wide_qtensor):
        stacked = wide_qtensor.replicate(2)
        with pytest.raises(ValueError, match="patterns"):
            apply_patterns_stacked([None], stacked)

    def test_stacked_apply_validates_element_range(self, wide_qtensor):
        stacked = wide_qtensor.replicate(2)
        bad = FaultPattern(
            "weights", np.array([wide_qtensor.size]), np.array([0]), stuck_value=1
        )
        with pytest.raises(ValueError, match="only"):
            apply_patterns_stacked([bad, None], stacked)

    def test_mixed_fault_kinds_apply_per_replica(self, wide_qtensor):
        # One stacked call may carry transient and both stuck-at kinds; each
        # replica must receive exactly its own pattern's semantics.
        stacked = wide_qtensor.replicate(3)
        patterns = [
            _all_sites_pattern(wide_qtensor),
            _all_sites_pattern(wide_qtensor, stuck_value=0),
            _all_sites_pattern(wide_qtensor, stuck_value=1),
        ]
        apply_patterns_stacked(patterns, stacked)
        raw = stacked.raw
        word_mask = wide_qtensor.qformat.word_mask
        assert np.array_equal(raw[0], wide_qtensor.raw ^ word_mask)
        assert np.all(raw[1] == 0)
        assert np.all(raw[2] == word_mask)


class TestCampaign:
    def test_campaign_aggregates_success(self):
        campaign = Campaign("test", repetitions=20, seed=3)

        def trial(rng):
            return TrialOutcome(success=bool(rng.random() < 0.5), metric=1.0)

        result = campaign.run(trial)
        assert result.repetitions == 20
        assert 0.0 <= result.success_rate <= 1.0
        low, high = result.success_confidence()
        assert 0.0 <= low <= result.success_rate <= high <= 1.0

    def test_campaign_is_reproducible(self):
        def trial(rng):
            return TrialOutcome(metric=float(rng.random()))

        first = Campaign("a", 5, seed=9).run(trial)
        second = Campaign("a", 5, seed=9).run(trial)
        assert first.metrics.tolist() == second.metrics.tolist()

    def test_campaign_rejects_bad_trial(self):
        campaign = Campaign("bad", 2)
        with pytest.raises(TypeError):
            campaign.run(lambda rng: 42)

    def test_campaign_validation(self):
        with pytest.raises(ValueError):
            Campaign("x", 0)

    def test_result_without_metrics_raises(self):
        campaign = Campaign("x", 3)
        result = campaign.run(lambda rng: TrialOutcome(success=True))
        with pytest.raises(ValueError):
            _ = result.mean_metric
        assert result.success_rate == 1.0

    def test_extras_mean(self):
        campaign = Campaign("x", 4)
        result = campaign.run(lambda rng: TrialOutcome(metric=1.0, extras={"steps": 2.0}))
        assert result.extras_mean("steps") == 2.0
        with pytest.raises(KeyError):
            result.extras_mean("missing")

    def test_default_repetitions_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_CAMPAIGN_REPS", "7")
        assert default_repetitions(100) == 7
        monkeypatch.setenv("REPRO_CAMPAIGN_REPS", "bogus")
        with pytest.raises(ValueError):
            default_repetitions(100)
        monkeypatch.delenv("REPRO_CAMPAIGN_REPS")
        assert default_repetitions(100) == 100

"""Differential tests: the batched engine must reproduce the scalar paths.

The batched inference-campaign engine promises *bit-identical* outcomes: for
any batch size B, evaluating B fault-injected replicas through the stacked
vectorized path must equal running a scalar formulation B times with the
same per-trial RNGs.  Every layer of the stack is verified differentially
here — stacked network forwards, stacked quantize–inject–dequantize, batched
greedy rollouts, and the Fig. 5, Fig. 7 and Fig. 10b trials end to end
against the scalar oracles of ``inference_oracles`` — including B=1 (a
single trial is a one-replica batch) and ragged final batches.
"""

import numpy as np
import pytest

from repro.core import (
    BatchedEvaluator,
    Campaign,
    CampaignRunner,
    StuckAtFault,
    TransientBitFlip,
    apply_patterns_stacked,
)
from repro.envs import make_gridworld
from repro.experiments.config import GridNNConfig, GridTabularConfig
from repro.experiments.common import train_grid_nn, train_tabular
from repro.experiments.fig5_inference import (
    INFERENCE_FAULT_MODES,
    _NNInferenceTrial,
    _TabularInferenceTrial,
)
from repro.nn import Conv2D, Dense, Flatten, MaxPool2D, ReLU, Sequential
from repro.nn.buffers import BatchedQuantizedExecutor, QuantizedExecutor
from repro.policies import build_grid_q_network
from repro.quant import Q8_GRID, Q16_NARROW, QTensor

from inference_oracles import nn_trial_oracle

ALL_MODELS = [
    TransientBitFlip(0.05),
    StuckAtFault(0.05, stuck_value=0),
    StuckAtFault(0.05, stuck_value=1),
]


@pytest.fixture(scope="module")
def nn_agent_env():
    config = GridNNConfig.fast()
    agent, env, _ = train_grid_nn(config, np.random.default_rng(7))
    return config, agent, env


@pytest.fixture(scope="module")
def tabular_agent_env():
    config = GridTabularConfig.fast()
    agent, env, _ = train_tabular(config, np.random.default_rng(7))
    return config, agent, env


# --------------------------------------------------------------------------- #
# Stacked network forwards
# --------------------------------------------------------------------------- #
class TestForwardReplicasParity:
    @pytest.mark.parametrize("replicas", [1, 3, 8])
    def test_mlp_per_replica_weights(self, rng, replicas):
        net = Sequential(
            [Dense(6, 10, name="fc1", rng=rng), ReLU(), Dense(10, 4, name="fc2", rng=rng)]
        )
        x = rng.normal(size=(replicas, 2, 6))
        stacks = {
            "fc1": {
                "weight": rng.normal(size=(replicas, 6, 10)),
                "bias": rng.normal(size=(replicas, 10)),
            }
        }
        out = net.forward_replicas(x, stacks)
        for r in range(replicas):
            saved = net.state_dict()
            net.layers[0].weight[...] = stacks["fc1"]["weight"][r]
            net.layers[0].bias[...] = stacks["fc1"]["bias"][r]
            expected = net.forward(x[r])
            net.load_state_dict(saved)
            assert np.array_equal(out[r], expected)

    def test_mlp_shared_weights(self, rng):
        net = Sequential([Dense(5, 7, rng=rng), ReLU(), Dense(7, 3, rng=rng)])
        x = rng.normal(size=(4, 1, 5))
        out = net.forward_replicas(x)
        for r in range(4):
            assert np.array_equal(out[r], net.forward(x[r]))

    def test_conv_stack_per_replica_weights(self, rng):
        net = Sequential(
            [
                Conv2D(1, 4, 3, name="c1", rng=rng),
                ReLU(),
                MaxPool2D(2),
                Flatten(),
                Dense(4 * 5 * 5, 3, name="f", rng=rng),
            ]
        )
        replicas = 5
        x = rng.normal(size=(replicas, 2, 1, 12, 12))
        stacks = {
            "c1": {
                "weight": rng.normal(size=(replicas, 4, 1, 3, 3)),
                "bias": rng.normal(size=(replicas, 4)),
            },
            "f": {
                "weight": rng.normal(size=(replicas, 100, 3)),
                "bias": rng.normal(size=(replicas, 3)),
            },
        }
        out = net.forward_replicas(x, stacks)
        for r in range(replicas):
            saved = net.state_dict()
            for layer_name, params in stacks.items():
                layer = net.layer_by_name(layer_name)
                layer.set_params({k: v[r] for k, v in params.items()})
            expected = net.forward(x[r])
            net.load_state_dict(saved)
            assert np.array_equal(out[r], expected)


# --------------------------------------------------------------------------- #
# Stacked quantize -> inject -> dequantize
# --------------------------------------------------------------------------- #
class TestStackedInjectionParity:
    @pytest.mark.parametrize("model", ALL_MODELS, ids=["transient", "sa0", "sa1"])
    @pytest.mark.parametrize("replicas", [1, 3, 8])
    def test_stacked_patterns_equal_scalar_applies(self, model, replicas):
        values = np.random.default_rng(3).normal(0, 0.5, size=(6, 7))
        unit = QTensor(values, Q16_NARROW, name="buf")
        rngs = [np.random.default_rng(100 + r) for r in range(replicas)]
        patterns = [model.sample_pattern(unit, rng) for rng in rngs]

        stacked = unit.replicate(replicas)
        apply_patterns_stacked(patterns, stacked)

        for r in range(replicas):
            scalar = unit.copy()
            patterns[r].apply(scalar)
            assert np.array_equal(stacked.raw[r], scalar.raw)
            assert np.array_equal(stacked.values[r], scalar.values)

    def test_quantize_inject_dequantize_executor(self, rng):
        net = build_grid_q_network(20, 4, hidden_sizes=(12,), rng=rng)
        replicas = 6
        x = np.stack([np.eye(20)[r][None] for r in range(replicas)])
        for model in ALL_MODELS:
            scalar_out = []
            for r in range(replicas):
                executor = QuantizedExecutor(net, Q16_NARROW)
                trial_rng = np.random.default_rng(50 + r)
                executor.apply_weight_faults(
                    lambda name, tensor: model.inject(tensor, trial_rng)
                )
                scalar_out.append(executor.forward(x[r]))
                executor.restore_clean_weights()

            evaluator = BatchedEvaluator(net, Q16_NARROW, replicas)
            evaluator.inject_weight_faults(
                model, [np.random.default_rng(50 + r) for r in range(replicas)]
            )
            out = evaluator.forward(x)
            for r in range(replicas):
                assert np.array_equal(out[r], scalar_out[r])

    def test_clean_batched_executor_equals_scalar(self, rng):
        net = build_grid_q_network(15, 3, hidden_sizes=(8,), rng=rng)
        replicas = 4
        x = np.stack([np.eye(15)[r][None] for r in range(replicas)])
        batched = BatchedQuantizedExecutor(net, Q16_NARROW, replicas)
        out = batched.forward(x)
        for r in range(replicas):
            assert np.array_equal(out[r], QuantizedExecutor(net, Q16_NARROW).forward(x[r]))

    def test_subset_forward_uses_selected_replica_weights(self, rng):
        net = build_grid_q_network(15, 3, hidden_sizes=(8,), rng=rng)
        replicas = 5
        evaluator = BatchedEvaluator(net, Q16_NARROW, replicas)
        evaluator.inject_weight_faults(
            TransientBitFlip(0.05),
            [np.random.default_rng(r) for r in range(replicas)],
        )
        x = np.stack([np.eye(15)[r][None] for r in range(replicas)])
        full = evaluator.forward(x)
        subset = np.array([4, 1, 2])
        out = evaluator.forward(x[subset], replicas=subset)
        for j, r in enumerate(subset):
            assert np.array_equal(out[j], full[r])

    def test_repeated_subset_follows_reinjection(self, rng):
        # The gathered stacks of a repeated subset are kept between
        # forwards; re-injecting or restoring must drop them.
        net = build_grid_q_network(15, 3, hidden_sizes=(8,), rng=rng)
        replicas = 5
        evaluator = BatchedEvaluator(net, Q16_NARROW, replicas)
        x = np.stack([np.eye(15)[r][None] for r in range(replicas)])
        subset = np.array([0, 3])
        for seed in range(3):
            evaluator.restore_clean_weights()
            evaluator.inject_weight_faults(
                StuckAtFault(0.2, stuck_value=1),
                [np.random.default_rng(10 * seed + r) for r in range(replicas)],
            )
            full = evaluator.forward(x)
            for _ in range(2):
                out = evaluator.forward(x[subset], replicas=subset)
                assert np.array_equal(out, full[subset])
        evaluator.restore_clean_weights()
        clean = BatchedEvaluator(net, Q16_NARROW, replicas).forward(x)
        assert np.array_equal(evaluator.forward(x[subset], replicas=subset), clean[subset])


# --------------------------------------------------------------------------- #
# Batched greedy evaluation
# --------------------------------------------------------------------------- #
class TestBatchedRolloutParity:
    @pytest.mark.parametrize("replicas", [1, 3, 8])
    def test_gridworld_batch_matches_scalar_rollouts(self, replicas):
        from repro.rl.evaluation import as_batched_policy, greedy_rollout, greedy_rollouts

        def make_policy(seed):
            policy_rng = np.random.default_rng(seed)
            return lambda state: int(policy_rng.integers(4))

        scalar = [
            greedy_rollout(make_policy(seed), make_gridworld("middle"), max_steps=40)
            for seed in range(replicas)
        ]
        batched = greedy_rollouts(
            as_batched_policy([make_policy(seed) for seed in range(replicas)]),
            make_gridworld("middle").batched(replicas),
            max_steps=40,
        )
        assert batched == scalar

    def test_random_start_env_rejects_batching(self):
        env = make_gridworld("middle", random_start=True)
        with pytest.raises(ValueError, match="deterministic starts"):
            env.batched(3)


# --------------------------------------------------------------------------- #
# Fig. 5 trials end to end
# --------------------------------------------------------------------------- #
def _trial_seeds(n):
    return np.random.SeedSequence(99).spawn(n)


def _assert_matches_oracle(trial, oracle, batch_size, n_trials):
    """``trial(rng)`` and ``run_batch`` in batches of ``batch_size`` equal ``oracle``.

    ``n_trials`` not divisible by ``batch_size`` ends on a ragged batch.
    """
    seeds = _trial_seeds(n_trials)
    expected = [oracle(trial, np.random.default_rng(seed)) for seed in seeds]
    assert [trial(np.random.default_rng(seed)) for seed in seeds] == expected
    batched = []
    for start in range(0, n_trials, batch_size):
        batch = seeds[start : start + batch_size]
        batched += trial.run_batch([np.random.default_rng(seed) for seed in batch])
    assert batched == expected


class TestFig5TrialParity:
    @pytest.mark.parametrize("mode", INFERENCE_FAULT_MODES)
    @pytest.mark.parametrize("ber", [0.0, 0.01])
    def test_nn_trial_equals_scalar_oracle(self, nn_agent_env, mode, ber):
        config, agent, env = nn_agent_env
        trial = _NNInferenceTrial(
            agent, env, mode, ber, config.max_steps, config.weight_qformat, 2
        )
        _assert_matches_oracle(trial, nn_trial_oracle, batch_size=5, n_trials=5)

    @pytest.mark.parametrize("mode", ["transient-1", "stuck-at-1"])
    @pytest.mark.parametrize("batch_size", [1, 3, 8])
    def test_nn_batch_sizes_equal_scalar_oracle(self, nn_agent_env, mode, batch_size):
        config, agent, env = nn_agent_env
        trial = _NNInferenceTrial(
            agent, env, mode, 0.02, config.max_steps, config.weight_qformat, 2
        )
        _assert_matches_oracle(trial, nn_trial_oracle, batch_size, n_trials=10)

    @pytest.mark.parametrize("mode", INFERENCE_FAULT_MODES)
    @pytest.mark.parametrize("ber", [0.0, 0.01])
    def test_tabular_run_batch_equals_scalar(self, tabular_agent_env, mode, ber):
        # The tabular trial is scalar only: the batched engine runs it once
        # per trial inside each batch, which must equal the serial engine.
        config, agent, env = tabular_agent_env
        trial = _TabularInferenceTrial(agent, env, mode, ber, config.max_steps, 2)
        campaign = Campaign(f"parity-fig5-tabular-{mode}", repetitions=5, seed=99)
        serial = campaign.run(trial, runner=CampaignRunner(batch_size=1, workers=1))
        batched = campaign.run(trial, runner=CampaignRunner(batch_size=3, workers=1))
        assert batched.outcomes == serial.outcomes

    @pytest.mark.parametrize("batch_size", [1, 3, 8])
    def test_batched_runner_campaign_equals_serial(self, nn_agent_env, batch_size):
        # Repetitions deliberately not divisible by the batch size, so the
        # final (ragged) batch exercises a smaller stacked evaluator.
        config, agent, env = nn_agent_env
        trial = _NNInferenceTrial(
            agent, env, "stuck-at-1", 0.01, config.max_steps, config.weight_qformat, 2
        )
        campaign = Campaign("parity-fig5", repetitions=7, seed=11)
        serial = campaign.run(trial, runner=CampaignRunner(batch_size=1, workers=1))
        batched = campaign.run(trial, runner=CampaignRunner(batch_size=batch_size, workers=1))
        assert [o.metric for o in batched.outcomes] == [o.metric for o in serial.outcomes]


# --------------------------------------------------------------------------- #
# Drone batched environment
# --------------------------------------------------------------------------- #
import dataclasses

from repro.core.mitigation.anomaly import RangeAnomalyDetector
from repro.core.sites import BufferSelector
from repro.envs.drone import DroneNavEnvBatch, make_drone_env
from repro.experiments.common import build_drone_bundle
from repro.experiments.config import DroneConfig
from repro.experiments.fig7_drone import _DroneMSFTrial
from repro.quant import Q16_MID

from inference_oracles import drone_trial_oracle, fig10b_trial_oracle


@pytest.fixture(scope="module")
def drone_bundle():
    config = dataclasses.replace(DroneConfig.fast(), max_eval_steps=25)
    return build_drone_bundle(config, seed=3)


class TestDroneEnvBatchParity:
    @pytest.mark.parametrize("replicas", [1, 3, 8])
    def test_lockstep_equals_scalar(self, replicas):
        template = make_drone_env("indoor-long", image_size=16)
        batch = template.batched(replicas)
        scalars = [make_drone_env("indoor-long", image_size=16) for _ in range(replicas)]
        batch_states = batch.reset_all()
        for r, env in enumerate(scalars):
            assert np.array_equal(batch_states[r], env.reset())
        rng = np.random.default_rng(42)
        active = list(range(replicas))
        for _ in range(60):
            if not active:
                break
            actions = rng.integers(0, template.n_actions, size=len(active))
            states, rewards, dones, infos = batch.step_many(actions, active)
            still_active = []
            for j, r in enumerate(active):
                state, reward, done, info = scalars[r].step(int(actions[j]))
                assert np.array_equal(states[j], state)
                assert rewards[j] == reward
                assert bool(dones[j]) == done
                assert infos[j] == info
                if not done:
                    still_active.append(r)
            active = still_active

    def test_stall_rollback_matches_scalar(self):
        # A hard-left loiter stalls; the batched env must roll flight
        # distance back to the same value the scalar env reports.
        batch = make_drone_env("indoor-long", image_size=16).batched(2)
        scalar = make_drone_env("indoor-long", image_size=16)
        batch.reset_all()
        scalar.reset()
        done = False
        while not done:
            states, rewards, dones, infos = batch.step_many([0, 0], [0, 1])
            state, reward, done, info = scalar.step(0)
            assert np.array_equal(states[0], state)
            assert rewards[0] == reward and bool(dones[0]) == done
            assert infos[0] == info

    def test_validates_replicas_and_actions(self):
        template = make_drone_env("indoor-long", image_size=16)
        with pytest.raises(ValueError, match="n_replicas"):
            DroneNavEnvBatch(template, 0)
        batch = template.batched(2)
        with pytest.raises(ValueError):
            batch.step_many([99, 0], [0, 1])
        with pytest.raises(ValueError):
            batch.step_many([0], [0, 1])


# --------------------------------------------------------------------------- #
# Fig. 7 trials end to end
# --------------------------------------------------------------------------- #
DRONE_FAULT_CASES = {
    "weight": dict(weight_fault=TransientBitFlip(1e-3)),
    "weight-layer": dict(
        weight_fault=TransientBitFlip(5e-3),
        weight_selector=BufferSelector.for_layer("conv2"),
    ),
    "act-transient": dict(
        activation_fault=TransientBitFlip(1e-3), activation_mode="transient"
    ),
    "act-permanent": dict(
        activation_fault=StuckAtFault(1e-3, stuck_value=1),
        activation_mode="permanent",
    ),
    "input": dict(input_fault=TransientBitFlip(1e-3)),
    "qformat": dict(qformat=Q16_MID, weight_fault=TransientBitFlip(1e-3)),
}


class TestFig7TrialParity:
    @pytest.mark.parametrize("case", sorted(DRONE_FAULT_CASES))
    def test_trial_equals_scalar_oracle(self, drone_bundle, case):
        trial = _DroneMSFTrial(drone_bundle, "indoor-long", **DRONE_FAULT_CASES[case])
        _assert_matches_oracle(trial, drone_trial_oracle, batch_size=3, n_trials=3)

    @pytest.mark.parametrize("case", ["weight", "act-permanent"])
    @pytest.mark.parametrize("batch_size", [1, 3, 8])
    def test_batch_sizes_equal_scalar_oracle(self, drone_bundle, case, batch_size):
        trial = _DroneMSFTrial(drone_bundle, "indoor-long", **DRONE_FAULT_CASES[case])
        _assert_matches_oracle(trial, drone_trial_oracle, batch_size, n_trials=10)

    def test_batched_runner_campaign_equals_serial(self, drone_bundle):
        # Repetitions not divisible by the batch size: the final ragged
        # batch exercises a smaller evaluator and environment batch.
        trial = _DroneMSFTrial(
            drone_bundle, "indoor-long", weight_fault=TransientBitFlip(1e-3)
        )
        campaign = Campaign("parity-fig7", repetitions=5, seed=11)
        serial = campaign.run(trial, runner=CampaignRunner(batch_size=1, workers=1))
        batched = campaign.run(trial, runner=CampaignRunner(batch_size=2, workers=1))
        assert [o.metric for o in batched.outcomes] == [o.metric for o in serial.outcomes]


# --------------------------------------------------------------------------- #
# Fig. 10b: the Fig. 7 trial with the range detector as weight scrub
# --------------------------------------------------------------------------- #
class TestFig10bTrialParity:
    @pytest.mark.parametrize("mitigation", [False, True])
    @pytest.mark.parametrize("ber", [0.0, 5e-3])
    def test_weight_scrub_equals_scalar_oracle(self, drone_bundle, ber, mitigation):
        scrub = (
            RangeAnomalyDetector(drone_bundle.range_profile, margin=0.1)
            if mitigation
            else None
        )
        trial = _DroneMSFTrial(
            drone_bundle,
            drone_bundle.config.environment,
            weight_fault=TransientBitFlip(ber),
            weight_scrub=scrub,
        )

        def oracle(trial, rng):
            return fig10b_trial_oracle(drone_bundle, ber, mitigation, 0.1, rng)

        _assert_matches_oracle(trial, oracle, batch_size=3, n_trials=4)
        if mitigation:
            # The scrub read every replica's weights, and removed the
            # out-of-range values the faults put there.
            assert scrub.counters.checked_values > 0
            assert (scrub.counters.detected_anomalies > 0) == (ber > 0)

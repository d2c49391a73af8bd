"""Integration tests for the experiment drivers (fast presets).

These use the heavily reduced ``fast()`` configs, so they check that every
driver runs end-to-end and produces the expected table schema, not that the
resulting numbers match the paper (that is the benchmarks' job).

The drivers are called directly with an ``execution=ExecutionConfig(...)``;
the registry path through ``repro.api.run`` is covered by tests/test_api.py.
"""

import dataclasses
import inspect

import numpy as np
import pytest

from repro.experiments import (
    DroneConfig,
    ExperimentScale,
    GridNNConfig,
    GridTabularConfig,
    get_scale,
)
from repro.experiments import common
from repro.experiments import config as config_module
from repro.experiments import (
    fig2_training,
    fig3_return_curves,
    fig4_convergence,
    fig5_inference,
    fig7_drone,
    fig8_mitigation_training,
    fig9_exploration,
    fig10_anomaly,
    summary,
)
from repro.api.execution import ExecutionConfig
from repro.core.campaign import Campaign, TrialOutcome
from repro.core.runner import executed_trial_count
from repro.experiments.common import build_drone_bundle, clear_drone_cache, greedy_policy, train_tabular
from repro.io.results import ResultTable
from repro.quant.qformat import Q16_WIDE
from repro.sweep import SweepRunner, SweepSpec
from repro.telemetry import Metrics, default_bus


#: One repetition per campaign: enough to run every driver end-to-end.
ONE_REP = ExecutionConfig(repetitions=1)


@pytest.fixture(scope="module")
def fast_tabular():
    return GridTabularConfig.fast()


@pytest.fixture(scope="module")
def fast_nn():
    return GridNNConfig.fast()


@pytest.fixture(scope="module")
def fast_drone():
    return DroneConfig.fast()


@pytest.fixture(scope="module")
def drone_bundle(fast_drone):
    bundle = build_drone_bundle(fast_drone, seed=0)
    yield bundle
    clear_drone_cache()


class TestConfig:
    def test_scale_from_environment(self, monkeypatch):
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        assert get_scale() is ExperimentScale.SMALL
        monkeypatch.setenv("REPRO_SCALE", "paper")
        assert get_scale() is ExperimentScale.PAPER
        monkeypatch.setenv("REPRO_SCALE", "bogus")
        with pytest.raises(ValueError):
            get_scale()

    def test_sweeps_depend_on_scale(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "small")
        small = config_module.grid_ber_sweep()
        monkeypatch.setenv("REPRO_SCALE", "paper")
        paper = config_module.grid_ber_sweep()
        assert len(paper) > len(small)
        assert len(config_module.injection_episodes(1000)) == 11

    def test_fast_presets_are_smaller(self):
        assert GridTabularConfig.fast().episodes < GridTabularConfig().episodes
        assert GridNNConfig.fast().episodes < GridNNConfig().episodes
        assert DroneConfig.fast().pretrain_epochs < DroneConfig().pretrain_epochs


def _public_drivers():
    import importlib
    import pkgutil

    import repro.experiments as package

    for info in pkgutil.iter_modules(package.__path__):
        module = importlib.import_module(f"{package.__name__}.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("run_") and inspect.isfunction(obj) \
                    and obj.__module__ == module.__name__:
                yield pytest.param(obj, id=f"{info.name}.{name}")


#: Campaign settings only an ``ExecutionConfig`` may carry.
ENGINE_KEYWORDS = {"seed", "repetitions", "workers", "batch_size", "checkpoint_dir", "resume"}


class TestDriverSignatures:
    @pytest.mark.parametrize("driver", list(_public_drivers()))
    def test_execution_is_the_only_engine_argument(self, driver):
        params = inspect.signature(driver).parameters
        assert not ENGINE_KEYWORDS & set(params)
        assert params["execution"].kind is inspect.Parameter.KEYWORD_ONLY

    def test_driver_discovery_finds_every_figure(self):
        modules = {param.id.split(".")[0] for param in _public_drivers()}
        assert {"fig2_training", "fig7_drone", "summary", "common"} <= modules
        assert len(list(_public_drivers())) >= 19

    def test_run_campaign_rejects_engine_keywords(self):
        def trial(rng):
            return TrialOutcome(success=True)

        campaign = Campaign("guard", 1)
        with pytest.raises(TypeError):
            common.run_campaign(campaign, trial, workers=2)
        with pytest.raises(TypeError):
            common.run_campaign(campaign, trial)


class TestGridWorldDrivers:
    def test_fig2_transient_schema(self, fast_tabular):
        before = executed_trial_count()
        table = fig2_training.run_transient_training_heatmap(
            fast_tabular, [0.0, 0.01], [0, 100], execution=ONE_REP
        )
        assert len(table) == 4
        # Without a fault the injection episode is moot: one BER-0 campaign.
        assert executed_trial_count() - before == 3
        assert len({row["success_rate"] for row in table.rows if row["bit_error_rate"] == 0}) == 1
        assert set(table.columns) >= {"bit_error_rate", "injection_episode", "success_rate"}
        matrix = fig2_training.heatmap_matrix(table, [0.0, 0.01], [0, 100])
        assert matrix.shape == (2, 2)
        assert not np.isnan(matrix).any()

    def test_fig2_permanent_schema(self, fast_tabular):
        table = fig2_training.run_permanent_training_sweep(fast_tabular, [0.01], execution=ONE_REP)
        fault_types = set(table.column("fault_type"))
        assert fault_types == {"stuck-at-0", "stuck-at-1"}

    def test_fig2_histograms(self, fast_tabular, fast_nn):
        table = fig2_training.run_value_histograms(
            fast_tabular, fast_nn, execution=ExecutionConfig(seed=1)
        )
        assert len(table) == 2
        for row in table.rows:
            assert 0.0 < row["zero_fraction"] < 1.0

    def test_fig3_curves(self, fast_tabular):
        scenarios = fig3_return_curves.default_scenarios(fast_tabular.episodes, "tabular")[:2]
        series = fig3_return_curves.run_return_curves(
            fast_tabular, scenarios, execution=ExecutionConfig(seed=2)
        )
        assert len(series.series) == 2
        assert all(len(v) == len(series.x_values) for v in series.series.values())

    def test_fig3_recovery_metric(self):
        curve = [1.0] * 10 + [0.0] * 5 + [0.95] * 5
        assert fig3_return_curves.recovery_episodes(curve, 10) == 5
        assert fig3_return_curves.recovery_episodes([1.0] * 5 + [0.0] * 5, 5) is None
        with pytest.raises(ValueError):
            fig3_return_curves.recovery_episodes(curve, 100)

    def test_fig4_transient_convergence(self, fast_tabular):
        table = fig4_convergence.run_transient_convergence(
            fast_tabular, [0.0, 0.01], extra_episodes=60, execution=ONE_REP
        )
        assert len(table) == 2
        assert all(row["episodes_to_converge"] >= 0 for row in table.rows)

    def test_fig4_permanent_extra_training(self, fast_tabular):
        table = fig4_convergence.run_permanent_extra_training(
            fast_tabular, [0.01], extra_episode_grid=(50,), execution=ONE_REP
        )
        assert len(table) == 2

    @pytest.mark.parametrize("approach", ["tabular", "nn"])
    def test_fig4_fast_spec_trains_a_reduced_extra_grid(self, monkeypatch, approach):
        # The paper's 1000/2000 extra episodes made `fig4 --fast` the slowest
        # CLI run; the fast spec trains a tenth of them, paper scale all.
        grids = []
        monkeypatch.setattr(
            fig4_convergence,
            "run_permanent_extra_training",
            lambda config, bers, extra_episode_grid, execution: grids.append(
                tuple(extra_episode_grid)
            ),
        )
        spec = fig4_convergence._permanent_extra_training_spec
        spec(ExecutionConfig(scale="small"), approach=approach, fast=True)
        spec(ExecutionConfig(scale="small"), approach=approach, fast=False)
        assert grids == [(100, 200), (1000, 2000)]
        monkeypatch.undo()
        default = inspect.signature(
            fig4_convergence.run_permanent_extra_training
        ).parameters["extra_episode_grid"].default
        assert tuple(default) == (1000, 2000)

    def test_fig5_inference_modes(self, fast_tabular):
        table = fig5_inference.run_inference_fault_sweep(
            fast_tabular, [0.01], fault_modes=("transient-1", "transient-m"),
            execution=ONE_REP, episodes_per_trial=2,
        )
        modes = set(table.column("fault_mode"))
        assert modes == {"baseline", "transient-1", "transient-m"}

    def test_fig5_rejects_unknown_mode(self, fast_tabular):
        with pytest.raises(ValueError):
            fig5_inference.run_inference_fault_sweep(fast_tabular, [0.01], fault_modes=("bogus",))

    def test_fig5_parallel_matches_serial(self, fast_tabular):
        # The fig5 trials clone a *shared* trained agent, which historically
        # consumed the agent's RNG and made outcomes depend on execution
        # order; trials must be pure functions of their trial RNG so worker
        # count (and checkpoint resume) cannot change the reported rates.
        def run(workers):
            return fig5_inference.run_inference_fault_sweep(
                fast_tabular, [0.01], fault_modes=("transient-1", "stuck-at-1"),
                episodes_per_trial=2,
                execution=ExecutionConfig(repetitions=2, workers=workers),
            )

        serial, parallel = run(1), run(2)
        assert serial.rows == parallel.rows

    def test_fig8_mitigated_heatmap(self, fast_tabular):
        table = fig8_mitigation_training.run_mitigated_transient_heatmap(
            fast_tabular, [0.01], [50], mitigation=True, execution=ONE_REP
        )
        assert table.rows[0]["mitigation"] is True

    def test_fig9_exploration_sweep(self, fast_tabular):
        table = fig9_exploration.run_exploration_adjustment_sweep(
            fast_tabular, [0.01], fault_types=("transient",), execution=ONE_REP
        )
        assert "adjusted_exploration_ratio" in table.columns
        assert "episodes_to_steady" in table.columns

    def test_fig9_recovery_correlation(self, fast_tabular):
        table = fig9_exploration.run_recovery_speed_correlation(
            fast_tabular, exploration_boosts=(0.5,), execution=ONE_REP
        )
        assert len(table) == 1

    def test_fig10_gridworld(self, fast_nn):
        table = fig10_anomaly.run_gridworld_anomaly_mitigation(
            fast_nn, [0.0, 0.01], execution=ONE_REP, episodes_per_trial=1
        )
        assert len(table) == 4
        assert set(table.column("mitigation")) == {True, False}

    def test_summary_gain_table(self):
        table = ResultTable(title="t")
        table.add(mitigation=False, bit_error_rate=0.01, success_rate=0.4)
        table.add(mitigation=True, bit_error_rate=0.01, success_rate=0.8)
        gains = summary.summarize_mitigation_gains(table, "success_rate")
        assert gains.rows[0]["improvement_factor"] == pytest.approx(2.0)


#: The stuck-at sweeps, each run at BER 0 and 0.01: four campaigns of which
#: the two BER-0 ones compute the same trials.
PERMANENT_SWEEPS = {
    "fig2": lambda config, execution: fig2_training.run_permanent_training_sweep(
        config, [0.0, 0.01], execution=execution
    ),
    "fig4": lambda config, execution: fig4_convergence.run_permanent_extra_training(
        config, [0.0, 0.01], extra_episode_grid=(20,), execution=execution
    ),
    "fig8": lambda config, execution: fig8_mitigation_training.run_mitigated_permanent_sweep(
        config, [0.0, 0.01], execution=execution
    ),
}


#: Fig. 7 inference panels at BERs 0 and 0.01: driver -> (run, the column
#: each BER-0 campaign is keyed on or None, BER-0 campaigns it runs).
DRONE_INFERENCE_SWEEPS = {
    "fig7b": (
        lambda config, execution: fig7_drone.run_environment_comparison(
            config, [0.0, 0.01], execution=execution
        ),
        "environment",
        2,
    ),
    "fig7c": (
        lambda config, execution: fig7_drone.run_fault_location_sweep(
            config, [0.0, 0.01], execution=execution
        ),
        None,
        1,
    ),
    "fig7d": (
        lambda config, execution: fig7_drone.run_layer_sweep(
            config, [0.0, 0.01], layers=("conv1", "fc1", "fc2"), execution=execution
        ),
        None,
        1,
    ),
    "fig7e": (
        lambda config, execution: fig7_drone.run_datatype_sweep(
            config, [0.0, 0.01], execution=execution
        ),
        "qformat",
        3,
    ),
}


class TestFaultFreeCampaigns:
    @pytest.fixture(scope="class")
    def tiny_tabular(self):
        return GridTabularConfig(episodes=60, max_steps=40, eval_trials=2)

    def test_helper_runs_each_fault_free_campaign_once(self):
        calls = []

        def trial(rng):
            calls.append(None)
            return TrialOutcome(metric=float(rng.random()))

        execution = ExecutionConfig(seed=0, repetitions=3)
        fault_free = {}

        def run(name, ber, seed=0, **kwargs):
            return common.run_fault_campaign(
                Campaign(name, 3, seed=seed), trial, ber, fault_free,
                execution=execution, **kwargs,
            )

        first = run("sa0-ber0", 0.0)
        assert run("sa1-ber0", 0.0) is first
        assert first.executed_trials == 3 and len(calls) == 3
        # Another key or seed is another computation; a faulty one always runs.
        assert run("sa0-ber0-long", 0.0, key=100) is not first
        assert run("other-seed", 0.0, seed=1) is not first
        assert len(calls) == 9
        faulty = [run("sa0-ber0.01", 0.01), run("sa1-ber0.01", 0.01)]
        assert faulty[0] is not faulty[1] and faulty[1].executed_trials == 3
        assert len(calls) == 15

    @pytest.mark.parametrize("driver", sorted(PERMANENT_SWEEPS))
    def test_stuck_at_rows_share_the_fault_free_campaign(self, driver, tiny_tabular, tmp_path):
        run = PERMANENT_SWEEPS[driver]
        execution = ExecutionConfig(seed=3, repetitions=2, checkpoint_dir=tmp_path)
        metrics = Metrics()
        before = executed_trial_count()
        with default_bus().subscribed(metrics.observe):
            table = run(tiny_tabular, execution)
        executed = executed_trial_count() - before
        rows = {(row["fault_type"], row["bit_error_rate"]): row for row in table.rows}
        assert len(rows) == 4
        assert rows[("stuck-at-0", 0.0)] == {**rows[("stuck-at-1", 0.0)], "fault_type": "stuck-at-0"}
        # One fault-free campaign and one per stuck value at BER 0.01.
        assert executed == 3 * 2
        assert metrics.summary_dict()["counters"]["trials.finished"] == executed

        before = executed_trial_count()
        resumed = run(tiny_tabular, execution.replace(resume=True))
        assert executed_trial_count() - before == 0
        assert resumed.to_json_dict() == table.to_json_dict()

    @pytest.mark.parametrize("driver", sorted(DRONE_INFERENCE_SWEEPS))
    def test_drone_inference_rows_share_the_fault_free_campaign(
        self, driver, fast_drone, drone_bundle, tmp_path
    ):
        run, key_column, fault_free_campaigns = DRONE_INFERENCE_SWEEPS[driver]
        execution = ExecutionConfig(seed=0, repetitions=2, checkpoint_dir=tmp_path)
        before = executed_trial_count()
        table = run(fast_drone, execution)
        executed = executed_trial_count() - before
        faulty = [row for row in table.rows if row["bit_error_rate"] > 0]
        clean = [row for row in table.rows if row["bit_error_rate"] == 0]
        assert len(clean) == len(faulty) > 1
        # Every faulty campaign runs; each key's BER-0 campaign runs once.
        assert executed == 2 * (len(faulty) + fault_free_campaigns)
        if key_column is None:
            # Every location or layer reports the one fault-free campaign.
            kept = [
                {k: v for k, v in row.items() if k not in ("location", "layer")}
                for row in clean
            ]
            assert all(row == kept[0] for row in kept)
        else:
            assert len({row[key_column] for row in clean}) == fault_free_campaigns

        before = executed_trial_count()
        resumed = run(fast_drone, execution.replace(resume=True))
        assert executed_trial_count() - before == 0
        assert resumed.to_json_dict() == table.to_json_dict()

    def test_sweep_counts_only_executed_trials(self):
        spec = SweepSpec.grid("fig2.permanent_sweep", {"fast": True}, approach=["tabular"])
        metrics = Metrics()
        with default_bus().subscribed(metrics.observe):
            artifact = SweepRunner(cache="off").run(
                spec, ExecutionConfig(seed=1, repetitions=1, scale="small")
            )
        table = artifact.points[0].artifact.result
        bers = sorted(set(table.column("bit_error_rate")))
        # Two stuck values per BER; the two BER-0 rows are one campaign.
        assert len(table) == 2 * len(bers) and bers[0] == 0.0
        assert artifact.executed_trials == 2 * len(bers) - 1
        assert metrics.summary_dict()["counters"]["trials.finished"] == 2 * len(bers) - 1


class TestDroneDrivers:
    def test_bundle_is_cached(self, fast_drone, drone_bundle):
        again = build_drone_bundle(fast_drone, seed=0)
        assert again is drone_bundle

    @pytest.fixture
    def tiny_drone(self, monkeypatch):
        # A private, empty cache: these tests must see cold and warm builds
        # of their own config regardless of what other tests cached.
        monkeypatch.setattr(common, "_DRONE_CACHE", {})
        return DroneConfig(
            image_size=20,
            pretrain_samples=20,
            pretrain_extra_env_samples=20,
            pretrain_epochs=1,
            max_eval_steps=20,
        )

    def test_cache_hit_carries_callers_config(self, tiny_drone):
        first = build_drone_bundle(tiny_drone, seed=0)
        wanted = dataclasses.replace(
            tiny_drone, max_eval_steps=300, environment="indoor-vanleer"
        )
        again = build_drone_bundle(wanted, seed=0)
        assert again.config == wanted
        assert again.env() is first.envs["indoor-vanleer"]
        assert again.network is first.network
        assert first.config.max_eval_steps == 20

    def test_cache_keys_on_qformat(self, tiny_drone, monkeypatch):
        narrow = build_drone_bundle(tiny_drone, seed=0)
        wide_config = dataclasses.replace(tiny_drone, qformat=Q16_WIDE)
        wide = build_drone_bundle(wide_config, seed=0)
        assert wide.config.qformat == Q16_WIDE
        monkeypatch.setattr(common, "_DRONE_CACHE", {})
        fresh = build_drone_bundle(wide_config, seed=0)
        assert wide.range_profile == fresh.range_profile
        assert wide.range_profile != narrow.range_profile

    def test_fig7b_environments(self, fast_drone, drone_bundle):
        table = fig7_drone.run_environment_comparison(fast_drone, [0.0, 1e-2], execution=ONE_REP)
        assert set(table.column("environment")) == {"indoor-long", "indoor-vanleer"}
        assert all(row["mean_safe_flight"] >= 0 for row in table.rows)

    def test_fig7c_locations(self, fast_drone, drone_bundle):
        table = fig7_drone.run_fault_location_sweep(fast_drone, [1e-2], execution=ONE_REP)
        assert set(table.column("location")) == {
            "input",
            "weight",
            "activation-transient",
            "activation-permanent",
        }

    def test_fig7d_layers(self, fast_drone, drone_bundle):
        table = fig7_drone.run_layer_sweep(fast_drone, [1e-2], layers=("conv1", "fc2"), execution=ONE_REP)
        assert set(table.column("layer")) == {"conv1", "fc2"}

    def test_fig7e_datatypes(self, fast_drone, drone_bundle):
        table = fig7_drone.run_datatype_sweep(fast_drone, [1e-2], execution=ONE_REP)
        assert len(set(table.column("qformat"))) == 3

    def test_fig7a_training(self, fast_drone, drone_bundle):
        before = executed_trial_count()
        table = fig7_drone.run_drone_training_faults(fast_drone, [0.0, 1e-2], execution=ONE_REP)
        assert set(table.column("fault_type")) == {"transient", "stuck-at-0", "stuck-at-1"}
        # The BER-0 campaigns run once per fault kind's seed: transient (one
        # per injection episode) and stuck-at (one per stuck value) each
        # share theirs.  At BER 0.01 all four run.
        assert executed_trial_count() - before == 2 + 4
        fault_free = [row for row in table.rows if row["bit_error_rate"] == 0.0]
        transient = {row["mean_safe_flight"] for row in fault_free if row["fault_type"] == "transient"}
        stuck = {row["mean_safe_flight"] for row in fault_free if row["fault_type"] != "transient"}
        assert len(transient) == 1 and len(stuck) == 1

    def test_fig10b_drone(self, fast_drone, drone_bundle):
        table = fig10_anomaly.run_drone_anomaly_mitigation(fast_drone, [0.0, 1e-2], execution=ONE_REP)
        assert len(table) == 4


class TestCleanBaseline:
    def test_tabular_default_config_converges(self):
        config = GridTabularConfig(episodes=500, eval_trials=10)
        agent, eval_env, _ = train_tabular(config, np.random.default_rng(0))
        from repro.experiments.common import evaluate_grid_policy

        rate = evaluate_grid_policy(greedy_policy(agent), eval_env, 10, max_steps=100)
        assert rate >= 0.9

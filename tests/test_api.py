"""Tests for the declarative experiment API (repro.api).

Covers the ExecutionConfig contract (validation, env resolution), the
experiment registry, artifact serialization, and the acceptance-critical
differential guarantee: ``repro.api.run(name, execution=...)`` is
bit-identical to a direct call of the corresponding ``run_*`` driver
for the same seed, across the serial / parallel / batched engines.
"""

import dataclasses
import json

import pytest

from repro import api
from repro.api import ExecutionConfig, ExperimentArtifact
from repro.experiments import GridNNConfig, GridTabularConfig
from repro.experiments.registry import (
    ParamSpec,
    figures,
    get_spec,
    list_specs,
    specs_for_figure,
)
from repro.io.results import ResultTable


class TestExecutionConfig:
    def test_defaults_defer_to_environment(self):
        config = ExecutionConfig()
        assert config.workers is None and config.batch_size is None
        assert config.repetitions is None and config.scale is None

    def test_zero_repetitions_raises(self):
        # repetitions=0 used to silently mean "use the config default".
        with pytest.raises(ValueError, match="repetitions"):
            ExecutionConfig(repetitions=0)

    @pytest.mark.parametrize("field", ["workers", "batch_size"])
    @pytest.mark.parametrize("bad", [0, -1, "bogus"])
    def test_invalid_engine_knobs_raise(self, field, bad):
        with pytest.raises(ValueError, match=field):
            ExecutionConfig(**{field: bad})

    def test_auto_workers_normalized(self):
        assert ExecutionConfig(workers="auto").workers >= 1
        assert ExecutionConfig(workers="3").workers == 3

    def test_resume_requires_checkpoint_dir(self):
        with pytest.raises(ValueError, match="checkpoint_dir"):
            ExecutionConfig(resume=True)
        config = ExecutionConfig(checkpoint_dir="runs", resume=True)
        assert config.resume and str(config.checkpoint_dir) == "runs"

    def test_invalid_scale_rejected(self):
        with pytest.raises(ValueError):
            ExecutionConfig(scale="bogus")

    def test_resolved_pins_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_CAMPAIGN_WORKERS", "3")
        monkeypatch.setenv("REPRO_CAMPAIGN_BATCH", "5")
        monkeypatch.setenv("REPRO_SCALE", "medium")
        resolved = ExecutionConfig().resolved()
        assert resolved.workers == 3
        assert resolved.batch_size == 5
        assert resolved.scale == "medium"
        # Explicit knobs win over the environment.
        explicit = ExecutionConfig(workers=1, batch_size=1, scale="small").resolved()
        assert (explicit.workers, explicit.batch_size, explicit.scale) == (1, 1, "small")

    def test_resolved_defaults_without_environment(self, monkeypatch):
        for var in ("REPRO_CAMPAIGN_WORKERS", "REPRO_CAMPAIGN_BATCH", "REPRO_SCALE"):
            monkeypatch.delenv(var, raising=False)
        resolved = ExecutionConfig().resolved()
        assert (resolved.workers, resolved.batch_size, resolved.scale) == (1, 1, "small")
        assert resolved.repetitions is None  # config presets keep owning reps

    def test_engine_description(self):
        assert ExecutionConfig(workers=1, batch_size=1).engine_description() == "serial"
        assert "parallel" in ExecutionConfig(workers=4, batch_size=1).engine_description()
        assert "batched" in ExecutionConfig(workers=1, batch_size=8).engine_description()
        combined = ExecutionConfig(workers=4, batch_size=8).engine_description()
        assert "batched" in combined and "workers" in combined

    def test_resolve_repetitions(self):
        assert ExecutionConfig(repetitions=7).resolve_repetitions(3) == 7
        assert ExecutionConfig().resolve_repetitions(3) == 3

    def test_replace_and_roundtrip(self):
        config = ExecutionConfig(seed=5, workers=2, checkpoint_dir="runs", resume=True)
        assert config.replace(seed=9).seed == 9
        assert ExecutionConfig.from_json_dict(config.to_json_dict()) == config


class TestDriverValidation:
    def test_drivers_reject_zero_repetitions(self):
        # ExecutionConfig(repetitions=0) raises on construction; a config
        # preset of zero must not silently run empty campaigns either.
        from repro.experiments.fig2_training import run_transient_training_heatmap
        from repro.experiments.fig5_inference import run_inference_fault_sweep

        config = dataclasses.replace(GridTabularConfig.fast(), repetitions=0)
        with pytest.raises(ValueError, match="repetitions"):
            run_inference_fault_sweep(config, [0.01])
        with pytest.raises(ValueError, match="repetitions"):
            run_transient_training_heatmap(config, [0.01], [0])


class TestRegistry:
    def test_every_paper_figure_is_registered(self):
        paper_figures = [
            "fig2",
            "fig3",
            "fig4",
            "fig5",
            "fig7",
            "fig8",
            "fig9",
            "fig10",
            "summary",
        ]
        # Test suites may register extra specs (e.g. sweep_testlib's
        # synthetic figure); the paper figures must all be present, in
        # natural order, with figN groups before named groups.
        registered = figures()
        assert [fig for fig in registered if fig in paper_figures] == paper_figures
        assert registered[: len(paper_figures) - 1] == paper_figures[:-1]

    def test_spec_names_are_dotted_and_described(self):
        for spec in list_specs():
            assert "." in spec.name
            assert spec.description
            assert spec.figure == spec.name.split(".")[0]

    def test_unknown_spec_raises(self):
        with pytest.raises(KeyError, match="unknown experiment"):
            get_spec("fig99.bogus")

    def test_resolve_params_validates(self):
        spec = get_spec("fig5.inference")
        params = spec.resolve_params({"approach": "nn", "episodes_per_trial": "3"})
        assert params["approach"] == "nn"
        assert params["episodes_per_trial"] == 3  # coerced to the declared type
        assert params["fast"] is False  # default filled in
        with pytest.raises(TypeError, match="unknown parameter"):
            spec.resolve_params({"bogus": 1})
        with pytest.raises(ValueError, match="approach"):
            spec.resolve_params({"approach": "quantum"})
        with pytest.raises(TypeError, match="fast"):
            spec.resolve_params({"fast": "yes"})
        # Lossy numeric coercion is refused — 2.7 episodes is not a thing.
        with pytest.raises(TypeError, match="episodes_per_trial"):
            spec.resolve_params({"episodes_per_trial": 2.7})
        with pytest.raises(TypeError, match="episodes_per_trial"):
            spec.resolve_params({"episodes_per_trial": True})

    def test_param_spec_rejects_unsupported_type(self):
        with pytest.raises(TypeError, match="type"):
            ParamSpec("weird", list, [])

    def test_api_run_rejects_duplicate_param_styles(self):
        with pytest.raises(TypeError, match="both"):
            api.run("fig5.inference", {"fast": True}, fast=True)


class TestArtifact:
    def _artifact(self):
        table = ResultTable(title="demo")
        table.add(bit_error_rate=0.01, success_rate=0.5)
        return ExperimentArtifact(
            spec_name="fig5.inference",
            params={"approach": "tabular", "fast": True, "episodes_per_trial": 5},
            execution=ExecutionConfig(seed=3, batch_size=4).resolved(),
            wall_time_s=1.25,
            result=table,
        )

    def test_seed_and_engine_derive_from_execution(self):
        artifact = self._artifact()
        assert artifact.seed == 3
        assert artifact.engine == "batched(4)"

    def test_json_roundtrip(self, tmp_path):
        artifact = self._artifact()
        path = tmp_path / "artifact.json"
        artifact.to_json(path)
        restored = ExperimentArtifact.from_json(path)
        assert restored == artifact
        # The str form of the path works too (mirrors to_json's signature).
        assert ExperimentArtifact.from_json(str(path)) == artifact

    def test_reads_artifact_with_retired_kernel_backend_field(self, tmp_path):
        # Artifacts written while ExecutionConfig still had a kernel_backend
        # knob carry it in their execution block; it is ignored on load.
        artifact = self._artifact()
        data = json.loads(artifact.to_json())
        data["execution"]["kernel_backend"] = "numpy"
        path = tmp_path / "old-artifact.json"
        path.write_text(json.dumps(data))
        assert ExperimentArtifact.from_json(path) == artifact
        assert ExecutionConfig.from_json_dict(data["execution"]) == artifact.execution

    def test_rejects_foreign_payload(self):
        with pytest.raises(ValueError, match="artifact"):
            ExperimentArtifact.from_json('{"kind": "something-else"}')
        # Neither a JSON object nor an existing file: a clear ValueError, not
        # a confusing FileNotFoundError.
        with pytest.raises(ValueError, match="neither"):
            ExperimentArtifact.from_json("no-such-artifact.json")
        with pytest.raises(ValueError, match="neither"):
            ExperimentArtifact.from_json("null")

    def test_as_table_flattens_series(self):
        from repro.io.results import SeriesResult

        series = SeriesResult(title="curves", x_label="episode", x_values=[0, 1])
        series.add_series("fault-free", [1.0, 2.0])
        artifact = self._artifact()
        artifact = ExperimentArtifact(
            spec_name="fig3.return_curves",
            params=artifact.params,
            execution=artifact.execution,
            wall_time_s=0.0,
            result=series,
        )
        table = artifact.as_table()
        assert table.columns == ["episode", "fault-free"]
        restored = ExperimentArtifact.from_json(artifact.to_json())
        assert restored.result.series == series.series


# --------------------------------------------------------------------------- #
# Differential: api.run vs a direct driver call, across engines
# --------------------------------------------------------------------------- #
ENGINES = [
    pytest.param({"workers": 1, "batch_size": 1}, id="serial"),
    pytest.param({"workers": 2, "batch_size": 1}, id="workers2"),
    pytest.param({"workers": 1, "batch_size": 4}, id="batch4"),
]


@pytest.fixture(scope="module")
def direct_fig5():
    from repro.experiments.config import grid_ber_sweep
    from repro.experiments.fig5_inference import run_inference_fault_sweep

    return run_inference_fault_sweep(
        GridTabularConfig.fast(), grid_ber_sweep(), episodes_per_trial=2
    )


@pytest.fixture(scope="module")
def direct_fig9c():
    from repro.experiments.fig9_exploration import run_recovery_speed_correlation

    return run_recovery_speed_correlation(GridTabularConfig.fast())


@pytest.fixture(scope="module")
def direct_fig10a():
    from repro.experiments.config import grid_ber_sweep
    from repro.experiments.fig10_anomaly import run_gridworld_anomaly_mitigation

    return run_gridworld_anomaly_mitigation(GridNNConfig.fast(), grid_ber_sweep())


class TestLegacyApiParity:
    """api.run on every engine must reproduce a direct driver call bit-identically."""

    @pytest.mark.parametrize("engine", ENGINES)
    def test_fig5_inference(self, direct_fig5, engine):
        artifact = api.run(
            "fig5.inference",
            {"fast": True, "episodes_per_trial": 2},
            execution=ExecutionConfig(**engine),
        )
        assert artifact.result.rows == direct_fig5.rows

    @pytest.mark.parametrize("engine", ENGINES)
    def test_fig9_recovery_correlation(self, direct_fig9c, engine):
        artifact = api.run(
            "fig9.recovery_correlation",
            {"fast": True},
            execution=ExecutionConfig(**engine),
        )
        assert artifact.result.rows == direct_fig9c.rows

    @pytest.mark.parametrize("engine", ENGINES)
    def test_fig10_gridworld(self, direct_fig10a, engine):
        artifact = api.run(
            "fig10.gridworld", {"fast": True}, execution=ExecutionConfig(**engine)
        )
        assert artifact.result.rows == direct_fig10a.rows

    def test_fig3_series_parity(self):
        from repro.experiments.fig3_return_curves import run_return_curves

        direct = run_return_curves(GridTabularConfig.fast())
        artifact = api.run("fig3.return_curves", {"fast": True})
        assert artifact.result.series == direct.series
        assert artifact.result.x_values == direct.x_values

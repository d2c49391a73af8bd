"""Tests for the registry-generated CLI (``python -m repro``).

Golden checks on ``--help`` / ``list`` output, a round-trip of every
registered spec's flags through ``parse_args`` into an ``ExecutionConfig``
plus typed parameters, and error-message tests for bad engine flags.
"""

import pytest

from repro.__main__ import _execution_from_args, build_parser, main
from repro.api import ExecutionConfig
from repro.experiments.registry import figures, list_specs, specs_for_figure


@pytest.fixture(scope="module")
def parser():
    return build_parser()


def _param_flags(param):
    """The CLI argv fragment exercising one spec parameter (non-default)."""
    flag = "--" + param.name.replace("_", "-")
    if param.type is bool:
        return ["--no-" + param.name.replace("_", "-")] if param.default else [flag]
    if param.choices is not None:
        value = next(c for c in param.choices if c != param.default)
        return [flag, str(value)]
    if param.type is int:
        return [flag, str(param.default + 1)]
    if param.type is float:
        return [flag, str(param.default + 0.5)]
    return [flag, f"{param.default}x"]


class TestHelpAndList:
    def test_top_level_help_lists_every_figure(self, parser):
        text = parser.format_help()
        for figure in figures():
            assert figure in text
        assert "list" in text

    def test_subcommand_help_has_execution_and_param_flags(self, parser, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["fig5", "--help"])
        assert excinfo.value.code == 0
        text = capsys.readouterr().out
        for flag in (
            "--workers",
            "--batch-size",
            "--checkpoint-dir",
            "--resume",
            "--seed",
            "--reps",
            "--out-dir",
            "--approach",
            "--fast",
            "--episodes-per-trial",
        ):
            assert flag in text
        assert "fig5.inference" in text

    def test_bool_default_true_params_become_no_flags(self, parser, capsys):
        with pytest.raises(SystemExit):
            main(["fig8", "--help"])
        assert "--no-mitigation" in capsys.readouterr().out

    def test_list_enumerates_every_spec_with_params(self, capsys):
        assert main(["list"]) == 0
        text = capsys.readouterr().out
        for spec in list_specs():
            assert spec.name in text
            for param in spec.params:
                assert param.name in text
        assert "[batched]" in text  # batched engines are called out
        assert "repro.api.run" in text


class TestFlagRoundTrip:
    EXECUTION_ARGV = [
        "--workers",
        "2",
        "--batch-size",
        "4",
        "--seed",
        "7",
        "--reps",
        "3",
        "--resume",
    ]

    @pytest.mark.parametrize("figure", [f for f in figures()])
    def test_execution_flags_round_trip(self, parser, figure, tmp_path):
        argv = [figure] + self.EXECUTION_ARGV + ["--checkpoint-dir", str(tmp_path)]
        args = parser.parse_args(argv)
        execution = _execution_from_args(args, parser)
        assert execution == ExecutionConfig(
            seed=7,
            repetitions=3,
            workers=2,
            batch_size=4,
            checkpoint_dir=tmp_path,
            resume=True,
        )

    def test_every_spec_param_round_trips(self, parser):
        for spec in list_specs():
            argv = [spec.figure]
            expected = {}
            for param in spec.params:
                argv += _param_flags(param)
                if param.type is bool:
                    expected[param.name] = not param.default
                elif param.choices is not None:
                    expected[param.name] = next(
                        c for c in param.choices if c != param.default
                    )
                elif param.type in (int, float):
                    expected[param.name] = param.type(
                        param.default + (1 if param.type is int else 0.5)
                    )
                else:
                    expected[param.name] = f"{param.default}x"
            args = parser.parse_args(argv)
            parsed = {p.name: getattr(args, p.name) for p in spec.params}
            assert parsed == spec.resolve_params(parsed) == expected, spec.name

    def test_defaults_match_spec_defaults(self, parser):
        for figure in figures():
            args = parser.parse_args([figure])
            for spec in specs_for_figure(figure):
                parsed = {p.name: getattr(args, p.name) for p in spec.params}
                assert parsed == spec.resolve_params({}), spec.name
            execution = _execution_from_args(args, parser)
            assert execution == ExecutionConfig()


class TestErrorMessages:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["fig5", "--batch-size", "0"], "batch_size must be positive"),
            (["fig5", "--batch-size", "abc"], "batch_size must be a positive integer"),
            (["fig5", "--workers", "0"], "workers must be positive"),
            (["fig5", "--workers", "bogus"], "workers must be a positive integer or 'auto'"),
            (["fig5", "--reps", "0"], "repetitions must be positive"),
            (["fig5", "--resume"], "resume=True requires a checkpoint_dir"),
        ],
    )
    def test_bad_engine_flags_report_cleanly(self, argv, message, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert message in capsys.readouterr().err

    def test_unknown_figure_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["fig99"])
        assert excinfo.value.code == 2

    def test_bad_choice_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["fig2", "--approach", "quantum"])
        assert "approach" in capsys.readouterr().err


class TestEndToEnd:
    def test_fig3_runs_and_writes_artifact(self, tmp_path, capsys, monkeypatch):
        # fig3 is the cheapest real subcommand (one training run per scenario
        # at the fast preset, no campaigns).  Isolate the engine env knobs so
        # a developer's exported REPRO_CAMPAIGN_* cannot change the recorded
        # engine provenance.
        for var in ("REPRO_CAMPAIGN_WORKERS", "REPRO_CAMPAIGN_BATCH", "REPRO_SCALE"):
            monkeypatch.delenv(var, raising=False)
        assert main(["fig3", "--fast", "--out-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "Fig3" in out
        written = list(tmp_path.glob("*.json"))
        assert len(written) == 1
        from repro.api import ExperimentArtifact

        artifact = ExperimentArtifact.from_json(written[0])
        assert artifact.spec_name == "fig3.return_curves"
        assert artifact.params["fast"] is True
        assert artifact.engine == "serial"


class TestListJson:
    def test_machine_readable_listing(self, capsys):
        import json

        assert main(["list", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        by_name = {spec["name"]: spec for spec in data}
        assert set(by_name) == {spec.name for spec in list_specs()}
        fig5 = by_name["fig5.inference"]
        assert fig5["figure"] == "fig5" and fig5["batched"] is True
        params = {p["name"]: p for p in fig5["params"]}
        assert params["approach"]["choices"] == ["tabular", "nn"]
        assert params["episodes_per_trial"]["type"] == "int"
        assert params["fast"]["default"] is False

    def test_plain_listing_unchanged(self, capsys):
        assert main(["list"]) == 0
        assert "Registered experiment specs:" in capsys.readouterr().out


class TestSweepCli:
    def test_sweep_help_lists_axes_cache_and_adaptive_flags(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "--help"])
        assert excinfo.value.code == 0
        text = capsys.readouterr().out
        for flag in (
            "--grid", "--zip", "--random", "--samples", "--set",
            "--cache", "--store", "--sweep-checkpoint",
            "--target-ci", "--max-reps", "--workers", "--batch-size",
        ):
            assert flag in text

    def test_sweep_requires_exactly_one_axis_family(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "synthetic.bernoulli"])
        assert excinfo.value.code == 2
        assert "--grid / --zip / --random" in capsys.readouterr().err
        with pytest.raises(SystemExit):
            main(["sweep", "synthetic.bernoulli", "--grid", "p=0.1",
                  "--zip", "label=a"])

    def test_sweep_rejects_malformed_axis_and_unknown_spec(self, capsys):
        with pytest.raises(SystemExit):
            main(["sweep", "synthetic.bernoulli", "--grid", "p"])
        assert "param=v1,v2" in capsys.readouterr().err
        with pytest.raises(SystemExit):
            main(["sweep", "no.such.spec", "--grid", "p=0.5"])
        assert "unknown experiment" in capsys.readouterr().err

    def test_sweep_end_to_end_with_cache_and_artifact(self, tmp_path, capsys):
        import sweep_testlib  # registers synthetic.bernoulli
        from repro.sweep import SweepArtifact

        argv = [
            "sweep", "synthetic.bernoulli",
            "--grid", "p=0.25,0.75",
            "--set", "label=cli",
            "--reps", "4", "--seed", "3",
            "--store", str(tmp_path / "store"),
            "--out-dir", str(tmp_path / "out"),
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "2 points, 0 cache hit(s), 8 trial(s) executed" in out
        written = list((tmp_path / "out").glob("sweep_*.json"))
        assert len(written) == 1
        artifact = SweepArtifact.from_json(written[0])
        assert len(artifact.points) == 2
        assert artifact.points[0].params["label"] == "cli"

        # Second invocation: every point served from the store.
        assert main(argv) == 0
        assert "2 cache hit(s), 0 trial(s) executed" in capsys.readouterr().out

    def test_sweep_workers_flag_distributes_with_identical_results(
        self, tmp_path, capsys
    ):
        import sweep_testlib  # registers synthetic.bernoulli
        from repro.sweep import SweepArtifact

        def argv(out, store, extra=()):
            return [
                "sweep", "synthetic.bernoulli",
                "--grid", "p=0.25,0.75",
                "--reps", "4", "--seed", "3",
                "--store", str(tmp_path / store),
                "--out-dir", str(tmp_path / out),
                *extra,
            ]

        assert main(argv("serial", "store-s")) == 0
        assert main(argv("dist", "store-d", ("--sweep-workers", "2"))) == 0
        assert "2 points, 0 cache hit(s), 8 trial(s) executed" in capsys.readouterr().out
        serial = SweepArtifact.from_json(
            next((tmp_path / "serial").glob("sweep_*.json")))
        dist = SweepArtifact.from_json(
            next((tmp_path / "dist").glob("sweep_*.json")))
        for s, d in zip(serial.points, dist.points):
            assert (s.seed, s.digest) == (d.seed, d.digest)
            assert s.artifact.result.to_json_dict() == d.artifact.result.to_json_dict()

        # Warm pooled re-run serves every point from the store.
        assert main(argv("dist", "store-d", ("--sweep-workers", "2"))) == 0
        assert "2 cache hit(s), 0 trial(s) executed" in capsys.readouterr().out

    def test_sweep_workers_flag_rejects_garbage(self, capsys):
        with pytest.raises(SystemExit):
            main(["sweep", "synthetic.bernoulli", "--grid", "p=0.5",
                  "--sweep-workers", "zero"])
        assert "sweep_workers" in capsys.readouterr().err

    def test_sweep_resume_with_campaign_checkpoint_dir_only(self, tmp_path, capsys):
        # Regression: --resume used to be forwarded as sweep-level resume
        # even without --sweep-checkpoint, so the documented campaign-level
        # "--checkpoint-dir DIR --resume" combination errored out.
        argv = [
            "sweep", "synthetic.bernoulli",
            "--grid", "p=0.5",
            "--reps", "3", "--seed", "3", "--cache", "off",
            "--checkpoint-dir", str(tmp_path / "campaigns"),
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv + ["--resume"]) == 0
        second = capsys.readouterr().out
        assert "0 cache hit(s), 0 trial(s) executed" in second  # campaigns resumed
        # per-point campaign checkpoints land in point-<i> subdirectories
        assert (tmp_path / "campaigns" / "point-0000").is_dir()

    def test_sweep_adaptive_reps_auto(self, tmp_path, capsys):
        argv = [
            "sweep", "synthetic.bernoulli",
            "--grid", "p=0.5",
            "--reps", "auto", "--target-ci", "0.25", "--initial-reps", "4",
            "--max-reps", "32", "--seed", "3",
            "--store", str(tmp_path / "store"),
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "adaptive_rounds" in out
        assert "ci_half_width" in out

"""Differential tests for the sweep orchestrator (``repro.sweep``).

The acceptance-critical guarantees:

(a) a sweep over N points equals N independent ``api.run`` calls
    bit-identically — for any cache state, point order and engine
    (serial / parallel / batched);
(b) a warm-cache sweep re-run executes zero trials;
(c) adaptive mode's final estimates agree with fixed-repetition runs at the
    same seeds, and its reported CI half-width meets ``target_ci`` on every
    point.

Plus: point enumeration (grid / zip / random), axis validation, sweep
checkpoint/resume, artifact JSON round-trips, the flattened table views,
and point parallelism over the process pool (``workers > 1``: bit-identical
to in-process, zero trials when warm, typed error plus resume when a worker
dies).  Most tests run against the synthetic Bernoulli spec (see
``sweep_testlib``); one integration test runs a real fig5 sweep.

Pool workers are forked, so specs registered by this module (the failing
spec below) are visible inside them without re-import.
"""

import os
import textwrap

import numpy as np
import pytest

import sweep_testlib
from repro import api
from repro.api import ExecutionConfig
from repro.core.runner import executed_trial_count
from repro.experiments.registry import ParamSpec, register_experiment
from repro.io.results import ResultTable
from repro.metrics.statistics import wilson_half_width
from repro.store import ArtifactStore
from repro.sweep import (
    AdaptiveConfig,
    SweepArtifact,
    SweepCheckpoint,
    SweepRunner,
    SweepSpec,
    default_sweep_workers,
    derive_point_seed,
)
from repro.telemetry import TrialFinished, TrialStarted, default_bus

SPEC = sweep_testlib.SPEC_NAME
FAILING_SPEC = "synthetic.failing"


@register_experiment(
    FAILING_SPEC,
    description="Deterministically failing campaign (test-only)",
    params=(ParamSpec("p", float, 0.5, help="fails when p > 0.5"),),
)
def run_failing(execution: ExecutionConfig, *, p: float) -> ResultTable:
    if p > 0.5:
        raise ValueError(f"synthetic failure at p={p}")
    table = ResultTable(title="ok")
    table.add(p=p, success_rate=1.0)
    return table


def _sweep_spec(ps=(0.25, 0.75), labels=("x",)):
    return SweepSpec.grid(SPEC, p=list(ps), label=list(labels))


class TestSweepSpec:
    def test_grid_points_in_product_order(self):
        spec = SweepSpec.grid(SPEC, p=[0.1, 0.9], label=["a", "b"])
        points = spec.points()
        assert [(pt["p"], pt["label"]) for pt in points] == [
            (0.1, "a"), (0.1, "b"), (0.9, "a"), (0.9, "b"),
        ]

    def test_zip_points_lockstep(self):
        spec = SweepSpec.zipped(SPEC, p=[0.1, 0.9], label=["a", "b"])
        assert [(pt["p"], pt["label"]) for pt in spec.points()] == [
            (0.1, "a"), (0.9, "b"),
        ]
        with pytest.raises(ValueError, match="equal lengths"):
            SweepSpec.zipped(SPEC, p=[0.1, 0.9], label=["a"])

    def test_random_points_deterministic_in_sample_seed(self):
        spec = SweepSpec.random(SPEC, samples=6, sample_seed=3, p=[0.1, 0.5, 0.9])
        again = SweepSpec.random(SPEC, samples=6, sample_seed=3, p=[0.1, 0.5, 0.9])
        assert spec.points() == again.points()
        other = SweepSpec.random(SPEC, samples=6, sample_seed=4, p=[0.1, 0.5, 0.9])
        assert spec.points() != other.points()
        assert all(pt["p"] in (0.1, 0.5, 0.9) for pt in spec.points())

    def test_axis_validation(self):
        with pytest.raises(KeyError, match="no parameter"):
            SweepSpec.grid(SPEC, bogus=[1])
        with pytest.raises(ValueError, match="no values"):
            SweepSpec.grid(SPEC, p=[])
        with pytest.raises(ValueError, match="at least one axis"):
            SweepSpec.grid(SPEC)
        with pytest.raises(ValueError, match="both an axis and a base param"):
            SweepSpec.grid(SPEC, {"p": 0.5}, p=[0.1])
        with pytest.raises(ValueError, match="samples"):
            SweepSpec.random(SPEC, samples=0, p=[0.1])
        with pytest.raises(ValueError, match="must be one of"):
            SweepSpec.grid("fig5.inference", approach=["tabular", "bogus"])

    def test_values_validated_through_param_types(self):
        spec = SweepSpec.grid(SPEC, {"label": "L"}, p=["0.25", "0.75"])
        assert [pt["p"] for pt in spec.points()] == [0.25, 0.75]
        bools = SweepSpec.grid("fig5.inference", fast=["true", "false"])
        assert [pt["fast"] for pt in bools.points()] == [True, False]

    def test_json_round_trip(self):
        spec = SweepSpec.random(SPEC, samples=3, sample_seed=2,
                                base_params={"label": "b"}, p=[0.1, 0.9])
        again = SweepSpec.from_json_dict(spec.to_json_dict())
        assert again == spec
        assert again.points() == spec.points()


class TestPointSeeds:
    def test_pure_function_of_identity_not_position(self):
        spec = _sweep_spec(ps=(0.25, 0.75))
        flipped = _sweep_spec(ps=(0.75, 0.25))
        seeds = {pt["p"]: derive_point_seed(7, SPEC, pt) for pt in spec.points()}
        seeds_flipped = {pt["p"]: derive_point_seed(7, SPEC, pt) for pt in flipped.points()}
        assert seeds == seeds_flipped
        assert len(set(seeds.values())) == 2

    def test_base_seed_and_params_separate_streams(self):
        point = _sweep_spec().points()[0]
        assert derive_point_seed(0, SPEC, point) != derive_point_seed(1, SPEC, point)
        assert derive_point_seed(0, SPEC, point) != derive_point_seed(0, "other", point)


def _point_map(artifact):
    return {pt.params["p"]: pt for pt in artifact.points}


class TestSweepDifferential:
    """Acceptance (a): sweep == independent api.run, any engine/order/cache."""

    @pytest.mark.parametrize(
        "engine",
        [
            {},                                  # serial
            {"workers": 2},                      # parallel
            {"batch_size": 3},                   # batched
            {"workers": 2, "batch_size": 2},     # batched x parallel
        ],
    )
    def test_sweep_equals_independent_runs(self, engine, tmp_path):
        execution = ExecutionConfig(seed=11, repetitions=6, **engine)
        artifact = api.sweep(
            _sweep_spec(), execution=execution, store=tmp_path / "store"
        )
        assert len(artifact.points) == 2
        for point in artifact.points:
            solo = api.run(
                SPEC,
                dict(point.params),
                execution=ExecutionConfig(seed=point.seed, repetitions=6),
            )
            assert solo.result.to_json_dict() == point.artifact.result.to_json_dict()

    def test_point_order_never_changes_results(self, tmp_path):
        execution = ExecutionConfig(seed=11, repetitions=6)
        forward = api.sweep(_sweep_spec(ps=(0.25, 0.75)), execution=execution,
                            cache="off")
        reverse = api.sweep(_sweep_spec(ps=(0.75, 0.25)), execution=execution,
                            cache="off")
        fwd, rev = _point_map(forward), _point_map(reverse)
        for p in (0.25, 0.75):
            assert fwd[p].seed == rev[p].seed
            assert (
                fwd[p].artifact.result.to_json_dict()
                == rev[p].artifact.result.to_json_dict()
            )

    def test_cache_state_never_changes_results(self, tmp_path):
        execution = ExecutionConfig(seed=11, repetitions=6)
        store = tmp_path / "store"
        # Pre-warm only ONE point, then sweep over both: one point served
        # from cache, one computed fresh — identical to the cache-off sweep.
        api.sweep(_sweep_spec(ps=(0.25,)), execution=execution, store=store)
        mixed = api.sweep(_sweep_spec(), execution=execution, store=store)
        cold = api.sweep(_sweep_spec(), execution=execution, cache="off")
        assert [pt.cache_hit for pt in mixed.points] == [True, False]
        assert mixed.table().rows == cold.table().rows

    def test_engines_share_cache_entries(self, tmp_path):
        store = tmp_path / "store"
        execution = ExecutionConfig(seed=11, repetitions=6)
        serial = api.sweep(_sweep_spec(), execution=execution, store=store)
        batched = api.sweep(
            _sweep_spec(),
            execution=execution.replace(batch_size=3, workers=2),
            store=store,
        )
        assert batched.cache_hits == 2
        assert batched.executed_trials == 0
        assert batched.table().rows == serial.table().rows


class TestWarmCache:
    """Acceptance (b): warm-cache sweep re-runs execute zero trials."""

    def test_second_run_is_all_hits_and_zero_trials(self, tmp_path):
        execution = ExecutionConfig(seed=3, repetitions=5)
        store = tmp_path / "store"
        cold = api.sweep(_sweep_spec(), execution=execution, store=store)
        assert cold.cache_hits == 0 and cold.executed_trials == 2 * 5
        before = executed_trial_count()
        warm = api.sweep(_sweep_spec(), execution=execution, store=store)
        assert executed_trial_count() - before == 0
        assert warm.cache_hits == len(warm.points) == 2
        assert warm.executed_trials == 0
        assert warm.table().rows == cold.table().rows

    def test_corrupt_store_object_recomputes_and_reports_miss(self, tmp_path):
        # Regression: a pre-flight contains() check used to report
        # cache_hit=True for a point whose object file was unreadable and
        # therefore actually re-executed.
        execution = ExecutionConfig(seed=3, repetitions=5)
        store = ArtifactStore(tmp_path / "store")
        cold = api.sweep(_sweep_spec(), execution=execution, store=store)
        store.object_path(cold.points[0].digest).write_text("{corrupt")
        before = executed_trial_count()
        warm = api.sweep(_sweep_spec(), execution=execution, store=store)
        assert [pt.cache_hit for pt in warm.points] == [False, True]
        assert warm.points[0].executed_trials == 5
        assert executed_trial_count() - before == 5
        assert warm.table().rows == cold.table().rows

    def test_refresh_recomputes_identically(self, tmp_path):
        execution = ExecutionConfig(seed=3, repetitions=5)
        store = tmp_path / "store"
        cold = api.sweep(_sweep_spec(), execution=execution, store=store)
        refreshed = api.sweep(
            _sweep_spec(), execution=execution, store=store, cache="refresh"
        )
        assert refreshed.cache_hits == 0
        assert refreshed.executed_trials == 2 * 5
        assert refreshed.table().rows == cold.table().rows


class TestAdaptive:
    """Acceptance (c): adaptive == fixed repetitions, CI target met."""

    def test_final_estimates_match_fixed_runs_and_meet_target(self, tmp_path):
        target = 0.2
        artifact = api.sweep(
            SweepSpec.grid(SPEC, p=[0.02, 0.5]),
            execution=ExecutionConfig(seed=9),
            repetitions="auto",
            target_ci=target,
            initial_repetitions=4,
            store=tmp_path / "store",
        )
        assert artifact.target_ci == target
        for point in artifact.points:
            assert point.ci_half_width is not None
            assert point.ci_half_width <= target
            final_reps = point.artifact.execution.repetitions
            solo = api.run(
                SPEC,
                dict(point.params),
                execution=ExecutionConfig(seed=point.seed, repetitions=final_reps),
            )
            assert solo.result.to_json_dict() == point.artifact.result.to_json_dict()
            (row,) = point.artifact.result.rows
            successes = row["success_rate"] * final_reps
            assert wilson_half_width(successes, final_reps) == pytest.approx(
                point.ci_half_width
            )

    def test_easy_points_stop_earlier_than_hard_points(self, tmp_path):
        # p near 0 needs far fewer trials for the same CI width than p=0.5.
        artifact = api.sweep(
            SweepSpec.grid(SPEC, p=[0.02, 0.5]),
            execution=ExecutionConfig(seed=9),
            repetitions="auto",
            target_ci=0.2,
            initial_repetitions=4,
            store=tmp_path / "adaptive",
        )
        by_p = _point_map(artifact)
        easy = by_p[0.02].artifact.execution.repetitions
        hard = by_p[0.5].artifact.execution.repetitions
        assert easy < hard

    def test_budget_cap_stops_with_honest_half_width(self, tmp_path):
        artifact = api.sweep(
            SweepSpec.grid(SPEC, p=[0.5]),
            execution=ExecutionConfig(seed=9),
            repetitions="auto",
            target_ci=0.01,          # needs thousands of trials...
            initial_repetitions=4,
            max_repetitions=16,      # ...but the budget says 16
            store=tmp_path / "store",
        )
        (point,) = artifact.points
        assert point.artifact.execution.repetitions == 16
        assert point.ci_half_width > 0.01  # reported, not hidden

    def test_warm_adaptive_rerun_executes_zero_trials(self, tmp_path):
        kwargs = dict(
            execution=ExecutionConfig(seed=9),
            repetitions="auto",
            target_ci=0.2,
            initial_repetitions=4,
            store=tmp_path / "store",
        )
        cold = api.sweep(SweepSpec.grid(SPEC, p=[0.02, 0.5]), **kwargs)
        before = executed_trial_count()
        warm = api.sweep(SweepSpec.grid(SPEC, p=[0.02, 0.5]), **kwargs)
        assert executed_trial_count() - before == 0
        assert warm.table().rows == cold.table().rows
        assert [pt.adaptive_rounds for pt in warm.points] == [
            pt.adaptive_rounds for pt in cold.points
        ]

    def test_adaptive_conflicts_with_pinned_repetitions(self):
        with pytest.raises(ValueError, match="adaptive"):
            SweepRunner(cache="off").run(
                _sweep_spec(),
                ExecutionConfig(repetitions=5),
                adaptive=AdaptiveConfig(target_ci=0.1),
            )

    def test_adaptive_needs_a_headline_metric(self, tmp_path):
        # fig3 returns series results with no success_rate/repetitions rows.
        with pytest.raises(ValueError, match="headline"):
            api.sweep(
                SweepSpec.grid("fig3.return_curves", fast=[True]),
                execution=ExecutionConfig(seed=1),
                repetitions="auto",
                target_ci=0.2,
                cache="off",
            )

    def test_adaptive_config_validation(self):
        with pytest.raises(ValueError, match="target_ci"):
            AdaptiveConfig(target_ci=0.0)
        with pytest.raises(ValueError, match="initial_repetitions"):
            AdaptiveConfig(target_ci=0.1, initial_repetitions=0)
        with pytest.raises(ValueError, match="growth"):
            AdaptiveConfig(target_ci=0.1, growth=1.0)
        with pytest.raises(ValueError, match="max_repetitions"):
            AdaptiveConfig(target_ci=0.1, initial_repetitions=8, max_repetitions=4)


class TestCheckpointResume:
    def test_resume_skips_recorded_points(self, tmp_path):
        execution = ExecutionConfig(seed=4, repetitions=5)
        ckpt = tmp_path / "sweep.jsonl"
        full = api.sweep(_sweep_spec(), execution=execution, cache="off",
                         checkpoint=str(ckpt))
        # Drop the last point's line, as if the process died mid-sweep.
        lines = ckpt.read_text().splitlines()
        ckpt.write_text("\n".join(lines[:-1]) + "\n")
        before = executed_trial_count()
        resumed = api.sweep(_sweep_spec(), execution=execution, cache="off",
                            checkpoint=str(ckpt), resume=True)
        assert executed_trial_count() - before == 5  # only the missing point
        assert resumed.table().rows == full.table().rows

    def test_truncated_trailing_line_is_ignored(self, tmp_path):
        execution = ExecutionConfig(seed=4, repetitions=5)
        ckpt = tmp_path / "sweep.jsonl"
        api.sweep(_sweep_spec(), execution=execution, cache="off",
                  checkpoint=str(ckpt))
        with open(ckpt, "a") as handle:
            handle.write('{"index": 1, "point": {"ind')  # killed mid-write
        resumed = api.sweep(_sweep_spec(), execution=execution, cache="off",
                            checkpoint=str(ckpt), resume=True)
        assert len(resumed.points) == 2

    def test_mismatched_sweep_rejected(self, tmp_path):
        ckpt = tmp_path / "sweep.jsonl"
        api.sweep(_sweep_spec(), execution=ExecutionConfig(seed=4, repetitions=5),
                  cache="off", checkpoint=str(ckpt))
        with pytest.raises(ValueError, match="different sweep"):
            api.sweep(_sweep_spec(), execution=ExecutionConfig(seed=5, repetitions=5),
                      cache="off", checkpoint=str(ckpt), resume=True)

    def test_resume_requires_checkpoint(self):
        with pytest.raises(ValueError, match="checkpoint"):
            api.sweep(_sweep_spec(), execution=ExecutionConfig(repetitions=2),
                      cache="off", resume=True)

    def test_checkpoint_accepts_pathlib_path(self, tmp_path):
        # Regression: only str used to be coerced to SweepCheckpoint, so the
        # natural Path argument crashed with AttributeError.
        ckpt = tmp_path / "sweep.jsonl"
        artifact = api.sweep(
            _sweep_spec(), execution=ExecutionConfig(seed=4, repetitions=3),
            cache="off", checkpoint=ckpt,
        )
        assert ckpt.exists()
        resumed = api.sweep(
            _sweep_spec(), execution=ExecutionConfig(seed=4, repetitions=3),
            cache="off", checkpoint=ckpt, resume=True,
        )
        assert resumed.table().rows == artifact.table().rows


class TestSweepArtifact:
    def test_tables_and_json_round_trip(self, tmp_path):
        artifact = api.sweep(
            _sweep_spec(), execution=ExecutionConfig(seed=2, repetitions=4),
            store=tmp_path / "store",
        )
        table = artifact.table()
        assert len(table) == 2
        assert table.columns[0] == "point"
        assert set(table.column("p")) == {0.25, 0.75}
        summary = artifact.summary_table()
        assert summary.column("cache_hit") == [False, False]
        path = tmp_path / "sweep.json"
        artifact.to_json(path)
        again = SweepArtifact.from_json(path)
        assert again.to_json_dict() == artifact.to_json_dict()
        assert again.points[0].artifact.result.rows == artifact.points[0].artifact.result.rows

    def test_progress_callback(self, tmp_path):
        calls = []
        api.sweep(
            _sweep_spec(), execution=ExecutionConfig(seed=2, repetitions=4),
            cache="off", progress=lambda done, total: calls.append((done, total)),
        )
        assert calls == [(1, 2), (2, 2)]


class TestApiSweepSignature:
    def test_axes_dict_form(self, tmp_path):
        artifact = api.sweep(
            SPEC, {"p": [0.25, 0.75]}, params={"label": "k"},
            execution=ExecutionConfig(seed=1, repetitions=3), cache="off",
        )
        assert [pt.params["label"] for pt in artifact.points] == ["k", "k"]

    def test_sweepspec_conflicts_with_axes(self):
        with pytest.raises(TypeError, match="not both"):
            api.sweep(_sweep_spec(), {"p": [0.1]})

    def test_missing_axes_rejected(self):
        with pytest.raises(TypeError, match="axes"):
            api.sweep(SPEC)

    def test_int_repetitions_pin_every_point(self, tmp_path):
        artifact = api.sweep(
            SPEC, {"p": [0.25]}, repetitions=3, cache="off",
            execution=ExecutionConfig(seed=1),
        )
        (point,) = artifact.points
        assert point.artifact.execution.repetitions == 3


class TestRealExperimentIntegration:
    def test_fig5_sweep_differential_and_cache(self, tmp_path):
        execution = ExecutionConfig(seed=5, repetitions=2)
        sweep_spec = SweepSpec.grid(
            "fig5.inference", {"fast": True}, episodes_per_trial=[1, 2]
        )
        store = tmp_path / "store"
        cold = api.sweep(sweep_spec, execution=execution, store=store)
        before = executed_trial_count()
        warm = api.sweep(sweep_spec, execution=execution, store=store)
        assert executed_trial_count() - before == 0
        assert warm.cache_hits == 2
        assert warm.table().rows == cold.table().rows
        point = cold.points[0]
        solo = api.run(
            "fig5.inference",
            dict(point.params),
            execution=ExecutionConfig(seed=point.seed, repetitions=2),
        )
        assert solo.result.to_json_dict() == point.artifact.result.to_json_dict()


# --------------------------------------------------------------------------- #
# Point parallelism over the process pool
# --------------------------------------------------------------------------- #
def _p_spec(ps=(0.1, 0.3, 0.5, 0.7, 0.9), experiment=SPEC):
    return SweepSpec(experiment=experiment, axes=(("p", tuple(ps)),))


def _payloads(artifact):
    return [
        (pt.index, pt.seed, pt.digest, pt.artifact.result.to_json_dict())
        for pt in artifact.points
    ]


#: A sweep whose p=0.7 point SIGKILLs its pool worker, once (a marker file
#: guards the kill).  Prints the lost points named by the typed error, then
#: the payloads of the resumed sweep and of an in-process one.
KILLED_SWEEP_SCRIPT = textwrap.dedent("""
    import json, os, signal, sys
    import sweep_testlib
    from repro.api import ExecutionConfig
    from repro.experiments.registry import ParamSpec, register_experiment
    from repro.sweep import SweepExecutionError, SweepRunner, SweepSpec

    marker, checkpoint = sys.argv[1:3]

    @register_experiment(
        "synthetic.killer",
        description="Kills its pool worker once at p=0.7 (test-only)",
        params=(ParamSpec("p", float, 0.5), ParamSpec("label", str, "a")),
    )
    def run_killer(execution, *, p, label):
        if p == 0.7:
            try:
                os.close(os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
            except FileExistsError:
                pass
            else:
                os.kill(os.getpid(), signal.SIGKILL)
        return sweep_testlib.run_bernoulli(execution, p=p, label=label)

    def payloads(artifact):
        return [(pt.index, pt.seed, pt.digest, pt.artifact.result.to_json_dict())
                for pt in artifact.points]

    spec = SweepSpec(experiment="synthetic.killer", axes=(("p", (0.2, 0.4, 0.7, 0.9)),))
    execution = ExecutionConfig(seed=11, repetitions=4)
    try:
        SweepRunner(workers=2, cache="off").run(spec, execution, checkpoint=checkpoint)
        lost = None
    except SweepExecutionError as exc:
        lost = list(exc.point_indices)
    resumed = SweepRunner(workers=2, cache="off").run(
        spec, execution, checkpoint=checkpoint, resume=True)
    serial = SweepRunner(workers=1, cache="off").run(spec, execution)
    print(json.dumps({"lost": lost, "resumed": payloads(resumed),
                      "serial": payloads(serial)}))
""")


class TestPooledSweep:
    """``SweepRunner(workers=N)`` maps points over the process pool."""

    @pytest.mark.parametrize("workers", [2, 4])
    def test_bit_identical_to_serial(self, tmp_path, workers):
        execution = ExecutionConfig(seed=11, repetitions=6)
        serial = SweepRunner(workers=1, store=tmp_path / "serial").run(
            _p_spec(), execution
        )
        before = executed_trial_count()
        pooled = SweepRunner(workers=workers, store=tmp_path / f"pool{workers}").run(
            _p_spec(), execution
        )
        assert _payloads(pooled) == _payloads(serial)
        # No duplicate work, and the workers' trial counts flow back into
        # this process's counter.
        assert pooled.executed_trials == serial.executed_trials
        assert executed_trial_count() - before == serial.executed_trials

    def test_adaptive_bit_identical_to_serial(self):
        adaptive = AdaptiveConfig(target_ci=0.2, initial_repetitions=4)
        execution = ExecutionConfig(seed=5)
        spec = _p_spec(ps=(0.2, 0.8))
        serial = SweepRunner(workers=1, cache="off").run(spec, execution, adaptive=adaptive)
        pooled = SweepRunner(workers=2, cache="off").run(spec, execution, adaptive=adaptive)
        assert _payloads(pooled) == _payloads(serial)
        assert [pt.adaptive_rounds for pt in pooled.points] == [
            pt.adaptive_rounds for pt in serial.points
        ]

    @pytest.mark.parametrize("workers", [1, 4])
    def test_warm_store_executes_zero_trials(self, tmp_path, workers):
        execution = ExecutionConfig(seed=11, repetitions=6)
        store = tmp_path / "store"
        cold = SweepRunner(workers=workers, store=store).run(_p_spec(), execution)
        assert cold.executed_trials > 0

        before = executed_trial_count()
        warm = SweepRunner(workers=workers, store=store).run(_p_spec(), execution)
        assert warm.executed_trials == 0
        assert executed_trial_count() - before == 0
        assert all(pt.cache_hit for pt in warm.points)
        assert _payloads(warm) == _payloads(cold)

    def test_serial_and_pooled_share_a_store(self, tmp_path):
        # Points cached in-process are hits for pooled workers and vice
        # versa — same content keys, same on-disk format.
        execution = ExecutionConfig(seed=3, repetitions=5)
        store = tmp_path / "store"
        SweepRunner(workers=1, store=store).run(_p_spec(ps=(0.2, 0.4)), execution)
        mixed = SweepRunner(workers=2, store=store).run(
            _p_spec(ps=(0.2, 0.4, 0.6)), execution
        )
        assert [pt.cache_hit for pt in mixed.points] == [True, True, False]
        again = SweepRunner(workers=1, store=store).run(
            _p_spec(ps=(0.2, 0.4, 0.6)), execution
        )
        assert again.cache_hits == 3

    @pytest.mark.parametrize("workers", [1, 2])
    def test_deterministic_error_reaches_the_caller(self, workers):
        spec = _p_spec(ps=(0.3, 0.7), experiment=FAILING_SPEC)
        runner = SweepRunner(workers=workers, cache="off")
        with pytest.raises(ValueError, match="synthetic failure at p=0.7"):
            runner.run(spec, ExecutionConfig(seed=1, repetitions=2))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_checkpoint_resume_skips_completed_points(self, tmp_path, workers):
        execution = ExecutionConfig(seed=7, repetitions=4)
        path = tmp_path / "sweep.jsonl"
        spec = _p_spec(ps=(0.2, 0.8))
        first = SweepRunner(workers=workers, cache="off").run(
            spec, execution, checkpoint=SweepCheckpoint(path)
        )
        before = executed_trial_count()
        resumed = SweepRunner(workers=workers, cache="off").run(
            spec, execution, checkpoint=SweepCheckpoint(path), resume=True
        )
        assert executed_trial_count() - before == 0  # everything restored
        assert _payloads(resumed) == _payloads(first)

    def test_env_var_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_SWEEP_WORKERS", raising=False)
        assert default_sweep_workers() == 1
        assert SweepRunner(cache="off").workers == 1
        monkeypatch.setenv("REPRO_SWEEP_WORKERS", "3")
        assert default_sweep_workers() == 3
        assert SweepRunner(cache="off").workers == 3
        monkeypatch.setenv("REPRO_SWEEP_WORKERS", "auto")
        assert default_sweep_workers() == os.cpu_count()

    def test_invalid_workers_rejected(self):
        for bad in (0, -1, "zero"):
            with pytest.raises(ValueError, match="sweep_workers"):
                SweepRunner(workers=bad)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_progress_reaches_total(self, workers):
        calls = []
        SweepRunner(
            workers=workers, cache="off", progress=lambda d, t: calls.append((d, t))
        ).run(_p_spec(ps=(0.2, 0.8)), ExecutionConfig(seed=1, repetitions=3))
        assert calls == [(1, 2), (2, 2)]

    def test_api_sweep_workers_matches_serial(self):
        execution = ExecutionConfig(seed=9, repetitions=5)
        serial = api.sweep(SPEC, {"p": [0.25, 0.75]}, execution=execution,
                           cache="off")
        pooled = api.sweep(SPEC, {"p": [0.25, 0.75]}, execution=execution,
                           cache="off", sweep_workers=2)
        assert _payloads(pooled) == _payloads(serial)

    def test_one_pair_per_trial(self):
        # The events each worker collects for its point reach this
        # process's bus: one trial pair per executed trial.
        events = []
        with default_bus().subscribed(events.append):
            artifact = SweepRunner(workers=4, cache="off").run(
                _p_spec(ps=(0.1, 0.4, 0.6, 0.9)), ExecutionConfig(seed=11, repetitions=6)
            )
        started = [e for e in events if isinstance(e, TrialStarted)]
        finished = [e for e in events if isinstance(e, TrialFinished)]
        assert len(started) == len(finished) == artifact.executed_trials == 24
        # Pairs match per (campaign, trial) identity, not just in bulk.
        assert sorted((e.campaign, e.trial) for e in started) == sorted(
            (e.campaign, e.trial) for e in finished
        )

    def test_killed_worker_names_lost_points_and_resume_completes(
        self, tmp_path, run_script
    ):
        report = run_script(KILLED_SWEEP_SCRIPT, tmp_path / "marker", tmp_path / "sweep.jsonl")
        assert report["lost"] is not None and 2 in report["lost"]  # p=0.7
        assert report["resumed"] == report["serial"]

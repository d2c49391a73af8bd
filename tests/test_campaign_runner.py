"""Tests for the campaign execution engine and checkpoint/resume."""

import textwrap

import numpy as np
import pytest

from repro.api import ExecutionConfig
from repro.core import (
    Campaign,
    CampaignResult,
    CampaignRunner,
    TrialExecutionError,
    TrialOutcome,
    supports_batching,
)
from repro.core.runner import (
    default_batch_size,
    default_workers,
    parse_batch_size,
    parse_worker_count,
)
from repro.experiments.common import campaign_checkpoint_path, run_campaign
from repro.io.results import CampaignCheckpoint


def stochastic_trial(rng: np.random.Generator) -> TrialOutcome:
    """A trial whose entire outcome is derived from its per-trial RNG."""
    return TrialOutcome(
        success=bool(rng.random() < 0.5),
        metric=float(rng.normal()),
        extras={"steps": float(rng.integers(1, 100))},
    )


def outcome_tuples(result: CampaignResult):
    return [(o.success, o.metric, tuple(sorted(o.extras.items()))) for o in result.outcomes]


class TestParallelDeterminism:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_parallel_matches_serial_bit_identically(self, workers):
        campaign = Campaign("parity", repetitions=24, seed=1234)
        serial = campaign.run(stochastic_trial, runner=CampaignRunner(batch_size=1, workers=1))
        parallel = campaign.run(
            stochastic_trial, runner=CampaignRunner(batch_size=1, workers=workers)
        )
        assert outcome_tuples(parallel) == outcome_tuples(serial)
        assert parallel.summary() == serial.summary()

    def test_closure_trials_work_in_workers(self):
        offset = 10.0
        campaign = Campaign("closure", repetitions=6, seed=2)
        result = campaign.run(
            lambda rng: TrialOutcome(metric=offset + float(rng.random())),
            runner=CampaignRunner(batch_size=1, workers=2),
        )
        assert result.repetitions == 6
        assert all(o.metric >= offset for o in result.outcomes)


class BatchableTrial:
    """A trial with a vectorized path, instrumented to prove it was used."""

    def __init__(self):
        self.batch_sizes = []
        self.scalar_calls = 0

    def __call__(self, rng):
        self.scalar_calls += 1
        return stochastic_trial(rng)

    def run_batch(self, rngs):
        self.batch_sizes.append(len(rngs))
        return [stochastic_trial(rng) for rng in rngs]


class TestBatchedDeterminism:
    """Seeded-RNG regression: batched engines pin to serial goldens."""

    @pytest.mark.parametrize("batch_size", [1, 3, 8])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_batched_matches_serial_goldens(self, batch_size, workers):
        campaign = Campaign("batch-parity", repetitions=19, seed=321)
        serial = campaign.run(stochastic_trial, runner=CampaignRunner(batch_size=1, workers=1))
        batched = campaign.run(
            stochastic_trial,
            runner=CampaignRunner(batch_size=batch_size, workers=workers),
        )
        assert outcome_tuples(batched) == outcome_tuples(serial)
        assert batched.summary() == serial.summary()

    @pytest.mark.parametrize("batch_size", [1, 3, 8])
    def test_batchable_trial_matches_serial_goldens(self, batch_size):
        campaign = Campaign("batch-vec", repetitions=10, seed=55)
        serial = campaign.run(BatchableTrial(), runner=CampaignRunner(batch_size=1, workers=1))
        trial = BatchableTrial()
        batched = campaign.run(trial, runner=CampaignRunner(batch_size=batch_size, workers=1))
        assert outcome_tuples(batched) == outcome_tuples(serial)
        if batch_size == 1:
            # batch_size=1 is the serial engine: every trial runs scalar.
            assert trial.scalar_calls == 10 and not trial.batch_sizes
            return
        # The vectorized path really ran: full batches plus a ragged tail.
        assert trial.scalar_calls == 0
        assert sum(trial.batch_sizes) == 10
        assert max(trial.batch_sizes) <= batch_size

    def test_ragged_final_batch_sizes(self):
        trial = BatchableTrial()
        Campaign("ragged", repetitions=10, seed=1).run(
            trial, runner=CampaignRunner(batch_size=4, workers=1)
        )
        assert trial.batch_sizes == [4, 4, 2]

    def test_checkpoint_resume_under_batched_runner(self, tmp_path):
        path = tmp_path / "batched.jsonl"
        campaign = Campaign("batch-resume", repetitions=11, seed=13)
        first = campaign.run(stochastic_trial, checkpoint=path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:6]) + "\n")  # keep 5 of 11 outcomes
        resumed = campaign.run(
            BatchableTrial(),
            runner=CampaignRunner(batch_size=3, workers=2),
            checkpoint=path,
            resume=True,
        )
        assert outcome_tuples(resumed) == outcome_tuples(first)

    def test_run_batch_wrong_length_rejected(self):
        class Broken(BatchableTrial):
            def run_batch(self, rngs):
                return super().run_batch(rngs)[:-1]

        with pytest.raises((ValueError, TrialExecutionError)):
            Campaign("short", repetitions=4, seed=0).run(
                Broken(), runner=CampaignRunner(batch_size=4, workers=1)
            )

    def test_scalar_fallback_errors_name_the_exact_trial(self):
        # A non-batchable trial failing inside a remote batch must report the
        # failing trial's index, not the batch's first index.  The victim is
        # identified by its (deterministic) first RNG draw and deliberately
        # chosen not to be the first trial of its batch.
        campaign = Campaign("exact-index", repetitions=8, seed=0)
        draws = [np.random.default_rng(seed).random() for seed in campaign.trial_seeds()]
        victim = 6
        assert victim % 4 != 0  # not a batch head under batch_size=4

        def explodes_on_victim(rng):
            value = rng.random()
            if value == draws[victim]:
                raise ValueError("victim trial failed")
            return TrialOutcome(metric=value)

        with pytest.raises(TrialExecutionError, match="victim trial failed") as excinfo:
            campaign.run(
                explodes_on_victim, runner=CampaignRunner(batch_size=4, workers=2)
            )
        assert excinfo.value.trial_index == victim

    def test_batch_errors_surface_from_workers(self):
        class Exploding(BatchableTrial):
            def run_batch(self, rngs):
                raise RuntimeError("vectorized failure")

        with pytest.raises(TrialExecutionError, match="vectorized failure") as excinfo:
            Campaign("boom", repetitions=6, seed=0).run(
                Exploding(), runner=CampaignRunner(batch_size=3, workers=2)
            )
        assert "RuntimeError" in excinfo.value.worker_traceback

    def test_supports_batching_detection(self):
        assert supports_batching(BatchableTrial())
        assert not supports_batching(stochastic_trial)


class TestCrashSurfacing:
    def test_worker_crash_raises_trial_execution_error(self):
        def exploding(rng):
            raise ValueError("simulated trial failure")

        campaign = Campaign("crash", repetitions=4, seed=0)
        with pytest.raises(TrialExecutionError) as excinfo:
            campaign.run(exploding, runner=CampaignRunner(batch_size=1, workers=2))
        assert "simulated trial failure" in str(excinfo.value)
        assert 0 <= excinfo.value.trial_index < 4
        assert "ValueError" in excinfo.value.worker_traceback

    def test_bad_return_type_surfaces_from_workers(self):
        campaign = Campaign("badtype", repetitions=2, seed=0)
        with pytest.raises(TrialExecutionError, match="TrialOutcome"):
            campaign.run(lambda rng: 42, runner=CampaignRunner(batch_size=1, workers=2))

    def test_serial_exceptions_propagate_unwrapped(self):
        def exploding(rng):
            raise ValueError("serial failure")

        with pytest.raises(ValueError, match="serial failure"):
            Campaign("crash", 3).run(exploding, runner=CampaignRunner(batch_size=1, workers=1))


#: A campaign whose victim trial SIGKILLs its own pool worker, once (a
#: marker file guards the kill).  Prints the lost trial indices named by the
#: TrialExecutionError and by the ``worker.lost`` events.
KILLED_WORKER_SCRIPT = textwrap.dedent("""
    import json, os, signal, sys
    import numpy as np
    from repro.core import Campaign, CampaignRunner, TrialExecutionError, TrialOutcome
    from repro.telemetry import default_bus

    marker, checkpoint, batch_size, victim = sys.argv[1:5]
    campaign = Campaign("killed", repetitions=8, seed=0)
    victim_draw = np.random.default_rng(campaign.trial_seeds()[int(victim)]).random()

    def trial(rng):
        value = rng.random()
        if value == victim_draw:
            try:
                os.close(os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
            except FileExistsError:
                pass
            else:
                os.kill(os.getpid(), signal.SIGKILL)
        return TrialOutcome(metric=value)

    events = []
    default_bus().subscribe(events.append)
    runner = CampaignRunner(batch_size=int(batch_size), workers=2)
    try:
        campaign.run(trial, runner=runner, checkpoint=checkpoint)
        lost = None
    except TrialExecutionError as exc:
        lost = list(exc.trial_indices)
    print(json.dumps({
        "lost": lost,
        "events": [e.lost for e in events if e.kind == "worker.lost"],
    }))
""")


class TestDeadWorker:
    """A SIGKILLed pool worker ends the campaign with a typed error, never a hang."""

    @pytest.mark.parametrize(
        "batch_size", [pytest.param(1, id="workers2"), pytest.param(2, id="batch2-workers2")]
    )
    def test_killed_worker_names_the_lost_trials(self, tmp_path, run_script, batch_size):
        victim = 5
        checkpoint = tmp_path / "killed.jsonl"
        report = run_script(
            KILLED_WORKER_SCRIPT, tmp_path / "marker", checkpoint, batch_size, victim
        )
        lost = report["lost"]
        assert lost is not None and victim in lost
        assert report["events"] == [lost]
        # Every trial either completed into the checkpoint or is named lost,
        # so resuming finishes the campaign with the uninterrupted numbers.
        campaign = Campaign("killed", repetitions=8, seed=0)
        finished = CampaignCheckpoint(checkpoint).load(campaign)
        assert sorted(list(finished) + lost) == list(range(8))

        def trial(rng):
            return TrialOutcome(metric=rng.random())

        resumed = campaign.run(trial, checkpoint=checkpoint, resume=True)
        assert resumed.executed_trials == len(lost)
        uninterrupted = campaign.run(trial, runner=CampaignRunner(batch_size=1, workers=1))
        assert outcome_tuples(resumed) == outcome_tuples(uninterrupted)


class TestCheckpointResume:
    def test_resume_after_interrupt_matches_uninterrupted(self, tmp_path):
        path = tmp_path / "campaign.jsonl"
        campaign = Campaign("resume", repetitions=10, seed=42)

        calls = {"n": 0}

        def dies_after_four(rng):
            if calls["n"] >= 4:
                raise RuntimeError("simulated kill")
            calls["n"] += 1
            return stochastic_trial(rng)

        with pytest.raises(RuntimeError):
            campaign.run(dies_after_four, checkpoint=path)

        # The four completed trials survived the crash on disk.
        partial = CampaignCheckpoint(path).load(campaign)
        assert sorted(partial) == [0, 1, 2, 3]

        resumed = campaign.run(stochastic_trial, checkpoint=path, resume=True)
        uninterrupted = Campaign("resume", repetitions=10, seed=42).run(stochastic_trial)
        assert outcome_tuples(resumed) == outcome_tuples(uninterrupted)
        assert resumed.summary() == uninterrupted.summary()

    def test_resume_with_parallel_runner(self, tmp_path):
        path = tmp_path / "campaign.jsonl"
        campaign = Campaign("resume-par", repetitions=12, seed=5)
        first = campaign.run(stochastic_trial, checkpoint=path)

        # Drop half the lines to simulate an interrupted parallel run.
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:7]) + "\n")

        resumed = campaign.run(
            stochastic_trial,
            runner=CampaignRunner(batch_size=1, workers=2),
            checkpoint=path,
            resume=True,
        )
        assert outcome_tuples(resumed) == outcome_tuples(first)

    def test_fully_checkpointed_campaign_runs_no_trials(self, tmp_path):
        path = tmp_path / "done.jsonl"
        campaign = Campaign("done", repetitions=5, seed=3)
        first = campaign.run(stochastic_trial, checkpoint=path)

        def must_not_run(rng):
            raise AssertionError("no trial should execute on a complete checkpoint")

        resumed = campaign.run(must_not_run, checkpoint=path, resume=True)
        assert outcome_tuples(resumed) == outcome_tuples(first)

    def test_without_resume_checkpoint_is_overwritten(self, tmp_path):
        path = tmp_path / "fresh.jsonl"
        campaign = Campaign("fresh", repetitions=3, seed=9)
        campaign.run(stochastic_trial, checkpoint=path)
        campaign.run(stochastic_trial, checkpoint=path)  # resume=False
        # Header + exactly one line per trial (no accumulation across runs).
        assert len(path.read_text().splitlines()) == 4

    def test_mismatched_checkpoint_rejected(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        Campaign("original", repetitions=4, seed=1).run(stochastic_trial, checkpoint=path)
        for other in (
            Campaign("different-name", 4, seed=1),
            Campaign("original", 5, seed=1),
            Campaign("original", 4, seed=2),
        ):
            with pytest.raises(ValueError, match="different campaign"):
                other.run(stochastic_trial, checkpoint=path, resume=True)

    def test_truncated_trailing_line_is_ignored(self, tmp_path):
        path = tmp_path / "torn.jsonl"
        campaign = Campaign("torn", repetitions=6, seed=8)
        campaign.run(stochastic_trial, checkpoint=path)
        path.write_text(path.read_text()[:-20])  # tear the final write
        resumed = campaign.run(stochastic_trial, checkpoint=path, resume=True)
        reference = Campaign("torn", repetitions=6, seed=8).run(stochastic_trial)
        assert outcome_tuples(resumed) == outcome_tuples(reference)

    def test_resume_without_checkpoint_rejected(self):
        with pytest.raises(ValueError, match="requires a checkpoint"):
            Campaign("nock", 2).run(stochastic_trial, resume=True)

    def test_outcome_json_round_trip(self):
        outcome = TrialOutcome(success=False, metric=1.5, extras={"steps": 3.0})
        assert TrialOutcome.from_json_dict(outcome.to_json_dict()) == outcome
        empty = TrialOutcome()
        assert TrialOutcome.from_json_dict(empty.to_json_dict()) == empty


class TestProgressReporting:
    def test_progress_counts_every_trial(self):
        seen = []
        Campaign("prog", repetitions=5, seed=0).run(
            stochastic_trial, progress=lambda done, total: seen.append((done, total))
        )
        assert seen == [(i, 5) for i in range(1, 6)]

    def test_progress_includes_checkpointed_trials(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        campaign = Campaign("prog2", repetitions=6, seed=1)
        campaign.run(stochastic_trial, checkpoint=path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:3]) + "\n")  # keep 2 of 6 outcomes

        seen = []
        campaign.run(
            stochastic_trial,
            checkpoint=path,
            resume=True,
            progress=lambda done, total: seen.append((done, total)),
        )
        assert seen[0] == (2, 6)
        assert seen[-1] == (6, 6)


class TestRunnerResolution:
    def test_campaign_runner_defaults_to_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_CAMPAIGN_WORKERS", raising=False)
        monkeypatch.delenv("REPRO_CAMPAIGN_BATCH", raising=False)
        runner = CampaignRunner()
        assert (runner.batch_size, runner.workers) == (1, 1)
        assert runner.engine_name == "serial"
        assert CampaignRunner(workers=1).engine_name == "serial"
        assert CampaignRunner(workers=3).engine_name == "parallel"

    def test_workers_env_var(self, monkeypatch):
        monkeypatch.setenv("REPRO_CAMPAIGN_WORKERS", "4")
        assert default_workers() == 4
        runner = CampaignRunner()
        assert runner.engine_name == "parallel" and runner.workers == 4
        monkeypatch.setenv("REPRO_CAMPAIGN_WORKERS", "auto")
        assert default_workers() >= 1
        monkeypatch.setenv("REPRO_CAMPAIGN_WORKERS", "bogus")
        with pytest.raises(ValueError):
            default_workers()
        monkeypatch.setenv("REPRO_CAMPAIGN_WORKERS", "0")
        with pytest.raises(ValueError):
            default_workers()

    def test_parse_worker_count(self):
        assert parse_worker_count(3) == 3
        assert parse_worker_count("5") == 5
        assert parse_worker_count("auto") >= 1
        for bad in ("x", "0", 0, -2):
            with pytest.raises(ValueError):
                parse_worker_count(bad)

    def test_invalid_worker_counts_rejected(self):
        with pytest.raises(ValueError):
            CampaignRunner(workers=0)
        with pytest.raises(ValueError):
            CampaignRunner(workers=-1)

    def test_campaign_runner_batch_size(self, monkeypatch):
        monkeypatch.delenv("REPRO_CAMPAIGN_WORKERS", raising=False)
        assert CampaignRunner(batch_size=1, workers=1).engine_name == "serial"
        runner = CampaignRunner(batch_size=8)
        assert runner.engine_name == "batched" and runner.batch_size == 8
        combined = CampaignRunner(batch_size=8, workers=4)
        assert combined.engine_name == "batched"
        assert combined.batch_size == 8 and combined.workers == 4
        with pytest.raises(ValueError):
            CampaignRunner(batch_size=0, workers=1)

    def test_batch_env_var(self, monkeypatch):
        monkeypatch.setenv("REPRO_CAMPAIGN_BATCH", "6")
        assert default_batch_size() == 6
        runner = CampaignRunner()
        assert runner.engine_name == "batched" and runner.batch_size == 6
        monkeypatch.setenv("REPRO_CAMPAIGN_BATCH", "bogus")
        with pytest.raises(ValueError):
            default_batch_size()
        monkeypatch.setenv("REPRO_CAMPAIGN_BATCH", "0")
        with pytest.raises(ValueError):
            default_batch_size()
        monkeypatch.delenv("REPRO_CAMPAIGN_BATCH")
        assert default_batch_size() == 1

    def test_parse_batch_size(self):
        assert parse_batch_size(4) == 4
        assert parse_batch_size("12") == 12
        for bad in ("x", "0", 0, -3):
            with pytest.raises(ValueError):
                parse_batch_size(bad)

    def test_invalid_batched_runner_rejected(self):
        with pytest.raises(ValueError):
            CampaignRunner(batch_size=0, workers=1)
        with pytest.raises(ValueError):
            CampaignRunner(batch_size=2, workers=0)

    def test_batch_env_var_drives_campaign_run(self, monkeypatch):
        campaign = Campaign("envbatch", repetitions=9, seed=17)
        monkeypatch.delenv("REPRO_CAMPAIGN_BATCH", raising=False)
        serial = campaign.run(stochastic_trial)
        monkeypatch.setenv("REPRO_CAMPAIGN_BATCH", "4")
        batched = campaign.run(stochastic_trial)
        assert outcome_tuples(batched) == outcome_tuples(serial)

    def test_env_var_drives_campaign_run(self, monkeypatch):
        campaign = Campaign("envpar", repetitions=8, seed=6)
        monkeypatch.delenv("REPRO_CAMPAIGN_WORKERS", raising=False)
        serial = campaign.run(stochastic_trial)
        monkeypatch.setenv("REPRO_CAMPAIGN_WORKERS", "2")
        parallel = campaign.run(stochastic_trial)
        assert outcome_tuples(parallel) == outcome_tuples(serial)


class TestRunCampaignHelper:
    def test_checkpoint_dir_and_resume(self, tmp_path):
        campaign = Campaign("fig0-demo-ber0.5", repetitions=4, seed=0)
        execution = ExecutionConfig(checkpoint_dir=tmp_path)
        first = run_campaign(campaign, stochastic_trial, execution=execution)
        assert campaign_checkpoint_path(campaign.name, tmp_path).exists()
        resumed = run_campaign(
            campaign, stochastic_trial, execution=execution.replace(resume=True, workers=2)
        )
        assert outcome_tuples(resumed) == outcome_tuples(first)

    def test_checkpoint_name_sanitized(self, tmp_path):
        path = campaign_checkpoint_path("fig7e-Q(1,4,11)-ber0.01", tmp_path)
        assert path.name == "fig7e-Q_1_4_11_-ber0.01.jsonl"


class TestGradedOutcomeConsistency:
    """Regression: num_successes must grade the same subset as success_rate."""

    def test_mixed_none_true_false(self):
        result = CampaignResult(
            name="mixed",
            outcomes=[
                TrialOutcome(success=None, metric=1.0),
                TrialOutcome(success=True),
                TrialOutcome(success=False),
                TrialOutcome(success=True),
                TrialOutcome(success=None, metric=0.5),
            ],
        )
        assert result.repetitions == 5
        assert result.num_graded == 3
        assert result.num_successes == 2
        assert result.success_rate == pytest.approx(2 / 3)
        assert result.num_successes == result.success_rate * result.num_graded
        low, high = result.success_confidence()
        assert 0.0 <= low <= result.success_rate <= high <= 1.0

    def test_all_ungraded_raises(self):
        result = CampaignResult(
            name="ungraded", outcomes=[TrialOutcome(metric=1.0)] * 3
        )
        assert result.num_successes == 0
        assert result.num_graded == 0
        with pytest.raises(ValueError):
            _ = result.success_rate
        assert "success_rate" not in result.summary()

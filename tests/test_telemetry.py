"""Tests for the telemetry subsystem (events, bus, sinks, metrics, CLI).

The load-bearing guarantees:

(a) exactly one ``TrialStarted``/``TrialFinished`` pair per *executed*
    trial on every engine — serial, parallel and batched campaigns, and
    pooled sweeps (the last in ``tests/test_sweep.py``);
(b) tracing never changes the numbers: a traced run is bit-identical to
    an untraced run of the same campaign/sweep;
(c) traces round-trip through JSONL and fold into a
    :class:`TelemetryReport` whose accounting matches the artifacts' own
    counters, including the events pool workers send back.
"""

import io
import json

import pytest

import sweep_testlib
from repro import api
from repro.api.execution import ExecutionConfig
from repro.core import Campaign, CampaignRunner, TrialOutcome
from repro.store import ArtifactStore, artifact_key
from repro.sweep import SweepRunner, SweepSpec
from repro.telemetry import (
    EVENT_KINDS,
    CampaignFinished,
    CampaignStarted,
    EventBus,
    Metrics,
    ProgressReporter,
    SweepPointFinished,
    TelemetryReport,
    TraceSink,
    TrialFinished,
    TrialStarted,
    default_bus,
    event_from_json_dict,
    read_trace,
    reset_default_bus,
    trace_to,
)
from repro.telemetry.bus import campaign_scope, current_campaign

SPEC = sweep_testlib.SPEC_NAME


@pytest.fixture(autouse=True)
def _clean_bus():
    """Every test starts and ends with a subscriber-free default bus."""
    reset_default_bus()
    yield
    reset_default_bus()


def collect(bus=None):
    """Subscribe a plain list-appending collector; returns the list."""
    events = []
    (bus or default_bus()).subscribe(events.append)
    return events


def trial_fn(rng) -> TrialOutcome:
    return TrialOutcome(success=bool(rng.random() < 0.5), metric=float(rng.normal()))


def serial() -> CampaignRunner:
    return CampaignRunner(batch_size=1, workers=1)


# --------------------------------------------------------------------------- #
# Event model
# --------------------------------------------------------------------------- #
class TestEvents:
    def test_every_kind_round_trips_through_json(self):
        for kind, cls in EVENT_KINDS.items():
            event = cls()
            data = json.loads(json.dumps(event.to_json_dict()))
            assert data["kind"] == kind
            back = event_from_json_dict(data)
            assert back == event

    def test_payload_fields_survive(self):
        event = TrialFinished(
            campaign="c", trial=3, engine="batched", wall_time_s=0.25,
            batched=True, success=True, metric=1.5,
        )
        back = event_from_json_dict(event.to_json_dict())
        assert back == event

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown telemetry event kind"):
            event_from_json_dict({"kind": "no.such.event"})

    def test_unknown_fields_ignored(self):
        data = TrialStarted(trial=1).to_json_dict()
        data["from_the_future"] = 42
        assert event_from_json_dict(data) == event_from_json_dict(
            {k: v for k, v in data.items() if k != "from_the_future"}
        )

    def test_registry_covers_every_family(self):
        families = {kind.split(".")[0] for kind in EVENT_KINDS}
        assert families == {"campaign", "trial", "sweep", "store", "worker"}


# --------------------------------------------------------------------------- #
# Event bus
# --------------------------------------------------------------------------- #
class TestBus:
    def test_inactive_by_default_and_after_unsubscribe(self):
        bus = EventBus()
        assert not bus.active
        handler = bus.subscribe(lambda e: None)
        assert bus.active
        bus.unsubscribe(handler)
        assert not bus.active

    def test_emit_fans_out_in_subscription_order(self):
        bus = EventBus()
        seen = []
        bus.subscribe(lambda e: seen.append(("a", e)))
        bus.subscribe(lambda e: seen.append(("b", e)))
        event = TrialStarted(trial=7)
        bus.emit(event)
        assert seen == [("a", event), ("b", event)]

    def test_subscribed_context_manager(self):
        bus = EventBus()
        with bus.subscribed(lambda e: None):
            assert bus.active
        assert not bus.active

    def test_reset_default_bus_discards_subscribers(self):
        default_bus().subscribe(lambda e: None)
        fresh = reset_default_bus()
        assert fresh is default_bus()
        assert not fresh.active

    def test_campaign_scope_nests(self):
        assert current_campaign() == ""
        with campaign_scope("outer"):
            assert current_campaign() == "outer"
            with campaign_scope("inner"):
                assert current_campaign() == "inner"
            assert current_campaign() == "outer"
        assert current_campaign() == ""


# --------------------------------------------------------------------------- #
# Trial-pair completeness across every engine
# --------------------------------------------------------------------------- #
ENGINES = [
    pytest.param(lambda: CampaignRunner(batch_size=1, workers=1), "serial", id="serial"),
    pytest.param(lambda: CampaignRunner(batch_size=1, workers=2), "parallel", id="parallel-2"),
    pytest.param(lambda: CampaignRunner(batch_size=4, workers=1), "batched", id="batched-4"),
]


class TestTrialPairs:
    @pytest.mark.parametrize("new_runner, engine", ENGINES)
    def test_one_pair_per_trial(self, new_runner, engine):
        events = collect()
        reps = 10
        Campaign("pairs", repetitions=reps, seed=3).run(
            trial_fn, runner=new_runner()
        )
        started = [e for e in events if isinstance(e, TrialStarted)]
        finished = [e for e in events if isinstance(e, TrialFinished)]
        assert sorted(e.trial for e in started) == list(range(reps))
        assert sorted(e.trial for e in finished) == list(range(reps))
        assert all(e.engine == engine for e in started + finished)
        assert all(e.campaign == "pairs" for e in started + finished)
        assert all(e.wall_time_s >= 0.0 for e in finished)
        assert all(e.batched == (engine == "batched") for e in finished)
        # Campaign bracket: exactly one started/finished around the trials.
        campaigns = [e for e in events if isinstance(e, (CampaignStarted, CampaignFinished))]
        assert [type(e) for e in campaigns] == [CampaignStarted, CampaignFinished]
        assert campaigns[1].executed_trials == reps

    def test_restored_trials_emit_no_pairs(self, tmp_path):
        campaign = Campaign("restore", repetitions=8, seed=2)
        checkpoint = tmp_path / "c.jsonl"
        campaign.run(trial_fn, runner=serial(), checkpoint=checkpoint, resume=True)
        events = collect()
        campaign.run(trial_fn, runner=serial(), checkpoint=checkpoint, resume=True)
        assert not [e for e in events if isinstance(e, (TrialStarted, TrialFinished))]
        campaigns = [e for e in events if isinstance(e, CampaignStarted)]
        assert campaigns and campaigns[0].restored == 8

    @pytest.mark.parametrize("new_runner, engine", ENGINES)
    def test_traced_run_bit_identical_to_untraced(self, new_runner, engine):
        campaign = Campaign("identity", repetitions=12, seed=9)
        untraced = campaign.run(trial_fn, runner=new_runner())
        events = collect()
        traced = campaign.run(trial_fn, runner=new_runner())
        assert [
            (o.success, o.metric, tuple(sorted(o.extras.items())))
            for o in traced.outcomes
        ] == [
            (o.success, o.metric, tuple(sorted(o.extras.items())))
            for o in untraced.outcomes
        ]
        assert events, "tracing was on but no events were seen"


# --------------------------------------------------------------------------- #
# Sink and trace files
# --------------------------------------------------------------------------- #
class TestTraceFiles:
    def test_sink_writes_jsonl_and_read_trace_round_trips(self, tmp_path):
        path = tmp_path / "t.jsonl"
        emitted = [TrialStarted(trial=i, campaign="c") for i in range(5)]
        with TraceSink(path) as sink:
            for event in emitted:
                sink(event)
        assert sink.events_written == 5
        assert read_trace(path) == emitted

    def test_trace_to_attaches_to_default_bus(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with trace_to(path):
            Campaign("traced", repetitions=4, seed=1).run(
                trial_fn, runner=serial()
            )
        assert not default_bus().active
        events = read_trace(path)
        kinds = [e.kind for e in events]
        assert kinds.count("trial.started") == kinds.count("trial.finished") == 4

    def test_read_trace_lenient_vs_strict(self, tmp_path):
        path = tmp_path / "t.jsonl"
        good = TrialStarted(trial=1).to_json_dict()
        path.write_text(json.dumps(good) + "\nnot json\n")
        assert len(read_trace(path)) == 1
        with pytest.raises(ValueError, match="invalid trace line"):
            read_trace(path, strict=True)


# --------------------------------------------------------------------------- #
# Metrics / report accounting
# --------------------------------------------------------------------------- #
class TestReport:
    def test_report_accounts_for_every_point_and_trial(self, tmp_path):
        """Acceptance shape: traced 4-worker pooled sweep, warm+cold."""
        trace = tmp_path / "sweep.jsonl"
        store = ArtifactStore(tmp_path / "store")
        execution = ExecutionConfig(seed=7, repetitions=5)
        spec = SweepSpec(experiment=SPEC, axes=(("p", (0.2, 0.5, 0.8)),))

        with trace_to(trace):
            cold = SweepRunner(workers=4, store=store).run(
                spec, execution
            )
        report = TelemetryReport.from_trace(trace)
        assert report.trial_pairs_balanced
        assert report.executed_trials == cold.executed_trials == 15
        assert report.sweep_points == len(cold.points) == 3
        assert report.cache_hits == cold.cache_hits == 0
        # Store traffic happens inside the forked workers (the parent
        # instance's own counters stay untouched) but still reaches the
        # trace: one put per point, probed-and-missed at least once.
        assert report.metrics.counters.get("store.puts") == 3
        assert report.store_misses >= 3
        assert store.hits == store.misses == store.puts == 0

        warm_trace = tmp_path / "warm.jsonl"
        with trace_to(warm_trace):
            warm = SweepRunner(workers=4, store=store).run(
                spec, execution
            )
        warm_report = TelemetryReport.from_trace(warm_trace)
        assert warm_report.executed_trials == warm.executed_trials == 0
        assert warm_report.cache_hits == warm.cache_hits == 3
        assert warm_report.store_hits == 3

    def test_serial_sweep_report_matches_store_instance_counters(self, tmp_path):
        trace = tmp_path / "sweep.jsonl"
        store = ArtifactStore(tmp_path / "store")
        execution = ExecutionConfig(seed=7, repetitions=5)
        spec = SweepSpec(experiment=SPEC, axes=(("p", (0.2, 0.8)),))
        with trace_to(trace):
            cold = SweepRunner(store=store).run(spec, execution)
        report = TelemetryReport.from_trace(trace)
        assert report.executed_trials == cold.executed_trials == 10
        assert report.store_misses == store.misses
        assert report.metrics.counters.get("store.puts") == store.puts == 2
        with trace_to(tmp_path / "warm.jsonl"):
            SweepRunner(store=store).run(spec, execution)
        warm_report = TelemetryReport.from_trace(tmp_path / "warm.jsonl")
        assert warm_report.store_hits == store.hits == 2
        assert warm_report.executed_trials == 0

    def test_metrics_timers_and_render(self):
        events = collect()
        Campaign("timed", repetitions=6, seed=4).run(trial_fn, runner=serial())
        metrics = Metrics()
        for event in events:
            metrics.observe(event)
        summary = metrics.summary_dict()
        assert summary["counters"]["trials.finished"] == 6
        assert summary["timers"]["trial"]["count"] == 6
        assert summary["timers"]["campaign"]["count"] == 1
        report = TelemetryReport(metrics=metrics, source="inline")
        rendered = report.render()
        assert "trial" in rendered and "campaign" in rendered

    def test_report_survives_json_round_trip_of_trace(self, tmp_path):
        trace = tmp_path / "t.jsonl"
        with trace_to(trace):
            Campaign("rt", repetitions=3, seed=1).run(trial_fn, runner=serial())
        events = read_trace(trace)
        assert TelemetryReport.from_events(events).executed_trials == 3


# --------------------------------------------------------------------------- #
# api.run / api.sweep telemetry provenance
# --------------------------------------------------------------------------- #
class TestArtifactTelemetry:
    def test_untraced_artifact_has_no_telemetry_block(self):
        artifact = api.run(SPEC, execution=ExecutionConfig(seed=1, repetitions=4))
        assert artifact.telemetry is None
        assert "telemetry" not in artifact.to_json_dict()

    def test_traced_artifact_carries_summary_and_round_trips(self, tmp_path):
        with trace_to(tmp_path / "t.jsonl"):
            artifact = api.run(SPEC, execution=ExecutionConfig(seed=1, repetitions=4))
        assert artifact.telemetry["counters"]["trials.finished"] == 4
        back = type(artifact).from_json_dict(artifact.to_json_dict())
        assert back.telemetry == artifact.telemetry

    def test_store_objects_stay_telemetry_free(self, tmp_path):
        execution = ExecutionConfig(seed=1, repetitions=4)
        with trace_to(tmp_path / "t.jsonl"):
            artifact = api.run(
                SPEC, execution=execution, cache="reuse", store=tmp_path / "store"
            )
        assert artifact.telemetry is not None
        store = ArtifactStore(tmp_path / "store")
        stored = store.get(artifact_key(SPEC, artifact.params, execution))
        assert stored is not None and stored.telemetry is None

    def test_traced_sweep_artifact_matches_untraced_payloads(self, tmp_path):
        execution = ExecutionConfig(seed=5, repetitions=4)
        spec = SweepSpec(experiment=SPEC, axes=(("p", (0.3, 0.7)),))
        untraced = SweepRunner(cache="off").run(spec, execution)
        with trace_to(tmp_path / "t.jsonl"):
            traced = api.sweep(spec, execution=execution, cache="off", store=None)
        assert [
            (pt.index, pt.seed, pt.artifact.result.to_json_dict())
            for pt in traced.points
        ] == [
            (pt.index, pt.seed, pt.artifact.result.to_json_dict())
            for pt in untraced.points
        ]
        assert traced.telemetry["counters"]["trials.finished"] == 8
        assert untraced.telemetry is None


# --------------------------------------------------------------------------- #
# Store counters
# --------------------------------------------------------------------------- #
class TestStoreCounters:
    def test_counters_track_miss_put_hit_evict(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        execution = ExecutionConfig(seed=2, repetitions=3)
        artifact = api.run(SPEC, execution=execution)
        digest = artifact_key(SPEC, artifact.params, execution)

        assert store.get(digest) is None
        store.put(artifact, digest=digest)
        assert store.get(digest) is not None
        assert store.evict(digest) == 1
        assert store.counters_dict() == {
            "hits": 1, "misses": 1, "puts": 1, "evictions": 1,
        }

    def test_counters_bump_without_bus_and_emit_with_bus(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        assert not default_bus().active
        store.get("0" * 16)
        assert store.misses == 1
        events = collect()
        store.get("0" * 16)
        assert store.misses == 2
        assert [e.kind for e in events] == ["store.miss"]


# --------------------------------------------------------------------------- #
# Progress reporter + CLI surface
# --------------------------------------------------------------------------- #
class TestProgressAndCli:
    def test_lines_reporter_prints_sweep_ticks_only(self):
        stream = io.StringIO()
        reporter = ProgressReporter(mode="lines", stream=stream)
        events = collect()
        default_bus().subscribe(reporter)
        SweepRunner(cache="off").run(
            SweepSpec(experiment=SPEC, axes=(("p", (0.2, 0.8)),)),
            ExecutionConfig(seed=1, repetitions=3),
        )
        out = stream.getvalue()
        assert "  sweep point 1/2" in out and "  sweep point 2/2" in out
        assert len(out.splitlines()) == 2  # no per-trial spam
        assert any(isinstance(e, SweepPointFinished) for e in events)

    def test_cli_sweep_progress_quiet_and_trace(self, tmp_path, capsys):
        from repro.__main__ import main

        argv = [
            "sweep", SPEC, "--grid", "p=0.2,0.8", "--reps", "3",
            "--cache", "off",
        ]
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert "sweep point 2/2" in captured.err
        assert "2 points" in captured.out

        assert main(argv + ["--quiet"]) == 0
        captured = capsys.readouterr()
        assert "sweep point" not in captured.err + captured.out
        assert "2 points" in captured.out  # result tables still print

        trace = tmp_path / "sweep.jsonl"
        assert main(argv + ["--trace", str(trace)]) == 0
        captured = capsys.readouterr()
        assert f"trace written to {trace}" in captured.err
        report = TelemetryReport.from_trace(trace)
        assert report.executed_trials == 6 and report.trial_pairs_balanced

    def test_cli_trace_env_var(self, tmp_path, capsys, monkeypatch):
        from repro.__main__ import main
        from repro.telemetry import TRACE_ENV_VAR

        trace = tmp_path / "env.jsonl"
        monkeypatch.setenv(TRACE_ENV_VAR, str(trace))
        assert main(
            ["sweep", SPEC, "--grid", "p=0.5", "--reps", "2", "--cache", "off",
             "--quiet"]
        ) == 0
        capsys.readouterr()
        assert trace.is_file() and read_trace(trace)

    def test_cli_trace_summarize_and_validate(self, tmp_path, capsys):
        from repro.__main__ import main

        trace = tmp_path / "t.jsonl"
        assert main(
            ["sweep", SPEC, "--grid", "p=0.4", "--reps", "2", "--cache", "off",
             "--quiet", "--trace", str(trace)]
        ) == 0
        capsys.readouterr()

        assert main(["trace", "validate", str(trace)]) == 0
        assert "all valid" in capsys.readouterr().out

        assert main(["trace", "summarize", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "event counts" in out and "trial" in out

        assert main(["trace", "summarize", str(trace), "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["counters"]["trials.finished"] == 2

        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"kind": "no.such.event"}\n')
        assert main(["trace", "validate", str(bad)]) == 1
        assert "invalid trace" in capsys.readouterr().err

    def test_cli_trace_with_retired_kernel_ops_line(self, tmp_path, capsys):
        # Traces recorded while the kernel-backend layer existed carry
        # kernel.ops lines: summarize skips the unknown kind, validate
        # rejects it.
        from repro.__main__ import main

        trace = tmp_path / "old.jsonl"
        lines = [
            CampaignStarted(campaign="c", repetitions=2).to_json_dict(),
            {"kind": "kernel.ops", "backend": "numpy", "ops": {"quantize": 3},
             "ts": 1.0},
            CampaignFinished(campaign="c").to_json_dict(),
        ]
        trace.write_text("".join(json.dumps(line) + "\n" for line in lines))

        assert main(["trace", "summarize", str(trace), "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["counters"]["campaigns.started"] == 1
        assert data["counters"]["campaigns.finished"] == 1
        assert not any("kernel" in name for name in data["counters"])

        assert main(["trace", "validate", str(trace)]) == 1
        assert "kernel.ops" in capsys.readouterr().err

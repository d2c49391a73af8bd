"""Differential and fault-tolerance tests for the distributed sweep runner.

The acceptance-critical guarantees:

(a) ``DistributedSweepRunner`` (workers ∈ {1, 4}) is bit-identical to the
    serial ``SweepRunner`` at every point — same per-point seeds, same
    digests, same result payloads — for fixed and adaptive repetitions;
(b) a warm store serves a distributed sweep with ZERO executed trials (and
    the cold run executes exactly as many trials as the serial runner —
    no duplicate work when nobody crashes);
(c) a dead worker's leased points are stolen after the lease times out,
    so the sweep completes anyway;
(d) a deterministic per-point error is not swallowed by worker crashes —
    it re-raises in the coordinator process.

Worker processes are forked, so specs registered by this module (the
failing spec below) are visible inside them without re-import.
"""

import json
import os
import time
from dataclasses import replace

import pytest

import sweep_testlib
from repro import api
from repro.api.execution import ExecutionConfig
from repro.core.runner import executed_trial_count
from repro.experiments.registry import ParamSpec, register_experiment
from repro.io.results import ResultTable
from repro.sweep import (
    AdaptiveConfig,
    DistributedSweepRunner,
    SweepCheckpoint,
    SweepRunner,
    SweepSpec,
    SweepWorkQueue,
)
from repro.sweep.distributed import PointLease, default_sweep_workers

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


def _sweep_spec(ps=(0.1, 0.3, 0.5, 0.7, 0.9), experiment=SPEC):
    return SweepSpec(experiment=experiment, axes=(("p", tuple(ps)),))


def _payloads(artifact):
    return [
        (pt.index, pt.seed, pt.digest, pt.artifact.result.to_json_dict())
        for pt in artifact.points
    ]


class TestDifferential:
    @pytest.mark.parametrize("workers", [1, 4])
    def test_bit_identical_to_serial(self, tmp_path, workers):
        execution = ExecutionConfig(seed=11, repetitions=6)
        serial = SweepRunner(cache="reuse", store=tmp_path / "serial").run(
            _sweep_spec(), execution
        )
        before = executed_trial_count()
        dist = DistributedSweepRunner(
            sweep_workers=workers, cache="reuse", store=tmp_path / f"dist{workers}"
        ).run(_sweep_spec(), execution)
        delta = executed_trial_count() - before

        assert _payloads(dist) == _payloads(serial)
        # No duplicate work on an uncontended cold run, and the workers'
        # trial counts flow back into this process's counter.
        assert dist.executed_trials == serial.executed_trials == delta

    def test_adaptive_bit_identical_to_serial(self, tmp_path):
        adaptive = AdaptiveConfig(target_ci=0.2, initial_repetitions=4)
        execution = ExecutionConfig(seed=5)
        serial = SweepRunner(cache="off").run(
            _sweep_spec(ps=(0.2, 0.8)), execution, adaptive=adaptive
        )
        dist = DistributedSweepRunner(sweep_workers=2, cache="off").run(
            _sweep_spec(ps=(0.2, 0.8)), execution, adaptive=adaptive
        )
        assert _payloads(dist) == _payloads(serial)
        assert [pt.adaptive_rounds for pt in dist.points] == [
            pt.adaptive_rounds for pt in serial.points
        ]

    def test_warm_store_executes_zero_trials(self, tmp_path):
        execution = ExecutionConfig(seed=11, repetitions=6)
        store = tmp_path / "store"
        cold = DistributedSweepRunner(sweep_workers=4, store=store).run(
            _sweep_spec(), execution
        )
        assert cold.executed_trials > 0

        before = executed_trial_count()
        warm = DistributedSweepRunner(sweep_workers=4, store=store).run(
            _sweep_spec(), execution
        )
        assert warm.executed_trials == 0
        assert executed_trial_count() - before == 0
        assert all(pt.cache_hit for pt in warm.points)
        assert _payloads(warm) == _payloads(cold)

    def test_serial_and_distributed_share_a_store(self, tmp_path):
        # Points cached by the serial runner are hits for the distributed
        # one and vice versa — same content keys, same on-disk format.
        execution = ExecutionConfig(seed=3, repetitions=5)
        store = tmp_path / "store"
        SweepRunner(store=store).run(_sweep_spec(ps=(0.2, 0.4)), execution)
        mixed = DistributedSweepRunner(sweep_workers=2, store=store).run(
            _sweep_spec(ps=(0.2, 0.4, 0.6)), execution
        )
        assert [pt.cache_hit for pt in mixed.points] == [True, True, False]


class TestWorkQueue:
    def test_claim_is_exclusive_and_ordered(self, tmp_path):
        queue = SweepWorkQueue(tmp_path, n_points=3)
        queue.initialize()
        assert queue.claim("a") == 0
        assert queue.claim("b") == 1  # point 0 is leased by "a"
        queue.mark_done(0, "a")
        assert queue.is_done(0)
        assert queue.claim("a") == 2
        assert queue.claim("c") is None  # everything leased or done

    def test_expired_lease_is_stolen(self, tmp_path):
        queue = SweepWorkQueue(tmp_path, n_points=1, lease_timeout_s=0.2)
        queue.initialize()
        assert queue.claim("doomed") == 0
        assert queue.claim("thief") is None  # lease still fresh
        time.sleep(0.25)  # no heartbeat arrives: the lease expires
        assert queue.claim("thief") == 0
        assert queue.read_lease(0).worker == "thief"

    def test_heartbeat_keeps_a_lease_alive(self, tmp_path):
        queue = SweepWorkQueue(tmp_path, n_points=1, lease_timeout_s=0.3)
        queue.initialize()
        assert queue.claim("owner") == 0
        deadline = time.time() + 0.6
        while time.time() < deadline:
            queue.heartbeat(0, "owner")
            time.sleep(0.05)
        assert queue.claim("thief") is None  # never expired

    def test_mark_done_is_idempotent(self, tmp_path):
        queue = SweepWorkQueue(tmp_path, n_points=2)
        queue.initialize()
        queue.claim("a")
        queue.mark_done(0, "a")
        queue.mark_done(0, "b")  # duplicate completion: first marker wins
        assert queue.done_count() == 1
        assert json.loads(queue.done_path(0).read_text())["worker"] == "a"
        assert queue.done_worker(0) == "a"
        assert queue.done_worker(1) is None

    def test_point_finished_during_lease_read_is_not_reclaimed(self, tmp_path, monkeypatch):
        """The holder finishes between a failed acquire and the lease read.

        The read then sees no lease and the late worker acquires again; the
        done marker, rechecked under that lease, must turn it away.
        """
        queue = SweepWorkQueue(tmp_path, n_points=1)
        queue.initialize()
        assert queue.claim("holder") == 0
        read_lease = queue.read_lease

        def holder_finishes_first(index):
            queue.mark_done(index, "holder")
            return read_lease(index)

        monkeypatch.setattr(queue, "read_lease", holder_finishes_first)
        assert queue.claim("late") is None
        assert not queue.lease_path(0).exists()  # the late lease was released
        assert queue.done_worker(0) == "holder"

    def test_point_finished_after_done_check_is_not_reclaimed(self, tmp_path, monkeypatch):
        """The holder finishes between the done check and the first acquire."""
        queue = SweepWorkQueue(tmp_path, n_points=1)
        queue.initialize()
        assert queue.claim("holder") == 0
        is_done = queue.is_done
        checks = []

        def holder_finishes_after_first_check(index):
            done = is_done(index)
            if not checks:
                queue.mark_done(index, "holder")
            checks.append(done)
            return done

        monkeypatch.setattr(queue, "is_done", holder_finishes_after_first_check)
        assert queue.claim("late") is None
        assert checks[0] is False and len(checks) > 1 and all(checks[1:])
        assert not queue.lease_path(0).exists()


class TestMergeResults:
    @pytest.mark.parametrize("finisher", ["worker-a", "worker-b"])
    def test_done_marker_worker_record_wins(self, tmp_path, finisher):
        """A rerun's record (served from the store: 0 trials) must not
        replace the count of the execution that completed the point."""
        point = SweepRunner(cache="off").run(
            _sweep_spec(ps=(0.2,)), ExecutionConfig(seed=1, repetitions=3)
        ).points[0]
        assert point.executed_trials == 3
        records = {
            "worker-a": replace(point, executed_trials=3),
            "worker-b": replace(point, executed_trials=0, cache_hit=True),
        }
        queue = SweepWorkQueue(tmp_path, n_points=1)
        queue.initialize()
        for worker, record in records.items():
            queue.result_path(worker).write_text(
                json.dumps({"index": 0, "point": record.to_json_dict()}) + "\n"
            )
        queue.mark_done(0, finisher)
        merged = DistributedSweepRunner._merge_results(queue)
        assert merged[0].executed_trials == records[finisher].executed_trials
        assert merged[0].cache_hit == records[finisher].cache_hit


class TestFaultTolerance:
    def test_dead_workers_leased_point_is_stolen_and_completed(self, tmp_path):
        """A lease owned by a SIGKILLed worker must not wedge the sweep."""
        execution = ExecutionConfig(seed=11, repetitions=4)
        work_dir = tmp_path / "queue"
        spec = _sweep_spec(ps=(0.2, 0.8))
        queue = SweepWorkQueue(work_dir, n_points=2)
        queue.initialize()
        # Plant the corpse: a lease on point 0 from a worker that stopped
        # heartbeating long ago (the pid does not even exist).
        stale = PointLease(worker="dead", pid=2**22 - 1,
                           acquired_at=time.time() - 120.0,
                           heartbeat_at=time.time() - 120.0)
        queue.lease_path(0).write_text(stale.to_json())

        dist = DistributedSweepRunner(
            sweep_workers=2, cache="off", work_dir=work_dir,
            lease_timeout_s=0.5, heartbeat_interval_s=0.1,
        ).run(spec, execution)

        serial = SweepRunner(cache="off").run(spec, execution)
        assert _payloads(dist) == _payloads(serial)
        assert queue.done_count() == 2

    def test_deterministic_error_reaches_the_coordinator(self, tmp_path):
        # Point p=0.7 raises in every worker that claims it; after the
        # workers die the coordinator re-runs it inline and the original
        # error surfaces here.
        spec = _sweep_spec(ps=(0.3, 0.7), experiment=FAILING_SPEC)
        runner = DistributedSweepRunner(sweep_workers=2, cache="off")
        with pytest.raises(Exception, match="synthetic failure at p=0.7"):
            runner.run(spec, ExecutionConfig(seed=1, repetitions=2))

    def test_checkpoint_resume_skips_completed_points(self, tmp_path):
        execution = ExecutionConfig(seed=7, repetitions=4)
        path = tmp_path / "sweep.jsonl"
        first = DistributedSweepRunner(sweep_workers=2, cache="off").run(
            _sweep_spec(ps=(0.2, 0.8)), execution, checkpoint=SweepCheckpoint(path)
        )
        before = executed_trial_count()
        resumed = DistributedSweepRunner(sweep_workers=2, cache="off").run(
            _sweep_spec(ps=(0.2, 0.8)), execution,
            checkpoint=SweepCheckpoint(path), resume=True,
        )
        assert executed_trial_count() - before == 0  # everything restored
        assert _payloads(resumed) == _payloads(first)


class TestSurface:
    def test_api_sweep_workers_matches_serial(self, tmp_path):
        execution = ExecutionConfig(seed=9, repetitions=5)
        serial = api.sweep(SPEC, {"p": [0.25, 0.75]}, execution=execution,
                           cache="off")
        dist = api.sweep(SPEC, {"p": [0.25, 0.75]}, execution=execution,
                         cache="off", sweep_workers=2)
        assert _payloads(dist) == _payloads(serial)

    def test_env_var_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_SWEEP_WORKERS", raising=False)
        assert default_sweep_workers() == 1
        monkeypatch.setenv("REPRO_SWEEP_WORKERS", "3")
        assert default_sweep_workers() == 3
        monkeypatch.setenv("REPRO_SWEEP_WORKERS", "auto")
        assert default_sweep_workers() == os.cpu_count()

    def test_invalid_knobs_are_rejected(self):
        with pytest.raises(ValueError):
            DistributedSweepRunner(sweep_workers=0)
        with pytest.raises(ValueError):
            DistributedSweepRunner(sweep_workers=2, lease_timeout_s=0.0)
        with pytest.raises(ValueError):
            DistributedSweepRunner(
                sweep_workers=2, lease_timeout_s=1.0, heartbeat_interval_s=2.0
            )

    def test_progress_reaches_total(self, tmp_path):
        calls = []
        DistributedSweepRunner(
            sweep_workers=2, cache="off", progress=lambda d, t: calls.append((d, t))
        ).run(_sweep_spec(ps=(0.2, 0.8)), ExecutionConfig(seed=1, repetitions=3))
        assert calls[-1] == (2, 2)
        assert all(t == 2 for _, t in calls)

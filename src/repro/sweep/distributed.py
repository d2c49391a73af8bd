"""Distributed sweep execution: N worker processes over one work queue.

:class:`DistributedSweepRunner` shards the points of a
:class:`~repro.sweep.spec.SweepSpec` across ``sweep_workers`` worker
processes.  There is no static partition: workers *pull* points from a
shared filesystem work queue, so a slow point never straggles the sweep —
whichever worker frees up first takes the next point (work stealing by
construction).

**Coordination is plain files**, which makes every piece inspectable,
crash-tolerant and — via a shared filesystem — extensible across machines:

* ``leases/point-<i>.json`` — exclusive claim on one point.  Acquisition is
  an atomic ``O_CREAT | O_EXCL`` create, so exactly one worker wins.  While
  a worker computes a point, a daemon thread refreshes the lease's
  ``heartbeat_at`` stamp; a lease whose heartbeat is older than
  ``lease_timeout_s`` belongs to a dead (or wedged) worker and may be
  *stolen*: any worker breaks it and re-runs the point.  Because per-point
  campaign seeds derive from the point's parameter identity
  (:func:`~repro.sweep.runner.derive_point_seed`), a stolen point — even one
  a presumed-dead worker eventually finishes — produces bit-identical
  results, so duplicate execution is waste, never corruption.
* ``done/point-<i>.json`` — completion marker, written after the point's
  result record is durably on disk.  Workers exit when every point is done.
* ``results/<worker>.jsonl`` — each worker's completed
  :class:`~repro.sweep.artifact.SweepPoint` records, one JSON line per
  point, carrying the point's full artifact *and* its executed-trial count.
  The count is measured inside the worker process (the only place it is
  visible) and flows back with the result instead of relying on the
  coordinator's process-local counter.

The coordinator enumerates points, seeds the queue (pre-marking points
restored from a sweep checkpoint), spawns the workers, streams progress
from the ``done/`` directory, and merges the result files into an ordinary
:class:`~repro.sweep.artifact.SweepArtifact`.  Any point still unaccounted
for after every worker has exited — e.g. all workers crashed on it — is
executed inline in the coordinator, so a deterministic trial error
surfaces as a normal exception in the caller's process and a sweep can
always complete as long as the coordinator lives.

Artifact caching works unchanged: every worker opens the same store root,
whose journal-per-entry index is safe for concurrent writers
(:mod:`repro.store.artifact_store`), and a warm store serves every point
with **zero** executed trials in any process.

Workers are forked (Linux default), so dynamically registered experiment
specs — e.g. test-only specs — are visible without re-import; under a
``spawn`` start method only importable registry specs can be swept.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import shutil
import tempfile
import threading
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.api.execution import ExecutionConfig
from repro.core.envvars import env_positive_int
from repro.core.runner import _resolve_start_method, record_executed_trials
from repro.store.artifact_store import atomic_write_text
from repro.sweep.artifact import SweepArtifact, SweepPoint
from repro.sweep.checkpoint import SweepCheckpoint, sweep_digest
from repro.sweep.runner import AdaptiveConfig, SweepProgressFn, SweepRunner
from repro.sweep.spec import SweepSpec
from repro.telemetry.bus import default_bus, reset_default_bus
from repro.telemetry.events import (
    HeartbeatMissed,
    LeaseAcquired,
    LeaseStolen,
    SweepFinished,
    SweepProgress,
    SweepStarted,
)

__all__ = [
    "SWEEP_WORKERS_ENV_VAR",
    "DistributedSweepRunner",
    "PointLease",
    "SweepWorkQueue",
    "default_sweep_workers",
]

#: Environment variable selecting the default sweep worker count.
SWEEP_WORKERS_ENV_VAR = "REPRO_SWEEP_WORKERS"

#: Default seconds without a heartbeat before a lease counts as dead.
DEFAULT_LEASE_TIMEOUT_S = 30.0

#: Default seconds between heartbeat refreshes of a held lease.
DEFAULT_HEARTBEAT_INTERVAL_S = 1.0

#: Seconds an idle worker sleeps before re-scanning the queue.
_POLL_INTERVAL_S = 0.05


def default_sweep_workers() -> int:
    """Default sweep worker count: ``REPRO_SWEEP_WORKERS`` or 1 (serial)."""
    return env_positive_int(SWEEP_WORKERS_ENV_VAR, 1, allow_auto=True)


def _local_clock_id() -> str:
    """Identity of this machine's monotonic clock domain.

    ``time.monotonic()`` readings are comparable between processes only
    within one OS boot; Linux exposes a per-boot UUID that names exactly
    that domain.  Where no boot id exists the id is empty and staleness
    falls back to (clamped) wall-clock deltas.
    """
    try:
        return Path("/proc/sys/kernel/random/boot_id").read_text().strip()
    except OSError:
        return ""


_CLOCK_ID = _local_clock_id()


@dataclass(frozen=True)
class PointLease:
    """One worker's claim on one sweep point (the on-disk lease record).

    The record carries *two* heartbeat stamps: ``heartbeat_at`` is wall
    clock (``time.time()``), kept for humans inspecting the lease files and
    for cross-machine queues; ``heartbeat_mono`` is ``time.monotonic()``,
    tagged with the ``clock_id`` of the boot it was read in.  Staleness is
    judged from the monotonic delta whenever the observer shares that clock
    (same machine, same boot) — an NTP step can therefore never fake a dead
    worker or keep a dead lease alive.  Observers on a different clock fall
    back to the wall delta, clamped at zero so a lease stamped "in the
    future" by a skewed peer reads as fresh rather than negative-aged.
    """

    worker: str
    pid: int
    acquired_at: float
    heartbeat_at: float
    heartbeat_mono: Optional[float] = None
    clock_id: str = ""

    def to_json(self) -> str:
        return json.dumps(asdict(self))

    @classmethod
    def from_json(cls, payload: str) -> "PointLease":
        data = json.loads(payload)
        mono = data.get("heartbeat_mono")
        return cls(
            worker=str(data["worker"]),
            pid=int(data["pid"]),
            acquired_at=float(data["acquired_at"]),
            heartbeat_at=float(data["heartbeat_at"]),
            heartbeat_mono=None if mono is None else float(mono),
            clock_id=str(data.get("clock_id", "")),
        )

    def age_s(
        self, now: Optional[float] = None, now_mono: Optional[float] = None
    ) -> float:
        """Seconds since the last heartbeat, never negative.

        Monotonic delta when this lease was stamped under the caller's
        clock domain, otherwise wall delta; both clamped at zero.
        """
        if (
            self.heartbeat_mono is not None
            and self.clock_id
            and self.clock_id == _CLOCK_ID
        ):
            reference = time.monotonic() if now_mono is None else now_mono
            return max(0.0, reference - self.heartbeat_mono)
        reference = time.time() if now is None else now
        return max(0.0, reference - self.heartbeat_at)

    def expired(
        self,
        timeout_s: float,
        now: Optional[float] = None,
        now_mono: Optional[float] = None,
    ) -> bool:
        return self.age_s(now=now, now_mono=now_mono) > timeout_s


class SweepWorkQueue:
    """Filesystem-backed point queue with leases, heartbeats and done markers.

    All state is plain files under ``work_dir`` (see the module docstring
    for the layout), so the queue needs no broker process and survives the
    death of any participant.  Every operation is safe against concurrent
    workers on one machine or a shared filesystem.
    """

    def __init__(self, work_dir: Union[str, os.PathLike], n_points: int,
                 lease_timeout_s: float = DEFAULT_LEASE_TIMEOUT_S) -> None:
        self.work_dir = Path(work_dir)
        self.n_points = n_points
        self.lease_timeout_s = lease_timeout_s

    # -- paths ----------------------------------------------------------- #
    @property
    def lease_dir(self) -> Path:
        return self.work_dir / "leases"

    @property
    def done_dir(self) -> Path:
        return self.work_dir / "done"

    @property
    def results_dir(self) -> Path:
        return self.work_dir / "results"

    def lease_path(self, index: int) -> Path:
        return self.lease_dir / f"point-{index:05d}.json"

    def done_path(self, index: int) -> Path:
        return self.done_dir / f"point-{index:05d}.json"

    def result_path(self, worker: str) -> Path:
        return self.results_dir / f"{worker}.jsonl"

    def initialize(self) -> None:
        for directory in (self.lease_dir, self.done_dir, self.results_dir):
            directory.mkdir(parents=True, exist_ok=True)

    # -- leases ---------------------------------------------------------- #
    def _try_acquire(self, index: int, worker: str) -> bool:
        """Atomically create the lease file; exactly one caller can win."""
        now = time.time()
        lease = PointLease(worker=worker, pid=os.getpid(), acquired_at=now,
                           heartbeat_at=now, heartbeat_mono=time.monotonic(),
                           clock_id=_CLOCK_ID)
        try:
            fd = os.open(self.lease_path(index), os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return False
        with os.fdopen(fd, "w") as handle:
            handle.write(lease.to_json())
        return True

    def _acquire_pending(self, index: int, worker: str) -> bool:
        """Acquire the lease on a point that is still not done.

        The done check before an acquire is not enough: the previous holder
        may write its done marker and unlink its lease between that check
        and our exclusive create, which would then rerun a finished point.
        So the marker is checked again while the lease is held, and the
        lease released when the point turns out to be done.
        """
        if not self._try_acquire(index, worker):
            return False
        if self.is_done(index):
            self.release(index)
            return False
        return True

    def read_lease(self, index: int) -> Optional[PointLease]:
        try:
            return PointLease.from_json(self.lease_path(index).read_text())
        except (OSError, ValueError, KeyError, json.JSONDecodeError):
            return None  # no lease, or caught its writer mid-create

    def heartbeat(self, index: int, worker: str) -> None:
        """Refresh the lease's liveness stamp (called from a daemon thread).

        The rewrite is atomic but deliberately *not* durable — a lease only
        matters while its holder lives, so an fsync would buy nothing.
        """
        current = self.read_lease(index)
        acquired_at = current.acquired_at if current is not None else time.time()
        lease = PointLease(worker=worker, pid=os.getpid(),
                           acquired_at=acquired_at, heartbeat_at=time.time(),
                           heartbeat_mono=time.monotonic(), clock_id=_CLOCK_ID)
        atomic_write_text(self.lease_path(index), lease.to_json(), durable=False)

    def release(self, index: int) -> None:
        try:
            os.unlink(self.lease_path(index))
        except OSError:
            pass

    def claim(self, worker: str) -> Optional[int]:
        """Claim the lowest available point; ``None`` when nothing is claimable.

        A point is available when it has no done marker and either no lease
        or an *expired* one (its worker stopped heartbeating for longer
        than ``lease_timeout_s``).  Stealing an expired lease is unlink +
        exclusive re-create, so concurrent stealers still end with exactly
        one owner.  Every acquire rechecks the done marker while holding
        the lease (:meth:`_acquire_pending`), so a point finished by
        another worker mid-claim is never handed out again.
        """
        bus = default_bus()
        for index in range(self.n_points):
            if self.is_done(index):
                continue
            if self._acquire_pending(index, worker):
                if bus.active:
                    bus.emit(LeaseAcquired(point=index, worker=worker))
                return index
            lease = self.read_lease(index)
            if lease is None:
                # Released (or broken) between our create attempt and the
                # read — contend for it again.
                if self._acquire_pending(index, worker):
                    if bus.active:
                        bus.emit(LeaseAcquired(point=index, worker=worker))
                    return index
                continue
            if lease.expired(self.lease_timeout_s):
                if bus.active:
                    bus.emit(
                        HeartbeatMissed(
                            point=index,
                            worker=lease.worker,
                            age_s=lease.age_s(),
                            observed_by=worker,
                        )
                    )
                self.release(index)  # break the dead worker's lease
                if self._acquire_pending(index, worker):
                    if bus.active:
                        bus.emit(
                            LeaseStolen(
                                point=index,
                                worker=worker,
                                previous_worker=lease.worker,
                            )
                        )
                    return index
        return None

    # -- completion ------------------------------------------------------ #
    def is_done(self, index: int) -> bool:
        return self.done_path(index).is_file()

    def done_worker(self, index: int) -> Optional[str]:
        """The worker named by the point's done marker (``None`` if unreadable)."""
        try:
            return str(json.loads(self.done_path(index).read_text())["worker"])
        except (OSError, ValueError, KeyError, TypeError):
            return None

    def mark_done(self, index: int, worker: str) -> None:
        """Record completion (idempotent: the first marker wins) and unlease."""
        payload = json.dumps(
            {"index": index, "worker": worker, "completed_at": time.time()}
        )
        try:
            fd = os.open(self.done_path(index), os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            pass  # a duplicate (stolen-then-finished) execution got there first
        else:
            with os.fdopen(fd, "w") as handle:
                handle.write(payload)
        self.release(index)

    def done_count(self) -> int:
        try:
            return sum(
                1 for name in os.listdir(self.done_dir) if name.endswith(".json")
            )
        except OSError:
            return 0

    def all_done(self) -> bool:
        return self.done_count() >= self.n_points


class _LeaseHeartbeat:
    """Daemon thread refreshing one held lease while its point computes."""

    def __init__(self, queue: SweepWorkQueue, index: int, worker: str,
                 interval_s: float) -> None:
        self._queue = queue
        self._index = index
        self._worker = worker
        self._interval_s = interval_s
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name=f"lease-heartbeat-{index}", daemon=True
        )

    def _run(self) -> None:
        while not self._stop.wait(self._interval_s):
            try:
                self._queue.heartbeat(self._index, self._worker)
            except OSError:
                pass  # a transient filesystem error must not kill the beat

    def __enter__(self) -> "_LeaseHeartbeat":
        self._thread.start()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self._stop.set()
        self._thread.join(timeout=5.0)


@dataclass(frozen=True)
class _WorkerConfig:
    """Everything a worker process needs, in picklable/JSON-able form."""

    worker: str
    work_dir: str
    sweep: Dict[str, Any]
    execution: Dict[str, Any]
    adaptive: Optional[Dict[str, Any]]
    cache: str
    store_root: Optional[str]
    n_points: int
    lease_timeout_s: float
    heartbeat_interval_s: float
    #: Per-worker JSONL trace file; set by a tracing coordinator, whose bus
    #: the events ultimately reach via the post-join timestamp merge.
    trace: Optional[str] = None


def _worker_main(config: _WorkerConfig) -> None:
    """Worker process body: pull points from the queue until all are done.

    A point that raises is recorded as an error line, its lease released,
    and the worker exits nonzero — surviving workers (and ultimately the
    coordinator's inline fallback, where the exception re-raises naturally)
    take over the remaining points.
    """
    # A forked worker inherits the coordinator's bus and subscribers; drop
    # them (writing into the coordinator's sink from here would interleave)
    # and attach this worker's own trace file when the coordinator asked
    # for one — it merges the per-worker files after the join.
    bus = reset_default_bus()
    sink = None
    if config.trace is not None:
        from repro.telemetry.sink import TraceSink

        sink = TraceSink(config.trace)
        bus.subscribe(sink)

    sweep = SweepSpec.from_json_dict(config.sweep)
    execution = ExecutionConfig.from_json_dict(config.execution)
    adaptive = None if config.adaptive is None else AdaptiveConfig(**config.adaptive)
    points = sweep.points()
    runner = SweepRunner(cache=config.cache, store=config.store_root)
    queue = SweepWorkQueue(config.work_dir, config.n_points, config.lease_timeout_s)
    try:
        with open(queue.result_path(config.worker), "a") as results:
            while not queue.all_done():
                index = queue.claim(config.worker)
                if index is None:
                    time.sleep(_POLL_INTERVAL_S)
                    continue
                try:
                    with _LeaseHeartbeat(queue, index, config.worker,
                                         config.heartbeat_interval_s):
                        point = runner.run_point(
                            sweep, index, points[index], execution, adaptive
                        )
                except BaseException as exc:
                    results.write(json.dumps({
                        "index": index,
                        "error": f"{type(exc).__name__}: {exc}",
                        "worker": config.worker,
                    }) + "\n")
                    results.flush()
                    queue.release(index)
                    raise SystemExit(1)
                results.write(json.dumps(
                    {"index": index, "point": point.to_json_dict()}
                ) + "\n")
                results.flush()
                queue.mark_done(index, config.worker)
    finally:
        if sink is not None:
            bus.unsubscribe(sink)
            sink.close()


class DistributedSweepRunner:
    """Executes one sweep across ``sweep_workers`` work-stealing processes.

    Drop-in alternative to :class:`~repro.sweep.runner.SweepRunner` (same
    ``run()`` signature and :class:`~repro.sweep.artifact.SweepArtifact`
    result, bit-identical per-point numbers); surfaced as
    ``api.sweep(..., sweep_workers=N)`` and ``python -m repro sweep ...
    --sweep-workers N``.

    Parameters
    ----------
    sweep_workers:
        Worker process count (``"auto"`` = one per CPU).
    cache, store, progress:
        As for :class:`~repro.sweep.runner.SweepRunner`; the store root is
        shared by every worker (its index is multi-writer safe).
    lease_timeout_s:
        Seconds without a heartbeat before a worker's point lease counts as
        dead and is re-queued.
    heartbeat_interval_s:
        Seconds between lease refreshes; keep well below the timeout.
    work_dir:
        Queue/lease/result directory.  Default: a temp directory created
        per run and removed afterwards; pass an explicit path to inspect
        the coordination state or to share it across machines.
    start_method:
        ``multiprocessing`` start method (default: ``"fork"`` on Linux).
    """

    def __init__(
        self,
        *,
        sweep_workers: Union[int, str] = 1,
        cache: str = "reuse",
        store: Any = None,
        progress: Optional[SweepProgressFn] = None,
        lease_timeout_s: float = DEFAULT_LEASE_TIMEOUT_S,
        heartbeat_interval_s: float = DEFAULT_HEARTBEAT_INTERVAL_S,
        work_dir: Union[str, os.PathLike, None] = None,
        start_method: Optional[str] = None,
    ) -> None:
        from repro.core.runner import parse_worker_count
        from repro.store import resolve_store, validate_cache_policy

        self.sweep_workers = parse_worker_count(sweep_workers, "sweep_workers")
        self.cache = validate_cache_policy(cache)
        self.store = resolve_store(store) if self.cache != "off" else None
        self.progress = progress
        if lease_timeout_s <= 0:
            raise ValueError(f"lease_timeout_s must be positive, got {lease_timeout_s}")
        if not 0 < heartbeat_interval_s < lease_timeout_s:
            raise ValueError(
                "heartbeat_interval_s must be positive and below lease_timeout_s, "
                f"got {heartbeat_interval_s} (timeout {lease_timeout_s})"
            )
        self.lease_timeout_s = lease_timeout_s
        self.heartbeat_interval_s = heartbeat_interval_s
        self.work_dir = None if work_dir is None else Path(work_dir)
        self.start_method = _resolve_start_method(start_method)

    def run(
        self,
        sweep: SweepSpec,
        execution: Optional[ExecutionConfig] = None,
        *,
        adaptive: Optional[AdaptiveConfig] = None,
        checkpoint: Union[SweepCheckpoint, str, os.PathLike, None] = None,
        resume: bool = False,
    ) -> SweepArtifact:
        """Run every point of ``sweep`` across the worker pool."""
        execution = (execution or ExecutionConfig()).resolved()
        if adaptive is not None and execution.repetitions is not None:
            raise ValueError(
                "adaptive precision chooses repetitions per point; do not also "
                f"pin execution.repetitions={execution.repetitions}"
            )
        points = sweep.points()
        digest = sweep_digest(sweep, points, execution.seed)

        if isinstance(checkpoint, (str, os.PathLike)):
            checkpoint = SweepCheckpoint(checkpoint)
        if resume and checkpoint is None:
            raise ValueError("resume=True requires a sweep checkpoint")
        restored: Dict[int, SweepPoint] = {}
        if checkpoint is not None:
            if resume:
                restored = checkpoint.load(digest, sweep, execution.seed, len(points))
            else:
                checkpoint.reset(digest, sweep, execution.seed)

        start = time.perf_counter()
        bus = default_bus()
        traced = bus.active
        if traced:
            bus.emit(
                SweepStarted(
                    experiment=sweep.experiment,
                    n_points=len(points),
                    restored=len(restored),
                    sweep_workers=self.sweep_workers,
                )
            )
        owns_work_dir = self.work_dir is None
        work_dir = (
            Path(tempfile.mkdtemp(prefix="repro-sweep-")) if owns_work_dir
            else self.work_dir
        )
        try:
            completed = self._run_queue(sweep, points, execution, adaptive, restored,
                                        work_dir)
        finally:
            if owns_work_dir:
                shutil.rmtree(work_dir, ignore_errors=True)

        if checkpoint is not None:
            for index in sorted(completed):
                if index not in restored:
                    checkpoint.append(completed[index])

        if traced:
            bus.emit(
                SweepFinished(
                    experiment=sweep.experiment,
                    n_points=len(points),
                    cache_hits=sum(
                        1 for point in completed.values() if point.cache_hit
                    ),
                    executed_trials=sum(
                        point.executed_trials for point in completed.values()
                    ),
                    wall_time_s=time.perf_counter() - start,
                )
            )
        return SweepArtifact(
            sweep=sweep,
            execution=execution,
            points=[completed[index] for index in sorted(completed)],
            target_ci=None if adaptive is None else adaptive.target_ci,
            wall_time_s=time.perf_counter() - start,
        )

    # -- internals -------------------------------------------------------- #
    def _worker_config(self, worker: str, work_dir: Path, sweep: SweepSpec,
                       execution: ExecutionConfig,
                       adaptive: Optional[AdaptiveConfig],
                       n_points: int,
                       trace: Optional[str] = None) -> _WorkerConfig:
        return _WorkerConfig(
            worker=worker,
            work_dir=str(work_dir),
            sweep=sweep.to_json_dict(),
            execution=execution.to_json_dict(),
            adaptive=None if adaptive is None else asdict(adaptive),
            cache=self.cache,
            store_root=None if self.store is None else str(self.store.root),
            n_points=n_points,
            lease_timeout_s=self.lease_timeout_s,
            heartbeat_interval_s=self.heartbeat_interval_s,
            trace=trace,
        )

    def _run_queue(
        self,
        sweep: SweepSpec,
        points: List[Dict[str, Any]],
        execution: ExecutionConfig,
        adaptive: Optional[AdaptiveConfig],
        restored: Dict[int, SweepPoint],
        work_dir: Path,
    ) -> Dict[int, SweepPoint]:
        queue = SweepWorkQueue(work_dir, len(points), self.lease_timeout_s)
        queue.initialize()
        for index in restored:
            queue.mark_done(index, "restored")

        bus = default_bus()
        traced = bus.active
        traces_dir = work_dir / "traces"
        if traced:
            traces_dir.mkdir(parents=True, exist_ok=True)

        def worker_trace(name: str) -> Optional[str]:
            return str(traces_dir / f"{name}.jsonl") if traced else None

        ctx = multiprocessing.get_context(self.start_method)
        workers = [
            ctx.Process(
                target=_worker_main,
                args=(self._worker_config(f"worker-{k:03d}", work_dir, sweep,
                                          execution, adaptive, len(points),
                                          trace=worker_trace(f"worker-{k:03d}")),),
                daemon=False,
            )
            for k in range(min(self.sweep_workers, max(1, len(points) - len(restored))))
        ]
        for proc in workers:
            proc.start()

        reported = -1
        try:
            while True:
                done = queue.done_count()
                if done != reported:
                    if traced:
                        bus.emit(
                            SweepProgress(
                                experiment=sweep.experiment,
                                done=min(done, len(points)),
                                total=len(points),
                            )
                        )
                    if self.progress is not None:
                        self.progress(min(done, len(points)), len(points))
                    reported = done
                if done >= len(points):
                    break
                if not any(proc.is_alive() for proc in workers):
                    break  # every worker exited (success or crash); assess below
                time.sleep(_POLL_INTERVAL_S)
        finally:
            # Workers exit on their own once all points are done; the join
            # timeout only covers one poll-sleep, and anything still alive
            # after that is a straggler we terminate.
            deadline = time.time() + 10.0
            for proc in workers:
                proc.join(timeout=max(0.1, deadline - time.time()))
            for proc in workers:
                if proc.is_alive():
                    proc.terminate()
                    proc.join(timeout=5.0)

        completed = dict(restored)
        worker_points = self._merge_results(queue)
        completed.update(worker_points)

        # Fold the workers' executed-trial counts (measured in *their*
        # processes) into ours, so counter-delta guardrails keep working.
        record_executed_trials(
            sum(point.executed_trials for point in worker_points.values())
        )

        if traced:
            # Merge the per-worker trace files in event-timestamp order and
            # replay them through the coordinator's bus, so its subscribers
            # (sink, metrics, progress) see the whole distributed run as one
            # stream.  Workers only trace when `traced`, so nothing here can
            # double-count.
            from repro.telemetry.sink import merge_traces

            for event in merge_traces(sorted(traces_dir.glob("*.jsonl"))):
                bus.emit(event)

        missing = [index for index in range(len(points)) if index not in completed]
        if missing:
            # Every worker died before finishing these points (e.g. a
            # deterministic trial error killed them all).  Run them inline:
            # completes the sweep when possible and otherwise re-raises the
            # underlying exception in the caller's process.
            fallback = SweepRunner(cache=self.cache, store=self.store,
                                   progress=None)
            for index in missing:
                completed[index] = fallback.run_point(
                    sweep, index, points[index], execution, adaptive
                )
                if traced:
                    bus.emit(
                        SweepProgress(
                            experiment=sweep.experiment,
                            done=len(completed),
                            total=len(points),
                        )
                    )
                if self.progress is not None:
                    self.progress(len(completed), len(points))
        return completed

    @staticmethod
    def _merge_results(queue: SweepWorkQueue) -> Dict[int, SweepPoint]:
        """Parse every worker's result file into points.

        A point executed more than once (a stolen lease whose first holder
        still finished) keeps the record of the worker its done marker
        names: the first execution to complete.  A later rerun may have hit
        the store and reports zero executed trials, so it must not replace
        the real count.  Without a readable marker the last record wins.

        Truncated trailing lines (a worker killed mid-write) and error
        records are skipped — their points simply stay unaccounted and are
        re-run elsewhere.
        """
        merged: Dict[int, SweepPoint] = {}
        written_by: Dict[int, str] = {}
        try:
            names = sorted(os.listdir(queue.results_dir))
        except OSError:
            return merged
        for name in names:
            if not name.endswith(".jsonl"):
                continue
            worker = name[: -len(".jsonl")]
            try:
                lines = (queue.results_dir / name).read_text().splitlines()
            except OSError:
                continue
            for line in lines:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                    if "point" not in record:
                        continue  # an error record
                    index = int(record["index"])
                    point = SweepPoint.from_json_dict(record["point"])
                except (ValueError, KeyError, TypeError):
                    continue
                kept = written_by.get(index)
                if kept is not None and kept == queue.done_worker(index):
                    continue  # the finisher's record stays
                merged[index] = point
                written_by[index] = worker
        return merged

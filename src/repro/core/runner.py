"""Campaign execution: one engine for serial, pooled and batched trials.

A :class:`CampaignRunner` executes the independently seeded trials of a
:class:`~repro.core.campaign.Campaign` under two knobs:

* ``batch_size`` — trials are grouped into consecutive batches of this
  size.  A trial function that exposes a vectorized ``run_batch(rngs)``
  (see :func:`supports_batching`) evaluates each batch through one set of
  stacked numpy operations; plain trial functions run scalar inside each
  batch.  With ``batch_size=1`` every trial is called on its own, which for
  the batchable inference trials is a one-replica batch.
* ``workers`` — ``1`` runs every trial in the calling process.  ``> 1``
  fans the work out over a :class:`concurrent.futures.ProcessPoolExecutor`
  (whole batches, or chunks of trials when ``batch_size=1``) and streams
  the results back as they complete.  A run with a single unit of work
  needs no pool and stays in-process.

``None`` resolves each knob through ``REPRO_CAMPAIGN_BATCH`` /
``REPRO_CAMPAIGN_WORKERS`` (both default to 1; ``"auto"`` workers means
one per CPU).  The engine name stamped on trial telemetry derives from the
knobs: ``batched`` when ``batch_size > 1``, else ``parallel`` when
``workers > 1``, else ``serial``.

Every trial draws its RNG from its *own* ``SeedSequence`` child, spawned
from the campaign seed by trial index, and batchable trial functions
compute every replica exactly as a batch of one would, so outcomes are
bit-identical for any batch size, worker count and completion order.
Results reach the ``on_result`` callback as they complete, which is how
campaign checkpoints are written incrementally.

**Failures.**  In-process, a raising trial propagates unchanged.  In a
pool, it surfaces as :class:`TrialExecutionError` carrying the trial index
and the worker traceback.  A worker process that dies (killed, out of
memory, crashed) breaks the pool: the run ends at once with one
:class:`TrialExecutionError` naming every trial that did not complete,
after a ``worker.lost`` telemetry event.  Trials that completed before the
death have already reached ``on_result``, and so the checkpoint, so
``resume=True`` finishes the campaign.  Sweep points mapped over the same
pool (:class:`~repro.sweep.SweepRunner` with ``workers > 1``) follow the
same contract with a :class:`~repro.sweep.SweepExecutionError`.  A dead
worker never hangs a run.
"""

from __future__ import annotations

import functools
import multiprocessing
import sys
import time
import traceback
from typing import Callable, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.envvars import env_positive_int, parse_positive_int
from repro.telemetry.bus import current_campaign, default_bus, reset_default_bus
from repro.telemetry.events import TrialFinished, TrialStarted, WorkerLost

__all__ = [
    "TrialExecutionError",
    "CampaignRunner",
    "supports_batching",
    "default_workers",
    "default_batch_size",
    "executed_trial_count",
    "record_executed_trials",
    "parse_worker_count",
    "parse_batch_size",
    "map_on_pool",
    "WORKERS_ENV_VAR",
    "BATCH_ENV_VAR",
]

#: Environment variable selecting the default campaign worker count.
WORKERS_ENV_VAR = "REPRO_CAMPAIGN_WORKERS"

#: Environment variable selecting the default campaign batch size.
BATCH_ENV_VAR = "REPRO_CAMPAIGN_BATCH"

#: A scheduled trial: (trial index, seed sequence for that trial).
TrialTask = Tuple[int, np.random.SeedSequence]

#: Callback fired as each trial completes: (trial index, outcome).
ResultCallback = Callable[[int, "TrialOutcome"], None]


def parse_worker_count(value: Union[str, int], what: str = "workers") -> int:
    """Parse a worker count: a positive integer or ``"auto"`` (one per CPU)."""
    return parse_positive_int(value, what, allow_auto=True)


def default_workers() -> int:
    """Default campaign worker count: ``REPRO_CAMPAIGN_WORKERS`` or 1."""
    return env_positive_int(WORKERS_ENV_VAR, 1, allow_auto=True)


def parse_batch_size(value: Union[str, int], what: str = "batch_size") -> int:
    """Parse a batch size: a positive integer."""
    return parse_positive_int(value, what)


def default_batch_size() -> int:
    """Default campaign batch size: ``REPRO_CAMPAIGN_BATCH`` or 1."""
    return env_positive_int(BATCH_ENV_VAR, 1)


class _ExecutionStats:
    """Process-wide count of campaign trials actually *executed*.

    The engine bumps the counter (in the parent process) once per freshly
    computed trial outcome; trials restored from a checkpoint or served from
    the artifact store never touch it.  That makes warm-cache guarantees
    testable: the sweep cache guardrail measures the counter delta around a
    warm re-run and fails if any trial executed at all.
    """

    __slots__ = ("trials_executed",)

    def __init__(self) -> None:
        self.trials_executed = 0

    def record(self, n: int = 1) -> None:
        self.trials_executed += n


EXECUTION_STATS = _ExecutionStats()


def executed_trial_count() -> int:
    """Monotonic count of campaign trials executed in this process.

    Measure a delta around a code path to count the trials it computed::

        before = executed_trial_count()
        api.sweep(...)
        assert executed_trial_count() - before == 0   # 100% cache hits
    """
    return EXECUTION_STATS.trials_executed


def record_executed_trials(n: int) -> None:
    """Fold externally executed trials into this process's counter.

    The campaign engine bumps the counter itself, but a pooled sweep runs
    whole points in worker processes, whose counters the parent never sees.
    Each point ships its executed-trial count back with its result and the
    parent folds it in here, so ``executed_trial_count()`` deltas — which
    the warm-cache guardrails are built on — stay truthful regardless of
    where the trials physically ran.
    """
    if n < 0:
        raise ValueError(f"executed trial count must be >= 0, got {n}")
    EXECUTION_STATS.record(n)


def supports_batching(trial_fn) -> bool:
    """Whether a trial function exposes a vectorized ``run_batch(rngs)``.

    A batchable trial function is an ordinary trial callable that
    additionally implements ``run_batch(rngs)``, taking one independent
    ``np.random.Generator`` per trial and returning the matching list of
    ``TrialOutcome``.  The contract is differential: ``run_batch([r0, ..])``
    must produce outcomes bit-identical to calling the trial once per
    generator.
    """
    return callable(getattr(trial_fn, "run_batch", None))


class TrialExecutionError(RuntimeError):
    """A trial raised in a pool worker, or a pool worker process died.

    ``trial_indices`` names every trial the failure left without an outcome:
    the one that raised, or every unfinished trial of a broken pool.
    ``trial_index`` is the first of them; ``worker_traceback`` is the
    worker's traceback when a trial raised.
    """

    def __init__(
        self,
        trial_indices: Union[int, Iterable[int]],
        message: str,
        worker_traceback: str = "",
    ) -> None:
        if isinstance(trial_indices, int):
            trial_indices = (trial_indices,)
        self.trial_indices = tuple(sorted(trial_indices))
        self.trial_index = self.trial_indices[0]
        self.worker_traceback = worker_traceback
        label = (
            f"trial {self.trial_index}"
            if len(self.trial_indices) == 1
            else f"trials {list(self.trial_indices)}"
        )
        super().__init__(f"{label} failed: {message}")


def _validated(outcome, trial_index: int):
    from repro.core.campaign import TrialOutcome

    if not isinstance(outcome, TrialOutcome):
        raise TypeError(
            f"trial function must return TrialOutcome, got {type(outcome).__name__} "
            f"(trial {trial_index})"
        )
    return outcome


def _emit_trial_pair(
    bus,
    index: int,
    outcome,
    engine: str,
    wall_time_s: float,
    batched: bool = False,
) -> None:
    """Emit the TrialStarted/TrialFinished pair for one completed trial.

    Used where a trial is only seen once its result exists (a batch, or a
    pool worker's result): the pair is emitted back-to-back, with
    ``wall_time_s`` measured where the trial ran.  Callers must have checked
    ``bus.active`` already.
    """
    campaign = current_campaign()
    bus.emit(TrialStarted(campaign=campaign, trial=index, engine=engine))
    bus.emit(
        TrialFinished(
            campaign=campaign,
            trial=index,
            engine=engine,
            wall_time_s=wall_time_s,
            batched=batched,
            success=outcome.success,
            metric=outcome.metric,
        )
    )


def _execute_batch(trial_fn, batch: Sequence[TrialTask]) -> List[Tuple[int, "TrialOutcome"]]:
    """Run one batch of trials, vectorized when the trial function allows it.

    Each trial still receives a generator built from its own ``SeedSequence``
    child, so outcomes are independent of how the campaign was batched.
    """
    indices = [index for index, _ in batch]
    rngs = [np.random.default_rng(seed) for _, seed in batch]
    if supports_batching(trial_fn):
        outcomes = trial_fn.run_batch(rngs)
        outcomes = list(outcomes)
        if len(outcomes) != len(batch):
            raise ValueError(
                f"run_batch returned {len(outcomes)} outcomes for a batch of "
                f"{len(batch)} trials (indices {indices[0]}..{indices[-1]})"
            )
        return [
            (index, _validated(outcome, index))
            for index, outcome in zip(indices, outcomes)
        ]
    return [
        (index, _validated(trial_fn(rng), index))
        for index, rng in zip(indices, rngs)
    ]


# --------------------------------------------------------------------------- #
# The process pool
# --------------------------------------------------------------------------- #
# The function a pool worker runs is installed once per worker by the pool
# initializer.  Under the fork start method (Linux) it reaches the worker in
# the process image rather than through pickle, so closures work; where
# fork is unavailable it must be picklable.
_WORKER_FN = None


def _init_worker(fn) -> None:
    global _WORKER_FN
    _WORKER_FN = fn
    # Forked workers inherit the parent's bus *and its subscribers* — a
    # parent TraceSink delivering from many workers would interleave writes
    # into one file.  Workers ship what the parent needs back with their
    # results instead, and the parent emits the events.
    reset_default_bus()


def _call_worker_fn(unit):
    return _WORKER_FN(unit)


def _start_method() -> str:
    """``"fork"`` on Linux (required for closure trial functions), the
    platform default elsewhere — forking is unsafe on macOS, whose default
    ``"spawn"`` needs picklable functions."""
    if sys.platform.startswith("linux") and "fork" in multiprocessing.get_all_start_methods():
        return "fork"
    return multiprocessing.get_start_method()


def map_on_pool(workers: int, fn, units: Sequence, handle: Callable) -> List[int]:
    """Run ``fn(unit)`` for every unit on ``workers`` processes.

    ``fn`` is installed in each worker by the pool initializer.  ``handle``
    receives each result in the parent as it completes and may raise to
    abort the run; an exception raised by ``fn`` itself re-raises here.
    When a worker process dies the pool is broken: results that did
    complete still reach ``handle``, and the positions of the units that did
    not are returned (sorted) for the caller to name in its typed error.
    """
    from concurrent.futures import ProcessPoolExecutor, as_completed
    from concurrent.futures.process import BrokenProcessPool

    executor = ProcessPoolExecutor(
        max_workers=workers,
        mp_context=multiprocessing.get_context(_start_method()),
        initializer=_init_worker,
        initargs=(fn,),
    )
    lost: List[int] = []
    try:
        futures = {}
        for position, unit in enumerate(units):
            try:
                futures[executor.submit(_call_worker_fn, unit)] = position
            except BrokenProcessPool:  # a worker died while we were submitting
                lost.extend(range(position, len(units)))
                break
        for future in as_completed(futures):
            try:
                result = future.result()
            except BrokenProcessPool:
                lost.append(futures[future])
                continue
            handle(result)
    except BaseException:
        # Do not wait for a failed run's queued work: pending units are
        # cancelled, running ones finish and their workers exit.
        executor.shutdown(wait=False, cancel_futures=True)
        raise
    executor.shutdown()
    return sorted(lost)


def _run_unit(trial_fn, batched: bool, unit: Sequence[TrialTask]):
    """Worker side: run one unit of trials; a raising trial comes back as data.

    Returns ``(timed, error)``.  ``timed`` lists ``(index, outcome,
    wall_time_s)``, timed here so the parent can emit trial telemetry
    without subscribing anything in the worker; when ``batched`` the unit's
    wall time is amortized over its trials (a vectorized batch has no
    per-trial time).  ``error`` is ``(index, message, traceback)``: the
    trial that raised, or the unit's first trial when a vectorized batch
    raised.
    """
    index = unit[0][0]
    started = time.perf_counter()
    try:
        if batched and supports_batching(trial_fn):
            timed = [(i, outcome, 0.0) for i, outcome in _execute_batch(trial_fn, unit)]
        else:
            timed = []
            for index, seed in unit:
                trial_started = time.perf_counter()
                outcome = _validated(trial_fn(np.random.default_rng(seed)), index)
                timed.append((index, outcome, time.perf_counter() - trial_started))
    except Exception as exc:  # surfaced as TrialExecutionError in the parent;
        # KeyboardInterrupt/SystemExit must keep killing the worker normally.
        return None, (index, f"{type(exc).__name__}: {exc}", traceback.format_exc())
    if batched:
        wall_time_s = (time.perf_counter() - started) / len(timed)
        timed = [(i, outcome, wall_time_s) for i, outcome, _ in timed]
    return timed, None


class CampaignRunner:
    """Executes the independently seeded trials of a campaign.

    See the module docstring for the execution and failure contract.

    Parameters
    ----------
    batch_size:
        Trials evaluated together per vectorized call (``None`` →
        ``REPRO_CAMPAIGN_BATCH`` or 1).
    workers:
        Processes the work fans out over (``None`` →
        ``REPRO_CAMPAIGN_WORKERS`` or 1); 1 runs in-process.
    """

    def __init__(
        self, batch_size: Optional[int] = None, workers: Optional[int] = None
    ) -> None:
        self.batch_size = default_batch_size() if batch_size is None else batch_size
        self.workers = default_workers() if workers is None else workers
        if self.batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {self.batch_size}")
        if self.workers <= 0:
            raise ValueError(f"workers must be positive, got {self.workers}")
        #: Engine discriminator stamped onto trial telemetry events.
        self.engine_name = (
            "batched" if self.batch_size > 1
            else "parallel" if self.workers > 1
            else "serial"
        )

    def run_trials(
        self,
        trial_fn,
        tasks: Sequence[TrialTask],
        on_result: Optional[ResultCallback] = None,
    ) -> List[Tuple[int, "TrialOutcome"]]:
        """Run every ``(index, seed)`` task; return ``(index, outcome)`` pairs.

        The returned list is ordered by trial index.  ``on_result`` is called
        once per trial in *completion* order (which in a pool may differ
        from index order).
        """
        tasks = list(tasks)
        bus = default_bus()
        batched = self.batch_size > 1
        results: List[Tuple[int, "TrialOutcome"]] = []

        def accept(index: int, outcome, wall_time_s: float) -> None:
            EXECUTION_STATS.record()
            if bus.active:
                _emit_trial_pair(
                    bus, index, outcome, self.engine_name, wall_time_s, batched=batched
                )
            results.append((index, outcome))
            if on_result is not None:
                on_result(index, outcome)

        # Pool units are whole batches, or — for scalar trials — chunks
        # giving each worker ~4 scheduling rounds, which keeps the pool busy
        # near the tail of a campaign while still batching IPC.
        size = self.batch_size if batched else max(1, len(tasks) // (self.workers * 4))
        units = [tasks[start : start + size] for start in range(0, len(tasks), size)]
        workers = min(self.workers, len(units))
        if workers > 1:
            self._run_pooled(trial_fn, units, workers, accept)
        elif batched:
            for batch in units:
                started = time.perf_counter()
                pairs = _execute_batch(trial_fn, batch)
                wall_time_s = (time.perf_counter() - started) / len(pairs)
                for index, outcome in pairs:
                    accept(index, outcome, wall_time_s)
        else:
            campaign = current_campaign() if bus.active else ""
            for index, seed in tasks:
                # Latch the active state per trial so a subscriber attached or
                # detached mid-trial can never produce an unpaired event.
                active = bus.active
                if active:
                    bus.emit(
                        TrialStarted(campaign=campaign, trial=index, engine=self.engine_name)
                    )
                    started = time.perf_counter()
                rng = np.random.default_rng(seed)
                outcome = _validated(trial_fn(rng), index)
                EXECUTION_STATS.record()
                if active:
                    bus.emit(
                        TrialFinished(
                            campaign=campaign,
                            trial=index,
                            engine=self.engine_name,
                            wall_time_s=time.perf_counter() - started,
                            success=outcome.success,
                            metric=outcome.metric,
                        )
                    )
                results.append((index, outcome))
                if on_result is not None:
                    on_result(index, outcome)
        results.sort(key=lambda pair: pair[0])
        return results

    def _run_pooled(self, trial_fn, units, workers: int, accept: Callable) -> None:
        def handle(result) -> None:
            timed, error = result
            if error is not None:
                index, message, worker_tb = error
                raise TrialExecutionError(index, message, worker_tb)
            for index, outcome, wall_time_s in timed:
                accept(index, outcome, wall_time_s)

        job = functools.partial(_run_unit, trial_fn, self.batch_size > 1)
        lost = map_on_pool(workers, job, units, handle)
        if lost:
            indices = sorted(index for position in lost for index, _ in units[position])
            bus = default_bus()
            if bus.active:
                bus.emit(WorkerLost(scope=current_campaign(), unit="trial", lost=indices))
            raise TrialExecutionError(
                indices, "a pool worker process died before these trials completed"
            )

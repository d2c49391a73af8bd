"""The sweep orchestrator: cache-aware, precision-adaptive point execution.

:class:`SweepRunner` executes every point of a
:class:`~repro.sweep.spec.SweepSpec` through :func:`repro.api.run` — and
therefore through the campaign engine — with four orchestration layers on
top:

* **Caching.**  Each point is keyed into the content-addressed
  :class:`~repro.store.ArtifactStore`; under the default ``reuse`` policy a
  point the repo has already computed (by any engine, in any previous sweep
  or ``api.run`` call) is served from disk and executes *zero* trials.
* **Checkpointing.**  Completed points stream to a JSONL
  :class:`~repro.sweep.checkpoint.SweepCheckpoint`; an interrupted sweep
  resumes from the points already on disk.
* **Adaptive precision.**  With an :class:`AdaptiveConfig`, each point is
  measured in growing rounds until the Wilson CI half-width of its headline
  success-rate metric drops below ``target_ci`` — easy points stop after
  the first round, hard points (success rates near 50%) get the trials they
  need.  Because campaign trial seeds derive from ``SeedSequence`` children
  by trial index, a round with ``n`` repetitions reproduces the previous
  round's trials exactly and the final artifact is bit-identical to a fixed
  ``repetitions=n`` run at the same seed.
* **Point parallelism.**  With ``workers > 1`` the pending points are
  mapped over the campaign engine's process pool
  (:func:`~repro.core.runner.map_on_pool`).  The parent keeps every
  orchestration duty — checkpoint appends, progress, sweep events, the
  executed-trial count — and re-emits the telemetry events each worker
  collected for its point.  A dead worker raises
  :class:`SweepExecutionError` naming the points that did not complete;
  the finished ones are already in the checkpoint, so ``resume=True``
  completes the sweep.

**Seed derivation.**  Every point's campaign seed is derived from the sweep
seed plus the point's *parameter identity* (a digest of its canonical
params JSON, folded into a ``SeedSequence``), not from its position.  Two
consequences: reordering or extending a sweep never changes the numbers of
the points it shares with another sweep, and a sweep over N points is
bit-identical to N independent ``api.run`` calls at the derived seeds —
the differential guarantee ``tests/test_sweep.py`` enforces.  The same
identity derivation makes a point computed in a pool worker bit-identical
to the same point computed in-process.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import os
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Tuple, Union

import numpy as np

from repro.api.execution import ExecutionConfig
from repro.core.envvars import env_positive_int
from repro.core.runner import (
    executed_trial_count,
    map_on_pool,
    parse_worker_count,
    record_executed_trials,
)
from repro.io.sanitize import canonical_json
from repro.metrics.statistics import next_adaptive_repetitions, wilson_half_width
from repro.sweep.artifact import SweepArtifact, SweepPoint
from repro.sweep.checkpoint import SweepCheckpoint, sweep_digest
from repro.sweep.spec import SweepSpec
from repro.telemetry.bus import default_bus
from repro.telemetry.events import (
    SweepFinished,
    SweepPointCacheHit,
    SweepPointFinished,
    SweepPointStarted,
    SweepProgress,
    SweepStarted,
    WorkerLost,
)

__all__ = [
    "SWEEP_WORKERS_ENV_VAR",
    "AdaptiveConfig",
    "SweepExecutionError",
    "SweepRunner",
    "default_sweep_workers",
    "derive_point_seed",
]

#: Progress callback: (points completed so far, total points).
SweepProgressFn = Callable[[int, int], None]

#: Environment variable selecting the default sweep worker count.
SWEEP_WORKERS_ENV_VAR = "REPRO_SWEEP_WORKERS"


def default_sweep_workers() -> int:
    """Default sweep worker count: ``REPRO_SWEEP_WORKERS`` or 1 (in-process)."""
    return env_positive_int(SWEEP_WORKERS_ENV_VAR, 1, allow_auto=True)


class SweepExecutionError(RuntimeError):
    """Pool worker processes died before these sweep points completed.

    ``point_indices`` names them.  Every point that did complete is in the
    sweep checkpoint, so rerunning with ``resume=True`` finishes the sweep.
    """

    def __init__(self, point_indices: Iterable[int], message: str) -> None:
        self.point_indices = tuple(sorted(point_indices))
        super().__init__(f"sweep points {list(self.point_indices)} failed: {message}")


def derive_point_seed(base_seed: int, experiment: str, params: Mapping[str, Any]) -> int:
    """Deterministic campaign seed for one sweep point.

    The point's canonical parameter JSON is digested and folded, together
    with the sweep's base seed, into a ``np.random.SeedSequence`` whose
    generated state becomes the seed.  A pure function of *what* the point
    is — never of where it sits in the sweep or whether the cache served it
    — so any enumeration order, cache state or sweep composition yields the
    same per-point seed, and ``api.run(..., seed=derive_point_seed(...))``
    reproduces a sweep point exactly.
    """
    identity = hashlib.sha256(
        canonical_json({"experiment": experiment, "params": params}).encode()
    ).digest()
    words = [int.from_bytes(identity[i : i + 4], "big") for i in range(0, 16, 4)]
    state = np.random.SeedSequence([int(base_seed)] + words).generate_state(
        2, dtype=np.uint32
    )
    return int(state[0]) | (int(state[1]) << 32)


@dataclass(frozen=True)
class AdaptiveConfig:
    """Precision-driven repetition growth (``repetitions="auto"``).

    Parameters
    ----------
    target_ci:
        Target Wilson half-width of every headline success-rate row.
    initial_repetitions:
        Campaign size of the first measurement round.
    growth:
        Minimum per-round growth factor (rounds may jump further when the
        current estimate already implies a larger requirement).
    max_repetitions:
        Hard budget per point; when reached the point stops even if the
        target has not been met (its reported half-width says so).
    """

    target_ci: float
    initial_repetitions: int = 4
    growth: float = 2.0
    max_repetitions: Optional[int] = None

    def __post_init__(self) -> None:
        if not 0.0 < self.target_ci < 1.0:
            raise ValueError(f"target_ci must be in (0, 1), got {self.target_ci}")
        if self.initial_repetitions < 1:
            raise ValueError(
                f"initial_repetitions must be >= 1, got {self.initial_repetitions}"
            )
        if self.growth <= 1.0:
            raise ValueError(f"growth must be > 1, got {self.growth}")
        if self.max_repetitions is not None and self.max_repetitions < self.initial_repetitions:
            raise ValueError(
                "max_repetitions must be >= initial_repetitions, got "
                f"{self.max_repetitions} < {self.initial_repetitions}"
            )


def _headline_rows(artifact, repetitions: int) -> List[Tuple[float, int]]:
    """The (effective successes, trials) of every headline success-rate row.

    Headline rows are the campaign rows: cells whose ``repetitions`` column
    equals the executed campaign size and that report a ``success_rate``.
    Baseline rows (``repetitions=1`` single rollouts) and metric-only rows
    are not campaign estimates and are excluded.
    """
    rows = []
    for row in artifact.as_table().rows:
        rate = row.get("success_rate")
        reps = row.get("repetitions")
        if rate is None or reps != repetitions:
            continue
        rate = min(1.0, max(0.0, float(rate)))
        rows.append((rate * repetitions, repetitions))
    return rows


class SweepRunner:
    """Executes sweep points with cache-aware skipping and adaptive precision.

    Parameters
    ----------
    cache:
        Artifact-store policy for every point (``"reuse"`` / ``"refresh"`` /
        ``"off"``).  Sweeps default to ``"reuse"`` — the orchestrator's whole
        point is to never recompute a result it already has.
    store:
        The :class:`~repro.store.ArtifactStore` (or root path); ``None``
        selects the default store (``REPRO_STORE_DIR`` or ``.repro-store``).
        Ignored when ``cache="off"``.
    progress:
        Called with ``(points completed, total points)`` after every point.
    workers:
        Processes the pending points are mapped over (``None`` →
        ``REPRO_SWEEP_WORKERS`` or 1; ``"auto"`` = one per CPU); 1 runs
        every point in-process.  Results are bit-identical for any count.
        Pool workers share the store root, whose index is multi-writer safe.
    """

    def __init__(
        self,
        *,
        cache: str = "reuse",
        store: Any = None,
        progress: Optional[SweepProgressFn] = None,
        workers: Union[int, str, None] = None,
    ) -> None:
        from repro.store import resolve_store, validate_cache_policy

        self.cache = validate_cache_policy(cache)
        self.store = resolve_store(store) if self.cache != "off" else None
        self.progress = progress
        self.workers = (
            default_sweep_workers()
            if workers is None
            else parse_worker_count(workers, "sweep_workers")
        )

    def run(
        self,
        sweep: SweepSpec,
        execution: Optional[ExecutionConfig] = None,
        *,
        adaptive: Optional[AdaptiveConfig] = None,
        checkpoint: Union[SweepCheckpoint, str, os.PathLike, None] = None,
        resume: bool = False,
    ) -> SweepArtifact:
        """Run every point of ``sweep``; returns the aggregated artifact.

        ``execution`` supplies the sweep seed and the engine knobs shared by
        every point; each point runs under ``execution.replace(seed=<derived
        point seed>)``.  With ``adaptive``, ``execution.repetitions`` must be
        unset (the rounds choose it per point).
        """
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
                    sweep_workers=self.workers,
                )
            )
        completed: List[SweepPoint] = list(restored.values())
        done = len(restored)
        if traced and done:
            bus.emit(
                SweepProgress(experiment=sweep.experiment, done=done, total=len(points))
            )
        if self.progress is not None and done:
            self.progress(done, len(points))

        def accept(point: SweepPoint) -> None:
            nonlocal done
            completed.append(point)
            if checkpoint is not None:
                checkpoint.append(point)
            done += 1
            if traced:
                bus.emit(
                    SweepProgress(
                        experiment=sweep.experiment, done=done, total=len(points)
                    )
                )
            if self.progress is not None:
                self.progress(done, len(points))

        pending = [index for index in range(len(points)) if index not in restored]
        workers = min(self.workers, len(pending))
        if workers > 1:
            self._run_pooled(sweep, points, pending, execution, adaptive, workers, accept)
        else:
            for index in pending:
                accept(self._run_point(sweep, index, points[index], execution, adaptive))

        if traced:
            bus.emit(
                SweepFinished(
                    experiment=sweep.experiment,
                    n_points=len(points),
                    cache_hits=sum(1 for point in completed if point.cache_hit),
                    executed_trials=sum(point.executed_trials for point in completed),
                    wall_time_s=time.perf_counter() - start,
                )
            )
        return SweepArtifact(
            sweep=sweep,
            execution=execution,
            points=sorted(completed, key=lambda point: point.index),
            target_ci=None if adaptive is None else adaptive.target_ci,
            wall_time_s=time.perf_counter() - start,
        )

    # -- single-point execution ------------------------------------------- #
    def run_point(
        self,
        sweep: SweepSpec,
        index: int,
        params: Dict[str, Any],
        execution: ExecutionConfig,
        adaptive: Optional[AdaptiveConfig] = None,
    ) -> "SweepPoint":
        """Execute a single sweep point under the sweep-level ``execution``.

        This is the unit of work pool workers run: the point's campaign seed
        is derived from its parameter identity in here, so any process
        executing the same point computes bit-identical numbers.
        ``execution`` must already be resolved (as :meth:`run` resolves it).
        """
        return self._run_point(sweep, index, params, execution, adaptive)

    def _run_pooled(
        self,
        sweep: SweepSpec,
        points: List[Dict[str, Any]],
        pending: List[int],
        execution: ExecutionConfig,
        adaptive: Optional[AdaptiveConfig],
        workers: int,
        accept: Callable[[SweepPoint], None],
    ) -> None:
        bus = default_bus()
        job = functools.partial(
            _run_pooled_point, self, sweep, points, execution, adaptive, bus.active
        )

        def handle(result) -> None:
            point, events = result
            for event in events:
                bus.emit(event)
            # The point's trials ran in the worker, whose counter we never see.
            record_executed_trials(point.executed_trials)
            accept(point)

        lost = map_on_pool(workers, job, pending, handle)
        if lost:
            indices = [pending[position] for position in lost]
            if bus.active:
                bus.emit(WorkerLost(scope=sweep.experiment, unit="point", lost=indices))
            raise SweepExecutionError(
                indices,
                "a pool worker process died before these points completed; "
                "resume from the sweep checkpoint to finish the sweep",
            )

    def _point_execution(
        self, execution: ExecutionConfig, index: int, seed: int
    ) -> ExecutionConfig:
        changes: Dict[str, Any] = {"seed": seed}
        if execution.checkpoint_dir is not None:
            # Per-point campaign checkpoint subdirectories: two points of the
            # same experiment reuse campaign names, and their seeds differ,
            # so sharing one directory would trip the header guard.
            changes["checkpoint_dir"] = execution.checkpoint_dir / f"point-{index:04d}"
        return execution.replace(**changes)

    def _run_point(
        self,
        sweep: SweepSpec,
        index: int,
        params: Dict[str, Any],
        execution: ExecutionConfig,
        adaptive: Optional[AdaptiveConfig],
    ) -> SweepPoint:
        seed = derive_point_seed(execution.seed, sweep.experiment, params)
        point_execution = self._point_execution(execution, index, seed)
        spec = sweep.spec
        executed_before = executed_trial_count()
        bus = default_bus()
        traced = bus.active
        if traced:
            bus.emit(
                SweepPointStarted(
                    experiment=sweep.experiment, point=index, params=dict(params)
                )
            )
            point_start = time.perf_counter()

        if adaptive is None:
            artifact, digest, was_cached = self._run_cached(spec, params, point_execution)
            point = SweepPoint(
                index=index,
                params=params,
                seed=seed,
                artifact=artifact,
                digest=digest,
                cache_hit=was_cached,
                executed_trials=executed_trial_count() - executed_before,
            )
        else:
            artifact, digest, was_cached, rounds, half_width = self._run_adaptive(
                spec, params, point_execution, adaptive
            )
            point = SweepPoint(
                index=index,
                params=params,
                seed=seed,
                artifact=artifact,
                digest=digest,
                cache_hit=was_cached,
                executed_trials=executed_trial_count() - executed_before,
                adaptive_rounds=rounds,
                ci_half_width=half_width,
            )
        if traced:
            if point.cache_hit:
                bus.emit(
                    SweepPointCacheHit(
                        experiment=sweep.experiment, point=index, digest=point.digest
                    )
                )
            bus.emit(
                SweepPointFinished(
                    experiment=sweep.experiment,
                    point=index,
                    executed_trials=point.executed_trials,
                    cache_hit=point.cache_hit,
                    adaptive_rounds=point.adaptive_rounds,
                    ci_half_width=point.ci_half_width,
                    wall_time_s=time.perf_counter() - point_start,
                )
            )
        return point

    def _run_cached(self, spec, params: Dict[str, Any], execution: ExecutionConfig):
        """One cached experiment run: ``(artifact, digest, served_from_store)``.

        A ``reuse`` hit is decided by actually *loading* the stored artifact
        (exactly what ``api.run`` would serve), so a corrupt or truncated
        object file counts as the miss it is — the point is recomputed and
        honestly reported as ``cache_hit=False``.
        """
        from repro import api
        from repro.store import artifact_key

        digest = None
        if self.store is not None:
            digest = artifact_key(spec.name, params, execution)
            if self.cache == "reuse":
                hit = self.store.get(digest)
                if hit is not None:
                    return hit, digest, True
        artifact = api.run(
            spec, params, execution=execution, cache=self.cache, store=self.store
        )
        return artifact, digest, False

    def _run_adaptive(
        self,
        spec,
        params: Dict[str, Any],
        point_execution: ExecutionConfig,
        adaptive: AdaptiveConfig,
    ):
        """Measure one point in growing rounds until the CI target is met.

        Each round is an ordinary fixed-repetition ``api.run`` (cached under
        its own key), so the final artifact *is* a fixed-repetition run —
        adaptive sampling changes how many trials are spent, never what any
        given repetition count computes.
        """
        repetitions = adaptive.initial_repetitions
        rounds = 0
        while True:
            rounds += 1
            round_execution = point_execution.replace(repetitions=repetitions)
            artifact, digest, final_round_cached = self._run_cached(
                spec, params, round_execution
            )
            headline = _headline_rows(artifact, repetitions)
            if not headline:
                raise ValueError(
                    f"experiment {spec.name!r} reports no success_rate/repetitions "
                    "headline rows; adaptive repetitions need a failure-rate metric "
                    "to target"
                )
            worst_successes, worst_trials = max(
                headline, key=lambda pair: wilson_half_width(pair[0], pair[1])
            )
            half_width = wilson_half_width(worst_successes, worst_trials)
            next_repetitions = next_adaptive_repetitions(
                worst_successes,
                worst_trials,
                adaptive.target_ci,
                growth=adaptive.growth,
                max_trials=adaptive.max_repetitions,
            )
            if next_repetitions is None or next_repetitions <= repetitions:
                return artifact, digest, final_round_cached, rounds, half_width
            repetitions = next_repetitions


def _run_pooled_point(
    runner: SweepRunner,
    sweep: SweepSpec,
    points: List[Dict[str, Any]],
    execution: ExecutionConfig,
    adaptive: Optional[AdaptiveConfig],
    traced: bool,
    index: int,
):
    """Pool-worker side of a sweep: one point plus the events it emitted.

    When the parent traces, the worker collects its point's telemetry
    events in memory and returns them with the point; the parent re-emits
    them on its own bus.
    """
    events: List[Any] = []
    bus = default_bus()
    with bus.subscribed(events.append) if traced else contextlib.nullcontext():
        point = runner.run_point(sweep, index, points[index], execution, adaptive)
    return point, events

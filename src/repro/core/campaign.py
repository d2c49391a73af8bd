"""Fault-injection campaign machinery.

A *campaign* repeats a fault-injection trial many times with independent
random seeds and aggregates the task-level outcomes (success / failure and a
scalar quality metric) with confidence intervals.  The paper repeats each
Grid World campaign 1000 times for a 95% confidence level within a 1% error
margin; the repetition count here is configurable (and can be overridden
globally through the ``REPRO_CAMPAIGN_REPS`` environment variable so the
benchmark harness can trade accuracy for runtime).

Execution is delegated to a :class:`~repro.core.runner.CampaignRunner`,
whose two knobs (explicit, or through ``REPRO_CAMPAIGN_WORKERS`` /
``REPRO_CAMPAIGN_BATCH``) fan trials out over a process pool and evaluate
batches of trials through one vectorized pass when the trial function
implements ``run_batch``; by default every trial runs in-process, in index
order.  Each trial's RNG is spawned from the campaign seed by trial index
(``SeedSequence.spawn``), so outcomes are bit-identical across worker
counts and batch sizes.  Passing a
:class:`~repro.io.results.CampaignCheckpoint` to :meth:`Campaign.run`
streams outcomes to a JSONL file as they complete, and ``resume=True``
restarts an interrupted campaign from the trials already on disk.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.core.envvars import env_positive_int
from repro.metrics.statistics import mean_confidence_interval, wilson_confidence_interval
from repro.telemetry.bus import campaign_scope, default_bus
from repro.telemetry.events import CampaignFinished, CampaignProgress, CampaignStarted

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (io imports campaign)
    from repro.core.runner import CampaignRunner
    from repro.io.results import CampaignCheckpoint

__all__ = ["TrialOutcome", "CampaignResult", "Campaign", "default_repetitions"]

#: Environment variable overriding campaign repetition counts everywhere.
REPS_ENV_VAR = "REPRO_CAMPAIGN_REPS"


def default_repetitions(fallback: int) -> int:
    """Campaign repetitions: the ``REPRO_CAMPAIGN_REPS`` override or ``fallback``."""
    return env_positive_int(REPS_ENV_VAR, fallback)


@dataclass(frozen=True)
class TrialOutcome:
    """Outcome of a single fault-injection trial."""

    success: Optional[bool] = None
    metric: Optional[float] = None
    extras: Dict[str, float] = field(default_factory=dict)

    def to_json_dict(self) -> Dict[str, object]:
        """JSON-safe representation (used by campaign checkpoints)."""
        return {
            "success": self.success,
            "metric": self.metric,
            "extras": dict(self.extras),
        }

    @classmethod
    def from_json_dict(cls, data: Dict[str, object]) -> "TrialOutcome":
        success = data.get("success")
        metric = data.get("metric")
        return cls(
            success=None if success is None else bool(success),
            metric=None if metric is None else float(metric),
            extras={str(k): float(v) for k, v in dict(data.get("extras") or {}).items()},
        )


@dataclass
class CampaignResult:
    """Aggregated campaign statistics."""

    name: str
    outcomes: List[TrialOutcome] = field(default_factory=list)
    #: Trials freshly executed by this run (vs restored from a checkpoint).
    executed_trials: int = 0
    #: Trials restored from an existing checkpoint instead of re-executed.
    restored_trials: int = 0

    @property
    def repetitions(self) -> int:
        return len(self.outcomes)

    # -- success-rate statistics ---------------------------------------- #
    @property
    def graded_outcomes(self) -> List[TrialOutcome]:
        """Trials that recorded a pass/fail verdict (``success is not None``).

        Metric-only trials report ``success=None``; every success statistic
        (:attr:`num_successes`, :attr:`success_rate`,
        :meth:`success_confidence`) is computed over this graded subset so
        the counts and rates stay mutually consistent.
        """
        return [o for o in self.outcomes if o.success is not None]

    @property
    def num_graded(self) -> int:
        return len(self.graded_outcomes)

    @property
    def num_successes(self) -> int:
        return sum(1 for o in self.graded_outcomes if o.success)

    @property
    def success_rate(self) -> float:
        graded = self.graded_outcomes
        if not graded:
            raise ValueError(f"campaign {self.name!r} recorded no success outcomes")
        return self.num_successes / len(graded)

    def success_confidence(self) -> Tuple[float, float]:
        return wilson_confidence_interval(self.num_successes, self.num_graded)

    # -- metric statistics ---------------------------------------------- #
    @property
    def metrics(self) -> np.ndarray:
        values = [o.metric for o in self.outcomes if o.metric is not None]
        return np.asarray(values, dtype=np.float64)

    @property
    def mean_metric(self) -> float:
        metrics = self.metrics
        if metrics.size == 0:
            raise ValueError(f"campaign {self.name!r} recorded no metric values")
        return float(metrics.mean())

    def metric_confidence(self) -> Tuple[float, float]:
        return mean_confidence_interval(self.metrics)

    def extras_mean(self, key: str) -> float:
        values = [o.extras[key] for o in self.outcomes if key in o.extras]
        if not values:
            raise KeyError(f"no trial recorded extra {key!r}")
        return float(np.mean(values))

    def summary(self) -> Dict[str, float]:
        """Compact summary for result tables."""
        out: Dict[str, float] = {"repetitions": self.repetitions}
        if self.num_graded:
            out["success_rate"] = self.success_rate
            lo, hi = self.success_confidence()
            out["success_ci_low"], out["success_ci_high"] = lo, hi
        if self.metrics.size:
            out["mean_metric"] = self.mean_metric
        return out


#: A trial function receives an independent RNG and returns one outcome.
TrialFn = Callable[[np.random.Generator], TrialOutcome]

#: Progress callback: (trials completed so far, total trials).
ProgressFn = Callable[[int, int], None]


class Campaign:
    """Runs repeated, independently seeded fault-injection trials."""

    def __init__(self, name: str, repetitions: int, seed: int = 0) -> None:
        if repetitions <= 0:
            raise ValueError(f"repetitions must be positive, got {repetitions}")
        self.name = name
        self.repetitions = repetitions
        self.seed = seed

    def trial_seeds(self) -> List[np.random.SeedSequence]:
        """One ``SeedSequence`` child per trial, indexed by trial number."""
        return np.random.SeedSequence(self.seed).spawn(self.repetitions)

    def run(
        self,
        trial_fn: TrialFn,
        runner: Optional["CampaignRunner"] = None,
        progress: Optional[ProgressFn] = None,
        checkpoint: Union["CampaignCheckpoint", str, os.PathLike, None] = None,
        resume: bool = False,
    ) -> CampaignResult:
        """Execute the campaign and return the aggregated result.

        Parameters
        ----------
        runner:
            Execution engine; ``None`` builds a
            :class:`~repro.core.runner.CampaignRunner` from the environment
            (in-process and scalar unless ``REPRO_CAMPAIGN_WORKERS`` /
            ``REPRO_CAMPAIGN_BATCH`` ask otherwise).
        progress:
            Called with ``(completed, total)`` after every finished trial,
            counting trials restored from a checkpoint as already completed.
        checkpoint:
            A :class:`~repro.io.results.CampaignCheckpoint` (or a path to
            one) that receives each outcome as a JSONL line as it completes.
        resume:
            When true and the checkpoint already holds outcomes for this
            campaign, only the missing trials are executed.  When false any
            existing checkpoint file is overwritten.
        """
        from repro.core.runner import CampaignRunner

        if runner is None:
            runner = CampaignRunner()
        checkpoint = _coerce_checkpoint(checkpoint)
        if resume and checkpoint is None:
            raise ValueError(
                "resume=True requires a checkpoint; without one every trial "
                "would silently be recomputed"
            )

        seeds = self.trial_seeds()
        completed: Dict[int, TrialOutcome] = {}
        if checkpoint is not None:
            if resume:
                completed = checkpoint.load(self)
            else:
                checkpoint.reset(self)

        pending = [(i, seeds[i]) for i in range(self.repetitions) if i not in completed]
        total = self.repetitions
        done = total - len(pending)
        if progress is not None and done:
            progress(done, total)

        # Telemetry brackets the execution; `traced` is latched here so the
        # Started/Finished pair can never come apart if a subscriber attaches
        # or detaches mid-campaign.  Restored trials emit no trial events.
        bus = default_bus()
        traced = bus.active
        started_at = time.perf_counter()
        if traced:
            bus.emit(
                CampaignStarted(
                    campaign=self.name,
                    repetitions=total,
                    restored=done,
                    engine=getattr(runner, "engine_name", type(runner).__name__),
                )
            )

        def on_result(index: int, outcome: TrialOutcome) -> None:
            nonlocal done
            done += 1
            if checkpoint is not None:
                checkpoint.append(index, outcome)
            if traced:
                bus.emit(CampaignProgress(campaign=self.name, done=done, total=total))
            if progress is not None:
                progress(done, total)

        with campaign_scope(self.name):
            for index, outcome in runner.run_trials(trial_fn, pending, on_result=on_result):
                completed[index] = outcome

        result = CampaignResult(name=self.name)
        result.outcomes = [completed[i] for i in range(self.repetitions)]
        result.executed_trials = len(pending)
        result.restored_trials = total - len(pending)
        if traced:
            bus.emit(
                CampaignFinished(
                    campaign=self.name,
                    repetitions=total,
                    executed_trials=result.executed_trials,
                    restored_trials=result.restored_trials,
                    wall_time_s=time.perf_counter() - started_at,
                )
            )
        return result


def _coerce_checkpoint(checkpoint):
    if checkpoint is None:
        return None
    if isinstance(checkpoint, (str, os.PathLike)):
        from repro.io.results import CampaignCheckpoint

        return CampaignCheckpoint(checkpoint)
    return checkpoint

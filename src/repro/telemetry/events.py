"""The typed telemetry event model.

Every observable moment in a running campaign, sweep or store is a frozen
dataclass with a stable string ``kind`` and a wall-clock timestamp, JSON
round-trippable through :meth:`~TelemetryEvent.to_json_dict` /
:func:`event_from_json_dict` (the schema the ``trace validate`` subcommand
checks against).  The families mirror the subsystems they instrument:

* ``campaign.*`` / ``trial.*`` — the campaign engines
  (:mod:`repro.core.campaign`, :mod:`repro.core.runner`): one
  :class:`CampaignStarted`/:class:`CampaignFinished` bracket per campaign
  and exactly one :class:`TrialStarted`/:class:`TrialFinished` pair per
  *executed* trial (restored-from-checkpoint trials never ran, so they
  never emit).
* ``sweep.*`` — the sweep orchestrators (:mod:`repro.sweep`): per-point
  start / cache-hit / finish, plus sweep-level progress used by the live
  CLI progress line.
* ``store.*`` — the content-addressed artifact store
  (:mod:`repro.store.artifact_store`): hit / miss / put / evict.
* ``worker.*`` — the process pool (:mod:`repro.core.runner`): a worker
  process that died, with the trials or sweep points it left unfinished.

Events are *observations*, never inputs: nothing in the execution path
reads them back, they draw no RNG, and emitting (or not emitting) them can
never change an experiment's numbers.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Type

__all__ = [
    "TelemetryEvent",
    "CampaignStarted",
    "CampaignProgress",
    "CampaignFinished",
    "TrialStarted",
    "TrialFinished",
    "SweepStarted",
    "SweepProgress",
    "SweepFinished",
    "SweepPointStarted",
    "SweepPointCacheHit",
    "SweepPointFinished",
    "StoreHit",
    "StoreMiss",
    "StorePut",
    "StoreEvict",
    "WorkerLost",
    "EVENT_KINDS",
    "event_from_json_dict",
]

#: Registry of every event kind string -> event class (the trace schema).
EVENT_KINDS: Dict[str, Type["TelemetryEvent"]] = {}


def _register(cls: Type["TelemetryEvent"]) -> Type["TelemetryEvent"]:
    if not cls.kind:
        raise ValueError(f"{cls.__name__} declares no event kind")
    existing = EVENT_KINDS.get(cls.kind)
    if existing is not None and existing is not cls:
        raise ValueError(f"duplicate event kind {cls.kind!r}")
    EVENT_KINDS[cls.kind] = cls
    return cls


@dataclass(frozen=True)
class TelemetryEvent:
    """Base event: a ``kind`` discriminator plus a wall-clock timestamp.

    ``ts`` is ``time.time()`` at construction — wall clock on purpose, so
    events a pool worker recorded and the parent re-emitted read on the
    same timeline as the parent's own (monotonic clocks are not comparable
    across processes or machines).
    """

    kind = ""  # overridden per subclass; class attr, not a dataclass field

    def to_json_dict(self) -> Dict[str, Any]:
        # Deferred import: repro.io's package __init__ pulls in the campaign
        # module, which imports telemetry — importing io.sanitize at module
        # scope here would close that cycle.
        from repro.io.sanitize import json_ready

        payload = {"kind": self.kind}
        payload.update(json_ready(dataclasses.asdict(self)))
        return payload


def _ts() -> float:
    return time.time()


# --------------------------------------------------------------------------- #
# Campaign / trial events (core engines)
# --------------------------------------------------------------------------- #
@_register
@dataclass(frozen=True)
class CampaignStarted(TelemetryEvent):
    """A campaign began executing (after checkpoint restoration)."""

    campaign: str = ""
    repetitions: int = 0
    #: Trials restored from a checkpoint (they will emit no trial events).
    restored: int = 0
    engine: str = ""
    ts: float = field(default_factory=_ts)

    kind = "campaign.started"


@_register
@dataclass(frozen=True)
class CampaignProgress(TelemetryEvent):
    """One more campaign trial completed (``done`` counts restored trials)."""

    campaign: str = ""
    done: int = 0
    total: int = 0
    ts: float = field(default_factory=_ts)

    kind = "campaign.progress"


@_register
@dataclass(frozen=True)
class CampaignFinished(TelemetryEvent):
    """A campaign completed; counts split executed vs checkpoint-restored."""

    campaign: str = ""
    repetitions: int = 0
    executed_trials: int = 0
    restored_trials: int = 0
    wall_time_s: float = 0.0
    ts: float = field(default_factory=_ts)

    kind = "campaign.finished"


@_register
@dataclass(frozen=True)
class TrialStarted(TelemetryEvent):
    """One campaign trial is about to execute on ``engine``."""

    campaign: str = ""
    trial: int = 0
    engine: str = ""
    ts: float = field(default_factory=_ts)

    kind = "trial.started"


@_register
@dataclass(frozen=True)
class TrialFinished(TelemetryEvent):
    """One campaign trial finished.

    ``wall_time_s`` is the trial's own wall time on scalar engines; for
    vectorized batches (where B trials share one stacked forward pass) it
    is the batch wall time amortized over the batch, flagged by the
    ``batched`` field.
    """

    campaign: str = ""
    trial: int = 0
    engine: str = ""
    wall_time_s: float = 0.0
    batched: bool = False
    success: Optional[bool] = None
    metric: Optional[float] = None
    ts: float = field(default_factory=_ts)

    kind = "trial.finished"


# --------------------------------------------------------------------------- #
# Sweep events (orchestration layers)
# --------------------------------------------------------------------------- #
@_register
@dataclass(frozen=True)
class SweepStarted(TelemetryEvent):
    """A sweep began (``restored`` points were loaded from a checkpoint)."""

    experiment: str = ""
    n_points: int = 0
    restored: int = 0
    sweep_workers: int = 1
    ts: float = field(default_factory=_ts)

    kind = "sweep.started"


@_register
@dataclass(frozen=True)
class SweepProgress(TelemetryEvent):
    """One more sweep point is accounted for (drives the progress line)."""

    experiment: str = ""
    done: int = 0
    total: int = 0
    ts: float = field(default_factory=_ts)

    kind = "sweep.progress"


@_register
@dataclass(frozen=True)
class SweepFinished(TelemetryEvent):
    """A sweep completed, with the orchestration-level totals."""

    experiment: str = ""
    n_points: int = 0
    cache_hits: int = 0
    executed_trials: int = 0
    wall_time_s: float = 0.0
    ts: float = field(default_factory=_ts)

    kind = "sweep.finished"


@_register
@dataclass(frozen=True)
class SweepPointStarted(TelemetryEvent):
    """One sweep point is about to run (or be served from the store)."""

    experiment: str = ""
    point: int = 0
    params: Dict[str, Any] = field(default_factory=dict)
    ts: float = field(default_factory=_ts)

    kind = "sweep.point.started"


@_register
@dataclass(frozen=True)
class SweepPointCacheHit(TelemetryEvent):
    """A sweep point was served from the artifact store (zero trials)."""

    experiment: str = ""
    point: int = 0
    digest: Optional[str] = None
    ts: float = field(default_factory=_ts)

    kind = "sweep.point.cache_hit"


@_register
@dataclass(frozen=True)
class SweepPointFinished(TelemetryEvent):
    """One sweep point completed.

    ``ci_half_width`` is the final Wilson half-width of the point's
    headline success-rate metric under adaptive (``repetitions="auto"``)
    runs, ``None`` otherwise.
    """

    experiment: str = ""
    point: int = 0
    executed_trials: int = 0
    cache_hit: bool = False
    adaptive_rounds: int = 1
    ci_half_width: Optional[float] = None
    wall_time_s: float = 0.0
    ts: float = field(default_factory=_ts)

    kind = "sweep.point.finished"


# --------------------------------------------------------------------------- #
# Artifact-store events
# --------------------------------------------------------------------------- #
@_register
@dataclass(frozen=True)
class StoreHit(TelemetryEvent):
    """``get()`` served an artifact from disk."""

    digest: str = ""
    ts: float = field(default_factory=_ts)

    kind = "store.hit"


@_register
@dataclass(frozen=True)
class StoreMiss(TelemetryEvent):
    """``get()`` found nothing (or an unreadable object) under the key."""

    digest: str = ""
    ts: float = field(default_factory=_ts)

    kind = "store.miss"


@_register
@dataclass(frozen=True)
class StorePut(TelemetryEvent):
    """``put()`` persisted an artifact object + index journal entry."""

    digest: str = ""
    ts: float = field(default_factory=_ts)

    kind = "store.put"


@_register
@dataclass(frozen=True)
class StoreEvict(TelemetryEvent):
    """``evict()`` removed one stored object."""

    digest: str = ""
    ts: float = field(default_factory=_ts)

    kind = "store.evict"


# --------------------------------------------------------------------------- #
# Process-pool events
# --------------------------------------------------------------------------- #
@_register
@dataclass(frozen=True)
class WorkerLost(TelemetryEvent):
    """A pool worker process died; ``lost`` names the work left unfinished.

    ``unit`` is ``"trial"`` (``scope`` is the campaign) or ``"point"``
    (``scope`` is the sweep's experiment).
    """

    scope: str = ""
    unit: str = "trial"
    lost: List[int] = field(default_factory=list)
    ts: float = field(default_factory=_ts)

    kind = "worker.lost"


def event_from_json_dict(data: Mapping[str, Any]) -> TelemetryEvent:
    """Reconstruct an event from its :meth:`~TelemetryEvent.to_json_dict` form.

    Unknown fields are ignored (forward compatibility: a newer writer may
    add fields an older reader does not know); an unknown ``kind`` raises
    ``ValueError`` — that is the schema check ``trace validate`` relies on.
    """
    kind = data.get("kind")
    cls = EVENT_KINDS.get(kind)
    if cls is None:
        raise ValueError(f"unknown telemetry event kind: {kind!r}")
    names = {f.name for f in dataclasses.fields(cls)}
    return cls(**{key: value for key, value in data.items() if key in names})

"""Telemetry: typed events, the process-global bus, trace sinks, metrics.

The observability layer for every engine in the platform.  Instrumented
subsystems (the campaign engine and its process pool, sweeps, the
artifact store) emit frozen-dataclass events into a process-global :class:`EventBus`;
subscribers turn the stream into JSONL traces (:class:`TraceSink`),
aggregate statistics (:class:`Metrics` / :class:`TelemetryReport`) or a
terminal progress line (:class:`ProgressReporter`).

Design invariants:

* **Zero overhead when detached** — instrumentation guards event
  construction behind ``bus.active``; with no subscribers a campaign pays
  one attribute read per site (guarded by
  ``benchmarks/bench_telemetry_overhead.py``).
* **Observation only** — telemetry draws no RNG and feeds nothing back
  into execution; traced runs are bit-identical to untraced runs.
* **One stream per run** — pool workers never write traces; the parent
  re-emits what they report, so a pooled run traces into the same sinks
  as an in-process one.
"""

from repro.telemetry.bus import (
    EventBus,
    campaign_scope,
    current_campaign,
    default_bus,
    reset_default_bus,
    set_default_bus,
)
from repro.telemetry.events import (
    EVENT_KINDS,
    CampaignFinished,
    CampaignProgress,
    CampaignStarted,
    StoreEvict,
    StoreHit,
    StoreMiss,
    StorePut,
    SweepFinished,
    SweepPointCacheHit,
    SweepPointFinished,
    SweepPointStarted,
    SweepProgress,
    SweepStarted,
    TelemetryEvent,
    TrialFinished,
    TrialStarted,
    WorkerLost,
    event_from_json_dict,
)
from repro.telemetry.metrics import Counters, Histogram, Metrics, TelemetryReport, Timer
from repro.telemetry.progress import ProgressReporter
from repro.telemetry.sink import (
    TRACE_ENV_VAR,
    TraceSink,
    read_trace,
    trace_to,
)

__all__ = [
    # bus
    "EventBus",
    "default_bus",
    "set_default_bus",
    "reset_default_bus",
    "current_campaign",
    "campaign_scope",
    # events
    "TelemetryEvent",
    "EVENT_KINDS",
    "event_from_json_dict",
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
    # sink
    "TRACE_ENV_VAR",
    "TraceSink",
    "trace_to",
    "read_trace",
    # metrics
    "Counters",
    "Timer",
    "Histogram",
    "Metrics",
    "TelemetryReport",
    # progress
    "ProgressReporter",
]

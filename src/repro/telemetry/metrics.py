"""Metrics aggregation: counters, timers, histograms, and trace reports.

Two consumption styles share the same machinery:

* **Live**: subscribe a :class:`Metrics` instance to a bus and it folds
  events into counters/timers/histograms as the run executes; ``api.run``
  does this to stamp a ``telemetry`` summary block onto artifacts.
* **Post-hoc**: :meth:`TelemetryReport.from_trace` replays a JSONL trace
  file (e.g. the trace of a pooled sweep) through the same
  ``Metrics`` and renders per-phase timing tables — the ``trace
  summarize`` subcommand.

Everything here observes; nothing feeds back into execution, so the
numbers of a traced run are bit-identical to an untraced one.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Union

from repro.telemetry.events import (
    CampaignFinished,
    CampaignStarted,
    StoreEvict,
    StoreHit,
    StoreMiss,
    StorePut,
    SweepFinished,
    SweepPointCacheHit,
    SweepPointFinished,
    SweepStarted,
    TelemetryEvent,
    TrialFinished,
    TrialStarted,
    WorkerLost,
)

__all__ = ["Counters", "Timer", "Histogram", "Metrics", "TelemetryReport"]


class Counters:
    """A plain named-counter bag (monotone non-negative integers)."""

    def __init__(self) -> None:
        self._values: Dict[str, int] = {}

    def increment(self, name: str, amount: int = 1) -> None:
        self._values[name] = self._values.get(name, 0) + amount

    def get(self, name: str) -> int:
        return self._values.get(name, 0)

    def as_dict(self) -> Dict[str, int]:
        return dict(sorted(self._values.items()))

    def __bool__(self) -> bool:
        return bool(self._values)

    def __repr__(self) -> str:
        return f"Counters({self._values!r})"


@dataclass
class Timer:
    """Streaming wall-time statistics for one named phase."""

    count: int = 0
    total_s: float = 0.0
    min_s: float = math.inf
    max_s: float = 0.0

    def record(self, seconds: float) -> None:
        seconds = max(float(seconds), 0.0)
        self.count += 1
        self.total_s += seconds
        self.min_s = min(self.min_s, seconds)
        self.max_s = max(self.max_s, seconds)

    @property
    def mean_s(self) -> float:
        return self.total_s / self.count if self.count else 0.0

    def as_dict(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "total_s": self.total_s,
            "mean_s": self.mean_s,
            "min_s": self.min_s if self.count else 0.0,
            "max_s": self.max_s,
        }


class Histogram:
    """Log-decade duration histogram (buckets: <1µs, <10µs, ..., >=10s).

    Coarse on purpose: it answers "are trials microseconds or seconds"
    without configuration, which is the question timing tables ask.
    """

    #: Upper edges in seconds; one overflow bucket beyond the last edge.
    EDGES = (1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0)

    def __init__(self) -> None:
        self.buckets = [0] * (len(self.EDGES) + 1)

    def record(self, seconds: float) -> None:
        seconds = max(float(seconds), 0.0)
        for i, edge in enumerate(self.EDGES):
            if seconds < edge:
                self.buckets[i] += 1
                return
        self.buckets[-1] += 1

    @property
    def count(self) -> int:
        return sum(self.buckets)

    def as_dict(self) -> Dict[str, int]:
        labels = [f"<{edge:g}s" for edge in self.EDGES] + [f">={self.EDGES[-1]:g}s"]
        return {label: n for label, n in zip(labels, self.buckets) if n}


class Metrics:
    """Event-bus subscriber folding the stream into aggregate statistics.

    Thread-safe: the bus may deliver from any thread that emits.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.counters = Counters()
        self.timers: Dict[str, Timer] = {}
        self.histograms: Dict[str, Histogram] = {}
        self.events_seen = 0
        #: Final CI half-widths of adaptive sweep points, by point index.
        self.ci_half_widths: Dict[int, float] = {}
        self.engines_seen: Dict[str, int] = {}

    def _timer(self, name: str) -> Timer:
        timer = self.timers.get(name)
        if timer is None:
            timer = self.timers[name] = Timer()
        return timer

    def _histogram(self, name: str) -> Histogram:
        hist = self.histograms.get(name)
        if hist is None:
            hist = self.histograms[name] = Histogram()
        return hist

    def observe(self, event: TelemetryEvent) -> None:
        with self._lock:
            self.events_seen += 1
            self.counters.increment(f"events.{event.kind}")
            if isinstance(event, TrialFinished):
                self.counters.increment("trials.finished")
                self._timer("trial").record(event.wall_time_s)
                self._histogram("trial").record(event.wall_time_s)
                if event.engine:
                    self._timer(f"trial[{event.engine}]").record(event.wall_time_s)
                    self.engines_seen[event.engine] = (
                        self.engines_seen.get(event.engine, 0) + 1
                    )
            elif isinstance(event, TrialStarted):
                self.counters.increment("trials.started")
            elif isinstance(event, CampaignStarted):
                self.counters.increment("campaigns.started")
                self.counters.increment("trials.restored", event.restored)
            elif isinstance(event, CampaignFinished):
                self.counters.increment("campaigns.finished")
                self._timer("campaign").record(event.wall_time_s)
            elif isinstance(event, SweepStarted):
                self.counters.increment("sweeps.started")
            elif isinstance(event, SweepFinished):
                self.counters.increment("sweeps.finished")
                self._timer("sweep").record(event.wall_time_s)
            elif isinstance(event, SweepPointCacheHit):
                self.counters.increment("sweep.points.cache_hits")
            elif isinstance(event, SweepPointFinished):
                self.counters.increment("sweep.points.finished")
                self.counters.increment(
                    "sweep.trials.executed", event.executed_trials
                )
                if not event.cache_hit:
                    self._timer("sweep.point").record(event.wall_time_s)
                if event.ci_half_width is not None:
                    self.ci_half_widths[event.point] = event.ci_half_width
            elif isinstance(event, StoreHit):
                self.counters.increment("store.hits")
            elif isinstance(event, StoreMiss):
                self.counters.increment("store.misses")
            elif isinstance(event, StorePut):
                self.counters.increment("store.puts")
            elif isinstance(event, StoreEvict):
                self.counters.increment("store.evictions")
            elif isinstance(event, WorkerLost):
                self.counters.increment("workers.lost")

    # Allow subscribing the instance itself: bus.subscribe(metrics).
    __call__ = observe

    def summary_dict(self) -> Dict[str, Any]:
        """Compact JSON-ready summary (the artifact ``telemetry`` block)."""
        with self._lock:
            summary: Dict[str, Any] = {
                "events": self.events_seen,
                "counters": self.counters.as_dict(),
                "timers": {
                    name: timer.as_dict()
                    for name, timer in sorted(self.timers.items())
                },
            }
            if self.engines_seen:
                summary["engines"] = dict(sorted(self.engines_seen.items()))
            if self.ci_half_widths:
                summary["ci_half_width"] = {
                    "points": len(self.ci_half_widths),
                    "max": max(self.ci_half_widths.values()),
                }
            return summary


@dataclass
class TelemetryReport:
    """A folded trace: aggregate metrics plus per-kind accounting.

    Build one with :meth:`from_trace` (a JSONL file) or
    :meth:`from_events` (an in-memory stream), then :meth:`render` it as
    the per-phase timing tables ``trace summarize`` prints.
    """

    metrics: Metrics = field(default_factory=Metrics)
    source: Optional[str] = None

    @classmethod
    def from_events(
        cls, events: Iterable[TelemetryEvent], source: Optional[str] = None
    ) -> "TelemetryReport":
        report = cls(source=source)
        for event in events:
            report.metrics.observe(event)
        return report

    @classmethod
    def from_trace(cls, path: Union[str, "Any"]) -> "TelemetryReport":
        from repro.telemetry.sink import read_trace

        return cls.from_events(read_trace(path), source=str(path))

    # -- accounting properties (the acceptance-criteria numbers) ---------- #
    @property
    def events_total(self) -> int:
        return self.metrics.events_seen

    @property
    def executed_trials(self) -> int:
        """Trials that actually ran (one TrialFinished each)."""
        return self.metrics.counters.get("trials.finished")

    @property
    def restored_trials(self) -> int:
        return self.metrics.counters.get("trials.restored")

    @property
    def sweep_points(self) -> int:
        return self.metrics.counters.get("sweep.points.finished")

    @property
    def cache_hits(self) -> int:
        return self.metrics.counters.get("sweep.points.cache_hits")

    @property
    def store_hits(self) -> int:
        return self.metrics.counters.get("store.hits")

    @property
    def store_misses(self) -> int:
        return self.metrics.counters.get("store.misses")

    @property
    def trial_pairs_balanced(self) -> bool:
        """Whether every started trial also finished (stream completeness)."""
        started = self.metrics.counters.get("trials.started")
        return started == self.metrics.counters.get("trials.finished")

    def summary_dict(self) -> Dict[str, Any]:
        summary = self.metrics.summary_dict()
        if self.source is not None:
            summary["source"] = self.source
        return summary

    def render(self) -> str:
        """Human-readable report: counts, per-phase timing, histograms."""
        from repro.io.results import ResultTable
        from repro.io.tables import render_table

        sections: List[str] = []
        header = f"Telemetry report"
        if self.source:
            header += f" — {self.source}"
        sections.append(header)
        sections.append(
            f"{self.events_total} event(s): "
            f"{self.executed_trials} trial(s) executed, "
            f"{self.restored_trials} restored"
            + (
                f"; {self.sweep_points} sweep point(s), "
                f"{self.cache_hits} cache hit(s)"
                if self.sweep_points or self.cache_hits
                else ""
            )
        )

        counts = ResultTable(title="event counts")
        for name, value in self.metrics.counters.as_dict().items():
            if name.startswith("events."):
                counts.add(kind=name[len("events."):], count=value)
        if counts.rows:
            sections.append(render_table(counts))

        timing = ResultTable(title="phase timing")
        for name, timer in sorted(self.metrics.timers.items()):
            timing.add(
                phase=name,
                count=timer.count,
                total_s=timer.total_s,
                mean_s=timer.mean_s,
                min_s=timer.min_s if timer.count else 0.0,
                max_s=timer.max_s,
            )
        if timing.rows:
            sections.append(render_table(timing, precision=4))

        for name, hist in sorted(self.metrics.histograms.items()):
            buckets = hist.as_dict()
            if not buckets:
                continue
            hist_table = ResultTable(title=f"{name} duration histogram")
            for label, n in buckets.items():
                hist_table.add(bucket=label, count=n)
            sections.append(render_table(hist_table))

        if self.metrics.ci_half_widths:
            ci = ResultTable(title="adaptive CI half-widths")
            for point, half_width in sorted(self.metrics.ci_half_widths.items()):
                ci.add(point=point, ci_half_width=half_width)
            sections.append(render_table(ci, precision=4))

        counters = {
            name: value
            for name, value in self.metrics.counters.as_dict().items()
            if not name.startswith("events.")
        }
        if counters:
            other = ResultTable(title="counters")
            for name, value in counters.items():
                other.add(counter=name, value=value)
            sections.append(render_table(other))

        return "\n\n".join(sections)

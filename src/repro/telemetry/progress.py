"""Live progress reporting as an event-bus subscriber.

Replaces the raw ``print(f"  sweep point {done}/{total}")`` the CLI used to
hard-wire into the sweep loop: the loop now only emits events, and *what*
gets shown is a subscription decision made at the CLI edge.  Two modes:

* ``lines`` (default): one line per completed sweep point / campaign
  progress tick — the old behaviour, but driven by events, so it also
  works under pooled sweeps (the parent emits the progress events).
* ``live`` (``--progress``): a single carriage-return-rewritten status
  line showing trials done, executed-vs-restored split, and the current
  CI half-width under adaptive runs.

Progress goes to *stderr* so result tables on stdout stay pipeable, and
``--quiet`` simply means no reporter is subscribed at all.
"""

from __future__ import annotations

import sys
from typing import IO, Optional

from repro.telemetry.events import (
    CampaignFinished,
    CampaignProgress,
    CampaignStarted,
    SweepFinished,
    SweepPointCacheHit,
    SweepPointFinished,
    SweepProgress,
    TelemetryEvent,
    TrialFinished,
)

__all__ = ["ProgressReporter"]


class ProgressReporter:
    """Event-bus subscriber rendering run progress to a terminal stream."""

    def __init__(self, mode: str = "lines", stream: Optional[IO[str]] = None) -> None:
        if mode not in ("lines", "live"):
            raise ValueError(f"unknown progress mode: {mode!r}")
        self.mode = mode
        self.stream = stream if stream is not None else sys.stderr
        self._live_dirty = False
        # Running state for the live line.
        self._trials_done = 0
        self._trials_restored = 0
        self._trials_total = 0
        self._points_done = 0
        self._points_total = 0
        self._cache_hits = 0
        self._ci_half_width: Optional[float] = None

    # ------------------------------------------------------------------ #
    def __call__(self, event: TelemetryEvent) -> None:
        if self.mode == "live":
            self._observe_live(event)
        else:
            self._observe_lines(event)

    # -- default mode: one line per progress tick ----------------------- #
    def _observe_lines(self, event: TelemetryEvent) -> None:
        if isinstance(event, SweepProgress):
            self._println(f"  sweep point {event.done}/{event.total}")
        elif isinstance(event, CampaignProgress):
            # Campaign ticks are per-trial and can number millions; only
            # sweep-level ticks get a line in this mode.
            pass

    # -- live mode: one rewritten status line ---------------------------- #
    def _observe_live(self, event: TelemetryEvent) -> None:
        changed = False
        if isinstance(event, CampaignStarted):
            self._trials_total += event.repetitions
            self._trials_restored += event.restored
            self._trials_done += event.restored
            changed = True
        elif isinstance(event, CampaignProgress):
            self._trials_done += 1
            changed = True
        elif isinstance(event, TrialFinished):
            changed = False  # CampaignProgress already counts completions
        elif isinstance(event, SweepProgress):
            self._points_done = event.done
            self._points_total = event.total
            changed = True
        elif isinstance(event, SweepPointCacheHit):
            self._cache_hits += 1
            changed = True
        elif isinstance(event, SweepPointFinished):
            if event.ci_half_width is not None:
                self._ci_half_width = event.ci_half_width
            changed = True
        elif isinstance(event, (SweepFinished, CampaignFinished)):
            self._finish_line()
            return
        if changed:
            self._rewrite()

    def _status(self) -> str:
        parts = []
        if self._points_total:
            parts.append(f"points {self._points_done}/{self._points_total}")
            if self._cache_hits:
                parts.append(f"{self._cache_hits} cached")
        if self._trials_total:
            executed = self._trials_done - self._trials_restored
            piece = f"trials {self._trials_done}/{self._trials_total}"
            if self._trials_restored:
                piece += f" ({executed} run, {self._trials_restored} restored)"
            parts.append(piece)
        if self._ci_half_width is not None:
            parts.append(f"ci±{self._ci_half_width:.4f}")
        return "  " + " | ".join(parts) if parts else ""

    def _rewrite(self) -> None:
        status = self._status()
        if not status:
            return
        self.stream.write("\r" + status.ljust(79))
        self.stream.flush()
        self._live_dirty = True

    def _finish_line(self) -> None:
        """Terminate the live line so following output starts on a fresh row."""
        if self._live_dirty:
            self.stream.write("\n")
            self.stream.flush()
            self._live_dirty = False

    def _println(self, text: str) -> None:
        self.stream.write(text + "\n")
        self.stream.flush()

    def close(self) -> None:
        self._finish_line()

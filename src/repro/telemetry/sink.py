"""JSONL trace sinks: durable event streams.

A :class:`TraceSink` is an event-bus subscriber that appends one JSON line
per event to a file.  Writes are serialized under a lock (the bus may
deliver from any emitting thread) and flushed per line, so a crashed run
leaves at most one truncated trailing line — which :func:`read_trace`
skips, mirroring how the campaign/sweep checkpoints tolerate torn tails.

Only the process that attached a sink writes to it: pool workers send
their events back to the parent, which emits them on its own bus, so
concurrent appends never interleave.

:func:`trace_to` is the one-liner the CLI uses::

    with trace_to("run.jsonl"):
        api.run("fig5.inference", fast=True)
"""

from __future__ import annotations

import contextlib
import json
import os
import threading
from pathlib import Path
from typing import Iterator, List, Optional, Union

from repro.telemetry.bus import EventBus, default_bus
from repro.telemetry.events import TelemetryEvent, event_from_json_dict

__all__ = [
    "TRACE_ENV_VAR",
    "TraceSink",
    "trace_to",
    "read_trace",
    "iter_trace_lines",
]

#: Environment variable naming a default trace file for every CLI subcommand.
TRACE_ENV_VAR = "REPRO_TRACE"


class TraceSink:
    """Event-bus subscriber appending every event to a JSONL file.

    Parameters
    ----------
    path:
        Trace file; parent directories are created, an existing file is
        truncated (a trace describes one run, not an append-forever log).
    """

    def __init__(self, path: Union[str, os.PathLike]) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._handle = open(self.path, "w")
        self._events_written = 0

    @property
    def events_written(self) -> int:
        return self._events_written

    def __call__(self, event: TelemetryEvent) -> None:
        line = json.dumps(event.to_json_dict(), separators=(",", ":"))
        with self._lock:
            if self._handle.closed:
                return  # late event after close (e.g. a straggler thread)
            self._handle.write(line + "\n")
            self._handle.flush()
            self._events_written += 1

    def close(self) -> None:
        with self._lock:
            if not self._handle.closed:
                self._handle.close()

    def __enter__(self) -> "TraceSink":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"TraceSink({str(self.path)!r}, {self._events_written} event(s))"


@contextlib.contextmanager
def trace_to(
    path: Union[str, os.PathLike], bus: Optional[EventBus] = None
) -> Iterator[TraceSink]:
    """Write every event emitted in the body to a JSONL trace file.

    Subscribes a fresh :class:`TraceSink` to ``bus`` (default: the
    process-global bus) on entry and detaches + closes it on exit.
    """
    bus = bus if bus is not None else default_bus()
    sink = TraceSink(path)
    bus.subscribe(sink)
    try:
        yield sink
    finally:
        bus.unsubscribe(sink)
        sink.close()


def iter_trace_lines(path: Union[str, os.PathLike]) -> Iterator[str]:
    """The non-empty lines of a trace file, in file order."""
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if line:
                yield line


def read_trace(
    path: Union[str, os.PathLike], strict: bool = False
) -> List[TelemetryEvent]:
    """Parse a JSONL trace file back into typed events.

    By default a malformed line (a writer killed mid-append) or an unknown
    event kind is skipped, so a partially written trace from a crashed
    run still folds into a report.  ``strict=True`` raises instead —
    that is the ``trace validate`` mode.
    """
    events: List[TelemetryEvent] = []
    for number, line in enumerate(iter_trace_lines(path), start=1):
        try:
            events.append(event_from_json_dict(json.loads(line)))
        except (json.JSONDecodeError, ValueError, TypeError) as exc:
            if strict:
                raise ValueError(f"{path}:{number}: invalid trace line: {exc}") from exc
            continue
    return events


"""The telemetry event bus: subscribe / emit, with a zero-overhead null state.

One process-global :class:`EventBus` (:func:`default_bus`) carries every
telemetry event.  The design constraint is the *detached* case: campaigns
run millions of trials, so when nothing is subscribed the instrumentation
in the hot paths must cost essentially nothing.  Two properties deliver
that:

* ``bus.active`` is a single attribute read plus a truthiness check (the
  subscriber list is an immutable tuple).  Instrumented sites guard every
  event construction behind it, so a detached bus never even allocates an
  event — the per-trial cost is one boolean check, guarded by
  ``benchmarks/bench_telemetry_overhead.py``.
* ``emit`` iterates a tuple snapshot without locking; subscription changes
  copy-on-write the tuple under a lock.  Subscribers may therefore be
  called from any thread that emits and must be thread-safe themselves —
  the bundled
  :class:`~repro.telemetry.sink.TraceSink` and
  :class:`~repro.telemetry.metrics.Metrics` are.

Worker processes must not inherit a parent's subscribers (a forked
:class:`~repro.telemetry.sink.TraceSink` would interleave writes into the
parent's file), so the pool initializer calls :func:`reset_default_bus`
first.  Workers send what the parent should see back with their results —
trial wall times, or a sweep point's collected events — and the parent
emits it on its own bus.

The *campaign context* is a ``contextvars.ContextVar`` carrying the name of
the campaign currently executing, so the engines — which only see anonymous
``(index, seed)`` tasks — can stamp trial events with the campaign they
belong to.
"""

from __future__ import annotations

import contextlib
import threading
from contextvars import ContextVar
from typing import Callable, Iterator, Tuple

from repro.telemetry.events import TelemetryEvent

__all__ = [
    "EventBus",
    "default_bus",
    "set_default_bus",
    "reset_default_bus",
    "current_campaign",
    "campaign_scope",
]

#: A subscriber: any callable taking one event.  Exceptions propagate to the
#: emitter on purpose — a silently broken sink would mean silently lost
#: traces.
Subscriber = Callable[[TelemetryEvent], None]


class EventBus:
    """Thread-safe publish/subscribe fan-out for telemetry events."""

    __slots__ = ("_subscribers", "_lock")

    def __init__(self) -> None:
        self._subscribers: Tuple[Subscriber, ...] = ()
        self._lock = threading.Lock()

    @property
    def active(self) -> bool:
        """Whether any subscriber is attached (the hot-path guard)."""
        return bool(self._subscribers)

    def subscribe(self, handler: Subscriber) -> Subscriber:
        """Attach a subscriber; returns it (so it can be unsubscribed later)."""
        if not callable(handler):
            raise TypeError(f"subscriber must be callable, got {handler!r}")
        with self._lock:
            if handler not in self._subscribers:
                self._subscribers = self._subscribers + (handler,)
        return handler

    def unsubscribe(self, handler: Subscriber) -> None:
        """Detach a subscriber; detaching one not attached is a no-op."""
        with self._lock:
            self._subscribers = tuple(
                fn for fn in self._subscribers if fn is not handler
            )

    @contextlib.contextmanager
    def subscribed(self, handler: Subscriber) -> Iterator[Subscriber]:
        """Context manager: subscribe on entry, unsubscribe on exit."""
        self.subscribe(handler)
        try:
            yield handler
        finally:
            self.unsubscribe(handler)

    def emit(self, event: TelemetryEvent) -> None:
        """Deliver one event to every subscriber, in subscription order."""
        for handler in self._subscribers:
            handler(event)

    def __repr__(self) -> str:
        return f"EventBus({len(self._subscribers)} subscriber(s))"


_DEFAULT_BUS = EventBus()


def default_bus() -> EventBus:
    """The process-global bus every instrumented subsystem emits into."""
    return _DEFAULT_BUS


def set_default_bus(bus: EventBus) -> EventBus:
    """Replace the process-global bus; returns the previous one."""
    global _DEFAULT_BUS
    if not isinstance(bus, EventBus):
        raise TypeError(f"expected an EventBus, got {type(bus).__name__}")
    previous = _DEFAULT_BUS
    _DEFAULT_BUS = bus
    return previous


def reset_default_bus() -> EventBus:
    """Install a fresh, subscriber-free default bus (returns the new one).

    Called at every worker-process entry point so forked children never
    deliver events into subscribers (sinks, progress lines) the *parent*
    attached; the child decides its own observability.
    """
    global _DEFAULT_BUS
    _DEFAULT_BUS = EventBus()
    return _DEFAULT_BUS


#: Name of the campaign currently executing in this context ("" outside one).
_CAMPAIGN: ContextVar[str] = ContextVar("repro_telemetry_campaign", default="")


def current_campaign() -> str:
    """The campaign name trial events should carry ("" when none is active)."""
    return _CAMPAIGN.get()


@contextlib.contextmanager
def campaign_scope(name: str) -> Iterator[None]:
    """Mark ``name`` as the executing campaign for the duration of the body."""
    token = _CAMPAIGN.set(name)
    try:
        yield
    finally:
        _CAMPAIGN.reset(token)

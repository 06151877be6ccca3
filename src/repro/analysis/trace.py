"""Execution traces.

A :class:`Tracer` collects timestamped events emitted by the network, the process
shells and the algorithms (through ``Environment.log``).  Traces are the raw material
of the analysis layer: leader-change counting, message accounting and the
per-experiment reports are all computed from them or from the cheaper polling
mechanism in :mod:`repro.analysis.metrics`.

Tracing is optional and off by default (the benchmark harness keeps it off for the
large sweeps); when enabled its overhead is a single deque append per event.
"""

from __future__ import annotations

import dataclasses
from collections import Counter, deque
from typing import Callable, Deque, Dict, Iterable, List, Optional


@dataclasses.dataclass(frozen=True)
class TraceEvent:
    """A single recorded event."""

    time: float
    pid: int
    kind: str
    details: tuple

    def detail(self, key: str, default=None):
        """Return a named detail value."""
        return dict(self.details).get(key, default)


class Tracer:
    """Collects :class:`TraceEvent` objects.

    Parameters
    ----------
    kinds:
        When given, only events whose ``kind`` is in this set are recorded — useful
        to keep long runs cheap (e.g. record only ``"leader_change"`` events).
    capacity:
        Optional hard cap on the number of stored events; the oldest events are
        dropped once the cap is reached (the counter keeps counting).
    """

    def __init__(
        self, kinds: Optional[Iterable[str]] = None, capacity: Optional[int] = None
    ) -> None:
        self._kinds = frozenset(kinds) if kinds is not None else None
        # A capped tracer evicts its oldest event in O(1) on each append.
        self.events: Deque[TraceEvent] = deque(maxlen=capacity)
        self.counts: Counter = Counter()

    def record(self, time: float, pid: int, kind: str, **details: object) -> None:
        """Record one event (called by the simulator and the environments)."""
        if self._kinds is not None and kind not in self._kinds:
            return
        self.counts[kind] += 1
        event = TraceEvent(time=time, pid=pid, kind=kind, details=tuple(details.items()))
        self.events.append(event)

    # ------------------------------------------------------------------ queries --
    def of_kind(self, kind: str) -> List[TraceEvent]:
        """Return the recorded events of the given kind, in time order."""
        return [event for event in self.events if event.kind == kind]

    def for_process(self, pid: int) -> List[TraceEvent]:
        """Return the recorded events of the given process, in time order."""
        return [event for event in self.events if event.pid == pid]

    def count(self, kind: str) -> int:
        """Return how many events of *kind* were observed (even if not stored)."""
        return self.counts[kind]

    def filter(self, predicate: Callable[[TraceEvent], bool]) -> List[TraceEvent]:
        """Return the stored events satisfying *predicate*."""
        return [event for event in self.events if predicate(event)]

    def kinds(self) -> Dict[str, int]:
        """Return a dictionary kind -> observed count."""
        return dict(self.counts)

    def __len__(self) -> int:
        return len(self.events)

"""Span tracing from outside the program: wrap layer entry points, time them.

The benchmark never edits ``src/``.  To split a run's host time by layer it
replaces selected functions -- class methods or module functions of the
``repro`` packages -- with timing wrappers *before* the system is built (the
simulator caches bound handlers at construction), runs the workload, and puts
the originals back.

Every wrapped call records one span: its entry point, start, end, parent span
and the scheduler callback it ran under.  Spans stay in flat arrays in memory
and are written out once, at the end.  A span's self time is its duration
minus the durations of its direct children; summing self time per layer splits
the traced run's host time exactly, apart from the code outside every span
(the "unwrapped remainder").
"""

from __future__ import annotations

import functools
import importlib
import json
from array import array
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, Iterable, List, NamedTuple, Sequence, Tuple

#: The entry point whose spans open a scheduler's event loop; spans under it
#: carry the number of the scheduler callback that was executing.
RUN_UNTIL = "repro.simulation.scheduler:EventScheduler.run_until"


class EntryPoint(NamedTuple):
    """One wrapped function: ``module:Owner.attr`` (or ``module:attr``) and its layer."""

    target: str
    layer: str


def resolve(target: str) -> Tuple[object, str]:
    """Return ``(owner, attribute)`` for a ``module:Owner.attr`` target string.

    The attribute must be defined on the owner itself (not inherited), so
    restoring it puts back exactly what was there.
    """
    module_name, _, path = target.partition(":")
    owner: object = importlib.import_module(module_name)
    *owners, attr = path.split(".")
    for name in owners:
        owner = getattr(owner, name)
    if attr not in vars(owner):
        raise AttributeError(f"{target}: {attr!r} is not defined on {owner!r}")
    return owner, attr


def current(target: str) -> object:
    """The function a target string names right now (wrapped or not)."""
    owner, attr = resolve(target)
    return vars(owner)[attr]


class SpanRecorder:
    """Flat in-memory span store plus the wrappers that fill it.

    Span ``i`` is ``(name[i], start[i], end[i], parent[i], callback[i])``:
    ``name`` indexes :attr:`names`, ``parent`` is the enclosing span (``-1`` at
    top level) and ``callback`` is the scheduler's executed-event count when the
    span opened -- spans nested under one scheduler callback share it (``-1``
    outside any event loop).
    """

    def __init__(self, clock: Callable[[], float] = perf_counter) -> None:
        self.clock = clock
        self.names: List[str] = []
        self.layers: List[str] = []
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.callback = array("q")
        self._stack: List[int] = [-1]
        self._schedulers: List[object] = []
        self._installed: List[Tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.name)

    # ----------------------------------------------------------------- wrapping --
    def wrap(self, fn: Callable, name: str, layer: str) -> Callable:
        """Return a span-recording wrapper of *fn* registered as *name*."""
        name_id = len(self.names)
        self.names.append(name)
        self.layers.append(layer)
        clock = self.clock
        stack = self._stack
        schedulers = self._schedulers
        names, starts, ends = self.name, self.start, self.end
        parents, callbacks = self.parent, self.callback
        opens_loop = name == RUN_UNTIL

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(names)
            names.append(name_id)
            parents.append(stack[-1])
            callbacks.append(schedulers[-1].executed if schedulers else -1)
            ends.append(0.0)
            stack.append(sid)
            if opens_loop:
                schedulers.append(args[0])
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                if opens_loop:
                    schedulers.pop()
                stack.pop()

        return wrapper

    def install(self, entry_points: Iterable[EntryPoint]) -> None:
        """Replace every entry point with its wrapper (undo with :meth:`restore`)."""
        for point in entry_points:
            owner, attr = resolve(point.target)
            original = vars(owner)[attr]
            self._installed.append((owner, attr, original))
            setattr(owner, attr, self.wrap(original, point.target, point.layer))

    def restore(self) -> None:
        """Put every original function back, newest first."""
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def clear(self) -> None:
        """Drop every recorded span (the wrappers stay installed)."""
        for column in (self.name, self.start, self.end, self.parent, self.callback):
            del column[:]

    # ---------------------------------------------------------------- analysis --
    def call_counts(self) -> Dict[str, int]:
        """Calls per entry point name."""
        counts = [0] * len(self.names)
        for name_id in self.name:
            counts[name_id] += 1
        return {name: counts[i] for i, name in enumerate(self.names)}

    def inclusive_times(self) -> Dict[str, float]:
        """Summed span durations per entry point name (children included)."""
        totals = [0.0] * len(self.names)
        for name_id, start, end in zip(self.name, self.start, self.end):
            totals[name_id] += end - start
        return {name: totals[i] for i, name in enumerate(self.names)}

    def layer_self_times(self) -> Dict[str, float]:
        """Self time summed per layer (see :func:`self_times`)."""
        per_span = self_times(self.start, self.end, self.parent)
        totals: Dict[str, float] = {}
        for name_id, value in zip(self.name, per_span):
            layer = self.layers[name_id]
            totals[layer] = totals.get(layer, 0.0) + value
        return totals

    def write(self, path: Path) -> None:
        """Write every span as JSON lines: one header, then one array per span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            header = {"names": self.names, "layers": self.layers,
                      "fields": ["name", "start", "end", "parent", "callback"]}
            out.write(json.dumps(header) + "\n")
            for span in zip(self.name, self.start, self.end, self.parent, self.callback):
                out.write("[%d,%.9f,%.9f,%d,%d]\n" % span)


def self_times(
    starts: Sequence[float], ends: Sequence[float], parents: Sequence[int]
) -> List[float]:
    """Per-span self time: duration minus the durations of direct children.

    Spans are recorded in the order they open, so a parent always precedes its
    children and one pass suffices.
    """
    child_time = [0.0] * len(starts)
    for index, parent in enumerate(parents):
        if parent >= 0:
            child_time[parent] += ends[index] - starts[index]
    return [end - start - child for start, end, child in zip(starts, ends, child_time)]


def top_level_time(recorder: SpanRecorder) -> float:
    """Summed duration of the spans with no parent: what the layer self times
    add up to."""
    total = 0.0
    for parent, start, end in zip(recorder.parent, recorder.start, recorder.end):
        if parent < 0:
            total += end - start
    return total

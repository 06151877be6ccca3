"""Span recording: self-time arithmetic, callback ids, wrapper install/restore."""

from __future__ import annotations

import pytest

from perfbench import run
from perfbench.spans import EntryPoint, SpanRecorder, current, resolve, self_times, top_level_time
from repro.simulation.scheduler import EventScheduler

HERE = __name__


class FakeClock:
    """A clock that advances by one unit per reading."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        self.now += 1.0
        return self.now


class Tree:
    """A call tree: outer -> (inner -> leaf, leaf), and work charged per call."""

    def outer(self, clock):
        clock.now += 10
        self.inner(clock)
        self.leaf(clock)

    def inner(self, clock):
        clock.now += 5
        self.leaf(clock)

    def leaf(self, clock):
        clock.now += 2


TREE = (
    EntryPoint(f"{HERE}:Tree.outer", "a"),
    EntryPoint(f"{HERE}:Tree.inner", "b"),
    EntryPoint(f"{HERE}:Tree.leaf", "c"),
)


def test_self_times_of_a_synthetic_tree():
    # span 0 [0, 10] holds 1 [1, 6] (which holds 2 [2, 3]) and 3 [7, 9].
    starts = [0.0, 1.0, 2.0, 7.0]
    ends = [10.0, 6.0, 3.0, 9.0]
    parents = [-1, 0, 1, 0]
    assert self_times(starts, ends, parents) == [3.0, 4.0, 1.0, 2.0]


def test_layer_self_times_sum_to_the_top_level_span():
    clock = FakeClock()
    recorder = SpanRecorder(clock=clock)
    recorder.install(TREE)
    try:
        Tree().outer(clock)
    finally:
        recorder.restore()
    assert recorder.call_counts() == {t.target: n for t, n in zip(TREE, (1, 1, 2))}
    # Spans read the clock at entry and exit: outer [1, 27], inner [12, 22],
    # the leaves [18, 21] and [23, 26].
    assert recorder.layer_self_times() == {"a": 13.0, "b": 7.0, "c": 6.0}
    assert sum(recorder.layer_self_times().values()) == top_level_time(recorder) == 26.0
    assert list(recorder.parent) == [-1, 0, 1, 0]


def test_spans_under_one_scheduler_callback_share_its_id():
    recorder = SpanRecorder()
    recorder.install((EntryPoint(run.ENTRY_POINTS[0].target, "simulation"),) + TREE)
    try:
        scheduler = EventScheduler()
        tree = Tree()
        clock = FakeClock()
        scheduler.schedule_at(1.0, lambda: tree.outer(clock))
        scheduler.schedule_at(2.0, lambda: tree.leaf(clock))
        scheduler.run_until(5.0)
    finally:
        recorder.restore()
    callbacks = list(recorder.callback)
    assert callbacks[0] == -1  # run_until itself runs outside any callback
    assert callbacks[1:5] == [1, 1, 1, 1]  # outer, inner, leaf, leaf
    assert callbacks[5:] == [2]


def test_install_wraps_every_entry_point_and_restore_puts_back_the_originals():
    originals = {point.target: current(point.target) for point in run.ENTRY_POINTS}
    recorder = SpanRecorder()
    recorder.install(run.ENTRY_POINTS)
    try:
        for point in run.ENTRY_POINTS:
            wrapped = current(point.target)
            assert wrapped is not originals[point.target]
            assert wrapped.__wrapped__ is originals[point.target]
    finally:
        recorder.restore()
    for target, original in originals.items():
        assert current(target) is original


def test_resolve_rejects_inherited_attributes():
    with pytest.raises(AttributeError):
        resolve("repro.core.figure3:Figure3Omega.on_message")


def test_write_emits_a_header_and_one_line_per_span(tmp_path):
    clock = FakeClock()
    recorder = SpanRecorder(clock=clock)
    recorder.install(TREE)
    try:
        Tree().outer(clock)
    finally:
        recorder.restore()
    path = tmp_path / "spans.jsonl"
    recorder.write(path)
    lines = path.read_text().splitlines()
    assert len(lines) == 1 + len(recorder)
    assert '"names"' in lines[0]

"""Unit tests for trace recording."""

from repro.analysis.trace import TraceEvent, Tracer


class TestTracer:
    def test_records_events_in_order(self):
        tracer = Tracer()
        tracer.record(1.0, 0, "a", detail=1)
        tracer.record(2.0, 1, "b")
        assert len(tracer) == 2
        assert tracer.events[0].kind == "a"
        assert tracer.events[0].detail("detail") == 1

    def test_kind_filter(self):
        tracer = Tracer(kinds=["leader_change"])
        tracer.record(1.0, 0, "message_sent")
        tracer.record(2.0, 0, "leader_change", leader=3)
        assert len(tracer) == 1
        assert tracer.events[0].kind == "leader_change"

    def test_capacity_drops_oldest(self):
        tracer = Tracer(capacity=2)
        for index in range(5):
            tracer.record(float(index), 0, "x", index=index)
        assert len(tracer.events) == 2
        assert tracer.events[-1].detail("index") == 4
        assert tracer.count("x") == 5

    def test_capped_tracer_keeps_newest_events(self):
        tracer = Tracer(capacity=3)
        for index in range(10):
            tracer.record(float(index), 0, "x", index=index)
        assert [event.detail("index") for event in tracer.events] == [7, 8, 9]
        assert tracer.events[0].detail("index") == 7
        assert tracer.events[-1].detail("index") == 9
        assert len(tracer) == 3
        assert [event.time for event in tracer.of_kind("x")] == [7.0, 8.0, 9.0]

    def test_uncapped_tracer_keeps_everything(self):
        tracer = Tracer()
        for index in range(10):
            tracer.record(float(index), 0, "x", index=index)
        assert [event.detail("index") for event in tracer.events] == list(range(10))

    def test_of_kind_and_for_process(self):
        tracer = Tracer()
        tracer.record(1.0, 0, "a")
        tracer.record(2.0, 1, "a")
        tracer.record(3.0, 1, "b")
        assert len(tracer.of_kind("a")) == 2
        assert len(tracer.for_process(1)) == 2

    def test_filter_predicate(self):
        tracer = Tracer()
        tracer.record(1.0, 0, "a")
        tracer.record(5.0, 0, "a")
        assert len(tracer.filter(lambda event: event.time > 2.0)) == 1

    def test_kinds_summary(self):
        tracer = Tracer()
        tracer.record(1.0, 0, "a")
        tracer.record(1.0, 0, "a")
        tracer.record(1.0, 0, "b")
        assert tracer.kinds() == {"a": 2, "b": 1}

    def test_event_detail_default(self):
        event = TraceEvent(time=1.0, pid=0, kind="x", details=())
        assert event.detail("missing", "fallback") == "fallback"

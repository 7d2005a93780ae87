"""Tests for structured tracing."""

from repro.sim.trace import NULL_TRACER, TraceEvent, Tracer


class TestTracer:
    def test_disabled_by_default(self):
        tracer = Tracer()
        assert not tracer.enabled
        tracer.emit(0, "x", "y", a=1)
        assert len(tracer) == 0

    def test_recording(self):
        tracer = Tracer(enabled=True)
        tracer.emit(5, "udma", "state", state="Idle")
        assert len(tracer) == 1
        event = tracer.events[0]
        assert event.time == 5
        assert event.source == "udma"
        assert event.kind == "state"
        assert event.detail == {"state": "Idle"}

    def test_of_kind_filter(self):
        tracer = Tracer(enabled=True)
        tracer.emit(1, "a", "x")
        tracer.emit(2, "a", "y")
        tracer.emit(3, "b", "x")
        assert len(tracer.of_kind("x")) == 2

    def test_from_source_filter(self):
        tracer = Tracer(enabled=True)
        tracer.emit(1, "a", "x")
        tracer.emit(2, "b", "x")
        assert len(tracer.from_source("b")) == 1

    def test_clear(self):
        tracer = Tracer(enabled=True)
        tracer.emit(1, "a", "x")
        tracer.clear()
        assert len(tracer) == 0

    def test_iteration(self):
        tracer = Tracer(enabled=True)
        tracer.emit(1, "a", "x")
        tracer.emit(2, "a", "y")
        assert [e.kind for e in tracer] == ["x", "y"]

    def test_null_tracer_is_disabled(self):
        assert not NULL_TRACER.enabled

    def test_event_str_is_readable(self):
        event = TraceEvent(42, "nic0", "packet-tx", {"bytes": 128})
        text = str(event)
        assert "nic0.packet-tx" in text
        assert "bytes=128" in text
        assert "42" in text

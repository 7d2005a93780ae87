"""Tests for the trace timeline renderer."""

import pytest

from repro.sim.timeline import legend, render_timeline
from repro.sim.trace import TraceEvent


def ev(time, source, kind):
    return TraceEvent(time, source, kind, {})


class TestRenderTimeline:
    def test_empty_events(self):
        assert render_timeline([]) == "(no events)"

    def test_one_lane_per_source(self):
        chart = render_timeline([ev(0, "a", "x"), ev(5, "b", "y")], width=10)
        lines = chart.splitlines()
        assert lines[0].startswith("a ")
        assert lines[1].startswith("b ")

    def test_events_placed_by_time(self):
        chart = render_timeline(
            [ev(0, "a", "dma-start"), ev(100, "a", "dma-complete")], width=10
        )
        lane = chart.splitlines()[0]
        cells = lane.split("|")[1]
        assert cells[0] == "d"
        assert cells[-1] == "D"

    def test_known_glyphs(self):
        chart = render_timeline([ev(0, "n", "packet-tx")], width=4)
        assert "w" in chart

    def test_unknown_kind_uses_first_letter(self):
        chart = render_timeline([ev(0, "n", "zap")], width=4)
        assert "z" in chart

    def test_source_filter(self):
        chart = render_timeline(
            [ev(0, "a", "x"), ev(1, "b", "y")], width=8, sources=["b"]
        )
        assert "a " not in chart

    def test_window_clipping(self):
        chart = render_timeline(
            [ev(0, "a", "x"), ev(50, "a", "y"), ev(100, "a", "z")],
            width=10,
            start=40,
            end=60,
        )
        cells = chart.splitlines()[0].split("|")[1]
        assert "y" in cells and "x" not in cells and "z" not in cells

    def test_footer_shows_scale(self):
        chart = render_timeline([ev(0, "a", "x"), ev(720, "a", "y")], width=72)
        assert "cycles/column" in chart.splitlines()[-1]

    def test_bad_width(self):
        with pytest.raises(ValueError):
            render_timeline([ev(0, "a", "x")], width=0)

    def test_legend_mentions_core_glyphs(self):
        text = legend()
        assert "packet-tx" in text and "dma-start" in text

    def test_real_trace_renders(self, sink_machine):
        """A real machine trace produces a sensible chart."""
        rig = sink_machine
        rig.machine.tracer.enabled = True
        rig.fill_buffer(b"x" * 512)
        rig.udma.transfer(rig.mem(0), rig.dev(0), 512)
        rig.machine.run_until_idle()
        chart = render_timeline(rig.machine.tracer.events, width=40)
        assert "|" in chart
        assert any(g in chart for g in ("S", "L", "d", "D"))

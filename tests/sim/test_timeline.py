"""Tests for the span timeline renderer."""

import pytest

from repro import Machine, MachineConfig, ObsConfig
from repro.obs.spans import Span, SpanEvent
from repro.sim.timeline import legend, render_timeline

from tests.conftest import _build_sink_machine


def span(name, start, end=None, events=(), status="complete", **attrs):
    return Span(
        id=1,
        name=name,
        start=start,
        end=end,
        status=status if end is not None else "open",
        attrs=attrs,
        events=[SpanEvent(time, kind) for time, kind in events],
    )


class TestRenderTimeline:
    def test_empty_events(self):
        assert render_timeline([]) == "(no spans)"

    def test_one_lane_per_source(self):
        chart = render_timeline(
            [
                span("transfer", 0, 5, node="n0.udma"),
                span("dma", 1, 5, engine="n0.udma-engine"),
                span("packet", 2, 5, status="delivered", src=0, dst=1),
                span("transfer", 3, 5, node="n0.udma"),
            ],
            width=10,
        )
        lanes = [line.split("|")[0].rstrip() for line in chart.splitlines()[:-1]]
        assert lanes == ["transfer n0.udma", "dma n0.udma-engine", "packet 0->1"]

    def test_events_placed_by_time(self):
        chart = render_timeline([span("dma", 0, 100, engine="e")], width=10)
        cells = chart.splitlines()[0].split("|")[1]
        assert cells[0] == "d"
        assert cells[-1] == "D"

    def test_known_glyphs(self):
        chart = render_timeline(
            [
                span("transfer", 0, 40, events=[(10, "initiated")], node="u"),
                span(
                    "packet", 0, 30, status="delivered",
                    events=[(10, "wire-tx"), (20, "route")], src=0, dst=1,
                ),
            ],
            width=5,
        )
        transfer, packet = (line.split("|")[1] for line in chart.splitlines()[:2])
        assert transfer == "SL  T"
        assert packet == " w>r "  # a packet marks no start

    def test_unknown_kind_uses_first_letter(self):
        chart = render_timeline(
            [span("transfer", 0, events=[(4, "zap")], node="u")], width=4
        )
        assert chart.splitlines()[0].split("|")[1] == "S  z"

    def test_source_filter(self):
        chart = render_timeline(
            [span("dma", 0, 5, engine="a"), span("dma", 1, 5, engine="b")],
            width=8,
            sources=["dma b"],
        )
        assert "dma a" not in chart and "dma b" in chart

    def test_failed_end_is_marked(self):
        chart = render_timeline(
            [span("packet", 0, 8, status="dropped", src=0, dst=1)], width=4
        )
        assert chart.splitlines()[0].split("|")[1] == "   !"

    def test_window_clipping(self):
        chart = render_timeline(
            [span("dma", 0, 100, events=[(50, "yield")], engine="e")],
            width=10,
            start=40,
            end=60,
        )
        cells = chart.splitlines()[0].split("|")[1]
        assert "y" in cells and "d" not in cells and "D" not in cells

    def test_footer_shows_scale(self):
        chart = render_timeline([span("dma", 0, 720, engine="e")], width=72)
        assert chart.splitlines()[-1].endswith("0 .. 720 cycles (10 cycles/column)")

    def test_bad_width(self):
        with pytest.raises(ValueError):
            render_timeline([span("dma", 0, 1)], width=0)

    def test_legend_mentions_core_glyphs(self):
        text = legend()
        assert "L=initiated" in text and "w=wire-tx" in text
        assert "d=dma start" in text and "r=packet end" in text

    def test_real_trace_renders(self):
        """A real machine's span tree produces a sensible chart."""
        rig = _build_sink_machine(
            Machine(config=MachineConfig(mem_size=1 << 20, obs=ObsConfig(spans=True)))
        )
        rig.fill_buffer(b"x" * 512)
        rig.udma.transfer(rig.mem(0), rig.dev(0), 512)
        rig.machine.run_until_idle()
        chart = render_timeline(rig.machine.obs.spans, width=40)
        transfer, dma = (line.split("|")[1] for line in chart.splitlines()[:2])
        assert transfer.startswith("S") and "L" in transfer and transfer.endswith("T")
        assert "d" in dma and dma.endswith("D")

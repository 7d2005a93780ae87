"""Text timeline rendering for span trees.

Turns recorded spans (:mod:`repro.obs.spans`) into a compact lane chart,
which makes pipeline behaviour -- DMA fills overlapping wire drains
overlapping receive DMA -- visible at a glance in a terminal::

    transfer node0.udma   |S L                  S L           T|
    dma node0.udma-engine |  d                  D d           D|
    packet 0->1           |                      > r           >r|

Each lane is one span name on one node (packets: one source/destination
pair); each column is a time bucket.  A span marks its start, its events
and its end; collisions show the latest mark.  This is a debugging aid,
not a measurement tool.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.obs.spans import Span

#: glyph at a span's start, by span name (packets mark only their events)
_START = {"transfer": "S", "dma": "d"}
#: glyph at a span's end when it finished well, by span name
_END = {"transfer": "T", "dma": "D", "packet": "r"}
#: glyphs for well-known span events (others show their first letter)
_EVENTS = {
    "initiated": "L",
    "wire-tx": "w",
    "route": ">",
    "inval": "I",
    "park": "p",
    "replay": "R",
}
#: a span that ended any other way than complete/delivered
_FAILED = "!"


def _lane(span: Span) -> str:
    attrs = span.attrs
    if span.name == "packet":
        return f"packet {attrs.get('src')}->{attrs.get('dst')}"
    node = attrs.get("node", attrs.get("engine", ""))
    return f"{span.name} {node}".rstrip()


def _marks(span: Span) -> List[Tuple[int, str]]:
    # A start without a glyph still stretches the default window.
    marks = [(span.start, _START.get(span.name, ""))]
    for event in span.events:
        marks.append((event.time, _EVENTS.get(event.name, event.name[:1] or "?")))
    if span.end is not None:
        ok = span.status in ("complete", "delivered")
        marks.append((span.end, _END.get(span.name, "E") if ok else _FAILED))
    return marks


def render_timeline(
    spans: Iterable[Span],
    width: int = 72,
    sources: Optional[Iterable[str]] = None,
    start: Optional[int] = None,
    end: Optional[int] = None,
) -> str:
    """Render spans into a lane chart string.

    Args:
        spans: recorded spans (a :class:`~repro.obs.spans.SpanTracker`
            iterates as one); lanes appear in first-span order.
        width: number of time buckets (columns).
        sources: restrict to these lanes (default: all).
        start, end: time window (defaults to the marks' full extent).

    Returns the chart, one line per lane, plus a time-scale footer.
    """
    if width <= 0:
        raise ValueError(f"width must be positive, got {width}")
    lanes: Dict[str, List[Tuple[int, str]]] = {}
    wanted = None if sources is None else set(sources)
    for span in spans:
        lane = _lane(span)
        if wanted is None or lane in wanted:
            lanes.setdefault(lane, []).extend(_marks(span))
    times = [time for marks in lanes.values() for time, _ in marks]
    if not times:
        return "(no spans)"
    t0 = min(times) if start is None else start
    t1 = max(times) if end is None else end
    extent = max(1, t1 - t0)
    label_width = max(len(name) for name in lanes)
    lines = []
    for name, marks in lanes.items():
        cells = [" "] * width
        for time, glyph in sorted(marks, key=lambda mark: mark[0]):
            if glyph and t0 <= time <= t1:
                cells[min(width - 1, (time - t0) * width // extent)] = glyph
        lines.append(f"{name:<{label_width}} |{''.join(cells)}|")
    lines.append(
        f"{'':<{label_width}}  {t0} .. {t1} cycles "
        f"({extent // width} cycles/column)"
    )
    return "\n".join(lines)


def legend() -> str:
    """The glyph legend for :func:`render_timeline` output."""
    pairs = [(glyph, f"{name} start") for name, glyph in _START.items()]
    pairs += [(glyph, name) for name, glyph in _EVENTS.items()]
    pairs += [(glyph, f"{name} end") for name, glyph in _END.items()]
    pairs.append((_FAILED, "failed end"))
    return "  ".join(f"{glyph}={what}" for glyph, what in pairs)

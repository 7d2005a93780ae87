"""Text timeline rendering for trace events.

Turns a recorded trace into a compact per-component lane chart, which
makes pipeline behaviour -- DMA fills overlapping wire drains overlapping
receive DMA -- visible at a glance in a terminal::

    node0.udma   |S L...............T  |
    nic0         |      h=========w    |
    nic1         |              r==|

Each lane is one event source; each column is a time bucket; the glyph is
the first letter of the event kind (collisions show the latest event).
This is a debugging aid, not a measurement tool.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

from repro.sim.trace import TraceEvent

#: preferred glyphs for well-known event kinds
_GLYPHS = {
    "proxy-store": "S",
    "proxy-load": "L",
    "dma-start": "d",
    "dma-complete": "D",
    "transfer-done": "T",
    "packet-tx": "w",
    "packet-rx": "r",
    "rx-error": "!",
    "inval": "I",
    "page-fault": "f",
    "page-out": "o",
    "proxy-map": "m",
    "switch": "s",
    "route": ">",
    "chain-start": "c",
    "chain-complete": "C",
}


def _glyph(kind: str) -> str:
    glyph = _GLYPHS.get(kind)
    if glyph is not None:
        return glyph
    return kind[0] if kind else "?"


def render_timeline(
    events: Sequence[TraceEvent],
    width: int = 72,
    sources: Optional[Iterable[str]] = None,
    start: Optional[int] = None,
    end: Optional[int] = None,
) -> str:
    """Render events into a lane chart string.

    Args:
        events: recorded trace events (any order; they are sorted).
        width: number of time buckets (columns).
        sources: restrict to these sources (default: all, in first-seen
            order).
        start, end: time window (defaults to the events' full span).

    Returns the chart, one line per lane, plus a time-scale footer.
    """
    if width <= 0:
        raise ValueError(f"width must be positive, got {width}")
    ordered = sorted(events, key=lambda e: e.time)
    if sources is not None:
        wanted = list(sources)
        ordered = [e for e in ordered if e.source in wanted]
        lane_names = wanted
    else:
        lane_names = []
        for event in ordered:
            if event.source not in lane_names:
                lane_names.append(event.source)
    if not ordered:
        return "(no events)"

    t0 = ordered[0].time if start is None else start
    t1 = ordered[-1].time if end is None else end
    span = max(1, t1 - t0)
    lanes: Dict[str, List[str]] = {name: [" "] * width for name in lane_names}
    for event in ordered:
        if not t0 <= event.time <= t1:
            continue
        column = min(width - 1, (event.time - t0) * width // span)
        lanes[event.source][column] = _glyph(event.kind)

    label_width = max(len(name) for name in lane_names)
    lines = [
        f"{name:<{label_width}} |{''.join(cells)}|"
        for name, cells in lanes.items()
    ]
    footer = (
        f"{'':<{label_width}}  {t0} .. {t1} cycles "
        f"({span // width} cycles/column)"
    )
    lines.append(footer)
    return "\n".join(lines)


def legend() -> str:
    """The glyph legend for :func:`render_timeline` output."""
    pairs = sorted(_GLYPHS.items())
    return "  ".join(f"{glyph}={kind}" for kind, glyph in pairs)

"""Span-based causal tracing for UDMA transfers.

One user-level transfer is many hardware episodes: the STORE that latches
DESTINATION, the LOAD that starts the engine, the DMA fill, the packets a
NIC cuts from it, the backplane routing, the remote receive DMA -- plus
any Inval preemptions, BadLoads and retries along the way.  The
:class:`SpanTracker` stitches those episodes back into one tree per
transfer: the :class:`~repro.core.controller.UdmaController` mints a root
span at initiation, the engine opens a ``dma`` child, and every packet
carved from that transfer's fill gets a ``packet`` child that finishes on
remote delivery.

Everything here is host-side bookkeeping: span operations never touch the
simulated clock, so simulated cycles and counters are bit-identical with
spans on or off.  Span ids come from a per-tracker counter, so a
deterministic simulation produces a deterministic span tree.

Components hold ``self._spans`` (``None`` when tracing is off) and guard
every call with ``if self._spans is not None``, so an unobserved run pays
one attribute load per call site (``tests/test_span_discipline.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional

#: spans one tracker keeps; ``begin`` past it returns ``None`` and counts
#: the refusal in :attr:`SpanTracker.dropped`
MAX_SPANS = 100_000


@dataclass
class SpanEvent:
    """An instant within a span (a retry, a queue refusal, an Inval)."""

    time: int
    name: str
    attrs: Dict[str, Any] = field(default_factory=dict)


@dataclass
class Span:
    """One episode in a transfer's life."""

    id: int
    name: str
    start: int
    parent: Optional[int] = None
    end: Optional[int] = None
    status: str = "open"
    attrs: Dict[str, Any] = field(default_factory=dict)
    events: List[SpanEvent] = field(default_factory=list)

    @property
    def open(self) -> bool:
        return self.end is None

    @property
    def duration(self) -> Optional[int]:
        return None if self.end is None else self.end - self.start

    def brief(self) -> str:
        """One-line rendering for logs and failure reports."""
        dur = f"+{self.duration}" if self.end is not None else "open"
        attrs = " ".join(f"{k}={v}" for k, v in self.attrs.items())
        return f"#{self.id} {self.name}[{self.status}] t={self.start} {dur} {attrs}".rstrip()


class SpanTracker:
    """Mints, annotates and stores spans on the shared simulation clock."""

    def __init__(self, clock=None) -> None:
        self.clock = clock
        self.spans: Dict[int, Span] = {}
        #: spans refused because the tracker was full
        self.dropped = 0
        self.finished = 0
        #: parent span for data currently being delivered by a DMA engine;
        #: a NIC's ``dma_write`` reads this to attach packet spans to the
        #: transfer that produced the bytes
        self.current_data_span: Optional[int] = None
        self._next_id = 1

    # ------------------------------------------------------------ lifecycle
    def begin(
        self, name: str, parent: Optional[int] = None, **attrs: Any
    ) -> Optional[int]:
        """Open a span; returns its id (None when the tracker is full)."""
        if len(self.spans) >= MAX_SPANS:
            self.dropped += 1
            return None
        span_id = self._next_id
        self._next_id += 1
        self.spans[span_id] = Span(
            id=span_id,
            name=name,
            start=self.clock.now if self.clock is not None else 0,
            parent=parent,
            attrs=attrs,
        )
        return span_id

    def event(self, span_id: Optional[int], name: str, **attrs: Any) -> None:
        """Attach an instant event to an open (or finished) span."""
        span = self.spans.get(span_id) if span_id is not None else None
        if span is None:
            return
        span.events.append(
            SpanEvent(
                time=self.clock.now if self.clock is not None else 0,
                name=name,
                attrs=attrs,
            )
        )

    def finish(
        self, span_id: Optional[int], status: str = "complete", **attrs: Any
    ) -> None:
        """Close a span with a final status (idempotent on unknown ids)."""
        span = self.spans.get(span_id) if span_id is not None else None
        if span is None or span.end is not None:
            return
        span.end = self.clock.now if self.clock is not None else 0
        span.status = status
        if attrs:
            span.attrs.update(attrs)
        self.finished += 1

    # -------------------------------------------------------------- queries
    def get(self, span_id: int) -> Optional[Span]:
        return self.spans.get(span_id)

    def roots(self) -> List[Span]:
        """Spans with no parent, in id (creation) order."""
        return [s for s in self.spans.values() if s.parent is None]

    def children(self, span_id: int) -> List[Span]:
        return [s for s in self.spans.values() if s.parent == span_id]

    def root_of(self, span_id: int) -> int:
        """Walk to the root span id of ``span_id``'s tree."""
        seen = set()
        current = span_id
        while True:
            span = self.spans.get(current)
            if span is None or span.parent is None or current in seen:
                return current
            seen.add(current)
            current = span.parent

    def open_spans(self) -> List[Span]:
        return [s for s in self.spans.values() if s.end is None]

    def render_tree(self, root_id: int, indent: int = 0) -> str:
        """Human-readable span tree (roots down, events inline)."""
        span = self.spans.get(root_id)
        if span is None:
            return ""
        pad = "  " * indent
        lines = [f"{pad}{span.brief()}"]
        for ev in span.events:
            attrs = " ".join(f"{k}={v}" for k, v in ev.attrs.items())
            lines.append(f"{pad}  @ t={ev.time} {ev.name} {attrs}".rstrip())
        for child in self.children(root_id):
            lines.append(self.render_tree(child.id, indent + 1))
        return "\n".join(lines)

    def __iter__(self) -> Iterator[Span]:
        return iter(self.spans.values())

    def __len__(self) -> int:
        return len(self.spans)

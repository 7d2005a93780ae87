"""Structured event tracing.

Components emit :class:`TraceEvent` records through a shared
:class:`Tracer`.  Tracing is off by default (the null tracer discards
everything at near-zero cost); ``ObsConfig(record_trace=True)`` builds
a recording one, so tests and the bench harness can observe
hardware-level behaviour -- state-machine transitions, packets on the
wire, page faults -- without poking at internals.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List

from repro.snapshot.protocol import SnapshotMixin


@dataclass(frozen=True)
class TraceEvent:
    """One traced occurrence.

    Attributes:
        time: cycle timestamp.
        source: emitting component (e.g. ``"udma"``, ``"nic0"``, ``"kernel"``).
        kind: event name (e.g. ``"state"``, ``"packet-tx"``, ``"page-fault"``).
        detail: free-form payload fields.
    """

    time: int
    source: str
    kind: str
    detail: Dict[str, Any] = field(default_factory=dict)

    def __str__(self) -> str:
        fields = " ".join(f"{k}={v}" for k, v in self.detail.items())
        return f"[{self.time:>10}] {self.source}.{self.kind} {fields}".rstrip()


class Tracer(SnapshotMixin):
    """Records trace events while :attr:`enabled`.

    A disabled tracer's :meth:`emit` is a cheap no-op apart from building
    the call; the hot paths therefore guard emission with
    :attr:`enabled`, a plain attribute (not a property) so those guards
    cost one attribute load on the simulator's hottest paths.
    """

    def __init__(self, enabled: bool = False) -> None:
        self.events: List[TraceEvent] = []
        #: whether emitted events are kept in :attr:`events`
        self.enabled = enabled

    def emit(self, time: int, source: str, kind: str, **detail: Any) -> None:
        """Record one event (no-op when disabled)."""
        if self.enabled:
            self.events.append(TraceEvent(time, source, kind, detail))

    def __reduce_ex__(self, protocol: int):
        # The process-wide null tracer must restore to the *same* object:
        # components compare it by identity, and duplicating it would give
        # a restored machine a private, orphaned default tracer.
        if self is NULL_TRACER:
            return (_null_tracer, ())
        return super().__reduce_ex__(protocol)

    # ------------------------------------------------------------ querying
    def of_kind(self, kind: str) -> List[TraceEvent]:
        """All recorded events with the given kind."""
        return [e for e in self.events if e.kind == kind]

    def from_source(self, source: str) -> List[TraceEvent]:
        """All recorded events emitted by the given source."""
        return [e for e in self.events if e.source == source]

    def clear(self) -> None:
        """Drop all recorded events."""
        self.events.clear()

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self.events)

    def __len__(self) -> int:
        return len(self.events)


#: A process-wide tracer that drops everything; components use it as the
#: default so callers never need to pass a tracer explicitly.
NULL_TRACER = Tracer()


def _null_tracer() -> Tracer:
    """Pickle target restoring the module-level null tracer by identity."""
    return NULL_TRACER

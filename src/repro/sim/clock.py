"""The global cycle clock and discrete-event queue.

Every component of a simulated machine shares one :class:`Clock`.  The CPU
*charges* cycles for the instructions it executes (`advance`), while
asynchronous hardware (DMA engines, NICs, disks, the interconnect) schedules
completion callbacks at absolute cycle times (`schedule`).  Whenever the
clock advances past an event's due time, the event fires.

Time is kept in integer cycles.  Fractional byte/cycle rates are rounded up
when converted to durations, which models the bus clocking the last partial
burst.

The queue is a binary heap of plain tuples -- ``(time, seq, event)`` on
:class:`Clock`, ``(time, key, seq, event)`` on :class:`ShardClock` -- so
``heapq`` orders it with C tuple comparisons.  ``seq`` is unique per
clock, so two entries never tie and the :class:`Event` itself is never
compared: it is only the callback slot the caller can cancel through.
A live-event counter makes :meth:`Clock.pending` O(1), cancellation drops
the callback reference immediately (so closed-over buffers are reclaimable
before the tombstone is popped), and the heap compacts itself when
tombstones outnumber live events.  :meth:`Clock.run`,
:meth:`Clock.run_until_idle` and :meth:`Clock.advance` share one inlined
fire loop.

**Event free list** (on by default, off in reference mode,
``Clock(reference=True)``): fired events are recycled instead of freed, so a
steady-state workload schedules without allocating, which is cheaper
per event than building new ones (docs/PERFORMANCE.md, "Per-message hot
path").  Only *fired* events
are recycled; cancelled tombstones are dropped (a stale ``cancel()``
through a retained reference must never kill a pool successor).  The
contract for holders of an :class:`Event` reference: once the event has
fired the reference is dead and ``cancel()`` must not be called through
it (the existing callers -- DMA completion, retransmit timers -- already
null or replace their references before that point).
"""

from __future__ import annotations

import itertools
import math
from heapq import heapify, heappop, heappush
from typing import Callable, List, Optional, Tuple

from repro.errors import ConfigurationError, SimulationLimitError
from repro.snapshot.protocol import SnapshotMixin

#: Compaction fires when ``len(queue) > 2 * live + COMPACT_SLACK``: the
#: slack keeps tiny queues from compacting on every cancel.
COMPACT_SLACK = 64

#: Upper bound on the per-clock event free list.  Steady-state messaging
#: needs a handful of in-flight events per channel; the cap only matters
#: after a transient burst and bounds worst-case retained memory.
EVENT_FREE_LIST_CAP = 4096


class Event:
    """A scheduled callback: the handle :meth:`Clock.schedule` returns.

    Ordering lives in the clock's heap entry, not here.  ``callback`` is
    ``None`` once the event has fired or been cancelled, which is also how
    the clock recognises a tombstone in its heap.
    """

    __slots__ = ("callback", "_clock")

    def __init__(
        self, callback: Optional[Callable[[], None]], clock: Optional["Clock"] = None
    ) -> None:
        self.callback = callback
        self._clock = clock

    def cancel(self) -> None:
        """Prevent the event from firing.

        The tombstone stays in the queue until popped or compacted, but
        the callback reference (and anything it closes over -- staging
        buffers, endpoints) is released *now*, so a cancelled transfer
        does not pin its buffers until the due time passes.  Cancelling
        an already-fired or already-cancelled event is a no-op.
        """
        if self.callback is None:
            return
        self.callback = None
        if self._clock is not None:
            self._clock._on_cancel()


class Clock(SnapshotMixin):
    """A shared cycle counter with an event queue.

    The clock never runs backwards.  Events scheduled for a time that has
    already passed fire on the next :meth:`advance` / :meth:`run` call.

    ``reference=True`` turns the event free list off.  The free list is
    an exact optimisation -- fire order, fire times and every counter are
    bit-identical either way, which the chaos ``shards`` twin checks
    (its reference variant runs with the free list off).
    """

    #: set on ShardClock: heap entries carry an ordering key,
    #: ``(time, key, seq, event)``, and :meth:`schedule` uses the empty key
    _keyed = False

    def __init__(self, reference: bool = False) -> None:
        #: the current time in cycles; a plain attribute (read on every
        #: packet and charge), written only by this module
        self.now = 0
        self._queue: List[tuple] = []
        self._seq = itertools.count()
        self._live = 0  # exact count of scheduled-but-unfired, uncancelled
        #: total events fired over the clock's lifetime (host-perf metric;
        #: the bench harness reports events/second against it)
        self.events_fired = 0
        #: optional auditing hook invoked after every fired event (the
        #: chaos harness's continuous invariant auditor); None keeps the
        #: hot path a single attribute check
        self.audit_hook: Optional[Callable[[], None]] = None
        self.reference = reference
        #: events served from the free list (pool effectiveness metric)
        self.pool_reuses = 0
        self._free: List[Event] = []

    # ---------------------------------------------------------- snapshotting
    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        # The audit hook is an observer owned by whoever installed it
        # (the chaos InvariantAuditor); pickling it would drag the whole
        # auditor -- and its captured log -- into every snapshot.  It is
        # dropped here and re-installed by the owner after restore.
        state["audit_hook"] = None
        return state

    # ------------------------------------------------------------- reading
    def pending(self) -> int:
        """Number of live (uncancelled) events still queued.  O(1)."""
        return self._live

    def next_event_time(self) -> Optional[int]:
        """Due time of the earliest live event, or None if the queue is idle."""
        head = self._head()
        return None if head is None else head[0]

    # ---------------------------------------------------------- scheduling
    def schedule(self, delay: int, callback: Callable[[], None]) -> Event:
        """Schedule ``callback`` to fire ``delay`` cycles from now.

        A zero delay fires as soon as time next moves (or on :meth:`run`).
        Negative delays are configuration errors.
        """
        if delay < 0:
            raise ValueError(f"cannot schedule an event {delay} cycles in the past")
        free = self._free
        if free:
            event = free.pop()
            event.callback = callback
            self.pool_reuses += 1
        else:
            event = Event(callback, self)
        if self._keyed:
            entry: tuple = (self.now + delay, (), next(self._seq), event)
        else:
            entry = (self.now + delay, next(self._seq), event)
        heappush(self._queue, entry)
        self._live += 1
        return event

    def schedule_at(self, time: int, callback: Callable[[], None]) -> Event:
        """Schedule ``callback`` at absolute cycle ``time`` (>= now)."""
        return self.schedule(time - self.now, callback)

    # ------------------------------------------------------------- running
    def advance(self, cycles: int) -> None:
        """Charge ``cycles`` of CPU work, firing any events that come due.

        This is how the simulated CPU consumes time: events interleave with
        instruction execution at cycle granularity.
        """
        if cycles < 0:
            raise ValueError(f"cannot advance time by {cycles} cycles")
        target = self.now + cycles
        if self._live:
            self._fire_until(target, -1)
        self.now = target

    def run(self, until: Optional[int] = None) -> None:
        """Fire queued events until the queue drains (or ``until`` is hit).

        Used when the CPU is idle (e.g. a process blocked on I/O) and the
        simulation should coast forward on device activity alone.
        """
        self._fire_until(math.inf if until is None else until, -1)
        if until is not None and until > self.now:
            self.now = until

    def run_until_idle(self, max_events: int = 1_000_000) -> None:
        """Drain every queued event (events may schedule further events).

        ``max_events`` guards against a component that reschedules itself
        forever.  On exhaustion the guard trips *before* firing event
        ``max_events + 1`` and raises :class:`SimulationLimitError` with
        the stop point; the unfired event stays queued, so
        :meth:`pending` / :meth:`next_event_time` remain consistent and
        the caller can inspect (or keep draining) the survivors.
        """
        fired = self._fire_until(math.inf, max_events)
        if fired == max_events:
            head = self._head()
            if head is not None:
                raise SimulationLimitError(
                    limit=max_events,
                    fired=fired,
                    pending=self._live,
                    now=self.now,
                    next_event_time=head[0],
                )

    # ------------------------------------------------------------ internal
    def _head(self) -> Optional[tuple]:
        """The earliest live heap entry, without popping it (or None).

        Skims cancelled tombstones off the top of the heap.
        """
        queue = self._queue
        while queue and queue[0][-1].callback is None:
            heappop(queue)
        return queue[0] if queue else None

    def _fire_until(self, limit: float, budget: int) -> int:
        """The fire loop: pop and fire live events due at or before ``limit``.

        Stops early once ``budget`` events have fired (``-1``: no budget),
        leaving the next live event queued.  Returns the number fired.
        A callback may schedule or cancel freely: the loop re-reads the
        heap head every turn, and compaction rebuilds the list in place.
        """
        queue = self._queue
        free = None if self.reference else self._free
        fired = 0
        while queue:
            entry = queue[0]
            event = entry[-1]
            callback = event.callback
            if callback is None:  # a cancelled tombstone
                heappop(queue)
                continue
            time = entry[0]
            if time > limit or fired == budget:
                break
            heappop(queue)
            event.callback = None  # mark fired; a later cancel() is a no-op
            self._live -= 1
            self.events_fired += 1
            if time > self.now:
                self.now = time
            callback()
            fired += 1
            hook = self.audit_hook
            if hook is not None:
                hook()
            if free is not None and len(free) < EVENT_FREE_LIST_CAP:
                free.append(event)
        return fired

    def _on_cancel(self) -> None:
        self._live -= 1
        if len(self._queue) > 2 * self._live + COMPACT_SLACK:
            self._compact()

    def _compact(self) -> None:
        """Rebuild the heap without tombstones.

        In place (``[:]``) so the fire loop's local reference to the list
        stays valid if a callback's cancel triggers compaction mid-drain.
        """
        self._queue[:] = [e for e in self._queue if e[-1].callback is not None]
        heapify(self._queue)


class ShardClock(Clock):
    """A per-node clock driven by a shard engine instead of by itself.

    In the sharded kernel every node owns one ShardClock.  Two rules make
    the execution order a pure function of the workload (and therefore
    bit-identical across shard counts and across the in-process /
    worker-process engines):

    1. **Charging never fires.**  :meth:`advance` only moves ``now``; the
       engine fires events explicitly, between workload steps, in
       canonical ``(time, key, seq)`` order.  Conservative-PDES bounds can
       then only *delay* an event, never reorder it relative to the
       node's other work.
    2. **Arrivals are keyed.**  Cross-node deliveries are scheduled with
       :meth:`schedule_keyed` carrying ``(1, src_node, channel_seq)``, so
       same-cycle arrivals sort after local hardware events (the empty
       key ``()`` that :meth:`schedule` uses) and in a source order
       independent of delivery interleaving.

    ``run`` / ``run_until_idle`` raise: any component that coasts the
    clock itself would fire events outside engine control and silently
    break the determinism contract, so misuse fails loudly.
    """

    _keyed = True

    def advance(self, cycles: int) -> None:
        """Charge CPU cycles without firing events (engine fires them)."""
        if cycles < 0:
            raise ValueError(f"cannot advance time by {cycles} cycles")
        self.now += cycles

    def run(self, until: Optional[int] = None) -> None:
        raise ConfigurationError(
            "ShardClock is engine-driven: components must not coast the "
            "clock (got run()); sharded workloads must use non-blocking "
            "initiations"
        )

    def run_until_idle(self, max_events: int = 1_000_000) -> None:
        raise ConfigurationError(
            "ShardClock is engine-driven: use the shard engine to drain "
            "events, not run_until_idle()"
        )

    # -------------------------------------------------------- engine API
    def schedule_keyed(
        self, time: int, key: Tuple, callback: Callable[[], None]
    ) -> Event:
        """Schedule at absolute ``time`` with an explicit ordering key.

        Unlike :meth:`schedule_at` this permits ``time <= now``: a
        cross-shard arrival may be ingested after the receiving node's
        clock has already charged past the wire arrival cycle; it still
        sorts (and fires) at its true arrival time.
        """
        free = self._free
        if free:
            event = free.pop()
            event.callback = callback
            self.pool_reuses += 1
        else:
            event = Event(callback, self)
        heappush(self._queue, (time, key, next(self._seq), event))
        self._live += 1
        return event

    def next_op(self) -> Optional[Tuple[int, Tuple]]:
        """(time, key) of the earliest live event, or None if idle."""
        head = self._head()
        if head is None:
            return None
        return (head[0], head[1])

    #: the earliest live heap entry ``(time, key, seq, event)``, or None
    #: if idle: the engine's per-operation peek (the entry can go
    #: straight back to :meth:`fire_next`)
    head = Clock._head

    def fire_next(self, head: Optional[tuple] = None) -> int:
        """Pop and fire the earliest live event; returns its due time.

        ``head`` is that event's entry when the caller has just peeked it
        with :meth:`head` (nothing scheduled or cancelled since), which
        saves a second peek.
        """
        if head is None:
            head = self._head()
            if head is None:
                raise ConfigurationError("fire_next() on an idle ShardClock")
        time = head[0]
        self._fire_until(time, 1)
        return time


def transfer_cycles(nbytes: int, bytes_per_cycle: float) -> int:
    """Cycles to move ``nbytes`` at ``bytes_per_cycle``, rounded up.

    The round-up models the bus clocking the last partial burst.
    Zero-byte transfers take zero cycles.
    """
    if nbytes < 0:
        raise ValueError(f"cannot transfer {nbytes} bytes")
    if nbytes == 0:
        return 0
    if bytes_per_cycle <= 0:
        raise ValueError(f"bytes_per_cycle must be positive, got {bytes_per_cycle}")
    return int(math.ceil(nbytes / bytes_per_cycle))

"""The global cycle clock and discrete-event queue.

Every component of a simulated machine shares one :class:`Clock`.  The CPU
*charges* cycles for the instructions it executes (`advance`), while
asynchronous hardware (DMA engines, NICs, disks, the interconnect) schedules
completion callbacks at absolute cycle times (`schedule`).  Whenever the
clock advances past an event's due time, the event fires.

Time is kept in integer cycles.  Fractional byte/cycle rates are rounded up
when converted to durations, which models the bus clocking the last partial
burst.

The queue is allocation- and scan-free on the hot path: a live-event
counter makes :meth:`Clock.pending` O(1), cancellation drops the callback
reference immediately (so closed-over buffers are reclaimable before the
tombstone is popped), and the heap compacts itself when tombstones
outnumber live events.

Two further fast-lane mechanisms (on by default, disabled together with
``pooling=False`` for the chaos ``pooling`` twin):

* **Event free list** -- fired events are recycled instead of freed, so a
  steady-state workload schedules without allocating.  Only *fired* events
  are recycled; cancelled tombstones are dropped (a stale ``cancel()``
  through a retained reference must never kill a pool successor).  The
  contract for holders of an :class:`Event` reference is unchanged: once
  the event has fired the reference is dead and ``cancel()`` must not be
  called through it (the existing callers -- DMA completion, retransmit
  timers -- already null or replace their references before that point).
* **Same-time FIFO bucket** -- a burst of events scheduled for one due
  time (the common shape on the per-message path) lands in a deque instead
  of the heap.  Firing compares the bucket head against the heap head with
  the ordinary event ordering, so the global ``(time[, key], seq)`` fire
  order is bit-identical to the heap-only queue: bucket entries all share
  one due time and the empty key, and are appended in sequence order, so
  the deque is sorted by construction.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, List, Optional, Set, Tuple

from repro.errors import (
    ConfigurationError,
    PoolIntegrityError,
    SimulationLimitError,
)
from repro.snapshot.protocol import SnapshotMixin

#: Compaction fires when ``len(queue) > 2 * live + COMPACT_SLACK``: the
#: slack keeps tiny queues from compacting on every cancel.
COMPACT_SLACK = 64

#: Upper bound on the per-clock event free list.  Steady-state messaging
#: needs a handful of in-flight events per channel; the cap only matters
#: after a transient burst and bounds worst-case retained memory.
EVENT_FREE_LIST_CAP = 4096


@dataclass(slots=True)
class Event:
    """A scheduled callback.  Ordered by (time, sequence number)."""

    time: int
    seq: int
    callback: Optional[Callable[[], None]] = field(compare=False)
    cancelled: bool = field(default=False, compare=False)
    _clock: Optional["Clock"] = field(default=None, compare=False, repr=False)

    def __lt__(self, other: "Event") -> bool:
        # Hand-written instead of dataclass(order=True): the heap sift
        # calls this on every push/pop, and the generated version builds
        # two tuples per comparison.
        if self.time != other.time:
            return self.time < other.time
        return self.seq < other.seq

    def cancel(self) -> None:
        """Prevent the event from firing.

        The tombstone stays in the queue until popped or compacted, but
        the callback reference (and anything it closes over -- staging
        buffers, endpoints) is released *now*, so a cancelled transfer
        does not pin its buffers until the due time passes.  Cancelling
        an already-fired or already-cancelled event is a no-op.
        """
        if self.cancelled or self.callback is None:
            return
        self.cancelled = True
        self.callback = None
        if self._clock is not None:
            self._clock._on_cancel()


@dataclass(slots=True)
class KeyedEvent(Event):
    """An event with a canonical ordering key: (time, key, seq).

    The sharded kernel uses the ``key`` to make per-node execution order a
    pure function of the workload rather than of scheduling interleaving:
    local hardware events carry the empty key ``()`` (sorting first at a
    given cycle), network arrivals carry ``(1, src_node, channel_seq)`` so
    same-cycle arrivals land in a source/sequence order that is identical
    no matter which shard — or which worker process — delivered them.
    """

    key: Tuple = ()

    def __lt__(self, other: "KeyedEvent") -> bool:
        if self.time != other.time:
            return self.time < other.time
        if self.key != other.key:
            return self.key < other.key
        return self.seq < other.seq


class Clock(SnapshotMixin):
    """A shared cycle counter with an event queue.

    The clock never runs backwards.  Events scheduled for a time that has
    already passed fire on the next :meth:`advance` / :meth:`run` call.

    ``pooling`` (default on) enables the event free list and the
    same-time FIFO bucket; both are exact optimisations -- fire order,
    fire times and every counter are bit-identical either way, which the
    chaos ``pooling`` twin checks (``python -m repro chaos --oracle
    pooling``).  ``pool_debug`` adds ownership checks that raise
    :class:`~repro.errors.PoolIntegrityError` on double releases or
    foreign acquires.
    """

    #: event class used by :meth:`schedule`; a class hook (rather than a
    #: per-event branch) so the single-clock hot path pays nothing for the
    #: sharded kernel's keyed ordering
    _event_cls = Event
    #: set on ShardClock: recycled events need their ``key`` reset
    _keyed = False

    def __init__(self, pooling: bool = True, pool_debug: bool = False) -> None:
        self._now = 0
        self._queue: List[Event] = []
        self._seq = itertools.count()
        self._live = 0  # exact count of scheduled-but-unfired, uncancelled
        #: total events fired over the clock's lifetime (host-perf metric;
        #: the bench harness reports events/second against it)
        self.events_fired = 0
        #: optional auditing hook invoked after every fired event (the
        #: chaos harness's continuous invariant auditor); None keeps the
        #: hot path a single attribute check
        self.audit_hook: Optional[Callable[[], None]] = None
        self.pooling = pooling
        self.pool_debug = pool_debug
        #: events served from the free list (pool effectiveness metric)
        self.pool_reuses = 0
        self._free: List[Event] = []
        self._free_ids: Set[int] = set()  # pool_debug ownership ledger
        #: same-time FIFO bucket: every entry shares ``_bucket_time`` and
        #: the empty key, appended in seq order (sorted by construction)
        self._bucket: Deque[Event] = deque()
        self._bucket_time = 0

    # ---------------------------------------------------------- snapshotting
    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        # The audit hook is an observer owned by whoever installed it
        # (the chaos InvariantAuditor); pickling it would drag the whole
        # auditor -- and its captured log -- into every snapshot.  It is
        # dropped here and re-installed by the owner after restore.
        state["audit_hook"] = None
        # The pool-debug ownership ledger keys on id(); identities do not
        # survive restore, so it is rebuilt from the free list instead.
        state["_free_ids"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._free_ids = {id(e) for e in self._free}

    # ------------------------------------------------------------- reading
    @property
    def now(self) -> int:
        """The current time in cycles."""
        return self._now

    def pending(self) -> int:
        """Number of live (uncancelled) events still queued.  O(1)."""
        return self._live

    def next_event_time(self) -> Optional[int]:
        """Due time of the earliest live event, or None if the queue is idle."""
        head = self._peek()
        return None if head is None else head.time

    # ---------------------------------------------------------- scheduling
    def schedule(self, delay: int, callback: Callable[[], None]) -> Event:
        """Schedule ``callback`` to fire ``delay`` cycles from now.

        A zero delay fires as soon as time next moves (or on :meth:`run`).
        Negative delays are configuration errors.
        """
        if delay < 0:
            raise ValueError(f"cannot schedule an event {delay} cycles in the past")
        due = self._now + delay
        free = self._free
        if free:
            event = free.pop()
            if self.pool_debug:
                self._debug_acquire(event)
            event.time = due
            event.seq = next(self._seq)
            event.callback = callback
            event.cancelled = False
            event._clock = self
            if self._keyed:
                event.key = ()
            self.pool_reuses += 1
        else:
            event = self._event_cls(due, next(self._seq), callback, False, self)
        bucket = self._bucket
        if bucket:
            if due == self._bucket_time:
                bucket.append(event)
            else:
                heapq.heappush(self._queue, event)
        elif self.pooling:
            self._bucket_time = due
            bucket.append(event)
        else:
            heapq.heappush(self._queue, event)
        self._live += 1
        return event

    def schedule_at(self, time: int, callback: Callable[[], None]) -> Event:
        """Schedule ``callback`` at absolute cycle ``time`` (>= now)."""
        return self.schedule(time - self._now, callback)

    # ------------------------------------------------------------- running
    def advance(self, cycles: int) -> None:
        """Charge ``cycles`` of CPU work, firing any events that come due.

        This is how the simulated CPU consumes time: events interleave with
        instruction execution at cycle granularity.
        """
        if cycles < 0:
            raise ValueError(f"cannot advance time by {cycles} cycles")
        target = self._now + cycles
        if self._live:
            self._fire_until(target)
        self._now = target

    def run(self, until: Optional[int] = None) -> None:
        """Fire queued events until the queue drains (or ``until`` is hit).

        Used when the CPU is idle (e.g. a process blocked on I/O) and the
        simulation should coast forward on device activity alone.
        """
        limit = math.inf if until is None else until
        while True:
            head = self._peek()
            if head is None or head.time > limit:
                break
            self._pop(head)
            self._fire(head)
        if until is not None and until > self._now:
            self._now = until

    def run_until_idle(self, max_events: int = 1_000_000) -> None:
        """Drain every queued event (events may schedule further events).

        ``max_events`` guards against a component that reschedules itself
        forever.  On exhaustion the guard trips *before* firing event
        ``max_events + 1`` and raises :class:`SimulationLimitError` with
        the stop point; the unfired event stays queued, so
        :meth:`pending` / :meth:`next_event_time` remain consistent and
        the caller can inspect (or keep draining) the survivors.
        """
        fired = 0
        while True:
            head = self._peek()
            if head is None:
                return
            if fired >= max_events:
                raise SimulationLimitError(
                    limit=max_events,
                    fired=fired,
                    pending=self._live,
                    now=self._now,
                    next_event_time=head.time,
                )
            self._pop(head)
            self._fire(head)
            fired += 1

    # ------------------------------------------------------------ internal
    def _peek(self) -> Optional[Event]:
        """Earliest live event across heap and bucket, without popping.

        Skims cancelled tombstones off both heads.  The winner is chosen
        with the event ordering itself, so heap/bucket placement can never
        perturb fire order.
        """
        queue = self._queue
        while queue and queue[0].cancelled:
            heapq.heappop(queue)
        bucket = self._bucket
        while bucket and bucket[0].cancelled:
            bucket.popleft()
        if bucket:
            head = bucket[0]
            if queue and queue[0] < head:
                return queue[0]
            return head
        return queue[0] if queue else None

    def _pop(self, head: Event) -> None:
        """Remove ``head`` (the current :meth:`_peek` result) from its home."""
        bucket = self._bucket
        if bucket and head is bucket[0]:
            bucket.popleft()
        else:
            heapq.heappop(self._queue)

    def _fire(self, event: Event) -> None:
        """Fire one popped, live event (advancing time to its due cycle)."""
        callback = event.callback
        event.callback = None  # mark fired; a later cancel() is a no-op
        self._live -= 1
        self.events_fired += 1
        if event.time > self._now:
            self._now = event.time
        assert callback is not None
        callback()
        hook = self.audit_hook
        if hook is not None:
            hook()
        if self.pooling:
            free = self._free
            if len(free) < EVENT_FREE_LIST_CAP:
                if self.pool_debug:
                    self._debug_release(event)
                event._clock = None
                free.append(event)

    def _fire_until(self, target: int) -> None:
        queue = self._queue
        bucket = self._bucket
        pop = heapq.heappop
        while True:
            while queue and queue[0].cancelled:
                pop(queue)
            while bucket and bucket[0].cancelled:
                bucket.popleft()
            if bucket:
                head = bucket[0]
                if queue and queue[0] < head:
                    head = queue[0]
            elif queue:
                head = queue[0]
            else:
                return
            if head.time > target:
                return
            if bucket and head is bucket[0]:
                bucket.popleft()
            else:
                pop(queue)
            self._fire(head)

    def _debug_acquire(self, event: Event) -> None:
        eid = id(event)
        if eid not in self._free_ids:
            raise PoolIntegrityError(
                "acquired an event the pool does not own"
            )
        self._free_ids.discard(eid)
        if event.callback is not None or event.cancelled:
            raise PoolIntegrityError(
                "pooled event was not reset (callback or cancelled flag set)"
            )

    def _debug_release(self, event: Event) -> None:
        eid = id(event)
        if eid in self._free_ids:
            raise PoolIntegrityError("event double-released to pool")
        if event.callback is not None:
            raise PoolIntegrityError("live event released to pool")
        self._free_ids.add(eid)

    def _on_cancel(self) -> None:
        self._live -= 1
        if len(self._queue) > 2 * self._live + COMPACT_SLACK:
            self._compact()

    def _compact(self) -> None:
        """Rebuild the heap without tombstones.

        In place (``[:]``) so iterators holding the list object -- the
        localised hot loops above -- stay valid if a callback's cancel
        triggers compaction mid-drain.
        """
        self._queue[:] = [e for e in self._queue if not e.cancelled]
        heapq.heapify(self._queue)


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
       same-cycle arrivals sort after local hardware events (empty key)
       and in a source order independent of delivery interleaving.

    ``run`` / ``run_until_idle`` raise: any component that coasts the
    clock itself would fire events outside engine control and silently
    break the determinism contract, so misuse fails loudly.

    The same-time bucket only ever holds plain :meth:`schedule` events
    (empty key); keyed arrivals always take the heap, so the bucket's
    sorted-by-construction invariant (one time, one key, ascending seq)
    holds here too.
    """

    _event_cls = KeyedEvent
    _keyed = True

    def advance(self, cycles: int) -> None:
        """Charge CPU cycles without firing events (engine fires them)."""
        if cycles < 0:
            raise ValueError(f"cannot advance time by {cycles} cycles")
        self._now += cycles

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
    ) -> KeyedEvent:
        """Schedule at absolute ``time`` with an explicit ordering key.

        Unlike :meth:`schedule_at` this permits ``time <= now``: a
        cross-shard arrival may be ingested after the receiving node's
        clock has already charged past the wire arrival cycle; it still
        sorts (and fires) at its true arrival time.
        """
        free = self._free
        if free:
            event = free.pop()
            if self.pool_debug:
                self._debug_acquire(event)
            event.time = time
            event.seq = next(self._seq)
            event.callback = callback
            event.cancelled = False
            event._clock = self
            event.key = key
            self.pool_reuses += 1
        else:
            event = KeyedEvent(time, next(self._seq), callback, False, self, key)
        heapq.heappush(self._queue, event)
        self._live += 1
        return event

    def next_op(self) -> Optional[Tuple[int, Tuple]]:
        """(time, key) of the earliest live event, or None if idle."""
        head = self._peek()
        if head is None:
            return None
        return (head.time, head.key)

    #: the earliest live event itself, or None if idle: the engine's
    #: per-operation peek (no tuple is built, and the event can go
    #: straight back to :meth:`fire_next`)
    head = Clock._peek

    def fire_next(self, head: Optional[KeyedEvent] = None) -> int:
        """Pop and fire the earliest live event; returns its due time.

        ``head`` is that event when the caller has just peeked it with
        :meth:`head` (nothing scheduled or cancelled since), which saves
        a second peek.
        """
        if head is None:
            head = self._peek()  # type: ignore[assignment]
            if head is None:
                raise ConfigurationError("fire_next() on an idle ShardClock")
        self._pop(head)
        time = head.time
        self._fire(head)
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

"""Tests for the cycle clock and event queue."""

import pytest

from repro.errors import ConfigurationError, SimulationLimitError
from repro.sim.clock import Clock, ShardClock, transfer_cycles


class TestAdvance:
    def test_starts_at_zero(self):
        assert Clock().now == 0

    def test_advance_moves_time(self):
        clock = Clock()
        clock.advance(100)
        assert clock.now == 100

    def test_advance_accumulates(self):
        clock = Clock()
        clock.advance(3)
        clock.advance(4)
        assert clock.now == 7

    def test_advance_zero_is_noop(self):
        clock = Clock()
        clock.advance(0)
        assert clock.now == 0

    def test_negative_advance_rejected(self):
        with pytest.raises(ValueError):
            Clock().advance(-1)


class TestScheduling:
    def test_event_fires_when_time_passes(self):
        clock = Clock()
        fired = []
        clock.schedule(10, lambda: fired.append(clock.now))
        clock.advance(9)
        assert fired == []
        clock.advance(1)
        assert fired == [10]

    def test_event_fires_at_exact_time(self):
        clock = Clock()
        fired = []
        clock.schedule(5, lambda: fired.append(clock.now))
        clock.advance(5)
        assert fired == [5]

    def test_events_fire_in_time_order(self):
        clock = Clock()
        order = []
        clock.schedule(20, lambda: order.append("b"))
        clock.schedule(10, lambda: order.append("a"))
        clock.schedule(30, lambda: order.append("c"))
        clock.advance(40)
        assert order == ["a", "b", "c"]

    def test_same_time_events_fire_in_schedule_order(self):
        clock = Clock()
        order = []
        clock.schedule(10, lambda: order.append(1))
        clock.schedule(10, lambda: order.append(2))
        clock.schedule(10, lambda: order.append(3))
        clock.advance(10)
        assert order == [1, 2, 3]

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            Clock().schedule(-5, lambda: None)

    def test_schedule_at_absolute_time(self):
        clock = Clock()
        clock.advance(50)
        fired = []
        clock.schedule_at(80, lambda: fired.append(clock.now))
        clock.advance(30)
        assert fired == [80]

    def test_cancelled_event_does_not_fire(self):
        clock = Clock()
        fired = []
        event = clock.schedule(10, lambda: fired.append(1))
        event.cancel()
        clock.advance(20)
        assert fired == []

    def test_pending_counts_live_events(self):
        clock = Clock()
        e1 = clock.schedule(10, lambda: None)
        clock.schedule(20, lambda: None)
        assert clock.pending() == 2
        e1.cancel()
        assert clock.pending() == 1

    def test_next_event_time(self):
        clock = Clock()
        assert clock.next_event_time() is None
        clock.schedule(30, lambda: None)
        clock.schedule(10, lambda: None)
        assert clock.next_event_time() == 10

    def test_next_event_time_skips_cancelled(self):
        clock = Clock()
        early = clock.schedule(10, lambda: None)
        clock.schedule(20, lambda: None)
        early.cancel()
        assert clock.next_event_time() == 20

    def test_event_sees_its_own_timestamp(self):
        clock = Clock()
        seen = []
        clock.schedule(7, lambda: seen.append(clock.now))
        clock.advance(100)
        assert seen == [7]


class TestRun:
    def test_run_drains_up_to_limit(self):
        clock = Clock()
        fired = []
        clock.schedule(10, lambda: fired.append("a"))
        clock.schedule(50, lambda: fired.append("b"))
        clock.run(until=30)
        assert fired == ["a"]
        assert clock.now == 30

    def test_run_without_limit_drains_everything(self):
        clock = Clock()
        fired = []
        clock.schedule(10, lambda: fired.append(1))
        clock.schedule(20, lambda: fired.append(2))
        clock.run()
        assert fired == [1, 2]
        assert clock.now == 20

    def test_events_may_schedule_events(self):
        clock = Clock()
        fired = []

        def first():
            fired.append("first")
            clock.schedule(5, lambda: fired.append("second"))

        clock.schedule(10, first)
        clock.run_until_idle()
        assert fired == ["first", "second"]
        assert clock.now == 15

    def test_run_until_idle_guards_against_livelock(self):
        clock = Clock()

        def reschedule():
            clock.schedule(1, reschedule)

        clock.schedule(1, reschedule)
        with pytest.raises(SimulationLimitError):
            clock.run_until_idle(max_events=100)

    def test_run_until_idle_exhaustion_is_diagnosable(self):
        """The guard must report where it stopped, not silently truncate."""
        clock = Clock()

        def reschedule():
            clock.schedule(3, reschedule)

        clock.schedule(3, reschedule)
        with pytest.raises(SimulationLimitError) as excinfo:
            clock.run_until_idle(max_events=10)
        err = excinfo.value
        assert err.limit == 10
        assert err.fired == 10
        assert err.pending == 1
        assert err.now == 30  # the 10th firing landed at t=30
        assert err.next_event_time == 33
        # Every diagnostic appears in the rendered message.
        message = str(err)
        for token in ("10", "t=30", "t=33"):
            assert token in message

    def test_run_until_idle_accounting_consistent_after_exhaustion(self):
        """The unfired event stays queued; pending/next_event_time agree,
        and a later drain with head-room finishes the leftovers."""
        clock = Clock()
        fired = []

        def reschedule(n):
            fired.append(n)
            if n < 15:
                clock.schedule(1, lambda: reschedule(n + 1))

        clock.schedule(1, lambda: reschedule(1))
        with pytest.raises(SimulationLimitError):
            clock.run_until_idle(max_events=5)
        assert fired == [1, 2, 3, 4, 5]
        assert clock.pending() == 1
        assert clock.next_event_time() == 6
        assert clock.events_fired == 5
        # The queue is intact: draining again completes the chain.
        clock.run_until_idle(max_events=100)
        assert fired == list(range(1, 16))
        assert clock.pending() == 0


class TestEventHousekeeping:
    def test_cancel_releases_callback_reference(self):
        """Cancel must null the callback so its closure can be collected."""
        clock = Clock()
        event = clock.schedule(10, lambda: None)
        event.cancel()
        assert event.callback is None

    def test_double_cancel_is_idempotent(self):
        clock = Clock()
        e1 = clock.schedule(10, lambda: None)
        clock.schedule(20, lambda: None)
        e1.cancel()
        e1.cancel()
        assert clock.pending() == 1

    def test_events_fired_counts_only_fired_events(self):
        clock = Clock()
        clock.schedule(10, lambda: None)
        clock.schedule(20, lambda: None)
        clock.schedule(30, lambda: None).cancel()
        clock.run_until_idle()
        assert clock.events_fired == 2

    def test_heavy_cancellation_compacts_the_heap(self):
        """Tombstones must not accumulate past ~2x the live population."""
        clock = Clock()
        keep = clock.schedule(1_000_000, lambda: None)
        events = [clock.schedule(100 + i, lambda: None) for i in range(5000)]
        for event in events:
            event.cancel()
        assert clock.pending() == 1
        assert len(clock._queue) <= 2 * clock.pending() + 64 + 1
        clock.run_until_idle()
        assert clock.now == 1_000_000
        assert keep.callback is None  # fired

    def test_compaction_preserves_order_and_content(self):
        clock = Clock()
        fired = []
        live = [clock.schedule(10 * (i + 1), lambda i=i: fired.append(i))
                for i in range(10)]
        doomed = [clock.schedule(5, lambda: fired.append("doomed"))
                  for _ in range(2000)]
        for event in doomed:
            event.cancel()
        live[3].cancel()
        clock.run_until_idle()
        assert fired == [i for i in range(10) if i != 3]

    def test_pending_is_exact_through_fire_and_cancel(self):
        clock = Clock()
        events = [clock.schedule(10 + i, lambda: None) for i in range(6)]
        events[0].cancel()
        events[5].cancel()
        clock.advance(12)  # fires events at 10(cancelled skip), 11, 12
        assert clock.pending() == 2

    def test_stale_cancel_leaves_a_later_event_alone(self):
        """Cancelling a fired event's handle must not touch what came after."""
        clock = Clock()
        fired = []
        a = clock.schedule(5, lambda: fired.append("a"))
        clock.run_until_idle()
        b = clock.schedule(5, lambda: fired.append("b"))
        a.cancel()
        clock.run_until_idle()
        assert b is not a
        assert fired == ["a", "b"]
        assert clock.pending() == 0


class TestKeyedOrdering:
    def test_keyed_events_sort_time_key_seq(self):
        clock = ShardClock()
        order = []
        # Scheduled in reverse of the expected fire order: time first,
        # then key, then seq (the local event is scheduled last, so only
        # its empty key can put it ahead of the arrivals).
        clock.schedule_keyed(10, (1, 2, 0), lambda: order.append("c"))
        clock.schedule_keyed(10, (1, 0, 0), lambda: order.append("b"))
        clock.schedule_keyed(9, (1, 9, 9), lambda: order.append("d"))
        clock.schedule(10, lambda: order.append("a"))
        while clock.next_op():
            clock.fire_next()
        assert order == ["d", "a", "b", "c"]

    def test_local_events_precede_same_cycle_arrivals(self):
        clock = ShardClock()
        order = []
        clock.schedule_keyed(20, (1, 7, 0), lambda: order.append("arrival"))
        clock.schedule(20, lambda: order.append("local"))
        while clock.next_op():
            clock.fire_next()
        assert order == ["local", "arrival"]

    def test_same_cycle_arrivals_order_by_source_then_seq(self):
        clock = ShardClock()
        order = []
        # Ingestion order deliberately scrambled: ordering must come from
        # the key, not from scheduling order.
        clock.schedule_keyed(20, (1, 3, 0), lambda: order.append("n3#0"))
        clock.schedule_keyed(20, (1, 1, 1), lambda: order.append("n1#1"))
        clock.schedule_keyed(20, (1, 1, 0), lambda: order.append("n1#0"))
        while clock.next_op():
            clock.fire_next()
        assert order == ["n1#0", "n1#1", "n3#0"]


class TestShardClock:
    def test_advance_charges_without_firing(self):
        clock = ShardClock()
        fired = []
        clock.schedule(5, lambda: fired.append(1))
        clock.advance(50)
        assert clock.now == 50
        assert fired == []
        assert clock.pending() == 1

    def test_engine_fires_deferred_events_at_their_due_time(self):
        clock = ShardClock()
        seen = []
        clock.schedule(5, lambda: seen.append(clock.now))
        clock.advance(50)
        assert clock.fire_next() == 5
        # Time never runs backwards: now stays at the charged 50, but the
        # callback observed a consistent (not-yet-rewound) clock.
        assert clock.now == 50
        assert seen == [50]

    def test_overdue_keyed_arrival_allowed(self):
        """A cross-shard arrival may be ingested after now has passed its
        wire arrival cycle; schedule_keyed must accept it."""
        clock = ShardClock()
        clock.advance(100)
        fired = []
        clock.schedule_keyed(40, (1, 0, 0), lambda: fired.append(1))
        assert clock.next_op() == (40, (1, 0, 0))
        clock.fire_next()
        assert fired == [1]
        assert clock.now == 100

    def test_self_coasting_is_rejected(self):
        clock = ShardClock()
        with pytest.raises(ConfigurationError):
            clock.run()
        with pytest.raises(ConfigurationError):
            clock.run_until_idle()

    def test_fire_next_on_idle_clock_rejected(self):
        with pytest.raises(ConfigurationError):
            ShardClock().fire_next()

    def test_next_op_skips_cancelled(self):
        clock = ShardClock()
        doomed = clock.schedule_keyed(10, (1, 0, 0), lambda: None)
        clock.schedule_keyed(20, (1, 0, 1), lambda: None)
        doomed.cancel()
        assert clock.next_op() == (20, (1, 0, 1))

    def test_stale_cancel_leaves_a_later_arrival_alone(self):
        clock = ShardClock()
        fired = []
        a = clock.schedule_keyed(10, (1, 0, 0), lambda: fired.append("a"))
        clock.fire_next()
        b = clock.schedule_keyed(20, (1, 0, 1), lambda: fired.append("b"))
        a.cancel()
        assert clock.next_op() == (20, (1, 0, 1))
        clock.fire_next()
        assert b is not a
        assert fired == ["a", "b"]


class TestTransferCycles:
    def test_exact_division(self):
        assert transfer_cycles(100, 0.5) == 200

    def test_rounds_up(self):
        assert transfer_cycles(3, 2.0) == 2

    def test_zero_bytes_is_free(self):
        assert transfer_cycles(0, 1.0) == 0

    def test_negative_bytes_rejected(self):
        with pytest.raises(ValueError):
            transfer_cycles(-1, 1.0)

    def test_nonpositive_rate_rejected(self):
        with pytest.raises(ValueError):
            transfer_cycles(10, 0.0)

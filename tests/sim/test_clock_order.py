"""Property: the event heap fires in exactly ``(time[, key], seq)`` order.

Hypothesis drives random interleavings of ``schedule``, ``schedule_at``,
``cancel``, ``advance``, ``run(until)`` and ``run_until_idle`` (on
:class:`ShardClock`: keyed arrivals, charging and engine-style firing
through ``next_op``/``head``/``fire_next``) against a naive reference
that keeps pending events in a dict and fires the minimum of
``(time, key, seq)`` each turn.  Programs include same-cycle bursts,
floods of cancels big enough to make the heap compact itself, and
callbacks that schedule or cancel while they fire.  The clock must
match the reference event for event.
"""

from __future__ import annotations

import math
from functools import partial

from hypothesis import given, settings, strategies as st

from repro.sim.clock import COMPACT_SLACK, Clock, ShardClock

DELAYS = st.integers(0, 12)
#: arrival keys as the shard engine builds them: (1, src node, chseq)
KEYS = st.tuples(st.just(1), st.integers(0, 3), st.integers(0, 3))


class _Runner:
    """Turns a program into calls; subclasses say how events are kept."""

    def __init__(self) -> None:
        self.log: list = []  # (event id, clock time when it fired)
        self.next_id = 0

    def act(self, action) -> None:
        """What a firing event does: nothing, schedule, or cancel."""
        if action is None:
            return
        kind = action[0]
        if kind == "child":
            self.schedule(action[1], None)
        elif kind == "child_keyed":
            self.schedule(action[1], None, key=action[2])
        else:
            self.cancel_index(action[1])

    def cancel_index(self, k: int) -> None:
        live = self.live_ids()
        if live:
            self.cancel(live[k % len(live)])


class _Model(_Runner):
    """The reference: a dict of pending events, min-scanned every turn."""

    def __init__(self) -> None:
        super().__init__()
        self.now = 0
        self.seq = 0
        self.pending: dict = {}  # id -> (time, key, seq, action)

    def schedule(self, delay, action, key=(), at=None) -> int:
        eid = self.next_id
        self.next_id += 1
        time = self.now + delay if at is None else at
        self.pending[eid] = (time, key, self.seq, action)
        self.seq += 1
        return eid

    def live_ids(self) -> list:
        return sorted(self.pending)

    def cancel(self, eid: int) -> None:
        del self.pending[eid]

    def head(self):
        if not self.pending:
            return None
        return min(self.pending.values(), key=lambda p: p[:3])

    def fire_until(self, limit: float) -> None:
        while self.pending:
            eid = min(self.pending, key=lambda e: self.pending[e][:3])
            time, _key, _seq, action = self.pending[eid]
            if time > limit:
                return
            del self.pending[eid]
            self.now = max(self.now, time)
            self.log.append((eid, self.now))
            self.act(action)


class _Real(_Runner):
    """The clock under test, driven through its public API."""

    def __init__(self, clock: Clock) -> None:
        super().__init__()
        self.clock = clock
        self.handles: dict = {}  # id -> Event, while scheduled and live

    def schedule(self, delay, action, key=(), at=None) -> int:
        eid = self.next_id
        self.next_id += 1
        callback = partial(self._fired, eid, action)
        clock = self.clock
        if key:
            time = clock.now + delay if at is None else at
            self.handles[eid] = clock.schedule_keyed(time, key, callback)
        elif at is not None:
            self.handles[eid] = clock.schedule_at(at, callback)
        else:
            self.handles[eid] = clock.schedule(delay, callback)
        return eid

    def _fired(self, eid: int, action) -> None:
        del self.handles[eid]
        self.log.append((eid, self.clock.now))
        self.act(action)

    def live_ids(self) -> list:
        return sorted(self.handles)

    def cancel(self, eid: int) -> None:
        self.handles.pop(eid).cancel()


def _actions(keyed: bool):
    kinds = [
        st.none(),
        st.tuples(st.just("child"), DELAYS),
        st.tuples(st.just("cancel"), st.integers(0, 50)),
    ]
    if keyed:
        kinds.append(st.tuples(st.just("child_keyed"), DELAYS, KEYS))
    return st.one_of(*kinds)


def _program(keyed: bool):
    action = _actions(keyed)
    ops = [
        st.tuples(st.just("schedule"), DELAYS, action),
        st.tuples(st.just("burst"), st.integers(2, 6), DELAYS, action),
        st.tuples(st.just("cancel"), st.integers(0, 50)),
        st.tuples(st.just("flood"), st.integers(COMPACT_SLACK + 1, 3 * COMPACT_SLACK), DELAYS),
        st.tuples(st.just("advance"), st.integers(0, 30)),
    ]
    if keyed:
        ops += [
            # arrivals may be due before now: ingested late, fired at their time
            st.tuples(st.just("arrival"), st.integers(-10, 12), KEYS, action),
            st.tuples(st.just("fire"), st.integers(0, 30), st.booleans()),
        ]
    else:
        ops += [
            st.tuples(st.just("schedule_at"), DELAYS, action),
            st.tuples(st.just("run"), st.integers(0, 30)),
            st.tuples(st.just("run_until_idle")),
            st.tuples(st.just("run_all")),
        ]
    return st.lists(st.one_of(*ops), max_size=40)


def _apply(runner: _Runner, op, keyed: bool) -> None:
    """One program step on either runner."""
    model = isinstance(runner, _Model)
    now = runner.now if model else runner.clock.now
    kind = op[0]
    if kind == "schedule":
        runner.schedule(op[1], op[2])
    elif kind == "schedule_at":
        runner.schedule(0, op[2], at=now + op[1])
    elif kind == "burst":
        for _ in range(op[1]):
            runner.schedule(op[2], op[3])
    elif kind == "arrival":
        runner.schedule(0, op[3], key=op[2], at=max(0, now + op[1]))
    elif kind == "cancel":
        runner.cancel_index(op[1])
    elif kind == "flood":
        # Enough tombstones to push the heap past its compaction threshold.
        doomed = [runner.schedule(op[2], None) for _ in range(op[1])]
        for eid in doomed:
            runner.cancel(eid)
    elif kind == "advance":
        if model:
            if not keyed:
                runner.fire_until(now + op[1])
            runner.now = now + op[1]
        else:
            runner.clock.advance(op[1])
    elif kind == "run":
        if model:
            runner.fire_until(now + op[1])
            runner.now = max(runner.now, now + op[1])
        else:
            runner.clock.run(until=now + op[1])
    elif kind in ("run_until_idle", "run_all"):
        if model:
            runner.fire_until(math.inf)
        elif kind == "run_all":
            runner.clock.run()
        else:
            runner.clock.run_until_idle()
    elif kind == "fire":  # the shard engine's loop, up to now + op[1]
        limit = now + op[1]
        if model:
            runner.fire_until(limit)
            return
        clock = runner.clock
        while True:
            op_next = clock.next_op()
            if op_next is None or op_next[0] > limit:
                break
            clock.fire_next(clock.head() if op[2] else None)


def _observe(runner: _Runner, keyed: bool):
    """Everything a caller can see between steps."""
    if isinstance(runner, _Model):
        head = runner.head()
        nxt = None if head is None else (head[:2] if keyed else head[0])
        return runner.now, len(runner.pending), nxt, list(runner.log)
    clock = runner.clock
    nxt = clock.next_op() if keyed else clock.next_event_time()
    return clock.now, clock.pending(), nxt, list(runner.log)


def _check(program, keyed: bool) -> None:
    cls = ShardClock if keyed else Clock
    model = _Model()
    real = _Real(cls())
    for step, op in enumerate(program):
        for runner in (model, real):
            _apply(runner, op, keyed)
        got = _observe(real, keyed)
        assert got == _observe(model, keyed), f"clock diverged at step {step}: {op}"
        if op[0] == "flood":  # the cancels compacted the heap
            clock = real.clock
            assert len(clock._queue) <= 2 * clock.pending() + COMPACT_SLACK
    assert real.clock.events_fired == len(model.log)


@given(_program(keyed=False))
@settings(max_examples=200, deadline=None)
def test_clock_fires_in_time_seq_order(program):
    _check(program, keyed=False)


@given(_program(keyed=True))
@settings(max_examples=200, deadline=None)
def test_shard_clock_fires_in_time_key_seq_order(program):
    _check(program, keyed=True)

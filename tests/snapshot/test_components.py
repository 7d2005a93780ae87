"""Directed per-subsystem snapshot tests.

Each test targets one stateful component in a configuration that has
historically been hard to serialise correctly: a clock mid-burst with a
populated free list and a same-cycle burst queued, a TLB carrying stale
generation stamps, a packet pool with recycled shells, detached sampled
metrics.
"""

from __future__ import annotations

from functools import partial

import pytest

from repro.config import MachineConfig
from repro.machine import Machine
from repro.errors import SnapshotVersionError
from repro.mem.physmem import PhysicalMemory
from repro.net.nipt import NetworkInterfacePageTable
from repro.net.packet import Packet
from repro.net.pool import PacketPool
from repro.obs import ObsConfig
from repro.obs.registry import MetricsRegistry
from repro.params import shrimp
from repro.sim.clock import Clock
from repro.snapshot import SNAPSHOT_VERSION, Snapshottable, fork, restore, snapshot
from repro.snapshot.format import encode
from repro.vm.tlb import TLB, TlbEntry


def _burst_clock() -> "tuple[Clock, list]":
    """A pooled clock stopped mid-burst.

    Pending events include a same-cycle burst (three events at one
    cycle); the free list is non-empty (a fired event has been
    recycled).  Callbacks append to ``fired`` (a plain list, so the
    whole graph stays inside the snapshot module allow-list).
    """
    clock = Clock()
    fired: list = []
    clock.schedule(5, partial(fired.append, "early"))
    doomed = clock.schedule(7, partial(fired.append, "cancelled"))
    doomed.cancel()
    for tag in ("b0", "b1", "b2"):  # same-cycle burst at t=20
        clock.schedule(20, partial(fired.append, tag))
    clock.schedule(30, partial(fired.append, "late"))
    clock.run(until=10)  # fire "early", recycle its event
    assert clock._free, "setup must leave a populated free list"
    assert clock.pending() == 4
    # heap entries are (time, seq, event); the burst keeps schedule order
    assert sorted(entry[:2] for entry in clock._queue) == [
        (20, 2), (20, 3), (20, 4), (30, 5)
    ]
    return clock, fired


def test_clock_mid_burst_restore_equivalence():
    clock, fired = _burst_clock()
    ref_clock, ref_fired = _burst_clock()

    clock2, fired2 = restore(snapshot((clock, fired)))
    clock2.run_until_idle()
    ref_clock.run_until_idle()
    assert fired2 == ref_fired == ["early", "b0", "b1", "b2", "late"]
    assert clock2.now == ref_clock.now
    assert clock2.events_fired == ref_clock.events_fired
    assert clock2.pending() == 0


def test_clock_free_list_ids_rebuilt():
    clock, fired = _burst_clock()
    clock2 = restore(snapshot((clock, fired)))[0]
    # The restored free list holds fresh, fired events of its own: none
    # is shared with the original clock, and each reuse is counted.
    assert len(clock2._free) == len(clock._free)
    assert not {id(e) for e in clock2._free} & {id(e) for e in clock._free}
    assert all(e.callback is None for e in clock2._free)
    reuses = clock2.pool_reuses
    reused = clock2._free[-1]
    assert clock2.schedule(1, lambda: None) is reused
    assert clock2.pool_reuses == reuses + 1


def test_clock_audit_hook_not_captured():
    clock, fired = _burst_clock()
    clock.audit_hook = lambda: None  # external observer (the auditor's)
    clock2 = restore(snapshot((clock, fired)))[0]
    assert clock2.audit_hook is None


def test_clock_state_dict_round_trip():
    clock, _fired = _burst_clock()
    assert isinstance(clock, Snapshottable)
    twin = Clock()
    twin.load_state(clock.state_dict())
    assert twin.now == clock.now
    assert twin.pending() == clock.pending()
    assert twin.events_fired == clock.events_fired
    assert [entry[:2] for entry in twin._queue] == [
        entry[:2] for entry in clock._queue
    ]


def test_clock_blob_from_version_2_refused():
    """Version 2 pickled a heap of Event objects plus a same-time bucket;
    such a blob must be refused, never restored into a tuple heap."""
    clock, fired = _burst_clock()
    blob = encode((clock, fired), version=2)
    with pytest.raises(SnapshotVersionError) as excinfo:
        restore(blob)
    assert excinfo.value.found == 2
    assert excinfo.value.expected == SNAPSHOT_VERSION


def test_packet_and_clock_blob_from_version_3_refused():
    """Version 3 pickled a frozen ``Packet`` as an instance dict and the
    clock's time as ``_now``; such a blob must be refused, never restored
    into a slotted packet or a clock whose ``now`` is missing."""
    clock, fired = _burst_clock()
    packet = Packet(0, 1, 0x40, b"in flight", seq=3)
    blob = encode((clock, fired, packet), version=3)
    with pytest.raises(SnapshotVersionError) as excinfo:
        restore(blob)
    assert excinfo.value.found == 3
    assert excinfo.value.expected == SNAPSHOT_VERSION
    # The current version still round-trips the same graph.
    clock2, _fired2, packet2 = restore(encode((clock, fired, packet)))
    assert clock2.now == clock.now
    assert packet2 == packet

def test_clock_and_pool_blob_from_version_4_refused():
    """Version 4 pickled the clock's ``pooling``/``pool_debug`` switches
    and id()-keyed ownership ledgers in the clock and the packet pool;
    such a blob must be refused, never restored into a clock that reads
    ``reference``."""
    clock, fired = _burst_clock()
    pool = _used_pool()
    blob = encode((clock, fired, pool), version=4)
    with pytest.raises(SnapshotVersionError) as excinfo:
        restore(blob)
    assert excinfo.value.found == 4
    assert excinfo.value.expected == SNAPSHOT_VERSION
    clock2, _fired2, pool2 = restore(encode((clock, fired, pool)))
    assert clock2.reference is False
    assert not hasattr(clock2, "_free_ids")
    assert pool2.stats() == pool.stats()



def test_pool_log_and_snooper_blob_from_version_5_refused():
    """Version 5 pickled the packet pool's payload-buffer free lists, a
    sharded node's step log as formatted lines, and a NIC without the CPU
    its snooper taps; such a blob must be refused, never restored into a
    shell-only pool."""
    pool = _used_pool()
    blob = encode(pool, version=5)
    with pytest.raises(SnapshotVersionError) as excinfo:
        restore(blob)
    assert excinfo.value.found == 5
    assert excinfo.value.expected == SNAPSHOT_VERSION
    pool2 = restore(encode(pool))
    assert pool2.stats() == pool.stats()
    assert not hasattr(pool2, "_buffers")


def _churned_nipt() -> NetworkInterfacePageTable:
    nipt = NetworkInterfacePageTable(16)
    first = nipt.install(1, (10, 11, 12))
    nipt.install(2, (20, 21))
    nipt.uninstall(first, 3)
    return nipt


def test_nipt_free_list_blob_from_version_6_refused():
    """Version 6 kept a sender NIPT's free index runs on the cluster
    (``ShrimpCluster._nipt_free``) and a NIPT without runs of its own;
    such a blob must be refused, never restored into a NIPT whose
    ``install`` reads ``_free``."""
    nipt = _churned_nipt()
    blob = encode(nipt, version=6)
    with pytest.raises(SnapshotVersionError) as excinfo:
        restore(blob)
    assert excinfo.value.found == 6
    assert excinfo.value.expected == SNAPSHOT_VERSION
    nipt2 = restore(encode(nipt))
    assert nipt2._free == nipt._free == [(0, 3), (5, 11)]
    assert nipt2.install(3, (30,)) == nipt.install(3, (30,)) == 0


def test_record_only_tracer_and_configs_blob_from_version_7_refused():
    """Version 7 pickled a ``Tracer`` with a subscriber list, an error
    count and a ``record`` flag beside ``enabled``, a ``CostModel`` with
    ``udma_queue_depth``, an ``ObsConfig`` with ``max_spans`` and a
    ``MachineConfig`` with ``record_trace``/``dma_bursts_per_event``;
    such a blob must be refused, never restored into configs missing
    those fields."""
    graph = (shrimp(), ObsConfig(spans=True), MachineConfig(queue_depth=4))
    blob = encode(graph, version=7)
    with pytest.raises(SnapshotVersionError) as excinfo:
        restore(blob)
    assert excinfo.value.found == 7
    assert excinfo.value.expected == SNAPSHOT_VERSION
    assert restore(encode(graph)) == graph


def test_tracer_free_machine_blob_from_version_8_refused():
    """Version 8 pickled a ``Tracer`` on every machine, cluster and
    observability plane, a ``tracer`` attribute on each component, an
    ``ObsConfig`` with ``record_trace`` and a span tracker with its own
    ``max_spans``; such a blob must be refused, never restored into a
    machine whose only event record is its span tracker."""
    machine = Machine(
        config=MachineConfig(mem_size=1 << 20, obs=ObsConfig(spans=True))
    )
    blob = encode(machine, version=8)
    with pytest.raises(SnapshotVersionError) as excinfo:
        restore(blob)
    assert excinfo.value.found == 8
    assert excinfo.value.expected == SNAPSHOT_VERSION
    machine2 = restore(snapshot(machine))
    components = (machine2, machine2.obs, machine2.udma, machine2.udma_engine,
                  machine2.cpu, machine2.kernel, machine2.kernel.vm)
    assert not any(hasattr(c, "tracer") for c in components)
    assert "max_spans" not in vars(machine2.obs.spans)
    assert machine2.obs.config == ObsConfig(spans=True)


def test_owner_bound_metrics_blob_from_version_9_refused():
    """Version 9 pickled each sampled counter and gauge detached (its
    ``read`` closure dropped, a ``_detached`` marker set) and each
    histogram as bucket counts plus running count/sum/min/max; such a
    blob must be refused, never restored into a registry whose counters
    sample through their owner."""
    machine = Machine(config=MachineConfig(mem_size=1 << 20))
    blob = encode(machine, version=9)
    with pytest.raises(SnapshotVersionError) as excinfo:
        restore(blob)
    assert excinfo.value.found == 9
    assert excinfo.value.expected == SNAPSHOT_VERSION == 10
    machine2 = restore(snapshot(machine))
    loads = machine2.obs.registry.get("cpu.loads")
    assert loads.owner is machine2.cpu
    assert "_detached" not in vars(loads)
    assert vars(machine2.obs.registry.get("udma.transfer_cycles")).keys() == {
        "name", "help", "buckets", "samples"
    }


def _stale_tlb() -> TLB:
    tlb = TLB(capacity=8)
    tlb.insert(1, 0x10, TlbEntry(pfn=3, writable=True, user=True))
    tlb.insert(1, 0x11, TlbEntry(pfn=4, writable=False, user=True))
    tlb.insert(2, 0x10, TlbEntry(pfn=9, writable=True, user=False))
    tlb.invalidate(2, 0x77)     # non-resident: only stamps the generation
    tlb.invalidate(1, 0x11)
    tlb.lookup(1, 0x10)
    tlb.lookup(1, 0x55)         # miss
    return tlb


def test_tlb_stale_generation_stamps_survive():
    tlb = _stale_tlb()
    generation, hits, misses = tlb.generation, tlb.hits, tlb.misses
    tlb2 = restore(snapshot(tlb))
    assert tlb2.generation == generation == 2
    assert tlb2.hits == hits and tlb2.misses == misses
    assert tlb2.lookup(1, 0x10) == tlb.lookup(1, 0x10)
    assert tlb2.lookup(1, 0x11) is None
    # Entries stay entries, shootdowns keep advancing the generation.
    tlb2.flush_all()
    assert tlb2.generation == generation + 1
    assert tlb.generation == generation  # original untouched
    assert tlb.lookup(2, 0x10) is not None


def test_tlb_state_dict_round_trip():
    tlb = _stale_tlb()
    twin = TLB(capacity=8)
    twin.load_state(tlb.state_dict())
    assert twin.generation == tlb.generation
    assert dict(twin._entries) == dict(tlb._entries)
    assert twin._asid_keys == tlb._asid_keys


def test_physical_memory_round_trip_and_memoryview_rebuilt():
    mem = PhysicalMemory(size=1 << 14)
    mem.write(0x100, b"shrimp dma payload")
    mem.write_word(0x200, 0xDEADBEEF)
    mem2 = restore(snapshot(mem))
    assert mem2.read(0x100, 18) == b"shrimp dma payload"
    assert mem2.read_word(0x200) == 0xDEADBEEF
    # The cached memoryview must be a live view of the restored data.
    mem2.write(0x300, b"post-restore write")
    assert mem2.read(0x300, 18) == b"post-restore write"
    assert mem.read(0x300, 18) != b"post-restore write"


def test_physical_memory_fork_is_independent():
    mem = PhysicalMemory(size=1 << 12)
    mem.write(0, b"original")
    twin = fork(mem)
    twin.write(0, b"branched")
    assert mem.read(0, 8) == b"original"
    assert twin.read(0, 8) == b"branched"


def _used_pool() -> PacketPool:
    pool = PacketPool()
    packets = [pool.acquire(0, 1, i * 64, b"x" * 64, seq=i) for i in range(4)]
    for packet in packets[:3]:
        pool.release(packet)
    pool.acquire(1, 0, 0, b"y" * 64, seq=9)  # one reuse
    return pool


def test_packet_pool_round_trip_rebuilds_ownership():
    pool = _used_pool()
    pool2 = restore(snapshot(pool))
    assert pool2.stats() == pool.stats()
    # The restored pool owns its free list outright: no shell is shared
    # with the original, and recycling from one leaves the other
    # untouched.
    assert not {id(p) for p in pool2._packets} & {id(p) for p in pool._packets}
    packet = pool2.acquire(2, 3, 0x80, b"z" * 64, seq=11)
    assert pool2.stats()["packet_reuses"] == pool.stats()["packet_reuses"] + 1
    assert bytes(packet.payload) == b"z" * 64
    assert all(p.payload == b"" for p in pool._packets)
    # The restored pool must keep recycling correctly.
    packet = pool2.acquire(2, 3, 128, b"z" * 64, seq=11)
    assert isinstance(packet, Packet)
    pool2.release(packet)


def test_histogram_distribution_survives_restore():
    reg = MetricsRegistry()
    hist = reg.histogram("udma.transfer_cycles")
    for v in (10, 20, 30, 40, 1000):
        hist.observe(v)
    reg2 = restore(snapshot(reg))
    hist2 = reg2.get("udma.transfer_cycles")
    assert hist2 is not hist
    assert hist2.value() == hist.value()
    hist2.observe(50)
    assert hist2.value()["count"] == hist.value()["count"] + 1

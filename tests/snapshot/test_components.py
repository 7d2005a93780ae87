"""Directed per-subsystem snapshot tests.

Each test targets one stateful component in a configuration that has
historically been hard to serialise correctly: a clock mid-burst with a
populated free list and a same-cycle burst queued, a TLB after
shootdowns, a packet pool with recycled shells, owner-bound sampled
metrics, a translation cache shared by a CPU and its page table.
"""

from __future__ import annotations

from functools import partial

import pytest

from repro.config import MachineConfig
from repro.machine import Machine
from repro.mem.physmem import PhysicalMemory
from repro.net.nipt import NetworkInterfacePageTable
from repro.net.packet import Packet
from repro.net.pool import PacketPool
from repro.obs import ObsConfig
from repro.obs.registry import MetricsRegistry
from repro.params import shrimp
from repro.sim.clock import Clock
from repro.snapshot import Snapshottable, fork, restore, snapshot
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


def _shot_tlb() -> TLB:
    tlb = TLB(capacity=8)
    tlb.insert(1, 0x10, TlbEntry(pfn=3, writable=True, user=True))
    tlb.insert(1, 0x11, TlbEntry(pfn=4, writable=False, user=True))
    tlb.insert(2, 0x10, TlbEntry(pfn=9, writable=True, user=False))
    tlb.invalidate(2, 0x77)     # non-resident: a no-op
    tlb.invalidate(1, 0x11)
    tlb.flush_asid(3)           # unknown asid: counted, drops nothing
    tlb.lookup(1, 0x10)
    tlb.lookup(1, 0x55)         # miss
    return tlb


def test_tlb_after_shootdowns_survives():
    tlb = _shot_tlb()
    hits, misses, flushes = tlb.hits, tlb.misses, tlb.flushes
    tlb2 = restore(snapshot(tlb))
    assert (tlb2.hits, tlb2.misses, tlb2.flushes) == (hits, misses, flushes)
    assert len(tlb2) == len(tlb) == 2
    assert tlb2.lookup(1, 0x10) == tlb.lookup(1, 0x10)
    assert tlb2.lookup(1, 0x11) is None
    # The copy shoots down on its own; the original keeps its entries.
    tlb2.flush_asid(2)
    assert tlb2.lookup(2, 0x10) is None
    assert tlb2.flushes == flushes + 1
    assert tlb.lookup(2, 0x10) is not None
    assert tlb.flushes == flushes


def test_tlb_state_dict_round_trip():
    tlb = _shot_tlb()
    twin = TLB(capacity=8)
    twin.load_state(tlb.state_dict())
    assert (twin.hits, twin.misses, twin.flushes) == (
        tlb.hits, tlb.misses, tlb.flushes
    )
    assert dict(twin._entries) == dict(tlb._entries)
    assert twin._asid_keys == tlb._asid_keys


@pytest.mark.parametrize(
    "copy", [lambda m: restore(snapshot(m)), fork], ids=["restore", "fork"]
)
def test_copied_machine_keeps_one_translation_cache(copy):
    """After restore or fork, the CPU still reads its page table's cache
    (the very dict, not a copy of it), and an unmap on the copy evicts
    the copy's entry only."""
    machine = Machine(config=MachineConfig(mem_size=1 << 20))
    p = machine.create_process("a")
    va = machine.kernel.syscalls.alloc(p, 2 * 4096)
    machine.cpu.store(va, 1)
    machine.cpu.store(va + 4096, 2)
    vpage = va // 4096
    twin = copy(machine)
    cpu, table = twin.cpu, twin.kernel.processes[p.pid].page_table
    assert cpu._xlat is table.xlat
    assert cpu._xlat is not machine.cpu._xlat
    assert set(table.xlat) == set(p.page_table.xlat) == {vpage, vpage + 1}
    table.unmap(vpage)
    twin.mmu.tlb.invalidate(p.asid, vpage)
    assert set(table.xlat) == {vpage + 1}
    assert set(p.page_table.xlat) == {vpage, vpage + 1}
    assert twin.cpu.load(va) == 0          # the copy re-walks a zero fill
    assert machine.cpu.load(va) == 1       # the original still hits
    assert twin.cpu.load(va + 4096) == 2


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


def _churned_nipt() -> NetworkInterfacePageTable:
    nipt = NetworkInterfacePageTable(16)
    first = nipt.install(1, (10, 11, 12))
    nipt.install(2, (20, 21))
    nipt.uninstall(first, 3)
    return nipt


#: graph builder, probe: graphs whose persisted shape has changed in the
#: past (a slotted packet, a shell-only pool, a NIPT owning its free runs,
#: one config field per decision, owner-bound metrics) restore whole
ROUND_TRIPS = {
    "packet": (
        lambda: (*_burst_clock(), Packet(0, 1, 0x40, b"in flight", seq=3)),
        lambda g: (g[0].now, g[2]),
    ),
    "pool": (_used_pool, PacketPool.stats),
    "nipt": (_churned_nipt, lambda n: (n._free, n.install(3, (30,)))),
    "configs": (
        lambda: (shrimp(), ObsConfig(spans=True),
                 MachineConfig(queue_depth=4)),
        lambda g: g,
    ),
    "metrics": (
        lambda: Machine(config=MachineConfig(mem_size=1 << 20)),
        lambda m: m.obs.registry.get("cpu.loads").owner is m.cpu,
    ),
}


@pytest.mark.parametrize("name", sorted(ROUND_TRIPS))
def test_component_graph_round_trips(name):
    make, probe = ROUND_TRIPS[name]
    graph = make()
    assert probe(restore(snapshot(graph))) == probe(graph)

"""Shootdown fidelity of the CPU's translation fast path.

The CPU caches ``(asid, vpage) -> (frame, writable)`` translations
stamped with the TLB and page-table generation counters (see
``repro/cpu/cpu.py``, "Translation fast path").  These tests pin down the
contract: every event that can change what a virtual address means --
unmap, protection downgrade, page-out, TLB flush -- must prevent a
previously cached translation from being served afterwards.  A context
switch changes no mapping: cached translations are per address space, so
like the asid-tagged TLB's entries they survive it, and a process that is
switched back in is served from the cache again.

The property test drives a random op sequence against a plain dict
reference model; any stale cached translation shows up as a wrong value
or a missing ProtectionFault.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro import Machine, MachineConfig
from repro.errors import ProtectionFault

PAGE = 4096


def make_machine():
    return Machine(config=MachineConfig(mem_size=1 << 20))


# ------------------------------------------------------------- directed
class TestShootdownDirected:
    def test_unmap_invalidates_cached_translation(self):
        machine = make_machine()
        p = machine.create_process("a")
        va = machine.kernel.syscalls.alloc(p, PAGE)
        machine.cpu.store(va, 0xBEEF)
        assert machine.cpu.load(va) == 0xBEEF  # translation now cached
        vpage = va // PAGE
        p.page_table.unmap(vpage)
        machine.mmu.tlb.invalidate(p.asid, vpage)
        # The page was never swapped out, so the repaired mapping is a
        # zero fill -- reading 0xBEEF back would mean the CPU served the
        # stale cached frame.
        assert machine.cpu.load(va) == 0
        new_pte = p.page_table.get(vpage)
        assert new_pte is not None and new_pte.present

    def test_protection_downgrade_invalidates_cached_writable(self):
        machine = make_machine()
        p = machine.create_process("a")
        va = machine.kernel.syscalls.alloc(p, PAGE)
        machine.cpu.store(va, 1)  # cached as writable
        vpage = va // PAGE
        p.page_table.set_writable(vpage, False)
        machine.mmu.tlb.invalidate(p.asid, vpage)
        with pytest.raises(ProtectionFault):
            machine.cpu.store(va, 2)
        assert machine.cpu.load(va) == 1  # reads still fine, value intact

    def test_page_out_invalidates_cached_translation(self):
        machine = Machine(
                      config=MachineConfig(mem_size=16 * PAGE, bounce_frames=2),
                  )
        a = machine.create_process("a")
        va = machine.kernel.syscalls.alloc(a, PAGE)
        machine.kernel.scheduler.switch_to(a)
        machine.cpu.store(va, 0x1234)
        # Pressure from a second process forces a's page out.
        b = machine.create_process("b")
        vb = machine.kernel.syscalls.alloc(b, 14 * PAGE)
        machine.kernel.scheduler.switch_to(b)
        for i in range(14):
            machine.cpu.store(vb + i * PAGE, i)
        assert machine.kernel.vm.pages_out > 0
        # Back in process a, the access must re-walk (page-in), not reuse
        # the cached frame -- the data round-trips through backing store.
        machine.kernel.scheduler.switch_to(a)
        misses_before = machine.cpu.xlat_misses
        assert machine.cpu.load(va) == 0x1234
        assert machine.cpu.xlat_misses > misses_before

    def test_context_switch_isolates_address_spaces(self):
        machine = make_machine()
        a = machine.create_process("a")
        b = machine.create_process("b")
        va = machine.kernel.syscalls.alloc(a, PAGE)
        vb = machine.kernel.syscalls.alloc(b, PAGE)
        # Fresh processes allocate from the same window: same vaddr,
        # different address spaces.
        assert va == vb
        machine.kernel.scheduler.switch_to(a)
        machine.cpu.store(va, 0xAAAA)
        machine.kernel.scheduler.switch_to(b)
        machine.cpu.store(vb, 0xBBBB)
        assert machine.cpu.load(vb) == 0xBBBB
        machine.kernel.scheduler.switch_to(a)
        assert machine.cpu.load(va) == 0xAAAA

    def test_translations_survive_a_context_switch(self):
        machine = make_machine()
        a = machine.create_process("a")
        b = machine.create_process("b")
        va = machine.kernel.syscalls.alloc(a, PAGE)
        vb = machine.kernel.syscalls.alloc(b, PAGE)
        sched = machine.kernel.scheduler
        sched.switch_to(b)
        machine.cpu.store(vb, 0xB1)  # b's demand fill is a shootdown
        sched.switch_to(a)
        machine.cpu.store(va, 0xA1)  # a's translation now cached
        sched.switch_to(b)
        assert machine.cpu.load(vb) == 0xB1
        sched.switch_to(a)
        misses, hits = machine.cpu.xlat_misses, machine.cpu.xlat_hits
        assert machine.cpu.load(va) == 0xA1
        machine.cpu.store(va, 0xA2)
        assert machine.cpu.load(va) == 0xA2
        assert machine.cpu.xlat_misses == misses  # served from the cache
        assert machine.cpu.xlat_hits == hits + 3

    def test_tlb_flush_forces_fallback_walk(self):
        machine = make_machine()
        p = machine.create_process("a")
        va = machine.kernel.syscalls.alloc(p, PAGE)
        machine.cpu.store(va, 7)
        machine.cpu.load(va)
        misses = machine.cpu.xlat_misses
        machine.cpu.load(va)
        assert machine.cpu.xlat_misses == misses  # fast-path hit
        machine.mmu.tlb.flush_all()
        machine.cpu.load(va)
        assert machine.cpu.xlat_misses == misses + 1  # generation bumped

    def test_flush_asid_forces_fallback_walk(self):
        machine = make_machine()
        p = machine.create_process("a")
        va = machine.kernel.syscalls.alloc(p, PAGE)
        machine.cpu.store(va, 7)
        misses = machine.cpu.xlat_misses
        machine.mmu.tlb.flush_asid(p.asid)
        assert machine.cpu.load(va) == 7
        assert machine.cpu.xlat_misses == misses + 1


# ------------------------------------------------------------- property
NPAGES = 4

_op = st.one_of(
    st.tuples(st.just("store"), st.integers(0, NPAGES - 1),
              st.integers(1, 0xFFFF)),
    st.tuples(st.just("load"), st.integers(0, NPAGES - 1), st.just(0)),
    st.tuples(st.just("downgrade"), st.integers(0, NPAGES - 1), st.just(0)),
    st.tuples(st.just("upgrade"), st.integers(0, NPAGES - 1), st.just(0)),
    st.tuples(st.just("unmap"), st.integers(0, NPAGES - 1), st.just(0)),
    st.tuples(st.just("flush"), st.just(0), st.just(0)),
    st.tuples(st.just("switch"), st.just(0), st.just(0)),
)


@settings(max_examples=30, deadline=None)
@given(ops=st.lists(_op, max_size=40))
def test_xlat_cache_matches_reference_model(ops):
    """Random shootdown interleavings never serve a stale translation."""
    machine = make_machine()
    a = machine.create_process("a")
    b = machine.create_process("b")
    va = machine.kernel.syscalls.alloc(a, NPAGES * PAGE)
    machine.kernel.scheduler.switch_to(a)
    table, tlb, cpu = a.page_table, machine.mmu.tlb, machine.cpu

    value = {i: 0 for i in range(NPAGES)}      # reference contents
    writable = {i: True for i in range(NPAGES)}  # reference protection

    for op, i, arg in ops:
        addr = va + i * PAGE
        vpage = addr // PAGE
        if op == "store":
            if writable[i]:
                cpu.store(addr, arg)
                value[i] = arg
            else:
                with pytest.raises(ProtectionFault):
                    cpu.store(addr, arg)
        elif op == "load":
            assert cpu.load(addr) == value[i]
        elif op == "downgrade":
            if table.get(vpage) is not None:
                table.set_writable(vpage, False)
                tlb.invalidate(a.asid, vpage)
                # A downgrade only sticks while the PTE exists; a page
                # never touched (no PTE) faults in writable again.
                writable[i] = False
        elif op == "upgrade":
            if table.get(vpage) is not None:
                table.set_writable(vpage, True)
                tlb.invalidate(a.asid, vpage)
            writable[i] = True
        elif op == "unmap":
            table.unmap(vpage)
            tlb.invalidate(a.asid, vpage)
            value[i] = 0         # repaired mapping zero-fills
            writable[i] = True   # and restores the alloc's permissions
        elif op == "flush":
            tlb.flush_all()
        elif op == "switch":
            machine.kernel.scheduler.switch_to(b)
            machine.kernel.scheduler.switch_to(a)
    for i in range(NPAGES):
        assert cpu.load(va + i * PAGE) == value[i]

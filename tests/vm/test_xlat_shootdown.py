"""Shootdown fidelity of the CPU's translation fast path.

The CPU caches ``vpage -> (frame, writable)`` translations on the page
table they derive from (``PageTable.xlat``; see ``repro/cpu/cpu.py``,
"Translation fast path"), and every page-table mutator evicts the entry
of the page it edits.  These tests pin down the contract:

* every event that can change what a virtual address means -- unmap,
  protection downgrade, page-out -- must prevent a previously cached
  translation from being served afterwards;
* the eviction is exact: an edit of one page leaves every other cached
  translation a hit, in the edited address space and in its node-mates'
  (so one tenant's channel churn keeps the others' send plans fast);
* events that change no mapping leave the cache alone: a context switch
  rebinds the cache to the incoming address space, and a TLB flush drops
  TLB snapshots the page table still agrees with.

The property tests drive random op sequences against a plain dict model
and against a ``reference=True`` twin (no translation cache) run in
lockstep; any stale cached translation shows up as a wrong value, a
missing ProtectionFault, or a twin that disagrees.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro import ClusterConfig, Machine, MachineConfig, ShrimpCluster
from repro.errors import ProtectionFault
from repro.userlib import Sender, UdmaUser

PAGE = 4096


def make_machine(reference=False):
    return Machine(config=MachineConfig(mem_size=1 << 20, reference=reference))


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
        machine.cpu.store(vb, 0xB1)  # b's demand fill edits b's table only
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

    @pytest.mark.parametrize("flush", ["flush_all", "flush_asid"])
    def test_tlb_flush_keeps_translations(self, flush):
        """A flush drops TLB snapshots, not mappings: the page table still
        agrees with every cached translation, so loads stay right and
        keep hitting the cache."""
        machine = make_machine()
        p = machine.create_process("a")
        va = machine.kernel.syscalls.alloc(p, 2 * PAGE)
        machine.cpu.store(va, 7)
        machine.cpu.store(va + PAGE, 8)
        tlb = machine.mmu.tlb
        getattr(tlb, flush)(*([p.asid] if flush == "flush_asid" else []))
        assert len(tlb) == 0
        misses, hits = machine.cpu.xlat_misses, machine.cpu.xlat_hits
        assert machine.cpu.load(va) == 7
        assert machine.cpu.load(va + PAGE) == 8
        machine.cpu.store(va, 9)
        assert machine.cpu.load(va) == 9
        assert machine.cpu.xlat_misses == misses
        assert machine.cpu.xlat_hits == hits + 4

    def test_edit_of_one_page_keeps_the_others_cached(self):
        """Eviction is exact: downgrading page X re-walks X only, and page
        Y of the same address space is still served from the cache."""
        machine = make_machine()
        p = machine.create_process("a")
        va = machine.kernel.syscalls.alloc(p, 2 * PAGE)
        vx, vy = va // PAGE, va // PAGE + 1
        machine.cpu.store(va, 1)
        machine.cpu.store(va + PAGE, 2)
        machine.kernel.vm.set_page_protection(p, vx, False)
        assert vx not in p.page_table.xlat
        assert vy in p.page_table.xlat
        misses, hits = machine.cpu.xlat_misses, machine.cpu.xlat_hits
        assert machine.cpu.load(va + PAGE) == 2
        machine.cpu.store(va + PAGE, 3)
        assert (machine.cpu.xlat_misses, machine.cpu.xlat_hits) == (
            misses, hits + 2
        )
        assert machine.cpu.load(va) == 1
        assert machine.cpu.xlat_misses == misses + 1

    def test_skipped_shootdown_after_flush_never_served_from_cache(self):
        """The cache mirrors the page table, not the TLB's residency.

        A flush followed by cache hits leaves the default machine's TLB
        without the snapshot the reference machine's TLB refilled.  If the
        kernel then edits the page and skips its shootdown, the reference
        machine serves that stale TLB snapshot while the default machine
        -- whose cache the edit evicted -- walks the edited table.  Every
        kernel remap in ``repro`` pairs the edit with its shootdown, so
        this window is only reachable by a kernel bug; what holds is that
        the cache itself never serves the edited page.
        """
        values = {}
        for reference in (False, True):
            machine = make_machine(reference)
            p = machine.create_process("a")
            va = machine.kernel.syscalls.alloc(p, PAGE)
            machine.cpu.store(va, 0xBEEF)
            machine.mmu.tlb.flush_all()
            assert machine.cpu.load(va) == 0xBEEF
            resident = (p.asid, va // PAGE) in machine.mmu.tlb._entries
            assert resident is reference  # the refill the cache skipped
            p.page_table.unmap(va // PAGE)  # shootdown skipped
            misses = machine.cpu.xlat_misses
            values[reference] = machine.cpu.load(va)
            assert machine.cpu.xlat_misses == misses + 1
        assert values == {False: 0, True: 0xBEEF}


def test_release_channel_keeps_node_mates_send_plan_fast(monkeypatch):
    """One tenant's channel churn edits that tenant's page table and shoots
    down its pages only; a node-mate's send plan stays on ``_fast_send``."""
    cluster = ShrimpCluster(config=ClusterConfig(num_nodes=2, mem_size=1 << 21))
    n0, n1 = cluster.node(0), cluster.node(1)
    rigs = []
    for name in "ab":
        tx = n0.create_process("tx" + name)
        rx = n1.create_process("rx" + name)
        buf = n1.kernel.syscalls.alloc(rx, PAGE)
        channel = cluster.create_channel(0, 1, rx, buf, PAGE)
        rigs.append((tx, rx, buf, channel, Sender(cluster, tx, channel)))
    for *_, sender in rigs:
        sender.send_bytes(b"x" * 64)  # slow path warms the translations
        cluster.run_until_idle()

    fast = []
    fast_send = UdmaUser._fast_send

    def counted_fast_send(self, *args, **kwargs):
        ok = fast_send(self, *args, **kwargs)
        fast.append(ok)
        return ok

    monkeypatch.setattr(UdmaUser, "_fast_send", counted_fast_send)
    b_sender = rigs[1][4]
    assert b_sender.try_send(64)
    cluster.run_until_idle()
    assert fast == [True]

    tx_a, rx_a, buf_a, channel_a, _ = rigs[0]
    edits = tx_a.page_table.generation
    cluster.release_channel(channel_a)
    a_sender = Sender(cluster, tx_a, cluster.create_channel(0, 1, rx_a, buf_a, PAGE))
    a_sender.send_bytes(b"y" * 64)
    cluster.run_until_idle()
    assert tx_a.page_table.generation > edits  # a's table was edited

    fast.clear()
    assert b_sender.try_send(64)
    cluster.run_until_idle()
    assert fast == [True]


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


class _Twins:
    """A default machine and a ``reference=True`` twin run in lockstep.

    Every access runs on both; the twins must agree on the value and on
    whether it faulted.  Returns the default machine's outcome.
    """

    def __init__(self):
        self.worlds = []
        for reference in (False, True):
            machine = make_machine(reference)
            a = machine.create_process("a")
            b = machine.create_process("b")
            va = machine.kernel.syscalls.alloc(a, NPAGES * PAGE)
            machine.kernel.scheduler.switch_to(a)
            self.worlds.append((machine, a, b))
        self.va = va

    def access(self, op, i, arg=0):
        outcomes = []
        for machine, _, _ in self.worlds:
            addr = self.va + i * PAGE
            try:
                if op == "store":
                    machine.cpu.store(addr, arg)
                    outcomes.append(("ok", None))
                else:
                    outcomes.append(("ok", machine.cpu.load(addr)))
            except ProtectionFault as fault:
                outcomes.append(("fault", str(fault)))
        assert outcomes[0] == outcomes[1]
        return outcomes[0]

    def edit(self, op, i, shootdown=True):
        """Apply a page-table edit to both twins; False if the page has no
        PTE (nothing to edit)."""
        edited = False
        for machine, a, _ in self.worlds:
            table, vpage = a.page_table, self.va // PAGE + i
            if op != "unmap" and table.get(vpage) is None:
                continue
            edited = True
            if op == "unmap":
                table.unmap(vpage)
            else:
                table.set_writable(vpage, op == "upgrade")
            if shootdown:
                machine.mmu.tlb.invalidate(a.asid, vpage)
        return edited

    def each(self, fn):
        for machine, a, b in self.worlds:
            fn(machine, a, b)


def _switch(machine, a, b):
    machine.kernel.scheduler.switch_to(b)
    machine.kernel.scheduler.switch_to(a)


@settings(max_examples=30, deadline=None)
@given(ops=st.lists(_op, max_size=40))
def test_xlat_cache_matches_reference_model(ops):
    """Random shootdown interleavings never serve a stale translation: the
    default machine matches the dict model and its reference twin."""
    twins = _Twins()
    value = {i: 0 for i in range(NPAGES)}      # model contents
    writable = {i: True for i in range(NPAGES)}  # model protection

    for op, i, arg in ops:
        if op == "store":
            outcome = twins.access("store", i, arg)
            if writable[i]:
                assert outcome == ("ok", None)
                value[i] = arg
            else:
                assert outcome[0] == "fault"
        elif op == "load":
            assert twins.access("load", i) == ("ok", value[i])
        elif op == "downgrade":
            # A downgrade only sticks while the PTE exists; a page never
            # touched (no PTE) faults in writable again.
            if twins.edit("downgrade", i):
                writable[i] = False
        elif op == "upgrade":
            twins.edit("upgrade", i)
            writable[i] = True
        elif op == "unmap":
            twins.edit("unmap", i)
            value[i] = 0         # repaired mapping zero-fills
            writable[i] = True   # and restores the alloc's permissions
        elif op == "flush":
            twins.each(lambda machine, a, b: machine.mmu.tlb.flush_all())
        elif op == "switch":
            twins.each(_switch)
    for i in range(NPAGES):
        assert twins.access("load", i) == ("ok", value[i])


_skip_op = st.one_of(
    _op.filter(lambda op: op[0] != "flush"),
    st.tuples(st.just("skip"), st.integers(0, NPAGES - 1),
              st.sampled_from(["downgrade", "upgrade", "unmap"])),
)


@settings(max_examples=60, deadline=None)
@given(ops=st.lists(_skip_op, max_size=40))
def test_skipped_shootdown_matches_reference_twin(ops):
    """A page-table edit whose TLB shootdown the kernel skips: the TLB may
    serve its stale snapshot, but the translation cache must not add a
    stale window of its own, so both twins see identical values and
    faults.  Flushes are left out here: a flush desynchronises the twins'
    TLB residency, which only a skipped shootdown can observe
    (``test_skipped_shootdown_after_flush_never_served_from_cache``)."""
    twins = _Twins()
    for op, i, arg in ops:
        if op in ("store", "load"):
            twins.access(op, i, arg)
        elif op == "skip":
            twins.edit(arg, i, shootdown=False)
        elif op == "switch":
            twins.each(_switch)
        else:
            twins.edit(op, i)
    for i in range(NPAGES):
        twins.access("load", i)

"""Tests for the VM manager: demand paging, proxy faults, I2/I3 machinery."""

import pytest

from repro import Machine, MachineConfig
from repro.devices import SinkDevice
from repro.errors import ProtectionFault
from repro.kernel.vm_manager import I3_PROXY_DIRTY
from repro.mem.layout import Region

PAGE = 4096


def small_machine(**kwargs):
    """A machine with few frames so paging pressure is easy to create."""
    kwargs.setdefault("mem_size", 16 * PAGE)
    kwargs.setdefault("bounce_frames", 2)
    machine = Machine(config=MachineConfig(**kwargs))
    machine.attach_device(SinkDevice("sink", size=1 << 14))
    return machine


def proxy_pte(machine, process, vaddr):
    vproxy_page = machine.layout.proxy(vaddr) // PAGE
    return process.page_table.get(vproxy_page)


class TestDemandPaging:
    def test_first_touch_zero_fills(self):
        machine = small_machine()
        p = machine.create_process("a")
        vaddr = machine.kernel.syscalls.alloc(p, PAGE)
        assert machine.cpu.load(vaddr) == 0

    def test_write_then_read_back(self):
        machine = small_machine()
        p = machine.create_process("a")
        vaddr = machine.kernel.syscalls.alloc(p, PAGE)
        machine.cpu.store(vaddr, 0xCAFE)
        assert machine.cpu.load(vaddr) == 0xCAFE

    def test_unowned_access_is_fatal(self):
        machine = small_machine()
        machine.create_process("a")
        with pytest.raises(ProtectionFault):
            machine.cpu.load(10 * PAGE)

    def test_write_to_readonly_alloc_is_fatal(self):
        machine = small_machine()
        p = machine.create_process("a")
        vaddr = machine.kernel.syscalls.alloc(p, PAGE, writable=False)
        machine.cpu.load(vaddr)  # read is fine
        with pytest.raises(ProtectionFault):
            machine.cpu.store(vaddr, 1)

    def test_eviction_and_swap_roundtrip(self):
        machine = small_machine()
        a = machine.create_process("a")
        b = machine.create_process("b")
        va = machine.kernel.syscalls.alloc(a, 10 * PAGE)
        machine.kernel.scheduler.switch_to(a)
        for i in range(10):
            machine.cpu.store(va + i * PAGE, 0x1000 + i)
        vb = machine.kernel.syscalls.alloc(b, 10 * PAGE)
        machine.kernel.scheduler.switch_to(b)
        for i in range(10):
            machine.cpu.store(vb + i * PAGE, 0x2000 + i)
        assert machine.kernel.vm.pages_out > 0
        # A's data must survive its eviction round trip.
        machine.kernel.scheduler.switch_to(a)
        for i in range(10):
            assert machine.cpu.load(va + i * PAGE) == 0x1000 + i

    def test_clean_never_written_page_evicts_to_zero(self):
        machine = small_machine()
        a = machine.create_process("a")
        va = machine.kernel.syscalls.alloc(a, 10 * PAGE)
        for i in range(10):
            machine.cpu.load(va + i * PAGE)  # touch, never write
        b = machine.create_process("b")
        vb = machine.kernel.syscalls.alloc(b, 10 * PAGE)
        machine.kernel.scheduler.switch_to(b)
        for i in range(10):
            machine.cpu.store(vb + i * PAGE, 7)
        machine.kernel.scheduler.switch_to(a)
        for i in range(10):
            assert machine.cpu.load(va + i * PAGE) == 0


class TestProxyFaultCases:
    """Section 6's three cases for a fault on PROXY(vmem_page)."""

    def test_case1_resident_page_gets_proxy_mapping(self):
        machine = small_machine()
        p = machine.create_process("a")
        vaddr = machine.kernel.syscalls.alloc(p, PAGE)
        machine.cpu.store(vaddr, 1)  # make resident
        machine.cpu.store(machine.proxy(vaddr), -1)  # proxy touch (Inval value)
        pte = proxy_pte(machine, p, vaddr)
        assert pte is not None and pte.present
        assert machine.layout.region_of(pte.pfn * PAGE) is Region.MEMORY_PROXY

    def test_case2_swapped_page_is_paged_in_first(self):
        machine = small_machine()
        a = machine.create_process("a")
        va = machine.kernel.syscalls.alloc(a, 10 * PAGE)
        for i in range(10):
            machine.cpu.store(va + i * PAGE, i + 1)
        b = machine.create_process("b")
        vb = machine.kernel.syscalls.alloc(b, 10 * PAGE)
        machine.kernel.scheduler.switch_to(b)
        for i in range(10):
            machine.cpu.store(vb + i * PAGE, 7)
        machine.kernel.scheduler.switch_to(a)
        # va's early pages are now likely swapped out; touching the PROXY
        # must page them in and map the proxy.
        machine.cpu.store(machine.proxy(va), -1)
        pte = a.page_table.get(va // PAGE)
        assert pte is not None and pte.present
        assert proxy_pte(machine, a, va) is not None

    def test_case3_unowned_proxy_access_is_fatal(self):
        machine = small_machine()
        machine.create_process("a")
        with pytest.raises(ProtectionFault):
            machine.cpu.load(machine.proxy(12 * PAGE))

    def test_readonly_page_proxy_is_readonly(self):
        """A read-only page can be a source but not a destination."""
        machine = small_machine()
        p = machine.create_process("a")
        vaddr = machine.kernel.syscalls.alloc(p, PAGE, writable=False)
        machine.cpu.load(vaddr)
        status_word = machine.cpu.load(machine.proxy(vaddr))  # read proxy: OK
        assert isinstance(status_word, int)
        with pytest.raises(ProtectionFault):
            machine.cpu.store(machine.proxy(vaddr), -1)


class TestI3WriteProtect:
    def test_clean_page_proxy_starts_readonly(self):
        machine = small_machine()
        p = machine.create_process("a")
        vaddr = machine.kernel.syscalls.alloc(p, PAGE)
        machine.cpu.load(vaddr)  # resident but clean
        machine.cpu.load(machine.proxy(vaddr))  # map proxy via read
        assert not proxy_pte(machine, p, vaddr).writable

    def test_proxy_write_fault_upgrades_and_dirties(self):
        machine = small_machine()
        p = machine.create_process("a")
        vaddr = machine.kernel.syscalls.alloc(p, PAGE)
        machine.cpu.load(vaddr)
        assert not p.page_table.get(vaddr // PAGE).dirty
        machine.cpu.store(machine.proxy(vaddr), -1)  # write -> I3 upgrade
        assert p.page_table.get(vaddr // PAGE).dirty
        assert proxy_pte(machine, p, vaddr).writable

    def test_cleaning_write_protects_proxy(self):
        machine = small_machine()
        p = machine.create_process("a")
        vaddr = machine.kernel.syscalls.alloc(p, PAGE)
        machine.cpu.store(vaddr, 1)  # dirty
        machine.cpu.store(machine.proxy(vaddr), -1)  # writable proxy
        assert proxy_pte(machine, p, vaddr).writable
        assert machine.kernel.vm.clean_page(p, vaddr // PAGE)
        assert not p.page_table.get(vaddr // PAGE).dirty
        assert not proxy_pte(machine, p, vaddr).writable

    def test_write_after_clean_faults_and_redirties(self):
        machine = small_machine()
        p = machine.create_process("a")
        vaddr = machine.kernel.syscalls.alloc(p, PAGE)
        machine.cpu.store(vaddr, 1)
        machine.cpu.store(machine.proxy(vaddr), -1)
        machine.kernel.vm.clean_page(p, vaddr // PAGE)
        machine.cpu.store(machine.proxy(vaddr), -1)  # faults, upgrades again
        assert p.page_table.get(vaddr // PAGE).dirty


class TestI3ProxyDirtyAlternative:
    def test_proxy_writable_without_dirty_real_page(self):
        machine = small_machine(i3_strategy=I3_PROXY_DIRTY)
        p = machine.create_process("a")
        vaddr = machine.kernel.syscalls.alloc(p, PAGE)
        machine.cpu.load(vaddr)  # resident, clean
        machine.cpu.store(machine.proxy(vaddr), -1)
        pte = proxy_pte(machine, p, vaddr)
        assert pte.writable  # no write-protection under this strategy
        assert pte.dirty     # but the proxy page carries its own dirty bit

    def test_effective_dirty_ors_proxy_bit(self):
        machine = small_machine(i3_strategy=I3_PROXY_DIRTY)
        p = machine.create_process("a")
        vaddr = machine.kernel.syscalls.alloc(p, PAGE)
        machine.cpu.load(vaddr)
        machine.cpu.store(machine.proxy(vaddr), -1)  # proxy dirty only
        vm = machine.kernel.vm
        assert vm._effective_dirty(p, vaddr // PAGE, p.page_table.get(vaddr // PAGE))

    def test_clean_clears_proxy_dirty(self):
        machine = small_machine(i3_strategy=I3_PROXY_DIRTY)
        p = machine.create_process("a")
        vaddr = machine.kernel.syscalls.alloc(p, PAGE)
        machine.cpu.load(vaddr)
        machine.cpu.store(machine.proxy(vaddr), -1)
        assert machine.kernel.vm.clean_page(p, vaddr // PAGE)
        assert not proxy_pte(machine, p, vaddr).dirty


class TestI2Maintenance:
    def test_page_out_invalidates_proxy_mapping(self):
        machine = small_machine()
        a = machine.create_process("a")
        va = machine.kernel.syscalls.alloc(a, 10 * PAGE)
        for i in range(10):
            machine.cpu.store(va + i * PAGE, i)
            machine.cpu.store(machine.proxy(va + i * PAGE), -1)  # proxy maps
        b = machine.create_process("b")
        vb = machine.kernel.syscalls.alloc(b, 10 * PAGE)
        machine.kernel.scheduler.switch_to(b)
        for i in range(10):
            machine.cpu.store(vb + i * PAGE, 7)
        # Some of A's pages were evicted; their proxy mappings must be gone.
        evicted = [
            i for i in range(10)
            if not a.page_table.get((va + i * PAGE) // PAGE).present
        ]
        assert evicted, "test requires at least one eviction"
        for i in evicted:
            assert proxy_pte(machine, a, va + i * PAGE) is None

    def test_proxy_remapped_after_page_back_in(self):
        machine = small_machine()
        a = machine.create_process("a")
        va = machine.kernel.syscalls.alloc(a, 10 * PAGE)
        for i in range(10):
            machine.cpu.store(va + i * PAGE, i + 1)
            machine.cpu.store(machine.proxy(va + i * PAGE), -1)
        b = machine.create_process("b")
        vb = machine.kernel.syscalls.alloc(b, 10 * PAGE)
        machine.kernel.scheduler.switch_to(b)
        for i in range(10):
            machine.cpu.store(vb + i * PAGE, 7)
        machine.kernel.scheduler.switch_to(a)
        # Touch proxy of page 0 again: pages in + maps to the NEW frame.
        machine.cpu.store(machine.proxy(va), -1)
        mem_pte = a.page_table.get(va // PAGE)
        pxy = proxy_pte(machine, a, va)
        assert pxy.pfn == machine.layout.proxy(mem_pte.pfn * PAGE) // PAGE


class TestCleaningRace:
    def test_clean_deferred_while_dma_in_progress(self, sink_machine):
        """'Not clear the dirty bit if a DMA transfer to the page is in
        progress.'"""
        rig = sink_machine
        machine = rig.machine
        # Start a device->memory transfer into the buffer page.
        rig.sink.poke(0, b"x" * 64)
        machine.cpu.store(rig.mem(0).vaddr, 0)  # resident + dirty
        machine.cpu.store(machine.proxy(rig.buffer), 64)  # STORE dest=mem
        machine.cpu.fence()
        word = machine.cpu.load(rig.dev(0).vaddr)  # LOAD src=dev: starts
        vpage = rig.buffer // PAGE
        assert not machine.kernel.vm.clean_page(rig.process, vpage)
        assert machine.kernel.vm.cleans_deferred == 1
        assert rig.process.page_table.get(vpage).dirty
        machine.run_until_idle()
        assert machine.kernel.vm.clean_page(rig.process, vpage)


class TestEvictionWaitsForHardware:
    def test_evict_waits_when_all_candidates_are_in_registers(self, sink_machine):
        """Section 6: 'the kernel must either find another page to remap,
        or wait until the transfer finishes' -- the waiting branch."""
        rig = sink_machine
        machine = rig.machine
        vm = machine.kernel.vm
        # One resident page, and it is the source of an in-flight transfer.
        rig.fill_buffer(b"z" * PAGE)
        machine.cpu.store(rig.dev(0).vaddr, PAGE)
        machine.cpu.fence()
        machine.cpu.load(machine.proxy(rig.buffer))
        assert machine.udma.busy
        # Make the transfer's page the *only* eviction candidate by
        # paging out everything else first.
        victim_frame = rig.process.page_table.get(rig.buffer // PAGE).pfn
        for frame, meta in list(vm._frame_meta.items()):
            if frame != victim_frame:
                vm._page_out(frame)
        before = machine.clock.now
        vm._evict_one()
        # The kernel had to coast the clock to the transfer completion
        # before it could take the page.
        assert machine.clock.now > before
        assert not machine.udma.busy
        assert rig.sink.peek(0, PAGE) == b"z" * PAGE  # transfer finished first
        assert not rig.process.page_table.get(rig.buffer // PAGE).present

    def test_deadlock_without_hardware_completion_is_detected(self, sink_machine):
        """If nothing will ever complete, the kernel reports ENOMEM
        rather than spinning forever."""
        from repro.errors import SyscallError

        rig = sink_machine
        machine = rig.machine
        vm = machine.kernel.vm
        # Page out everything; no candidates and no pending hardware.
        for frame in list(vm._frame_meta):
            vm._page_out(frame)
        with pytest.raises(SyscallError, match="ENOMEM"):
            vm._evict_one()

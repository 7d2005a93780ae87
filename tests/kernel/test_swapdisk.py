"""Tests for swap on a real disk device (both transports)."""

import pytest

from repro import Machine, MachineConfig
from repro.devices import SinkDevice
from repro.errors import ConfigurationError
from repro.kernel.invariants import InvariantChecker
from repro.kernel.swapdisk import DiskBackingStore

PAGE = 4096


def swap_machine(mode, **kwargs):
    kwargs.setdefault("mem_size", 16 * PAGE)
    kwargs.setdefault("bounce_frames", 2)
    if mode == "disk-system-queue":
        kwargs.setdefault("queue_depth", 4)
    machine = Machine(config=MachineConfig(swap=mode, **kwargs))
    machine.attach_device(SinkDevice("sink", size=1 << 14))
    return machine


@pytest.mark.parametrize("mode", ["disk", "disk-system-queue"])
class TestSwapRoundtrip:
    def test_eviction_roundtrip_through_the_disk(self, mode):
        machine = swap_machine(mode)
        a = machine.create_process("a")
        va = machine.kernel.syscalls.alloc(a, 10 * PAGE)
        for i in range(10):
            machine.cpu.store(va + i * PAGE, 0x4000 + i)
        b = machine.create_process("b")
        vb = machine.kernel.syscalls.alloc(b, 10 * PAGE)
        machine.kernel.scheduler.switch_to(b)
        for i in range(10):
            machine.cpu.store(vb + i * PAGE, 0x7000 + i)
        assert machine.kernel.vm.pages_out > 0
        assert machine.kernel.backing.writes > 0
        machine.kernel.scheduler.switch_to(a)
        for i in range(10):
            assert machine.cpu.load(va + i * PAGE) == 0x4000 + i
        assert machine.kernel.backing.reads > 0

    def test_swapped_bytes_really_live_on_the_disk(self, mode):
        machine = swap_machine(mode)
        a = machine.create_process("a")
        va = machine.kernel.syscalls.alloc(a, PAGE)
        machine.cpu.write_bytes(va, b"swap me out please!!")
        frame = a.page_table.get(va // PAGE).pfn
        machine.kernel.vm._page_out(frame)
        # The bytes are on the disk device itself, not in a magic dict.
        raw = b"".join(
            machine.swap_disk.read_block(i) for i in range(PAGE // 512)
        )
        assert b"swap me out please!!" in raw

    def test_paging_charges_real_device_time(self, mode):
        def run(machine):
            a = machine.create_process("a")
            va = machine.kernel.syscalls.alloc(a, 14 * PAGE)
            start = machine.clock.now
            for round_no in range(2):
                for i in range(14):
                    machine.cpu.store(va + i * PAGE, i)
            pages_out = machine.kernel.vm.pages_out
            return machine.clock.now - start, pages_out

        disk_time, disk_pages = run(swap_machine(mode, bounce_frames=4))
        dict_time, dict_pages = run(
            Machine(
                config=MachineConfig(
                    mem_size=16 * PAGE,
                    bounce_frames=4,
                    queue_depth=4 if mode == "disk-system-queue" else 0,
                ),
            )
        )
        assert disk_pages > 0 and dict_pages > 0  # both really paged
        # Same workload, but the disk path pays seeks + transfer time
        # instead of the dict store's flat swap_io_cycles charge.
        assert disk_time != dict_time

    def test_invariants_hold_with_disk_swap(self, mode):
        machine = swap_machine(mode)
        a = machine.create_process("a")
        va = machine.kernel.syscalls.alloc(a, 12 * PAGE)
        for i in range(12):
            machine.cpu.store(va + i * PAGE, i)
        InvariantChecker(machine.kernel).check_all()


class TestSystemQueueTransport:
    def test_kernel_paging_jumps_user_backlog(self):
        """The point of the two-queue design: paging I/O rides the system
        queue and overtakes queued user transfers."""
        machine = swap_machine("disk-system-queue", mem_size=24 * PAGE)
        p = machine.create_process("app")
        buf = machine.kernel.syscalls.alloc(p, 4 * PAGE)
        grant = machine.kernel.syscalls.grant_device_proxy(p, "sink")
        from repro.userlib import DeviceRef, MemoryRef, UdmaUser

        udma = UdmaUser(machine, p)
        for i in range(4):
            machine.cpu.store(buf + i * PAGE, i)
        # Queue a backlog of user transfers (wait=False keeps them queued).
        udma.transfer(MemoryRef(buf), DeviceRef(grant), 3 * PAGE, wait=False)
        backlog_before = machine.udma.backlog_requests
        assert backlog_before >= 1
        # Force a page-out *now*: it must complete even though user
        # requests are queued ahead (system priority).
        victim = machine.kernel.vm.resident_frame(p, (buf + 3 * PAGE) // PAGE)
        machine.kernel.vm._page_out(victim)
        assert machine.kernel.backing.writes == 1
        machine.run_until_idle()

    def test_system_queue_requires_queued_device(self):
        with pytest.raises(ConfigurationError):
            Machine(
                config=MachineConfig(
                    mem_size=16 * PAGE,
                    swap="disk-system-queue",
                ),
            )

    def test_swap_disk_needs_two_bounce_frames(self):
        with pytest.raises(ConfigurationError):
            Machine(
                config=MachineConfig(
                    mem_size=16 * PAGE,
                    swap="disk",
                    bounce_frames=1,
                ),
            )

    def test_unknown_swap_mode_rejected(self):
        with pytest.raises(ConfigurationError):
            Machine(config=MachineConfig(mem_size=16 * PAGE, swap="cloud"))


class TestSlotManagement:
    def test_slots_reused_for_same_page(self):
        machine = swap_machine("disk")
        store = machine.kernel.backing
        assert isinstance(store, DiskBackingStore)
        store.save(1, 5, b"\x01" * PAGE)
        store.save(1, 5, b"\x02" * PAGE)
        assert len(store) == 1
        assert store.load(1, 5) == b"\x02" * PAGE

    def test_discard_and_discard_asid(self):
        machine = swap_machine("disk")
        store = machine.kernel.backing
        store.save(1, 5, b"\x01" * PAGE)
        store.save(1, 6, b"\x01" * PAGE)
        store.save(2, 5, b"\x01" * PAGE)
        store.discard(1, 5)
        assert not store.has(1, 5) and store.has(1, 6)
        store.discard_asid(1)
        assert len(store) == 1

    def test_load_missing_returns_none(self):
        machine = swap_machine("disk")
        assert machine.kernel.backing.load(9, 9) is None

    def test_partial_page_rejected(self):
        machine = swap_machine("disk")
        with pytest.raises(ConfigurationError):
            machine.kernel.backing.save(1, 1, b"short")

"""Tests for the I4 remap guard."""

import enum

import pytest

from repro import Machine, MachineConfig
from repro.devices import SinkDevice

PAGE = 4096


def build(queue_depth=0):
    machine = Machine(
                  config=MachineConfig(
                      mem_size=32 * PAGE,
                      queue_depth=queue_depth,
                      bounce_frames=2,
                  ),
              )
    machine.attach_device(SinkDevice("sink", size=1 << 16))
    p = machine.create_process("a")
    vaddr = machine.kernel.syscalls.alloc(p, 4 * PAGE)
    grant = machine.kernel.syscalls.grant_device_proxy(p, "sink")
    return machine, p, vaddr, grant


def start_transfer(machine, p, vaddr, grant, nbytes=PAGE):
    machine.cpu.store(vaddr, 1)  # resident + dirty
    machine.cpu.store(grant, nbytes)
    machine.cpu.fence()
    machine.cpu.load(machine.proxy(vaddr))


class TestRegistersStrategy:
    def test_source_page_reported_in_use(self):
        machine, p, vaddr, grant = build()
        start_transfer(machine, p, vaddr, grant)
        frame = p.page_table.get(vaddr // PAGE).pfn
        assert machine.kernel.remap_guard.is_page_in_use(frame)

    def test_idle_page_not_in_use(self):
        machine, p, vaddr, grant = build()
        machine.cpu.store(vaddr, 1)
        frame = p.page_table.get(vaddr // PAGE).pfn
        assert not machine.kernel.remap_guard.is_page_in_use(frame)

    def test_page_released_after_completion(self):
        machine, p, vaddr, grant = build()
        start_transfer(machine, p, vaddr, grant)
        frame = p.page_table.get(vaddr // PAGE).pfn
        machine.run_until_idle()
        assert not machine.kernel.remap_guard.is_page_in_use(frame)

    def test_check_charges_cycles(self):
        machine, p, vaddr, grant = build()
        before = machine.clock.now
        machine.kernel.remap_guard.is_page_in_use(3)
        assert machine.clock.now - before == machine.costs.remap_check_cycles

    def test_check_counter(self):
        machine, p, vaddr, grant = build()
        machine.kernel.remap_guard.is_page_in_use(3)
        machine.kernel.remap_guard.is_page_in_use(4)
        assert machine.kernel.remap_guard.checks == 2


class GuardStrategy(enum.Enum):
    """The paper's two I4 readings of the queued device (section 7)."""

    #: the per-page reference-count register
    REFCOUNT = "refcount"
    #: the associative query that searches the hardware queue for a page
    QUERY = "query"


def queue_names_page(machine, frame, strategy):
    """Whether the queued device's pending requests name ``frame``.

    Each strategy reads the device its own way; the remap guard must agree
    with both on every page a queued request names.
    """
    udma = machine.udma
    if strategy is GuardStrategy.REFCOUNT:
        return udma.page_reference_count(frame) > 0
    return any(frame in udma._request_pages(r) for r in udma._all_pending())


@pytest.mark.parametrize("strategy", [GuardStrategy.REFCOUNT, GuardStrategy.QUERY])
class TestQueuedStrategies:
    def test_queued_pages_reported(self, strategy):
        machine, p, vaddr, grant = build(queue_depth=4)
        # queue two transfers from two different pages
        for i in range(2):
            machine.cpu.store(vaddr + i * PAGE, 1)
            machine.cpu.store(grant + i * PAGE, PAGE)
            machine.cpu.fence()
            machine.cpu.load(machine.proxy(vaddr + i * PAGE))
        for i in range(2):
            frame = p.page_table.get((vaddr + i * PAGE) // PAGE).pfn
            assert queue_names_page(machine, frame, strategy)
            assert machine.kernel.remap_guard.is_page_in_use(frame)
        machine.run_until_idle()
        for i in range(2):
            frame = p.page_table.get((vaddr + i * PAGE) // PAGE).pfn
            assert not queue_names_page(machine, frame, strategy)
            assert not machine.kernel.remap_guard.is_page_in_use(frame)

    def test_latch_covered(self, strategy):
        machine, p, vaddr, grant = build(queue_depth=4)
        machine.cpu.store(vaddr, 1)
        # STORE names the memory page as DESTINATION; no LOAD yet.
        machine.cpu.store(machine.proxy(vaddr), 64)
        frame = p.page_table.get(vaddr // PAGE).pfn
        # Nothing is queued, so neither reading sees the page; the guard
        # still does, from the latch.
        assert not queue_names_page(machine, frame, strategy)
        assert machine.kernel.remap_guard.is_page_in_use(frame)

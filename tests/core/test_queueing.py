"""Tests for the section-7 queued UDMA device."""

import pytest

from repro.core.queueing import QueuedUdmaController
from repro.core.status import UdmaStatus
from repro.devices.sink import SinkDevice
from repro.dma.engine import DmaEngine
from repro.errors import QueueFull
from repro.mem.layout import Layout
from repro.mem.physmem import PhysicalMemory
from repro.params import shrimp
from repro.sim.clock import Clock

PAGE = 4096
MEM = 1 << 20


class Rig:
    def __init__(self, depth=4):
        self.clock = Clock()
        self.layout = Layout(mem_size=MEM)
        self.ram = PhysicalMemory(MEM)
        self.engine = DmaEngine(self.clock, shrimp())
        self.udma = QueuedUdmaController(
            self.layout, self.ram, self.engine, self.clock, queue_depth=depth
        )
        self.sink = SinkDevice("sink", size=1 << 16)
        self.window = self.udma.attach_device(self.sink)

    def initiate(self, dest_paddr, src_paddr, nbytes):
        self.udma.io_store(dest_paddr, nbytes)
        return UdmaStatus.decode(self.udma.io_load(src_paddr), PAGE)


@pytest.fixture
def rig():
    return Rig()


class TestQueueing:
    def test_back_to_back_initiations_accepted(self, rig):
        """Multi-page transfers need only two instructions per page."""
        for page in range(3):
            rig.ram.write(page * PAGE, bytes([page + 1]) * 16)
            status = rig.initiate(
                rig.window.base + page * PAGE,
                rig.layout.proxy(page * PAGE),
                16,
            )
            assert status.started  # no waiting between pages
        assert rig.udma.backlog_requests >= 2
        rig.clock.run_until_idle()
        for page in range(3):
            assert rig.sink.peek(page * PAGE, 16) == bytes([page + 1]) * 16

    def test_refused_only_when_queue_full(self, rig):
        # depth=4: one in flight + 4 queued accepted, the next refused
        accepted = 0
        refused_status = None
        for i in range(8):
            status = rig.initiate(
                rig.window.base + i * PAGE, rig.layout.proxy(i * PAGE), PAGE
            )
            if status.started:
                accepted += 1
            else:
                refused_status = status
                break
        assert accepted == 5  # 1 in flight + 4 queued
        assert refused_status is not None
        assert refused_status.should_retry  # transient, not a hard error
        assert rig.udma.refused == 1

    def test_refusal_keeps_latch_so_load_retry_works(self, rig):
        for i in range(5):
            rig.initiate(rig.window.base + i * PAGE, rig.layout.proxy(i * PAGE), PAGE)
        # Queue now full; this initiation is refused.
        status = rig.initiate(rig.window.base + 5 * PAGE, rig.layout.proxy(5 * PAGE), PAGE)
        assert not status.started
        # Let one transfer finish, then retry the LOAD alone.
        rig.clock.run_until_idle()
        retry = UdmaStatus.decode(
            rig.udma.io_load(rig.layout.proxy(5 * PAGE)), PAGE
        )
        assert retry.started

    def test_gather_scatter_pattern(self, rig):
        """Discontiguous pieces queued together land correctly."""
        pieces = [(0x0000, 0x100, b"AA"), (0x3000, 0x200, b"BB"), (0x8000, 0x300, b"CC")]
        for mem_addr, dev_off, data in pieces:
            rig.ram.write(mem_addr, data)
            status = rig.initiate(
                rig.window.base + dev_off, rig.layout.proxy(mem_addr), len(data)
            )
            assert status.started
        rig.clock.run_until_idle()
        for _, dev_off, data in pieces:
            assert rig.sink.peek(dev_off, len(data)) == data

    def test_match_covers_queued_requests(self, rig):
        rig.initiate(rig.window.base, rig.layout.proxy(0), PAGE)
        rig.initiate(rig.window.base + PAGE, rig.layout.proxy(PAGE), PAGE)
        status = UdmaStatus.decode(rig.udma.io_load(rig.layout.proxy(PAGE)), PAGE)
        assert status.match  # queued, not yet complete
        rig.clock.run_until_idle()
        status = UdmaStatus.decode(rig.udma.io_load(rig.layout.proxy(PAGE)), PAGE)
        assert not status.match

    def test_bad_load_still_detected(self, rig):
        rig.udma.io_store(rig.layout.proxy(0), 64)
        status = UdmaStatus.decode(rig.udma.io_load(rig.layout.proxy(PAGE)), PAGE)
        assert status.wrong_space

    def test_inval_clears_latch_but_not_queue(self, rig):
        rig.initiate(rig.window.base, rig.layout.proxy(0), PAGE)
        rig.udma.io_store(rig.window.base + PAGE, 64)  # half-initiated
        rig.udma.inval()
        assert rig.udma.backlog_requests == 1  # queued transfer survives
        status = UdmaStatus.decode(rig.udma.io_load(rig.layout.proxy(PAGE)), PAGE)
        assert not status.started  # latch was cleared


class TestPriorities:
    def test_system_queue_drains_first(self, rig):
        order = []
        rig.sink.dma_write_orig = rig.sink.dma_write
        rig.sink.dma_write = lambda off, data: (
            order.append(off), rig.sink.dma_write_orig(off, data))[-1]
        # Fill: one in flight (user), then queue user + system requests.
        rig.initiate(rig.window.base + 0 * PAGE, rig.layout.proxy(0), 8)
        rig.initiate(rig.window.base + 1 * PAGE, rig.layout.proxy(PAGE), 8)
        rig.udma.enqueue_system(
            rig.layout.proxy(2 * PAGE), rig.window.base + 2 * PAGE, 8
        )
        rig.clock.run_until_idle()
        # The in-flight user request finishes first, then the system one
        # jumps the remaining user request.
        assert order == [0 * PAGE, 2 * PAGE, 1 * PAGE]

    def test_system_queue_full_raises(self):
        rig = Rig(depth=1)
        rig.udma.enqueue_system(rig.layout.proxy(0), rig.window.base, 8)
        rig.udma.enqueue_system(rig.layout.proxy(PAGE), rig.window.base + PAGE, 8)
        with pytest.raises(QueueFull):
            rig.udma.enqueue_system(
                rig.layout.proxy(2 * PAGE), rig.window.base + 2 * PAGE, 8
            )


class TestI4Strategies:
    def test_page_reference_counter(self, rig):
        rig.initiate(rig.window.base, rig.layout.proxy(3 * PAGE), PAGE)
        rig.initiate(rig.window.base + PAGE, rig.layout.proxy(3 * PAGE), PAGE)
        assert rig.udma.page_reference_count(3) == 2
        rig.clock.run_until_idle()
        assert rig.udma.page_reference_count(3) == 0

    def test_memory_pages_in_registers_includes_queue(self, rig):
        rig.initiate(rig.window.base, rig.layout.proxy(1 * PAGE), PAGE)
        rig.initiate(rig.window.base + PAGE, rig.layout.proxy(2 * PAGE), PAGE)
        pages = rig.udma.memory_pages_in_registers()
        assert {1, 2} <= pages

    def test_latch_included_in_pages(self, rig):
        rig.udma.io_store(rig.layout.proxy(9 * PAGE), 64)
        assert 9 in rig.udma.memory_pages_in_registers()


class TestBacklogAccounting:
    def test_accepted_counter(self, rig):
        rig.initiate(rig.window.base, rig.layout.proxy(0), 8)
        assert rig.udma.accepted == 1

    def test_device_error_veto_drops_latch(self):
        rig = Rig()
        rig.sink.alignment = 4
        status = rig.initiate(rig.window.base + 2, rig.layout.proxy(0), 8)
        assert status.hard_error
        assert rig.udma.backlog_requests == 0

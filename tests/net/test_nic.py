"""Tests for the SHRIMP network interface."""

import pytest

from repro.errors import NetworkError
from repro.mem.physmem import PhysicalMemory
from repro.net.interconnect import Interconnect
from repro.net.nic import ERR_NIPT_INVALID, ERR_NO_RECEIVE, ShrimpNic
from repro.params import shrimp
from repro.sim.clock import Clock

PAGE = 4096


class Rig:
    def __init__(self, nodes=2):
        self.clock = Clock()
        self.costs = shrimp()
        self.interconnect = Interconnect(self.clock, self.costs)
        self.rams = [PhysicalMemory(64 * PAGE) for _ in range(nodes)]
        self.nics = []
        for i in range(nodes):
            nic = ShrimpNic(i, self.costs, self.rams[i], nipt_entries=64)
            nic.attach(self.clock)
            nic.connect(self.interconnect)
            self.nics.append(nic)


@pytest.fixture
def rig():
    return Rig()


class TestDeliberateUpdate:
    def test_dma_write_delivers_to_remote_memory(self, rig):
        rig.nics[0].nipt.set_entry(0, dst_node=1, dst_page=5)
        rig.nics[0].dma_write(0x10, b"deliberate update")
        rig.clock.run_until_idle()
        assert rig.rams[1].read(5 * PAGE + 0x10, 17) == b"deliberate update"

    def test_page_index_and_offset_decomposition(self, rig):
        # "A proxy destination address can be thought of as a proxy page
        # number and an offset on that page."
        rig.nics[0].nipt.set_entry(3, dst_node=1, dst_page=7)
        rig.nics[0].dma_write(3 * PAGE + 100, b"offset!")
        rig.clock.run_until_idle()
        assert rig.rams[1].read(7 * PAGE + 100, 7) == b"offset!"

    def test_invalid_nipt_entry_is_an_error(self, rig):
        with pytest.raises(NetworkError):
            rig.nics[0].dma_write(9 * PAGE, b"x")

    def test_counters(self, rig):
        rig.nics[0].nipt.set_entry(0, 1, 0)
        rig.nics[0].dma_write(0, b"12345678")
        rig.clock.run_until_idle()
        assert rig.nics[0].packets_sent == 1
        assert rig.nics[0].bytes_sent == 8
        assert rig.nics[1].packets_received == 1
        assert rig.nics[1].bytes_received == 8

    def test_on_receive_hook(self, rig):
        seen = []
        rig.nics[1].on_receive.append(lambda p: seen.append(p))
        rig.nics[0].nipt.set_entry(0, 1, 0)
        rig.nics[0].dma_write(0, b"hook")
        rig.clock.run_until_idle()
        assert len(seen) == 1 and seen[0].payload == b"hook"


class TestChecking:
    def test_nic_refuses_to_be_udma_source(self, rig):
        errors = rig.nics[0].check_transfer(True, 0, 64)
        assert errors & ERR_NO_RECEIVE

    def test_unexported_destination_vetoed(self, rig):
        errors = rig.nics[0].check_transfer(False, 9 * PAGE, 64)
        assert errors & ERR_NIPT_INVALID

    def test_exported_destination_accepted(self, rig):
        rig.nics[0].nipt.set_entry(0, 1, 0)
        assert rig.nics[0].check_transfer(False, 0, 64) == 0

    def test_four_byte_alignment_enforced(self, rig):
        # "transfer outgoing message data aligned on 4-byte boundaries"
        rig.nics[0].nipt.set_entry(0, 1, 0)
        assert rig.nics[0].check_transfer(False, 2, 64) != 0
        assert rig.nics[0].check_transfer(False, 0, 62) != 0

    def test_dma_read_unsupported(self, rig):
        with pytest.raises(NetworkError):
            rig.nics[0].dma_read(0, 4)


class TestReceiveErrors:
    def test_corrupted_packet_dropped(self, rig):
        rig.interconnect.fault_injector = (
            lambda w: bytes(w)[:-1] + bytes([bytes(w)[-1] ^ 1])
        )
        rig.nics[0].nipt.set_entry(0, 1, 0)
        rig.nics[0].dma_write(0, b"will be corrupted")
        rig.clock.run_until_idle()
        assert rig.nics[1].packets_received == 0
        assert rig.nics[1].rx_errors == 1

    def test_out_of_range_paddr_dropped(self, rig):
        rig.nics[0].nipt.set_entry(0, 1, 99999)  # way past RAM
        rig.nics[0].dma_write(0, b"wild write")
        rig.clock.run_until_idle()
        assert rig.nics[1].rx_errors == 1
        assert rig.nics[1].packets_received == 0


class TestWirePipeline:
    def test_packets_serialise_on_the_wire(self, rig):
        rig.nics[0].nipt.set_entry(0, 1, 0)
        rig.nics[0].nipt.set_entry(1, 1, 1)
        rig.nics[0].dma_write(0, b"A" * 1024)
        first_done = rig.nics[0].last_wire_done
        rig.nics[0].dma_write(PAGE, b"B" * 1024)
        assert rig.nics[0].last_wire_done > first_done
        rig.clock.run_until_idle()
        assert rig.nics[1].packets_received == 2

    def test_rx_order_preserved(self, rig):
        order = []
        rig.nics[1].on_receive.append(lambda p: order.append(p.seq))
        rig.nics[0].nipt.set_entry(0, 1, 0)
        for _ in range(3):
            rig.nics[0].dma_write(0, b"msg")
        rig.clock.run_until_idle()
        assert order == sorted(order)


class TestAutomaticUpdate:
    def test_bound_page_stores_are_forwarded(self, rig):
        rig.nics[0].nipt.set_entry(2, dst_node=1, dst_page=9)
        rig.nics[0].bind_automatic(local_page=4, nipt_index=2)
        rig.nics[0].snoop_store(4 * PAGE + 8, b"\xde\xad\xbe\xef")
        rig.clock.run_until_idle()
        assert rig.rams[1].read(9 * PAGE + 8, 4) == b"\xde\xad\xbe\xef"

    def test_unbound_page_not_forwarded(self, rig):
        rig.nics[0].nipt.set_entry(2, 1, 9)
        rig.nics[0].bind_automatic(4, 2)
        rig.nics[0].snoop_store(5 * PAGE, b"\x01\x02\x03\x04")
        rig.clock.run_until_idle()
        assert rig.nics[1].packets_received == 0

    def test_binding_requires_valid_nipt_entry(self, rig):
        from repro.errors import ConfigurationError
        with pytest.raises(ConfigurationError):
            rig.nics[0].bind_automatic(4, 63)


class TestStoreAndForwardMode:
    def test_flag_defaults_to_cut_through(self, rig):
        assert rig.nics[0].cut_through

    def test_store_and_forward_is_slower_end_to_end(self):
        def one_page_delivery(cut_through):
            r = Rig()
            for nic in r.nics:
                nic.cut_through = cut_through
            r.nics[0].nipt.set_entry(0, 1, 0)
            # Simulate the fill having taken its usual duration before
            # the NIC sees the data (as the engine does).
            from repro.sim.clock import transfer_cycles
            fill = r.costs.dma_start_cycles + transfer_cycles(
                4096, r.costs.dma_bytes_per_cycle
            )
            r.clock.advance(fill)
            r.nics[0].dma_write(0, b"\xaa" * 4096)
            r.clock.run_until_idle()
            return r.nics[1].last_delivery_done

        assert one_page_delivery(False) > one_page_delivery(True)

    def test_store_and_forward_still_delivers_data(self):
        r = Rig()
        for nic in r.nics:
            nic.cut_through = False
        r.nics[0].nipt.set_entry(0, 1, 2)
        r.nics[0].dma_write(16, b"slow but sure")
        r.clock.run_until_idle()
        assert r.rams[1].read(2 * PAGE + 16, 13) == b"slow but sure"

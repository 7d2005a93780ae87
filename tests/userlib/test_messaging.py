"""Tests for user-level message passing over deliberate update."""

import pytest

from repro.bench.workloads import make_payload
from repro.errors import DmaError
from repro.userlib.messaging import Receiver, Sender

PAGE = 4096


class TestSendReceive:
    def test_bytes_arrive_in_remote_buffer(self, channel_rig):
        rig = channel_rig
        rig.sender.send_bytes(b"hello, remote memory!")
        rig.receiver.drain()
        assert rig.receiver.recv_bytes(21) == b"hello, remote memory!"

    def test_multi_page_message(self, channel_rig):
        rig = channel_rig
        data = make_payload(3 * PAGE + 123)
        rig.sender.send_bytes(data)
        rig.receiver.drain()
        assert rig.receiver.recv_bytes(len(data)) == data

    def test_channel_offset_placement(self, channel_rig):
        rig = channel_rig
        rig.sender.send_bytes(b"at-offset", channel_offset=2 * PAGE + 16)
        rig.receiver.drain()
        assert rig.receiver.recv_bytes(9, offset=2 * PAGE + 16) == b"at-offset"

    def test_consecutive_messages(self, channel_rig):
        rig = channel_rig
        rig.sender.send_bytes(b"first")
        rig.sender.send_bytes(b"second", channel_offset=PAGE)
        rig.receiver.drain()
        assert rig.receiver.recv_bytes(5) == b"first"
        assert rig.receiver.recv_bytes(6, offset=PAGE) == b"second"

    def test_send_without_wait_then_drain(self, channel_rig):
        rig = channel_rig
        rig.sender.send_bytes(make_payload(PAGE), wait=False)
        rig.receiver.drain()
        assert rig.receiver.recv_bytes(PAGE) == make_payload(PAGE)

    def test_packets_counted(self, channel_rig):
        rig = channel_rig
        rig.sender.send_bytes(make_payload(2 * PAGE))
        rig.receiver.drain()
        assert rig.receiver.packets_received == 2


class TestBounds:
    def test_message_exceeding_channel_rejected(self, channel_rig):
        rig = channel_rig
        with pytest.raises(DmaError):
            rig.sender.send_buffer(rig.channel.nbytes + 1)

    def test_message_exceeding_buffer_rejected(self, channel_rig):
        rig = channel_rig
        with pytest.raises(DmaError):
            rig.sender.send_bytes(b"x" * (rig.sender.buffer_bytes + 1))

    def test_offset_overflow_rejected(self, channel_rig):
        rig = channel_rig
        with pytest.raises(DmaError):
            rig.sender.send_bytes(b"x" * 100, channel_offset=rig.channel.nbytes - 50)


class TestKernelFree:
    def test_send_and_receive_make_no_system_call(self, channel_rig):
        """After channel setup, a message costs neither node a syscall."""
        rig = channel_rig
        nodes = [rig.cluster.node(i).kernel.syscalls for i in (0, 1)]
        before = [(k.dma_calls, k.pages_pinned, k.bytes_copied) for k in nodes]
        data = make_payload(2 * PAGE + 100)
        rig.sender.send_bytes(data)
        rig.receiver.drain()
        assert rig.receiver.recv_bytes(len(data)) == data
        after = [(k.dma_calls, k.pages_pinned, k.bytes_copied) for k in nodes]
        assert after == before


class TestSetupIsLeastPrivilege:
    def test_sender_grant_covers_only_channel_pages(self, channel_rig):
        rig = channel_rig
        window = rig.sender.machine.layout.window_by_name(rig.sender.nic.name)
        granted = [
            vpage
            for vpage, pte in rig.tx.page_table.entries()
            if window.contains(vpage * PAGE)
        ]
        assert len(granted) == rig.channel.npages

    def test_second_sender_process_cannot_use_ungranted_window(self, channel_rig):
        """Protection: a process without a grant faults on the NIC window."""
        from repro.errors import ProtectionFault
        rig = channel_rig
        intruder = rig.cluster.node(0).create_process("intruder")
        rig.cluster.node(0).kernel.scheduler.switch_to(intruder)
        with pytest.raises(ProtectionFault):
            rig.cluster.node(0).cpu.store(rig.sender.grant_base, 64)

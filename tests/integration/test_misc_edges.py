"""Miscellaneous cross-module edge cases."""

import pytest

from repro import Machine, MachineConfig
from repro.bench.workloads import make_payload
from repro.devices import SinkDevice
from repro.errors import ProtectionFault
from repro.userlib import DeviceRef, MemoryRef, Receiver, Sender, UdmaUser

PAGE = 4096


class TestGrantRevocationMidUse:
    def test_revoked_grant_faults_immediately(self, sink_machine):
        rig = sink_machine
        machine = rig.machine
        rig.fill_buffer(b"ok" * 32)
        rig.udma.transfer(rig.mem(0), rig.dev(0), 64)
        machine.run_until_idle()
        machine.kernel.syscalls.revoke_device_proxy(rig.process, "sink")
        with pytest.raises(ProtectionFault):
            machine.cpu.store(rig.grant, 64)

    def test_regrant_restores_access(self, sink_machine):
        rig = sink_machine
        machine = rig.machine
        machine.kernel.syscalls.revoke_device_proxy(rig.process, "sink")
        new_grant = machine.kernel.syscalls.grant_device_proxy(rig.process, "sink")
        rig.fill_buffer(b"back again")
        rig.udma.transfer(rig.mem(0), DeviceRef(new_grant), 10)
        machine.run_until_idle()
        assert rig.sink.peek(0, 10) == b"back again"


class TestNiptRevocationMidStream:
    def test_cleared_nipt_entry_vetoes_next_send(self, channel_rig):
        rig = channel_rig
        rig.sender.send_bytes(b"first ok")
        rig.cluster.run_until_idle()
        # The OS revokes the destination (receiver unexported the page).
        rig.cluster.nic(0).nipt.clear_entry(rig.channel.nipt_base)
        from repro.errors import DmaError
        with pytest.raises(DmaError):  # device error -> hard failure
            rig.sender.send_bytes(b"second blocked")

    def test_other_pages_of_channel_unaffected(self, channel_rig):
        rig = channel_rig
        rig.cluster.nic(0).nipt.clear_entry(rig.channel.nipt_base)
        rig.sender.send_bytes(b"page two works", channel_offset=PAGE)
        rig.cluster.run_until_idle()
        assert rig.receiver.recv_bytes(14, offset=PAGE) == b"page two works"


class TestSchedulerEdges:
    def test_yield_with_single_process(self, machine):
        p = machine.create_process("only")
        assert machine.kernel.scheduler.yield_next() is p

    def test_remove_current_leaves_cpu_idle(self, machine):
        p = machine.create_process("p")
        machine.kernel.scheduler.remove(p)
        assert machine.kernel.scheduler.current is None

    def test_yield_with_no_processes(self, machine):
        assert machine.kernel.scheduler.yield_next() is None


class TestTwoSendersSameNic:
    def test_two_processes_interleave_on_one_nic(self, cluster2):
        """Two sender processes on node 0, two disjoint channels."""
        rx = cluster2.node(1).create_process("rx")
        buf1 = cluster2.node(1).kernel.syscalls.alloc(rx, PAGE)
        buf2 = cluster2.node(1).kernel.syscalls.alloc(rx, PAGE)
        ch1 = cluster2.create_channel(0, 1, rx, buf1, PAGE)
        ch2 = cluster2.create_channel(0, 1, rx, buf2, PAGE)
        tx1 = cluster2.node(0).create_process("tx1")
        tx2 = cluster2.node(0).create_process("tx2")
        s1 = Sender(cluster2, tx1, ch1)
        s2 = Sender(cluster2, tx2, ch2)
        a = make_payload(PAGE, seed=1)
        b = make_payload(PAGE, seed=2)
        s1.send_bytes(a, wait=False)
        s2.send_bytes(b, wait=False)  # forces a context switch + retry
        cluster2.run_until_idle()
        r = Receiver(cluster2, rx, ch1)
        assert r.recv_bytes(PAGE) == a
        assert Receiver(cluster2, rx, ch2).recv_bytes(PAGE) == b

    def test_tx2_cannot_touch_tx1_channel_pages(self, cluster2):
        rx = cluster2.node(1).create_process("rx")
        buf1 = cluster2.node(1).kernel.syscalls.alloc(rx, PAGE)
        ch1 = cluster2.create_channel(0, 1, rx, buf1, PAGE)
        tx1 = cluster2.node(0).create_process("tx1")
        s1 = Sender(cluster2, tx1, ch1)
        tx2 = cluster2.node(0).create_process("tx2")
        cluster2.node(0).kernel.scheduler.switch_to(tx2)
        with pytest.raises(ProtectionFault):
            cluster2.node(0).cpu.store(s1.grant_base, 64)


class TestMachineAttributes:
    def test_swap_disk_attribute(self):
        plain = Machine(config=MachineConfig(mem_size=1 << 20))
        assert plain.swap_disk is None
        disky = Machine(config=MachineConfig(mem_size=1 << 20, swap="disk"))
        assert disky.swap_disk is not None
        assert disky.swap_disk.name == "swapdisk"

    def test_now_property_tracks_clock(self, machine):
        before = machine.now
        machine.clock.advance(123)
        assert machine.now == before + 123

"""Tests for the kernel facade: lifecycle and fault dispatch."""

import pytest

from repro import Machine
from repro.devices import SinkDevice
from repro.errors import ProtectionFault

PAGE = 4096


class TestProcessLifecycle:
    def test_pids_are_unique_and_increasing(self, machine):
        a = machine.create_process("a")
        b = machine.create_process("b")
        assert b.pid > a.pid

    def test_first_process_becomes_current(self, machine):
        a = machine.create_process("a")
        assert machine.kernel.current is a


class TestFaultDispatch:
    def test_fault_with_no_current_process_is_fatal(self, machine):
        # Install a page table directly without going through the scheduler.
        from repro.vm.page_table import PageTable
        machine.cpu.set_context(PageTable(PAGE), asid=99)
        with pytest.raises(ProtectionFault):
            machine.cpu.load(0)

    def test_faults_route_to_current_process(self, machine):
        a = machine.create_process("a")
        b = machine.create_process("b")
        va = machine.kernel.syscalls.alloc(a, PAGE)
        machine.kernel.scheduler.switch_to(a)
        machine.cpu.store(va, 1)
        assert a.faults_served >= 1
        assert b.faults_served == 0

"""Tests for single-node assembly."""

import pytest

from repro import Machine, MachineConfig
from repro.core.controller import UdmaController
from repro.core.queueing import QueuedUdmaController
from repro.devices import SinkDevice
from repro.errors import ConfigurationError
from repro.mem.layout import ProxyScheme

PAGE = 4096


class TestConstruction:
    def test_default_is_basic_udma(self):
        machine = Machine(config=MachineConfig(mem_size=1 << 20))
        assert type(machine.udma) is UdmaController

    def test_queue_depth_builds_queued_device(self):
        machine = Machine(
                      config=MachineConfig(mem_size=1 << 20, queue_depth=8),
                  )
        assert isinstance(machine.udma, QueuedUdmaController)
        assert machine.udma.queue_depth == 8

    def test_offset_scheme(self):
        machine = Machine(
                      config=MachineConfig(
                          mem_size=1 << 20,
                          scheme=ProxyScheme.OFFSET,
                      ),
                  )
        assert machine.proxy(0x1000) == 0x1000 + machine.layout.proxy_offset

    def test_bounce_frames_cannot_exceed_ram(self):
        with pytest.raises(ConfigurationError):
            Machine(config=MachineConfig(mem_size=4 * PAGE, bounce_frames=4))

    def test_shared_clock_injection(self):
        from repro.sim.clock import Clock
        clock = Clock()
        a = Machine(config=MachineConfig(mem_size=1 << 20), clock=clock)
        b = Machine(config=MachineConfig(mem_size=1 << 20), clock=clock)
        assert a.clock is b.clock

    def test_us_conversion(self):
        machine = Machine(config=MachineConfig(mem_size=1 << 20))
        assert machine.us(60) == pytest.approx(1.0)  # 60 cycles at 60 MHz

    def test_repr_mentions_flavour(self):
        assert "basic" in repr(Machine(config=MachineConfig(mem_size=1 << 20)))
        assert "queued" in repr(Machine(
                                    config=MachineConfig(
                                        mem_size=1 << 20,
                                        queue_depth=2,
                                    ),
                                ))


class TestInitiationCostAnchor:
    def test_two_instruction_initiation_costs_about_2_8_us(self):
        """Section 8: 'The time for a user process to initiate a DMA
        transfer is about 2.8 microseconds.'"""
        machine = Machine(config=MachineConfig(mem_size=1 << 20))
        us = machine.us(machine.costs.udma_initiation_cycles)
        assert 2.5 <= us <= 3.1


class TestFaultWiring:
    def test_cpu_faults_reach_vm_manager(self):
        machine = Machine(config=MachineConfig(mem_size=1 << 20))
        p = machine.create_process("a")
        vaddr = machine.kernel.syscalls.alloc(p, PAGE)
        machine.cpu.store(vaddr, 42)  # demand-zero fault handled
        assert machine.kernel.vm.faults_handled >= 1

    def test_device_attach_registers_window(self):
        machine = Machine(config=MachineConfig(mem_size=1 << 20))
        window = machine.attach_device(SinkDevice("s", size=PAGE))
        assert machine.layout.window_by_name("s") == window

"""Golden-trace regression tests.

The exact event sequence (kinds, order, and timestamps) of a canonical
transfer is part of the calibrated behaviour the benches depend on; these
tests pin it down so an accidental cost-model or scheduling change shows
up as a concrete diff, not as a silently shifted curve.
"""

import pytest

from repro import Machine, MachineConfig, ObsConfig
from repro.bench.workloads import make_payload
from repro.devices import SinkDevice
from repro.userlib import DeviceRef, MemoryRef, UdmaUser

PAGE = 4096


@pytest.fixture
def traced_machine():
    machine = Machine(
                  config=MachineConfig(
                      mem_size=1 << 20, obs=ObsConfig(record_trace=True)
                  ),
              )
    machine.attach_device(SinkDevice("sink", size=1 << 14))
    p = machine.create_process("app")
    buf = machine.kernel.syscalls.alloc(p, 2 * PAGE)
    grant = machine.kernel.syscalls.grant_device_proxy(p, "sink")
    udma = UdmaUser(machine, p)
    # Warm everything so the golden window has no demand faults.
    machine.cpu.write_bytes(buf, make_payload(2 * PAGE))
    udma.transfer(MemoryRef(buf), DeviceRef(grant), 4)
    machine.run_until_idle()
    machine.tracer.clear()
    return machine, p, buf, grant, udma


class TestGoldenSingleTransfer:
    def test_event_sequence(self, traced_machine):
        machine, p, buf, grant, udma = traced_machine
        udma.transfer(MemoryRef(buf), DeviceRef(grant + 1024), 1024)
        machine.run_until_idle()
        kinds = [e.kind for e in machine.tracer.events]
        assert kinds == [
            "proxy-store",    # STORE nbytes TO destAddr
            "dma-start",      # engine begins the fill
            "proxy-load",     # the initiating LOAD (started)
            "proxy-load",     # first completion poll (MATCH)
            "dma-complete",   # fill done
            "transfer-done",  # state machine back to Idle
            "proxy-load",     # final poll observes completion
        ]

    def test_relative_timing_is_stable(self, traced_machine):
        """The cycle distances between the canonical events are pinned."""
        machine, p, buf, grant, udma = traced_machine
        udma.transfer(MemoryRef(buf), DeviceRef(grant + 2048), 1024)
        machine.run_until_idle()
        events = machine.tracer.events
        store_t = events[0].time
        offsets = [e.time - store_t for e in events]
        costs = machine.costs
        # STORE -> initiating LOAD: fence + uncached load.
        assert offsets[2] - offsets[0] == costs.fence_cycles + costs.io_ref_cycles
        # dma-start coincides with the initiating LOAD.
        assert offsets[1] == offsets[2]
        # fill duration: start + ceil(1024 / rate).
        import math
        expected_fill = costs.dma_start_cycles + math.ceil(
            1024 / costs.dma_bytes_per_cycle
        )
        assert offsets[4] - offsets[1] == expected_fill
        # transfer-done is simultaneous with dma-complete.
        assert offsets[5] == offsets[4]

    def test_trace_is_deterministic(self):
        """Two identical machines produce byte-identical traces."""
        def run():
            machine = Machine(
                          config=MachineConfig(
                              mem_size=1 << 20,
                              obs=ObsConfig(record_trace=True),
                          ),
                      )
            machine.attach_device(SinkDevice("sink", size=1 << 14))
            p = machine.create_process("app")
            buf = machine.kernel.syscalls.alloc(p, PAGE)
            grant = machine.kernel.syscalls.grant_device_proxy(p, "sink")
            udma = UdmaUser(machine, p)
            machine.cpu.write_bytes(buf, make_payload(512))
            udma.transfer(MemoryRef(buf), DeviceRef(grant), 512)
            machine.run_until_idle()
            return [(e.time, e.source, e.kind) for e in machine.tracer.events]

        assert run() == run()

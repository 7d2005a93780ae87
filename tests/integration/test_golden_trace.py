"""Golden span-tree regression tests.

The shape and timestamps of a canonical transfer's span tree are part of
the calibrated behaviour the benches depend on; these tests pin them down
so an accidental cost-model or scheduling change shows up as a concrete
diff, not as a silently shifted curve.
"""

import math

import pytest

from repro import Machine, MachineConfig, ObsConfig
from repro.bench.workloads import make_payload
from repro.devices import SinkDevice
from repro.userlib import DeviceRef, MemoryRef, UdmaUser

PAGE = 4096


def build(buffer_bytes):
    machine = Machine(
        config=MachineConfig(mem_size=1 << 20, obs=ObsConfig(spans=True))
    )
    machine.attach_device(SinkDevice("sink", size=1 << 14))
    p = machine.create_process("app")
    buf = machine.kernel.syscalls.alloc(p, buffer_bytes)
    grant = machine.kernel.syscalls.grant_device_proxy(p, "sink")
    return machine, buf, grant, UdmaUser(machine, p)


@pytest.fixture
def traced_machine():
    machine, buf, grant, udma = build(2 * PAGE)
    # Warm everything so the golden window has no demand faults.
    machine.cpu.write_bytes(buf, make_payload(2 * PAGE))
    udma.transfer(MemoryRef(buf), DeviceRef(grant), 4)
    machine.run_until_idle()
    return machine, buf, grant, udma


def transfer_tree(rig, offset):
    """Run one 1024-byte transfer; return its root span and DMA child."""
    machine, buf, grant, udma = rig
    before = len(machine.obs.spans)
    udma.transfer(MemoryRef(buf), DeviceRef(grant + offset), 1024)
    machine.run_until_idle()
    roots = [s for s in machine.obs.spans.roots() if s.id > before]
    assert [r.name for r in roots] == ["transfer"]
    (child,) = machine.obs.spans.children(roots[0].id)
    return roots[0], child


class TestGoldenSingleTransfer:
    def test_event_sequence(self, traced_machine):
        machine = traced_machine[0]
        loads = machine.udma.sm.loads
        root, dma = transfer_tree(traced_machine, 1024)
        assert (root.status, [e.name for e in root.events]) == (
            "complete",
            ["initiated"],  # STORE opened the span, the LOAD started the engine
        )
        assert (dma.name, dma.status, dma.events) == ("dma", "complete", [])
        # The three proxy LOADs: the initiating LOAD, the first completion
        # poll (MATCH) and the final poll that observes completion.
        assert machine.udma.sm.loads - loads == 3

    def test_relative_timing_is_stable(self, traced_machine):
        """The cycle distances between the canonical marks are pinned."""
        costs = traced_machine[0].costs
        root, dma = transfer_tree(traced_machine, 2048)
        (initiated,) = root.events
        # STORE -> initiating LOAD: fence + uncached load.
        assert initiated.time - root.start == costs.fence_cycles + costs.io_ref_cycles
        # The DMA starts with the initiating LOAD.
        assert dma.start == initiated.time
        # Fill duration: start + ceil(1024 / rate).
        assert dma.duration == costs.dma_start_cycles + math.ceil(
            1024 / costs.dma_bytes_per_cycle
        )
        # The transfer ends with its DMA.
        assert root.end == dma.end

    def test_trace_is_deterministic(self):
        """Two identical machines produce identical span trees."""
        def run():
            machine, buf, grant, udma = build(PAGE)
            machine.cpu.write_bytes(buf, make_payload(512))
            udma.transfer(MemoryRef(buf), DeviceRef(grant), 512)
            machine.run_until_idle()
            return [
                (s.id, s.parent, s.name, s.start, s.end, s.status,
                 [(e.time, e.name) for e in s.events])
                for s in machine.obs.spans
            ]

        assert run() == run()

"""Tests for the workload driver and the I1 hazard under preemption."""

import pytest

from repro import Machine, MachineConfig
from repro.bench.workloads import make_payload
from repro.devices import SinkDevice
from repro.errors import ConfigurationError
from repro.kernel.invariants import InvariantChecker
from tests.integration._workload_driver import (
    WorkloadDriver,
    paging_workload,
    transfer_workload,
)

PAGE = 4096


def build_machine(mem_pages=64):
    machine = Machine(
                  config=MachineConfig(
                      mem_size=mem_pages * PAGE,
                      bounce_frames=2,
                  ),
              )
    machine.attach_device(SinkDevice("sink", size=1 << 17))
    return machine


class TestDriverMechanics:
    def test_runs_simple_generators_to_completion(self):
        machine = build_machine()
        driver = WorkloadDriver(machine)

        def counter(machine, process):
            for _ in range(5):
                machine.cpu.execute(1)
                yield

        result = driver.add("count", counter)
        driver.run()
        assert result.finished
        assert result.steps == 5

    def test_interleaves_multiple_processes(self):
        machine = build_machine()
        driver = WorkloadDriver(machine, seed=7)
        order = []

        def tagger(tag):
            def body(machine, process):
                for _ in range(10):
                    order.append(tag)
                    yield
            return body

        driver.add("a", tagger("a"))
        driver.add("b", tagger("b"))
        driver.run(max_quantum=2)
        assert set(order) == {"a", "b"}
        # Genuinely interleaved, not run-to-completion.
        assert order != sorted(order)

    def test_errors_are_captured_not_lost(self):
        machine = build_machine()
        driver = WorkloadDriver(machine)

        def bomb(machine, process):
            yield
            raise RuntimeError("boom")

        result = driver.add("bomb", bomb)
        driver.run()
        assert isinstance(result.error, RuntimeError)
        assert not result.finished

    def test_step_budget_enforced(self):
        machine = build_machine()
        driver = WorkloadDriver(machine)

        def forever(machine, process):
            while True:
                yield

        driver.add("forever", forever)
        with pytest.raises(ConfigurationError):
            driver.run(max_steps=100)

    def test_no_workloads_rejected(self):
        with pytest.raises(ConfigurationError):
            WorkloadDriver(build_machine()).run()

    def test_deterministic_replay(self):
        def run_once(seed):
            machine = build_machine()
            driver = WorkloadDriver(machine, seed=seed)
            driver.add("t", transfer_workload(2, "sink", pieces=3,
                                              piece_bytes=256))
            driver.run()
            return machine.clock.now

        assert run_once(3) == run_once(3)


class TestI1UnderPreemption:
    def test_two_transfer_workloads_share_the_device_safely(self):
        """Preemption *inside* initiation pairs must never splice them."""
        machine = build_machine()
        driver = WorkloadDriver(machine, seed=11)
        a = driver.add("a", transfer_workload(2, "sink", pieces=4,
                                              piece_bytes=512,
                                              device_offset=0))
        b = driver.add("b", transfer_workload(2, "sink", pieces=4,
                                              piece_bytes=512,
                                              device_offset=1 << 15))
        driver.run(max_quantum=2)
        assert a.finished and a.error is None
        assert b.finished and b.error is None
        # Every piece must carry the right process's payload.
        sink = machine.udma.device("sink")
        a_proc = machine.kernel.processes[1]
        b_proc = machine.kernel.processes[2]
        for i in range(4):
            assert sink.peek(i * 512, 512) == make_payload(
                512, seed=a_proc.pid * 1000 + i
            )
            assert sink.peek((1 << 15) + i * 512, 512) == make_payload(
                512, seed=b_proc.pid * 1000 + i
            )
        InvariantChecker(machine.kernel).check_all()

    def test_transfers_plus_paging_pressure(self):
        machine = build_machine(mem_pages=26)
        driver = WorkloadDriver(machine, seed=5)
        t = driver.add("xfer", transfer_workload(2, "sink", pieces=3,
                                                 piece_bytes=PAGE))
        h = driver.add("hog", paging_workload(pages=12, rounds=2))
        driver.run(max_quantum=3)
        assert t.finished and t.error is None
        assert h.finished and h.error is None
        InvariantChecker(machine.kernel).check_all()

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_many_interleavings_all_safe(self, seed):
        machine = build_machine()
        driver = WorkloadDriver(machine, seed=seed)
        results = [
            driver.add(f"w{i}", transfer_workload(1, "sink", pieces=2,
                                                  piece_bytes=256,
                                                  device_offset=i * 4096))
            for i in range(3)
        ]
        driver.run(max_quantum=2)
        assert all(r.finished and r.error is None for r in results)
        InvariantChecker(machine.kernel).check_all()

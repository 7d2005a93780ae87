"""Multi-process workload driving for the I1-under-preemption tests.

The paper's protection story is about *concurrent, untrusting* processes
sharing one UDMA device under a preemptive scheduler.  The test suite
needs a way to express "process A does this, process B does that, the
scheduler interleaves them at instruction-level quanta" without writing a
thread scheduler.  :class:`WorkloadDriver` does it with generators:

* each workload is a Python generator bound to a process; every ``yield``
  is a potential preemption point;
* the driver round-robins the generators, context-switching the simulated
  machine (which fires the I1 Inval) whenever it moves between processes;
* a deterministic "random" interleaving comes from the seeded quantum
  schedule, so failures replay exactly.

This models precisely the hazard I1 exists for: a workload can yield
*between* the STORE and the LOAD of an initiation sequence.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Generator, List, Optional, Tuple

from repro.bench.workloads import make_payload
from repro.core.status import UdmaStatus
from repro.errors import ConfigurationError
from repro.kernel.process import Process
from repro.machine import Machine

#: a workload body: receives (machine, process), yields at preemption points
Workload = Callable[[Machine, Process], Generator[None, None, None]]


@dataclass
class WorkloadResult:
    """Outcome of one driven workload."""

    name: str
    steps: int = 0
    finished: bool = False
    error: Optional[BaseException] = None


class WorkloadDriver:
    """Round-robin generator scheduler over one machine."""

    def __init__(self, machine: Machine, seed: int = 1) -> None:
        self.machine = machine
        self._rng = random.Random(seed)
        self._entries: List[Tuple[Process, Generator, WorkloadResult]] = []

    def add(self, name: str, workload: Workload) -> WorkloadResult:
        """Create a process and bind a workload generator to it."""
        process = self.machine.create_process(name)
        generator = workload(self.machine, process)
        result = WorkloadResult(name=name)
        self._entries.append((process, generator, result))
        return result

    def run(self, max_quantum: int = 3, max_steps: int = 100_000) -> List[WorkloadResult]:
        """Drive all workloads to completion (or error).

        Each turn advances one workload by 1..max_quantum yields, then
        moves on -- switching the machine's scheduler (and thus firing the
        I1 Inval) whenever the next workload belongs to another process.
        """
        if not self._entries:
            raise ConfigurationError("no workloads added")
        pending = list(self._entries)
        total_steps = 0
        while pending:
            index = self._rng.randrange(len(pending))
            process, generator, result = pending[index]
            if self.machine.kernel.current is not process:
                self.machine.kernel.scheduler.switch_to(process)
            quantum = self._rng.randint(1, max_quantum)
            for _ in range(quantum):
                try:
                    next(generator)
                    result.steps += 1
                except StopIteration:
                    result.finished = True
                    pending.pop(index)
                    break
                except BaseException as exc:  # recorded, not swallowed silently
                    result.error = exc
                    pending.pop(index)
                    break
                total_steps += 1
                if total_steps > max_steps:
                    raise ConfigurationError(
                        f"workloads did not finish within {max_steps} steps"
                    )
        self.machine.run_until_idle()
        return [result for _, __, result in self._entries]


# ---------------------------------------------------------------- library
def transfer_workload(
    buffer_pages: int,
    device_name: str,
    pieces: int,
    piece_bytes: int,
    device_offset: int = 0,
) -> Workload:
    """A workload that UDMA-writes ``pieces`` chunks to a device.

    Yields between *every CPU step*, including between the STORE and LOAD
    of each initiation -- the I1 hazard in its natural habitat.
    """
    def body(machine: Machine, process: Process):
        page = machine.costs.page_size
        vaddr = machine.kernel.syscalls.alloc(process, buffer_pages * page)
        grant = machine.kernel.syscalls.grant_device_proxy(process, device_name)
        yield
        for i in range(pieces):
            data = make_payload(piece_bytes, seed=process.pid * 1000 + i)
            machine.cpu.write_bytes(vaddr, data)
            yield
            dest = grant + device_offset + i * piece_bytes
            for attempt in range(128):
                machine.cpu.store(dest, piece_bytes)
                yield  # <-- preemption possible inside the pair
                machine.cpu.fence()
                word = machine.cpu.load(machine.layout.proxy(vaddr))
                status = UdmaStatus.decode(word, page)
                if status.started:
                    break
                if status.hard_error:
                    raise AssertionError(f"hard error: {status.describe()}")
                yield
            else:
                raise AssertionError("initiation never succeeded")
            # Poll to completion (also preemptible).
            for _ in range(100_000):
                status = UdmaStatus.decode(
                    machine.cpu.load(machine.layout.proxy(vaddr)), page
                )
                if not status.match:
                    break
                next_time = machine.clock.next_event_time()
                if next_time is not None:
                    machine.clock.run(until=next_time)
                yield
            yield

    return body


def paging_workload(pages: int, rounds: int) -> Workload:
    """A memory hog creating paging pressure."""

    def body(machine: Machine, process: Process):
        page = machine.costs.page_size
        vaddr = machine.kernel.syscalls.alloc(process, pages * page)
        yield
        for round_no in range(rounds):
            for i in range(pages):
                machine.cpu.store(vaddr + i * page, round_no * 100 + i)
                yield

    return body

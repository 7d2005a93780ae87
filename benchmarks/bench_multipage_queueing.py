"""QUEUE -- section 7: multi-page transfers with hardware queueing.

Paper targets:

* "Queueing allows a user-level process to start multi-page transfers
  with only two instructions per page in the best case";
* "If the source and destination addresses are not aligned to the same
  offset on their respective pages, two transfers per page are needed";
* "A transfer request is refused only when the queue is full";
* queueing "makes it easy to do gather-scatter transfers" and removes the
  per-page completion wait the basic device imposes.
"""

from __future__ import annotations

from repro.bench import Row, print_table
from repro.bench.workloads import make_payload
from repro.userlib.udma import DeviceRef, MemoryRef

from benchmarks.conftest import SinkRig

PAGE = 4096
NPAGES = 8


def run_multipage(rig, misaligned=False):
    """Send an 8-page message; returns (stats, cycles)."""
    machine = rig.machine
    data = make_payload(NPAGES * PAGE)
    machine.cpu.write_bytes(rig.buffer, data[: NPAGES * PAGE])
    dev_offset = 100 if misaligned else 0
    start = machine.clock.now
    stats = rig.udma.transfer(
        MemoryRef(rig.buffer),
        DeviceRef(rig.grant + dev_offset),
        NPAGES * PAGE - (PAGE if misaligned else 0),
    )
    machine.run_until_idle()
    return stats, machine.clock.now - start


def test_multipage_queueing(benchmark):
    basic = SinkRig(queue_depth=0)
    queued = SinkRig(queue_depth=16)

    (basic_stats, basic_cycles), (queued_stats, queued_cycles) = benchmark.pedantic(
        lambda: (run_multipage(basic), run_multipage(queued)),
        rounds=1,
        iterations=1,
    )
    mis_stats, _ = run_multipage(SinkRig(queue_depth=16), misaligned=True)

    # Instruction accounting per page on the queued path: each piece is
    # one STORE + one fence + one LOAD; no completion polls in between.
    queued_refs_per_page = (
        2 * queued_stats.initiations / queued_stats.pieces
    )
    speedup = basic_cycles / queued_cycles

    rows = [
        Row("initiations per page (queued, aligned)", "1 (2 instructions)",
            f"{queued_stats.initiations / queued_stats.pieces:.1f}",
            queued_stats.initiations == NPAGES),
        Row("memory references per page (queued)", "2",
            f"{queued_refs_per_page:.1f}", queued_refs_per_page == 2.0),
        Row("initiations blocked on prior completions (queued)", "0",
            str(queued_stats.retries), queued_stats.retries == 0),
        Row("completion polls (queued: all at final wait)", "final wait only",
            f"{queued_stats.poll_loads} polls", None),
        Row("transfers per page when misaligned", "2",
            f"{mis_stats.pieces / (NPAGES - 1):.1f}",
            mis_stats.pieces == 2 * (NPAGES - 1)),
        Row("basic device pieces (aligned)", "1 per page",
            str(basic_stats.pieces), basic_stats.pieces == NPAGES),
        Row("queued vs basic wall-clock", "faster (no per-page wait)",
            f"{speedup:.2f}x", speedup > 1.0),
    ]
    print_table(
        "QUEUE: multi-page transfers, basic vs queued device (section 7)",
        rows,
        notes=[
            f"8-page message: basic {basic_cycles} cycles, queued "
            f"{queued_cycles} cycles",
            "the queued device overlaps initiation of page i+1 with the "
            "DMA of page i; the basic device serialises them",
        ],
    )
    assert all(r.ok in (True, None) for r in rows)


def test_queue_full_refusal_rate(benchmark):
    """Refusals happen exactly when the queue is full, and are transient."""
    def run():
        rig = SinkRig(queue_depth=4)
        machine = rig.machine
        data = make_payload(16 * PAGE)
        machine.cpu.write_bytes(rig.buffer, data[: 16 * PAGE])
        stats = rig.udma.transfer(
            MemoryRef(rig.buffer), DeviceRef(rig.grant), 16 * PAGE
        )
        machine.run_until_idle()
        return rig, stats

    rig, stats = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [
        Row("all 16 pages eventually accepted", "yes",
            str(rig.machine.udma.accepted), rig.machine.udma.accepted == 16),
        Row("refusals occurred (queue depth 4 < 16 pages)", "> 0",
            str(rig.machine.udma.refused), rig.machine.udma.refused > 0),
        Row("refusals were retried transparently", "retries >= refusals",
            f"{stats.retries} retries", stats.retries >= rig.machine.udma.refused),
        Row("data integrity after refusals", "intact", "checked",
            rig.sink.peek(0, 16 * PAGE) == make_payload(16 * PAGE)[: 16 * PAGE]),
    ]
    print_table("QUEUE: queue-full refusal behaviour", rows)
    assert all(r.ok for r in rows)

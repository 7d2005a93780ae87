"""XOVER -- effective bandwidth of three mechanisms vs message size.

The paper's sections 1/9/10 imply a mechanism ordering:

* memory-mapped FIFO (PIO, section 9): "good latency for short messages.
  However, for longer messages the DMA-based controller is preferable
  because it makes use of the bus burst mode, which is much faster than
  processor-generated single word transactions" -- so PIO wins only below
  a small crossover;
* UDMA's "extremely low overhead allows the use of DMA for common,
  fine-grain operations" -- it beats the traditional path at *every*
  size, most dramatically at fine grain;
* traditional DMA approaches UDMA only when transfers are huge and the
  per-transfer kernel overhead is amortised.
"""

from __future__ import annotations

import math

from repro.bench import Row, print_table
from repro.bench.workloads import make_payload
from repro.userlib.udma import DeviceRef, MemoryRef

PAGE = 4096


def udma_cycles(rig, nbytes):
    machine = rig.machine
    machine.cpu.write_bytes(rig.buffer, make_payload(min(nbytes, 1 << 15)))
    start = machine.clock.now
    rig.udma.transfer(MemoryRef(rig.buffer), DeviceRef(rig.grant),
                      min(nbytes, 1 << 15) if nbytes > 1 << 15 else nbytes)
    if nbytes > 1 << 15:
        # larger than the buffer: repeat whole-buffer sends
        remaining = nbytes - (1 << 15)
        while remaining > 0:
            chunk = min(remaining, 1 << 15)
            rig.udma.transfer(MemoryRef(rig.buffer), DeviceRef(rig.grant), chunk)
            remaining -= chunk
    machine.run_until_idle()
    return machine.clock.now - start


def traditional_cycles(rig, nbytes):
    machine = rig.machine
    start = machine.clock.now
    offset = 0
    while offset < nbytes:
        chunk = min(nbytes - offset, 1 << 15)
        machine.kernel.syscalls.dma(
            rig.process, "sink", 0, rig.buffer, chunk, to_device=True
        )
        offset += chunk
    return machine.clock.now - start


def pio_cycles(rig, nbytes):
    """Memory-mapped FIFO model: one uncached store per word, no setup.

    (Modelled from the cost table rather than driven through the CPU,
    because in this machine every device-window store is a UDMA command;
    a FIFO-style NIC would dedicate its window to data words instead.)
    """
    words = math.ceil(nbytes / rig.costs.word_size)
    return words * rig.costs.io_ref_cycles


def test_mechanism_crossover(sink_rig, benchmark):
    rig = sink_rig
    sizes = [16, 32, 64, 128, 256, 512, 1024, 4096, 16384, 65536]

    def sweep():
        return [
            (n, udma_cycles(rig, n), traditional_cycles(rig, n), pio_cycles(rig, n))
            for n in sizes
        ]

    table = benchmark.pedantic(sweep, rounds=1, iterations=1)

    print()
    print("cycles per send (lower is better):")
    print(f"  {'size':>7}  {'UDMA':>9}  {'traditional':>11}  {'PIO':>9}  winner")
    winners = {}
    for n, u, t, p in table:
        best = min((u, "UDMA"), (t, "traditional"), (p, "PIO"))[1]
        winners[n] = best
        print(f"  {n:7d}  {u:9d}  {t:11d}  {p:9d}  {best}")

    by_size = {n: (u, t, p) for n, u, t, p in table}
    pio_crossover = next((n for n in sizes if by_size[n][0] <= by_size[n][2]), None)
    big_u, big_t, _ = by_size[65536]

    rows = [
        Row("PIO wins for the shortest messages", "yes (latency)",
            winners[16], winners[16] == "PIO"),
        Row("PIO -> DMA crossover point", "small (tens of bytes)",
            f"{pio_crossover} B", pio_crossover is not None and pio_crossover <= 128),
        Row("UDMA beats traditional at fine grain (<= 4 KB)", "yes",
            "yes" if all(u < t for n, u, t, _ in table if n <= 4096) else "no",
            all(u < t for n, u, t, _ in table if n <= 4096)),
        Row("UDMA advantage at 256 B", "large (fine grain usable)",
            f"{by_size[256][1] / by_size[256][0]:.1f}x",
            by_size[256][1] / by_size[256][0] >= 1.5),
        Row("coarse grain is a wash (both wire-bound)", "overhead amortised",
            f"{abs(big_t - big_u) / big_u * 100:.1f}% apart at 64 KB",
            abs(big_t - big_u) / big_u < 0.05),
    ]
    print_table(
        "XOVER: UDMA vs traditional DMA vs memory-mapped FIFO",
        rows,
        notes=[
            "the paper's claim is about *overhead*, not asymptotic "
            "bandwidth: at coarse grain both DMA paths are wire-bound and "
            "tie, which this sweep confirms",
        ],
    )
    assert all(r.ok for r in rows)

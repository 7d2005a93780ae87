"""Timing measurements over the simulated systems.

All times are cycles on the node's shared clock; conversion to
microseconds and MB/s uses the active :class:`~repro.params.CostModel`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.bench.workloads import make_payload
from repro.userlib.messaging import Sender


@dataclass(frozen=True)
class MessageTiming:
    """Timing of one end-to-end message."""

    nbytes: int
    start_cycle: int
    send_returned_cycle: int
    delivered_cycle: int

    @property
    def total_cycles(self) -> int:
        """Cycles from first initiation to last byte in remote memory."""
        return self.delivered_cycle - self.start_cycle

    @property
    def bytes_per_cycle(self) -> float:
        """End-to-end bandwidth."""
        return self.nbytes / self.total_cycles if self.total_cycles else 0.0


def measure_message(
    sender: Sender,
    nbytes: int,
    payload: Optional[bytes] = None,
) -> MessageTiming:
    """Send one message and time it to remote-memory delivery.

    The send buffer is filled *before* the timed window: the paper's
    bandwidth figure measures the communication mechanism, not the
    application generating its data.
    """
    cluster = sender.cluster
    nic = cluster.nic(sender.channel.dst_node)
    data = payload if payload is not None else make_payload(nbytes)
    sender._ensure_current()
    sender.machine.cpu.write_bytes(sender.buffer, data[:nbytes])
    start = cluster.now
    sender.send_buffer(nbytes)
    send_returned = cluster.now
    cluster.run_until_idle()
    return MessageTiming(
        nbytes=nbytes,
        start_cycle=start,
        send_returned_cycle=send_returned,
        delivered_cycle=nic.last_delivery_done,
    )


def bandwidth_curve(
    sender: Sender, sizes: List[int]
) -> List[Tuple[int, float]]:
    """(size, bytes/cycle) for each message size, fresh timing per point."""
    curve: List[Tuple[int, float]] = []
    for size in sizes:
        timing = measure_message(sender, size)
        curve.append((size, timing.bytes_per_cycle))
    return curve


def measure_peak_bandwidth(sender: Sender, probe_bytes: int = 1 << 18) -> float:
    """The plateau ("maximum measured") bandwidth, in bytes/cycle.

    Measured with a message long enough (256 KB by default, clamped to
    what the channel and send buffer can carry) that per-message startup
    and tail drain are fully amortised -- the analogue of the paper's
    "maximum measured bandwidth ... sustained for messages exceeding
    8 Kbytes".
    """
    probe = min(probe_bytes, sender.channel.nbytes, sender.buffer_bytes)
    timing = measure_message(sender, probe)
    return timing.bytes_per_cycle

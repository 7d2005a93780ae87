"""Uniform metrics collection across a machine or cluster.

Every component keeps its own counters (CPU instructions, TLB hits, VM
faults, UDMA initiations, NIC packets...).  The stable API for reading
them is :meth:`repro.machine.Machine.metrics` /
:meth:`repro.cluster.ShrimpCluster.metrics`, backed by the typed registry
in :mod:`repro.obs`; :func:`render` pretty-prints either shape.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.machine import Machine
from repro.net.nic import ShrimpNic


def transfer_latency(machine: Machine) -> Dict[str, Any]:
    """Per-transfer latency summary (cycles) from the registry histogram.

    Keys: ``count``, ``sum``, ``min``, ``max``, ``p50``, ``p99``.  For the
    basic device latency runs initiation to completion; for the queued
    device, queue-accept to completion (so backlog wait is included).
    """
    return machine.metrics()["udma"]["transfer_cycles"]


def nic_metrics(nic: ShrimpNic) -> Dict[str, Any]:
    """Counters of one network interface."""
    return {
        "packets_sent": nic.packets_sent,
        "packets_received": nic.packets_received,
        "bytes_sent": nic.bytes_sent,
        "bytes_received": nic.bytes_received,
        "rx_errors": nic.rx_errors,
        "out_fifo_high_water": nic.outgoing.high_water,
        "in_fifo_high_water": nic.incoming.high_water,
    }


def render(metrics: Dict[str, Any], indent: int = 0) -> str:
    """Pretty-print a metrics dict as an aligned tree."""
    lines = []
    pad = "  " * indent
    width = max((len(str(k)) for k in metrics), default=0)
    for key, value in metrics.items():
        if isinstance(value, dict):
            lines.append(f"{pad}{key}:")
            lines.append(render(value, indent + 1))
        else:
            lines.append(f"{pad}{str(key):<{width}}  {value}")
    return "\n".join(lines)

"""Uniform metrics collection across a machine or cluster.

Every component keeps its own counters (CPU instructions, TLB hits, VM
faults, UDMA initiations, NIC packets...).  The stable API for reading
them is :meth:`repro.machine.Machine.metrics` /
:meth:`repro.cluster.ShrimpCluster.metrics`, backed by the typed registry
in :mod:`repro.obs`; :func:`render` pretty-prints either shape.
"""

from __future__ import annotations

from typing import Any, Dict


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

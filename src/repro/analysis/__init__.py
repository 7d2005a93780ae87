"""Post-hoc analysis over traces and counters."""

from repro.analysis.metrics import (
    nic_metrics,
    render,
)
from repro.analysis.stats import Summary, summarize
from repro.analysis.traffic import (
    TrafficReport,
    bandwidth_timeline,
    packet_latencies,
    traffic_report,
)

__all__ = [
    "Summary",
    "TrafficReport",
    "bandwidth_timeline",
    "nic_metrics",
    "packet_latencies",
    "render",
    "summarize",
    "traffic_report",
]

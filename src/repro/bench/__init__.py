"""Measurement harness: workloads, timing, and paper-vs-measured reports."""

from repro.bench.measure import (
    MessageTiming,
    bandwidth_curve,
    measure_message,
    measure_peak_bandwidth,
)
from repro.bench.report import Row, print_table
from repro.bench.workloads import (
    fig8_sizes,
    hippi_block_sizes,
    make_payload,
)

__all__ = [
    "MessageTiming",
    "Row",
    "bandwidth_curve",
    "fig8_sizes",
    "hippi_block_sizes",
    "make_payload",
    "measure_message",
    "measure_peak_bandwidth",
    "print_table",
]

"""The benchmark's metric registry and how each metric is computed.

End-to-end metrics are what a user of the simulator sees: how fast it
runs (host) and what it simulates (sim).  Per-layer metrics come from the
traced run only.  ``BENCHMARK.json`` must list exactly these names and
units (the self-test checks it); the regression bounds live there alone.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Dict, List, Tuple

from layers import LAYERS, SpanRecorder


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "higher" or "lower"


END_TO_END = (
    # simulated messages delivered per host second of the timed window
    Metric("msgs_per_s", "1/s", "higher"),
    # host seconds from world construction to the first timed operation,
    # including warm-up
    Metric("setup_s", "s", "lower"),
    # peak resident set of the workload process
    Metric("peak_rss_mb", "MB", "lower"),
    # delivered payload bytes per simulated second at the modelled 60 MHz
    Metric("sim_goodput_mb_s", "MB/s", "higher"),
)

_LAYER_EXTRAS = (
    Metric("sim.events_per_msg", "events/msg", "lower"),
    Metric("sim.event_reuse_ratio", "fraction", "higher"),
    Metric("net.pool_reuse_ratio", "fraction", "higher"),
    Metric("net.packets_per_msg", "packets/msg", "lower"),
    Metric("net.retransmit_ratio", "fraction", "lower"),
    Metric("net.in_fifo_high_water_bytes", "B", "lower"),
    Metric("userlib.refusal_ratio", "fraction", "lower"),
    Metric("cpu.xlat_hit_ratio", "fraction", "higher"),
    Metric("vm.tlb_hit_ratio", "fraction", "higher"),
    Metric("kernel.switches_per_msg", "switches/msg", "lower"),
    Metric("core.initiations_per_msg", "initiations/msg", "lower"),
    Metric("traffic.flow_retries_per_msg", "retries/msg", "lower"),
    Metric("sharding.msgs_per_round", "msgs/round", "higher"),
    # untraced msgs_per_s / traced msgs_per_s at the traced size
    Metric("trace.overhead_ratio", "ratio", "lower"),
)

PER_LAYER = tuple(
    metric
    for layer in LAYERS
    for metric in (
        Metric(f"{layer}.self_s", "s", "lower"),
        Metric(f"{layer}.self_share", "fraction", "lower"),
        Metric(f"{layer}.calls", "count", "lower"),
    )
) + _LAYER_EXTRAS


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def end_to_end(units: List[dict], peak_rss_mb: float, cpu_hz: float) -> Dict[str, float]:
    """Medians over a run's timed windows (the sim metric is identical in each)."""
    first = units[0]["outcome"]
    return {
        "msgs_per_s": statistics.median(
            u["outcome"].messages / u["window_s"] for u in units
        ),
        "setup_s": statistics.median(u["setup_s"] for u in units),
        "peak_rss_mb": peak_rss_mb,
        "sim_goodput_mb_s": first.payload_bytes / (first.sim_cycles / cpu_hz) / 1e6,
    }


def per_layer(
    rec: SpanRecorder, wall_s: float, counters: Dict[str, float], overhead: float
) -> Dict[str, float]:
    """Every :data:`PER_LAYER` value from one traced run."""
    c = counters
    msgs = c["messages"]
    values: Dict[str, float] = {}
    for layer in LAYERS:
        values[f"{layer}.self_s"] = rec.self_s.get(layer, 0.0)
        values[f"{layer}.self_share"] = _ratio(rec.self_s.get(layer, 0.0), wall_s)
        values[f"{layer}.calls"] = rec.calls.get(layer, 0)
    values.update({
        "sim.events_per_msg": _ratio(c["events_fired"], msgs),
        "sim.event_reuse_ratio": _ratio(c["event_reuses"], c["events_fired"]),
        "net.pool_reuse_ratio": _ratio(
            c["packet_reuses"], c["packet_reuses"] + c["packet_allocs"]
        ),
        "net.packets_per_msg": _ratio(c["packets_routed"], msgs),
        "net.retransmit_ratio": _ratio(c["retransmits"], msgs),
        "net.in_fifo_high_water_bytes": c["in_fifo_high_water"],
        "userlib.refusal_ratio": _ratio(
            rec.entry_false.get("Sender.try_send", 0),
            rec.entry_calls.get("Sender.try_send", 0),
        ),
        "cpu.xlat_hit_ratio": _ratio(c["xlat_hits"], c["xlat_hits"] + c["xlat_misses"]),
        "vm.tlb_hit_ratio": _ratio(c["tlb_hits"], c["tlb_hits"] + c["tlb_misses"]),
        "kernel.switches_per_msg": _ratio(c["switches"], msgs),
        "core.initiations_per_msg": _ratio(c["initiations"], msgs),
        "traffic.flow_retries_per_msg": _ratio(c["flow_retries"], msgs),
        "sharding.msgs_per_round": _ratio(msgs, c["rounds"]),
        "trace.overhead_ratio": overhead,
    })
    return values


def as_report(values: Dict[str, float], registry: Tuple[Metric, ...]) -> Dict[str, dict]:
    """``{name: {"value", "unit"}}`` in registry order."""
    return {m.name: {"value": values[m.name], "unit": m.unit} for m in registry}

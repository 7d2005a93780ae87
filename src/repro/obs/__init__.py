"""repro.obs: the unified observability plane.

One :class:`Observability` object per machine -- or one *shared* object
per cluster -- carries the two instruments:

* a :class:`~repro.obs.registry.MetricsRegistry` of namespaced
  counters/gauges sampled over the components' live attributes (plus the
  per-transfer latency histogram),
* a :class:`~repro.obs.spans.SpanTracker` minting causal transfer spans
  when :attr:`ObsConfig.spans` is on.

Wiring is one config field::

    from repro import Machine, MachineConfig, ObsConfig

    m = Machine(config=MachineConfig(obs=ObsConfig(spans=True)))
    ...
    m.metrics()                  # nested counter report
    m.obs.spans.roots()          # transfer span trees
    m.obs.chrome_trace()         # Perfetto-loadable JSON dict

Everything is host-side: simulated cycles and counters are bit-identical
whatever the configuration.  See ``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.errors import ConfigurationError
from repro.obs.config import ObsConfig
from repro.obs.export import chrome_trace, write_chrome_trace
from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    Metric,
    MetricsRegistry,
    MetricTable,
    unflatten,
)
from repro.obs.spans import Span, SpanEvent, SpanTracker

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Metric",
    "MetricsRegistry",
    "MetricTable",
    "ObsConfig",
    "Observability",
    "Span",
    "SpanEvent",
    "SpanTracker",
    "chrome_trace",
    "unflatten",
    "write_chrome_trace",
]


class Observability:
    """One observability plane: registry + span tracker.

    A :class:`~repro.machine.Machine` builds its own from an
    :class:`ObsConfig`; a :class:`~repro.cluster.ShrimpCluster` builds one
    and *shares* it with every node (node metrics are namespaced
    ``node{i}.``, spans interleave on the one tracker so cross-node
    causality survives).
    """

    def __init__(self, config: Optional[ObsConfig] = None, clock=None) -> None:
        self.config = config if config is not None else ObsConfig()
        self.clock = clock
        self.registry = MetricsRegistry()
        self.spans: Optional[SpanTracker] = (
            SpanTracker(clock) if self.config.spans else None
        )

    def adopt_clock(self, clock) -> None:
        """Late-bind the simulation clock (first assembly that wires us)."""
        if self.clock is None:
            self.clock = clock
        if self.spans is not None and self.spans.clock is None:
            self.spans.clock = clock

    def chrome_trace(self, costs=None) -> Dict[str, Any]:
        """Perfetto-loadable trace of the span tree (requires spans on)."""
        if self.spans is None:
            raise ConfigurationError(
                "span tracing is off; build with obs=ObsConfig(spans=True)"
            )
        return chrome_trace(self.spans, costs=costs)

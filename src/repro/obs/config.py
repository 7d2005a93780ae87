"""Observability configuration: the one knob assemblies accept.

``Machine(config=MachineConfig(obs=ObsConfig(...)))`` and
``ShrimpCluster(config=ClusterConfig(obs=...))`` are the only way to
switch the observability plane's instruments on.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ObsConfig:
    """What the observability plane should collect.

    Attributes:
        metrics: bind the metrics registry over the component counters
            (sampled at snapshot time -- no hot-path cost) and record the
            per-transfer latency histogram.  The default.
        spans: mint causal transfer spans (initiation -> packets ->
            completion).  Off by default; purely host-side when on.
    """

    metrics: bool = True
    spans: bool = False

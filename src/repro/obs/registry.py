"""Typed metrics registry: stable, namespaced names over live counters.

The simulator's components keep plain integer attributes on their hot
paths (``cpu.loads += 1`` costs one integer add and nothing else).  The
registry does not replace those attributes -- it *binds* them: a
:class:`Counter` or :class:`Gauge` holds its owning component and an
attribute path (``cpu, "loads"`` or ``io, "iotlb.hits"``) and reads the
live attribute only when a snapshot is taken, so observation costs
nothing until someone observes.  The binding is plain data, so it
pickles and deep-copies with its component.  :class:`Histogram` is the
one *recording* instrument (distributions cannot be reconstructed after
the fact); call sites guard it with ``if hist is not None``.

Names are dotted, stable, and part of the public API: renaming a metric
is an API change, enforced by the golden-name test in
``tests/obs/test_metric_names_golden.py``.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from operator import attrgetter
from typing import Any, Dict, List

from repro.errors import ConfigurationError
from repro.snapshot.protocol import SnapshotMixin

#: dotted lowercase names: ``cpu.loads``, ``node0.nic.packets_sent``
_NAME_RE = re.compile(r"^[a-z0-9_]+(\.[a-z0-9_]+)*$")


def _check_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise ConfigurationError(
            f"metric name {name!r} is not a dotted lowercase identifier"
        )
    return name


class Metric:
    """Base of every registered instrument."""

    kind = "metric"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = _check_name(name)
        self.help = help

    def value(self) -> Any:
        """Current value as it should appear in a snapshot."""
        raise NotImplementedError


class Counter(Metric):
    """A monotonically increasing count: ``owner``'s attribute ``attr``.

    ``attr`` may be a dotted path (``"iotlb.hits"``), resolved from
    ``owner`` on every read.
    """

    kind = "counter"

    def __init__(self, name: str, owner: Any, attr: str, help: str = "") -> None:
        super().__init__(name, help)
        self.owner = owner
        self._read = attrgetter(attr)

    def value(self) -> Any:
        return self._read(self.owner)


class Gauge(Counter):
    """A point-in-time value (may go up, down, or be a label string)."""

    kind = "gauge"


#: default latency buckets: powers of two from 16 cycles to ~16M cycles
DEFAULT_BUCKETS = tuple(1 << k for k in range(4, 25))


class Histogram(Metric):
    """A recording distribution over fixed bucket upper bounds.

    Unlike counters and gauges, a histogram must see every sample when it
    happens; call sites therefore hold a direct reference and guard with
    ``if hist is not None`` so the unobserved cost is one attribute load.
    Recording is one dict count keyed by the sample (latencies take few
    distinct values); count, sum, min, max and the bucket percentiles are
    derived when the histogram is read.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        buckets: "tuple[int, ...]" = DEFAULT_BUCKETS,
    ) -> None:
        super().__init__(name, help)
        if not buckets or list(buckets) != sorted(buckets):
            raise ConfigurationError(
                f"histogram {self.name!r} needs ascending bucket bounds"
            )
        self.buckets = tuple(buckets)
        #: sample value -> times observed
        self.samples: Dict[int, int] = {}

    def observe(self, value: int) -> None:
        """Record one sample."""
        samples = self.samples
        samples[value] = samples.get(value, 0) + 1

    @property
    def count(self) -> int:
        return sum(self.samples.values())

    def percentile(self, q: float) -> int:
        """Upper bucket bound holding the ``q``-quantile (0 < q <= 1)."""
        samples = self.samples
        if not samples:
            return 0
        target = q * self.count
        running = 0
        for value in sorted(samples):
            running += samples[value]
            if running >= target:
                break
        i = bisect_left(self.buckets, value)
        return self.buckets[i] if i < len(self.buckets) else max(samples)

    def value(self) -> Dict[str, Any]:
        samples = self.samples
        return {
            "count": self.count,
            "sum": sum(v * n for v, n in samples.items()),
            "min": min(samples) if samples else 0,
            "max": max(samples) if samples else 0,
            "p50": self.percentile(0.50),
            "p99": self.percentile(0.99),
        }


class MetricsRegistry(SnapshotMixin):
    """All of one observability plane's instruments, by stable name."""

    def __init__(self) -> None:
        self._metrics: Dict[str, Metric] = {}

    # --------------------------------------------------------- registration
    def register(self, metric: Metric) -> Metric:
        """Add an instrument; duplicate names are configuration errors."""
        if metric.name in self._metrics:
            raise ConfigurationError(
                f"metric {metric.name!r} is already registered"
            )
        self._metrics[metric.name] = metric
        return metric

    def counter(self, name: str, owner: Any, attr: str, help: str = "") -> Counter:
        """Register a counter sampling ``owner``'s attribute path ``attr``."""
        return self.register(Counter(name, owner, attr, help=help))

    def gauge(self, name: str, owner: Any, attr: str, help: str = "") -> Gauge:
        """Register a gauge sampling ``owner``'s attribute path ``attr``."""
        return self.register(Gauge(name, owner, attr, help=help))

    def histogram(
        self,
        name: str,
        buckets: "tuple[int, ...]" = DEFAULT_BUCKETS,
        help: str = "",
    ) -> Histogram:
        """Register a recording histogram."""
        return self.register(Histogram(name, help=help, buckets=buckets))

    # -------------------------------------------------------------- reading
    def get(self, name: str) -> Metric:
        """Instrument by name."""
        try:
            return self._metrics[name]
        except KeyError:
            raise ConfigurationError(f"no metric {name!r} registered") from None

    def names(self, prefix: str = "") -> List[str]:
        """Sorted registered names (optionally under a prefix)."""
        return sorted(n for n in self._metrics if n.startswith(prefix))

    def snapshot(self, prefix: str = "") -> Dict[str, Any]:
        """One deterministic flat reading: sorted name -> current value."""
        return {n: self._metrics[n].value() for n in self.names(prefix)}

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __len__(self) -> int:
        return len(self._metrics)


def unflatten(flat: Dict[str, Any], strip: str = "") -> Dict[str, Any]:
    """Nest a flat dotted-name snapshot into the classic report shape.

    ``unflatten({"cpu.loads": 3}) == {"cpu": {"loads": 3}}``.  ``strip``
    removes a shared prefix (a node's namespace in a cluster registry)
    before nesting.
    """
    nested: Dict[str, Any] = {}
    for name, value in flat.items():
        if strip:
            name = name[len(strip):]
        node = nested
        parts = name.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
        node[parts[-1]] = value
    return nested

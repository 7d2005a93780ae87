"""Typed metrics registry: stable, namespaced names over live counters.

The simulator's components keep plain integer attributes on their hot
paths (``cpu.loads += 1`` costs one integer add and nothing else).  The
registry does not replace those attributes -- it *binds* them: every
sampled name is an ``(owner, row)`` entry, where the row names an
attribute path (``"loads"`` or ``"iotlb.hits"``) and the owner is the
component holding it.  The live attribute is read only when a snapshot
is taken, so observation costs nothing until someone observes.

A component group's names are one static :class:`MetricTable`, built
(and its suffixes validated) once, when its module is imported, and
shared by every node: binding a node is one prefix check, one
duplicate check and one dict update, with no object per name.
:meth:`MetricsRegistry.get` builds a :class:`Counter`/:class:`Gauge`
view over an entry on demand.  An entry is plain data, so it pickles
and deep-copies with its component.  :class:`Histogram` is the one
*recording* instrument (distributions cannot be reconstructed after the
fact); a one-off instrument is a one-row binding whose row is the
instrument itself.

Names are dotted, stable, and part of the public API: renaming a metric
is an API change, enforced by the golden-name test in
``tests/obs/test_metric_names_golden.py``.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from operator import attrgetter
from typing import Any, Dict, Iterable, List, Tuple

from repro.errors import ConfigurationError
from repro.snapshot.protocol import SnapshotMixin

#: dotted lowercase names: ``cpu.loads``, ``node0.nic.packets_sent``
_NAME_RE = re.compile(r"^[a-z0-9_]+(\.[a-z0-9_]+)*$")
#: a binding prefix: empty, or dotted parts each ending in a dot
#: (``node0.``); prefix + a valid suffix is a valid name
_PREFIX_RE = re.compile(r"^([a-z0-9_]+\.)*$")


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

    def read(self, owner: "Metric") -> Any:
        """Sample as a registry row: a one-off instrument owns itself."""
        return owner.value()


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
    happens.  Recording is one dict count keyed by the sample (latencies
    take few distinct values); count, sum, min, max and the bucket
    percentiles are derived when the histogram is read.  A hot call site
    may hold :attr:`samples` itself (never rebound, so a pickle or deep
    copy keeps the two shared) and count inline behind ``if samples is
    not None``, which is :meth:`observe` without the call.
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


#: the view class :meth:`MetricsRegistry.get` builds for a row's kind
_VIEWS = {"counter": Counter, "gauge": Gauge}


class MetricRow:
    """One sampled name of a :class:`MetricTable`.

    ``suffix`` is appended to the binding's prefix, ``component`` names
    the owner the binding supplies, and ``read`` samples the attribute
    path from that owner.  Rows are never changed after the table is
    built, and every binding of the table shares them.
    """

    __slots__ = ("suffix", "kind", "component", "read")

    def __init__(self, suffix: str, kind: str, component: str, path: str) -> None:
        self.suffix = suffix
        self.kind = kind
        self.component = component
        self.read = attrgetter(path)


class MetricTable:
    """A component group's sampled names: rows of
    ``(suffix, kind, component, attribute path)``.

    Every suffix is validated, and checked for repeats, when the table
    is built -- once, at import of the module that declares it.
    """

    __slots__ = ("rows",)

    def __init__(self, rows: Iterable[Tuple[str, str, str, str]]) -> None:
        built: Dict[str, MetricRow] = {}
        for suffix, kind, component, path in rows:
            _check_name(suffix)
            if kind not in _VIEWS:
                raise ConfigurationError(
                    f"metric {suffix!r}: a table row is a counter or a gauge, "
                    f"not {kind!r}"
                )
            if suffix in built:
                raise ConfigurationError(f"metric table repeats {suffix!r}")
            built[suffix] = MetricRow(suffix, kind, component, path)
        self.rows = tuple(built.values())


class MetricsRegistry(SnapshotMixin):
    """All of one observability plane's instruments, by stable name.

    Storage is one dict, ``name -> (owner, row)``, read as
    ``row.read(owner)``: a table row samples its attribute path from the
    component, a one-off instrument (``row is owner``) reads itself.
    """

    def __init__(self) -> None:
        self._entries: Dict[str, Tuple[Any, Any]] = {}

    # --------------------------------------------------------- registration
    def _insert(self, entries: Dict[str, Tuple[Any, Any]]) -> None:
        """Add entries; any name already registered is a configuration error."""
        if not self._entries.keys().isdisjoint(entries):
            taken = min(self._entries.keys() & entries.keys())
            raise ConfigurationError(f"metric {taken!r} is already registered")
        self._entries.update(entries)

    def bind(self, prefix: str, table: MetricTable, **owners: Any) -> None:
        """Bind every row of ``table`` under ``prefix`` to its owner.

        ``owners`` maps each row's component name to the live object the
        row samples (``cpu=machine.cpu``).
        """
        if not _PREFIX_RE.match(prefix):
            raise ConfigurationError(
                f"metric prefix {prefix!r} is not empty or dotted lowercase "
                "parts ending in a dot"
            )
        try:
            entries = {
                prefix + row.suffix: (owners[row.component], row)
                for row in table.rows
            }
        except KeyError as missing:
            raise ConfigurationError(
                f"metric table binding names no owner for {missing}"
            ) from None
        self._insert(entries)

    def register(self, metric: Metric) -> Metric:
        """Add a one-off instrument; duplicate names are configuration errors."""
        self._insert({metric.name: (metric, metric)})
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
        """Instrument by name (a table entry's view is built on demand)."""
        try:
            owner, row = self._entries[name]
        except KeyError:
            raise ConfigurationError(f"no metric {name!r} registered") from None
        if row is owner:
            return row
        # A view over a table entry: its name was validated with the table.
        cls = _VIEWS[row.kind]
        view = cls.__new__(cls)
        view.name, view.help, view.owner, view._read = name, "", owner, row.read
        return view

    def names(self, prefix: str = "") -> List[str]:
        """Sorted registered names (optionally under a prefix)."""
        return sorted(n for n in self._entries if n.startswith(prefix))

    def snapshot(self, prefix: str = "") -> Dict[str, Any]:
        """One deterministic flat reading: sorted name -> current value."""
        entries = self._entries
        reading = {}
        for name in self.names(prefix):
            owner, row = entries[name]
            reading[name] = row.read(owner)
        return reading

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def __len__(self) -> int:
        return len(self._entries)


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

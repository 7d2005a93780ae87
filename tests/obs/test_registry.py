"""Unit tests for the typed metrics registry."""

import copy
import pickle
import random
from bisect import bisect_left

import pytest

from repro.errors import ConfigurationError
from repro.obs import Counter, Gauge, Histogram, MetricsRegistry, MetricTable
from repro.obs.registry import DEFAULT_BUCKETS, unflatten


class _Box:
    """A stand-in component: plain attributes, one nested."""

    def __init__(self):
        self.hits = 0
        self.inner = _Inner()


class _Inner:
    def __init__(self):
        self.depth = 3


class TestNames:
    def test_dotted_lowercase_accepted(self):
        Counter("node0.nic.packets_sent", _Box(), "hits")
        Counter("cpu.loads", _Box(), "hits")

    @pytest.mark.parametrize(
        "bad", ["", "Cpu.loads", "cpu..loads", "cpu.loads-total", "cpu loads"]
    )
    def test_bad_names_rejected(self, bad):
        with pytest.raises(ConfigurationError):
            Counter(bad, _Box(), "hits")


class TestCounter:
    def test_sampled_counter_reads_live_attribute(self):
        box = _Box()
        c = Counter("box.hits", box, "hits")
        assert c.value() == 0
        box.hits = 7
        assert c.value() == 7

    def test_dotted_attribute_path(self):
        box = _Box()
        c = Counter("box.depth", box, "inner.depth")
        assert c.value() == 3
        box.inner = _Inner()  # re-resolved from the owner on every read
        box.inner.depth = 5
        assert c.value() == 5

    def test_binding_pickles_and_copies_with_its_owner(self):
        box = _Box()
        box.hits = 4
        c = Counter("box.hits", box, "hits")
        for twin in (pickle.loads(pickle.dumps(c)), copy.deepcopy(c)):
            assert twin.value() == 4
            twin.owner.hits = 9
            assert twin.value() == 9
            assert c.value() == 4


class TestGauge:
    def test_sampled_gauge_reads_live_attribute(self):
        box = _Box()
        g = Gauge("box.depth", box, "inner.depth")
        assert g.value() == 3
        box.inner.depth = 1
        assert g.value() == 1
        assert g.kind == "gauge"


class TestHistogram:
    def test_summary_fields(self):
        h = Histogram("lat")
        for v in (100, 200, 400, 100_000):
            h.observe(v)
        value = h.value()
        assert value["count"] == 4
        assert value["sum"] == 100_700
        assert value["min"] == 100
        assert value["max"] == 100_000
        # p50 is a bucket upper bound covering at least half the samples
        assert value["min"] <= value["p50"] <= value["max"] * 2
        assert value["p99"] >= value["p50"]

    def test_empty_histogram_is_zeroes(self):
        value = Histogram("lat").value()
        assert value == {"count": 0, "sum": 0, "min": 0, "max": 0,
                         "p50": 0, "p99": 0}

    def test_overflow_bucket(self):
        h = Histogram("lat", buckets=(10, 100))
        h.observe(5000)
        assert h.count == 1
        assert h.percentile(0.5) == 5000  # falls through to max

    def test_read_matches_per_sample_bucketing(self):
        """Deriving the summary at read time gives what counting every
        sample into its bucket on the way in gave."""
        rng = random.Random(7)
        buckets = (16, 32, 64, 128)
        samples = [rng.choice((1, 16, 17, 64, 100, 128, 129, 5000))
                   for _ in range(300)]
        h = Histogram("lat", buckets=buckets)
        counts = [0] * (len(buckets) + 1)
        for v in samples:
            h.observe(v)
            counts[bisect_left(buckets, v)] += 1

        def percentile(q):
            running = 0
            for bound, n in zip(buckets, counts):
                running += n
                if running >= q * len(samples):
                    return bound
            return max(samples)

        assert h.value() == {
            "count": len(samples), "sum": sum(samples),
            "min": min(samples), "max": max(samples),
            "p50": percentile(0.50), "p99": percentile(0.99),
        }

    def test_unsorted_buckets_rejected(self):
        with pytest.raises(ConfigurationError):
            Histogram("lat", buckets=(100, 10))

    def test_default_buckets_ascending_powers_of_two(self):
        assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)
        assert DEFAULT_BUCKETS[0] == 16


class TestRegistry:
    def test_register_and_get(self):
        reg = MetricsRegistry()
        c = reg.counter("a.b", _Box(), "hits")
        assert reg.get("a.b") is c
        assert "a.b" in reg
        assert len(reg) == 1

    def test_duplicate_name_rejected(self):
        reg = MetricsRegistry()
        reg.counter("a.b", _Box(), "hits")
        with pytest.raises(ConfigurationError):
            reg.gauge("a.b", _Box(), "hits")
        with pytest.raises(ConfigurationError):
            reg.histogram("a.b")

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError):
            MetricsRegistry().get("nope")

    def test_snapshot_is_sorted_and_prefixed(self):
        reg = MetricsRegistry()
        box = _Box()
        box.one, box.two, box.three = 1, 2, 3
        reg.counter("b.two", box, "two")
        reg.counter("a.one", box, "one")
        reg.counter("b.three", box, "three")
        assert list(reg.snapshot()) == ["a.one", "b.three", "b.two"]
        assert reg.snapshot("b.") == {"b.three": 3, "b.two": 2}
        assert reg.names("a.") == ["a.one"]


BOX_TABLE = MetricTable([
    ("box.hits", "counter", "box", "hits"),
    ("box.depth", "gauge", "box", "inner.depth"),
    ("other.hits", "counter", "other", "hits"),
])


class TestTables:
    @pytest.mark.parametrize("bad", ["", "Box.hits", "box..hits", "box hits"])
    def test_bad_suffix_refused_when_the_table_is_built(self, bad):
        with pytest.raises(ConfigurationError):
            MetricTable([(bad, "counter", "box", "hits")])

    def test_repeated_suffix_and_unknown_kind_refused(self):
        with pytest.raises(ConfigurationError):
            MetricTable([("a", "counter", "box", "hits"),
                         ("a", "gauge", "box", "hits")])
        with pytest.raises(ConfigurationError):
            MetricTable([("a", "histogram", "box", "hits")])

    @pytest.mark.parametrize("bad", ["node0", "Node0.", "node0..", ".node0."])
    def test_bad_prefix_refused(self, bad):
        with pytest.raises(ConfigurationError):
            MetricsRegistry().bind(bad, BOX_TABLE, box=_Box(), other=_Box())

    def test_missing_owner_refused(self):
        with pytest.raises(ConfigurationError):
            MetricsRegistry().bind("", BOX_TABLE, box=_Box())

    def test_duplicate_across_table_and_one_off_refused(self):
        reg = MetricsRegistry()
        reg.counter("n1.box.hits", _Box(), "hits")
        with pytest.raises(ConfigurationError, match="n1.box.hits"):
            reg.bind("n1.", BOX_TABLE, box=_Box(), other=_Box())
        assert reg.names() == ["n1.box.hits"]  # nothing half-bound

        reg = MetricsRegistry()
        reg.bind("n1.", BOX_TABLE, box=_Box(), other=_Box())
        for one_off in (
            lambda: reg.gauge("n1.box.depth", _Box(), "hits"),
            lambda: reg.histogram("n1.other.hits"),
        ):
            with pytest.raises(ConfigurationError):
                one_off()
        with pytest.raises(ConfigurationError):
            reg.bind("n1.", BOX_TABLE, box=_Box(), other=_Box())
        reg.bind("n2.", BOX_TABLE, box=_Box(), other=_Box())
        assert len(reg) == 6

    def test_get_is_a_view_over_the_live_component(self):
        reg = MetricsRegistry()
        box, other = _Box(), _Box()
        reg.bind("n0.", BOX_TABLE, box=box, other=other)
        hits, depth = reg.get("n0.box.hits"), reg.get("n0.box.depth")
        assert type(hits) is Counter and type(depth) is Gauge
        assert hits.name == "n0.box.hits" and hits.kind == "counter"
        assert hits.owner is box and depth.owner is box
        assert reg.get("n0.other.hits").owner is other
        box.hits, box.inner.depth = 5, 8
        assert hits.value() == 5 and depth.value() == 8
        assert reg.snapshot("n0.box.") == {"n0.box.depth": 8, "n0.box.hits": 5}
        assert "n0.box.hits" in reg and "n1.box.hits" not in reg

    @pytest.mark.parametrize("duplicate", [
        lambda graph: pickle.loads(pickle.dumps(graph)), copy.deepcopy,
    ], ids=["pickle", "deepcopy"])
    def test_copy_samples_the_copys_components(self, duplicate):
        reg = MetricsRegistry()
        box, other = _Box(), _Box()
        box.hits = 2
        reg.bind("", BOX_TABLE, box=box, other=other)
        hist = reg.histogram("lat")
        hist.observe(7)

        twin, twin_box, twin_other = duplicate((reg, box, other))
        assert twin.get("box.hits").owner is twin_box
        assert twin.get("other.hits").owner is twin_other
        assert twin.snapshot() == reg.snapshot()
        twin_box.hits, twin_box.inner.depth = 40, 41
        twin.get("lat").observe(9)
        assert twin.snapshot()["box.hits"] == 40
        assert twin.snapshot()["box.depth"] == 41
        assert twin.snapshot()["lat"]["count"] == 2
        assert reg.snapshot()["box.hits"] == 2
        assert reg.snapshot()["box.depth"] == 3
        assert reg.snapshot()["lat"]["count"] == 1


class TestUnflatten:
    def test_nests_dotted_names(self):
        assert unflatten({"cpu.loads": 3, "cpu.stores": 1, "now": 9}) == {
            "cpu": {"loads": 3, "stores": 1},
            "now": 9,
        }

    def test_strip_prefix(self):
        flat = {"node0.nic.packets_sent": 2}
        assert unflatten(flat, strip="node0.") == {"nic": {"packets_sent": 2}}

"""The stable ``repro.obs`` API surface: configuration wiring, the
``metrics()`` methods and package exports."""

import pytest

import repro
from repro import (
    ClusterConfig,
    Machine,
    MachineConfig,
    ObsConfig,
    ShrimpCluster,
)
from repro.obs import Observability


class TestObsConfigWiring:
    def test_default_machine_has_metrics_no_spans(self):
        m = Machine(config=MachineConfig(mem_size=1 << 20))
        assert m.obs.config.metrics is True
        assert m.obs.config.spans is False
        assert m.obs.spans is None

    def test_spans_opt_in(self):
        m = Machine(
                config=MachineConfig(
                    mem_size=1 << 20,
                    obs=ObsConfig(spans=True),
                ),
            )
        assert m.obs.spans is not None
        assert m.udma._spans is m.obs.spans
        assert m.udma_engine._spans is m.obs.spans

    def test_metrics_opt_out_leaves_registry_empty(self):
        m = Machine(
                config=MachineConfig(
                    mem_size=1 << 20,
                    obs=ObsConfig(metrics=False),
                ),
            )
        assert len(m.obs.registry) == 0
        # metrics() binds lazily on first call, so it still works
        assert "cpu" in m.metrics()

    def test_shared_observability_instance(self):
        shared = Observability(ObsConfig(spans=True))
        m = Machine(
                config=MachineConfig(mem_size=1 << 20, obs=shared),
                name="nodex",
            )
        assert m.obs is shared
        assert shared.clock is m.clock
        assert any(n.startswith("nodex.") for n in shared.registry.names())

    def test_cluster_nodes_share_one_plane(self):
        c = ShrimpCluster(
                config=ClusterConfig(
                    num_nodes=2,
                    mem_size=1 << 21,
                    obs=ObsConfig(spans=True),
                ),
            )
        assert c.node(0).obs is c.obs
        assert c.node(1).obs is c.obs
        assert c.node(0).obs.spans is c.obs.spans
        assert c.interconnect._spans is c.obs.spans


class TestMetricsMethods:
    def test_machine_metrics_shape(self, sink_machine):
        metrics = sink_machine.machine.metrics()
        for group in ("cpu", "tlb", "vm", "scheduler", "syscalls", "udma", "sim"):
            assert group in metrics
        assert isinstance(metrics["udma"]["transfer_cycles"], dict)

    def test_cluster_metrics_shape(self, cluster2):
        metrics = cluster2.metrics()
        assert "backplane" in metrics
        assert "node0" in metrics and "node1" in metrics
        assert "nic" in metrics["node0"]
        assert "cpu" in metrics["node0"]

    def test_snapshot_samples_live_counters(self, sink_machine):
        rig = sink_machine
        before = rig.machine.metrics()["cpu"]["instructions"]
        rig.fill_buffer(b"a" * 64)
        rig.udma.transfer(rig.mem(0), rig.dev(0), 64)
        rig.machine.run_until_idle()
        after = rig.machine.metrics()["cpu"]["instructions"]
        assert after > before

    def test_metrics_calls_are_repeatable(self, sink_machine):
        m = sink_machine.machine
        assert m.metrics() == m.metrics()


class TestPackageExports:
    @pytest.mark.parametrize(
        "name",
        [
            "Counter", "Gauge", "Histogram", "MetricsRegistry",
            "Observability", "ObsConfig", "Span", "SpanTracker",
        ],
    )
    def test_obs_types_in_repro_all(self, name):
        assert name in repro.__all__
        assert hasattr(repro, name)

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

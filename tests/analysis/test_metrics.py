"""Tests for the metrics snapshot API."""

from repro.analysis.metrics import render, transfer_latency


class TestMachineMetrics:
    def test_groups_present(self, sink_machine):
        metrics = sink_machine.machine.metrics()
        for group in ("cpu", "tlb", "vm", "scheduler", "syscalls", "udma"):
            assert group in metrics

    def test_counters_reflect_activity(self, sink_machine):
        rig = sink_machine
        rig.fill_buffer(b"x" * 256)
        rig.udma.transfer(rig.mem(0), rig.dev(0), 256)
        rig.machine.run_until_idle()
        metrics = rig.machine.metrics()
        assert metrics["udma"]["initiations"] >= 1
        assert metrics["udma"]["engine_bytes"] >= 256
        assert metrics["cpu"]["instructions"] > 0
        assert metrics["vm"]["faults"] >= 1

    def test_queued_machine_reports_queue_counters(self, queued_sink_machine):
        rig = queued_sink_machine
        rig.fill_buffer(b"y" * 64)
        rig.udma.transfer(rig.mem(0), rig.dev(0), 64)
        rig.machine.run_until_idle()
        metrics = rig.machine.metrics()
        assert metrics["udma"]["accepted"] >= 1
        assert "refused" in metrics["udma"]


class TestClusterMetrics:
    def test_per_node_and_backplane(self, channel_rig):
        rig = channel_rig
        rig.sender.send_bytes(b"abcd" * 64)
        rig.cluster.run_until_idle()
        metrics = rig.cluster.metrics()
        assert metrics["backplane"]["packets_routed"] == 1
        assert metrics["node0"]["nic"]["packets_sent"] == 1
        assert metrics["node1"]["nic"]["packets_received"] == 1
        assert metrics["node1"]["nic"]["bytes_received"] == 256


class TestTransferLatency:
    def test_histogram_after_transfers(self, sink_machine):
        rig = sink_machine
        rig.fill_buffer(b"z" * 128)
        for _ in range(3):
            rig.udma.transfer(rig.mem(0), rig.dev(0), 128)
            rig.machine.run_until_idle()
        hist = transfer_latency(rig.machine)
        assert hist["count"] == 3
        assert hist["min"] > 0
        assert hist["p50"] >= hist["min"]


class TestRender:
    def test_renders_nested_tree(self):
        text = render({"a": {"b": 1, "cc": 2}, "d": 3})
        assert "a:" in text
        assert "b" in text and "cc" in text
        assert text.count("\n") >= 3

    def test_real_metrics_render(self, sink_machine):
        text = render(sink_machine.machine.metrics())
        assert "hit_rate" in text
        assert "invals_fired" in text

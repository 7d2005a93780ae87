"""Span tracing tests: tracker unit behaviour, controller span paths,
cluster-wide transfer trees, Chrome export, and the bit-identical
simulation guarantee."""

import json

import pytest

from repro import (
    ClusterConfig,
    Machine,
    MachineConfig,
    ObsConfig,
    ShrimpCluster,
)
from repro.config import IommuConfig
from repro.core.controller import UdmaController
from repro.core.queueing import QueuedUdmaController
from repro.core.status import UdmaStatus
from repro.devices.sink import SinkDevice
from repro.dma.engine import DmaEngine
from repro.mem.layout import Layout
from repro.mem.physmem import PhysicalMemory
from repro.obs import SpanTracker, chrome_trace
from repro.obs import spans as spans_module
from repro.params import shrimp
from repro.sim.clock import Clock
from repro.userlib import Sender

MEM = 1 << 20


class TestSpanTracker:
    def test_begin_event_finish_lifecycle(self):
        t = SpanTracker()
        root = t.begin("transfer", nbytes=64)
        child = t.begin("dma", parent=root)
        t.event(child, "burst", n=1)
        t.finish(child)
        t.finish(root, status="complete", extra="yes")
        assert len(t) == 2
        assert t.get(root).status == "complete"
        assert t.get(root).attrs["extra"] == "yes"
        assert [s.id for s in t.roots()] == [root]
        assert [s.id for s in t.children(root)] == [child]
        assert t.root_of(child) == root
        assert t.open_spans() == []
        assert t.finished == 2

    def test_finish_is_idempotent_and_none_safe(self):
        t = SpanTracker()
        s = t.begin("x")
        t.finish(s, status="complete")
        t.finish(s, status="other")  # second finish is a no-op
        assert t.get(s).status == "complete"
        t.finish(None)
        t.event(None, "nothing")
        t.event(999, "unknown id")  # silently dropped

    def test_max_spans_drops_not_raises(self, monkeypatch):
        monkeypatch.setattr(spans_module, "MAX_SPANS", 2)
        t = SpanTracker()
        assert t.begin("a") is not None
        assert t.begin("b") is not None
        assert t.begin("c") is None
        assert t.dropped == 1

    def test_render_tree_mentions_events_and_children(self):
        t = SpanTracker()
        root = t.begin("transfer")
        t.event(root, "initiated", count=8)
        child = t.begin("dma", parent=root)
        t.finish(child)
        t.finish(root)
        text = t.render_tree(root)
        assert "transfer" in text and "dma" in text
        assert "initiated" in text and "count=8" in text


class _ControllerRig:
    """Bare controller + engine with a span tracker wired in."""

    def __init__(self, queued=False, alignment=0):
        self.clock = Clock()
        self.costs = shrimp()
        self.layout = Layout(mem_size=MEM)
        self.ram = PhysicalMemory(MEM)
        self.engine = DmaEngine(self.clock, self.costs)
        if queued:
            self.udma = QueuedUdmaController(
                self.layout, self.ram, self.engine, self.clock, queue_depth=1
            )
        else:
            self.udma = UdmaController(
                self.layout, self.ram, self.engine, self.clock
            )
        self.sink = SinkDevice("sink", size=1 << 14, alignment=alignment)
        self.window = self.udma.attach_device(self.sink)
        self.spans = SpanTracker(clock=self.clock)
        self.udma._spans = self.spans
        self.engine._spans = self.spans

    def roots(self):
        return self.spans.roots()


class TestControllerSpans:
    def test_complete_transfer_is_one_tree(self):
        rig = _ControllerRig()
        rig.ram.write(0x2000, b"spanspan")
        rig.udma.io_store(rig.window.base, 8)
        rig.udma.io_load(rig.layout.proxy(0x2000))
        rig.clock.run_until_idle()
        (root,) = rig.roots()
        assert root.name == "transfer"
        assert root.status == "complete"
        assert root.attrs["nbytes"] == 8
        assert [e.name for e in root.events] == ["initiated"]
        (dma,) = rig.spans.children(root.id)
        assert dma.name == "dma" and dma.status == "complete"
        assert rig.spans.open_spans() == []

    def test_inval_closes_span_and_retry_links_back(self):
        rig = _ControllerRig()
        rig.udma.io_store(rig.window.base, 64)
        rig.udma.inval()
        (first,) = rig.roots()
        assert first.status == "inval"
        # user retries the same destination: new root linked to the old
        rig.udma.io_store(rig.window.base, 64)
        rig.udma.io_load(rig.layout.proxy(0x1000))
        rig.clock.run_until_idle()
        retry = [s for s in rig.roots() if s.id != first.id][0]
        assert retry.attrs["retry_of"] == first.id
        assert retry.status == "complete"

    def test_bad_load_closes_span(self):
        rig = _ControllerRig()
        rig.udma.io_store(rig.layout.proxy(0x1000), 64)  # memory dest
        rig.udma.io_load(rig.layout.proxy(0x2000))       # memory source: BadLoad
        (root,) = rig.roots()
        assert root.status == "bad-load"

    def test_device_error_closes_span(self):
        rig = _ControllerRig(alignment=4)
        rig.udma.io_store(rig.window.base + 2, 8)  # misaligned device dest
        rig.udma.io_load(rig.layout.proxy(0x1000))
        (root,) = rig.roots()
        assert root.status == "device-error"

    def test_queue_refusal_keeps_span_open_until_retry(self):
        rig = _ControllerRig(queued=True)
        src = rig.layout.proxy(0x1000)
        # Fill: one in flight + one queued (depth 1).
        for i in range(2):
            rig.udma.io_store(rig.window.base + 64 * i, 16)
            rig.udma.io_load(src)
        # Third initiation is refused; its span stays open on the latch.
        rig.udma.io_store(rig.window.base + 128, 16)
        rig.udma.io_load(src)
        refused = [
            s for s in rig.roots()
            if any(e.name == "queue-refused" for e in s.events)
        ]
        assert len(refused) == 1 and refused[0].open
        assert [e.name for e in refused[0].events] == ["queue-refused"]
        # Drain the queue, repeat only the LOAD: same span is accepted.
        rig.clock.run_until_idle()
        rig.udma.io_load(src)
        rig.clock.run_until_idle()
        span = rig.spans.get(refused[0].id)
        assert span.status == "complete"
        names = [e.name for e in span.events]
        assert names[:2] == ["queue-refused", "queued"]
        assert all(s.status == "complete" for s in rig.roots())


class TestQueuedMachineSpans:
    """The queued device's latch drops close the root span, on a machine
    built the one way a queued device is built (``queue_depth > 0``)."""

    def _machine(self):
        machine = Machine(
            config=MachineConfig(
                mem_size=MEM, queue_depth=4, obs=ObsConfig(spans=True)
            )
        )
        assert isinstance(machine.udma, QueuedUdmaController)
        window = machine.attach_device(SinkDevice("sink", size=1 << 14))
        return machine, window

    def test_inval_drops_latch_and_retry_links_back(self):
        machine, window = self._machine()
        udma, spans = machine.udma, machine.obs.spans
        udma.io_store(window.base, 64)
        udma.inval()
        (first,) = spans.roots()
        assert first.status == "inval"
        udma.io_store(window.base, 64)  # the retry, same destination
        udma.io_load(machine.layout.proxy(0x1000))
        machine.run_until_idle()
        (retry,) = [s for s in spans.roots() if s.id != first.id]
        assert retry.attrs["retry_of"] == first.id
        assert retry.status == "complete"

    def test_bad_load_drops_latch(self):
        machine, _ = self._machine()
        udma = machine.udma
        udma.io_store(machine.layout.proxy(0x1000), 64)  # memory dest
        word = udma.io_load(machine.layout.proxy(0x2000))  # memory source
        assert UdmaStatus.decode(word).wrong_space
        (root,) = machine.obs.spans.roots()
        assert root.status == "bad-load"


def _run_cluster_send(nbytes=2100):
    cluster = ShrimpCluster(
                  config=ClusterConfig(
                      num_nodes=2,
                      mem_size=1 << 21,
                      obs=ObsConfig(spans=True),
                  ),
              )
    rx = cluster.node(1).create_process("rx")
    buf = cluster.node(1).kernel.syscalls.alloc(rx, 1 << 16)
    channel = cluster.create_channel(0, 1, rx, buf, 1 << 16)
    tx = cluster.node(0).create_process("tx")
    sender = Sender(cluster, tx, channel)
    sender.send_bytes(bytes(range(256)) * (nbytes // 256) + b"x" * (nbytes % 256))
    cluster.run_until_idle()
    return cluster


class TestClusterTransferTree:
    def test_one_transfer_is_one_span_tree(self):
        cluster = _run_cluster_send()
        spans = cluster.obs.spans
        user_roots = [r for r in spans.roots() if r.attrs.get("space") == "device"]
        assert len(user_roots) == 1
        root = user_roots[0]
        assert root.status == "complete"
        assert spans.open_spans() == []
        kinds = {s.name for s in spans if spans.root_of(s.id) == root.id}
        assert {"transfer", "dma", "packet"} <= kinds
        packets = [
            s for s in spans
            if s.name == "packet" and spans.root_of(s.id) == root.id
        ]
        assert packets and all(p.status == "delivered" for p in packets)
        # wire + route events recorded on each packet's flight
        for p in packets:
            assert {"wire-tx", "route"} <= {e.name for e in p.events}

    def test_determinism_two_runs_identical(self):
        a, b = _run_cluster_send(), _run_cluster_send()
        ta, tb = a.obs.spans, b.obs.spans
        assert len(ta) == len(tb)
        renders_a = [ta.render_tree(r.id) for r in ta.roots()]
        renders_b = [tb.render_tree(r.id) for r in tb.roots()]
        assert renders_a == renders_b
        assert a.metrics() == b.metrics()


class TestEveryPacketSpanFinishes:
    """A packet that never lands still reaches a final status."""

    def _cluster(self, **config):
        cluster = ShrimpCluster(
            config=ClusterConfig(
                num_nodes=2, mem_size=1 << 21, obs=ObsConfig(spans=True), **config
            )
        )
        rx = cluster.node(1).create_process("rx")
        buf = cluster.node(1).kernel.syscalls.alloc(rx, 4096)
        channel = cluster.create_channel(0, 1, rx, buf, 4096)
        sender = Sender(cluster, cluster.node(0).create_process("tx"), channel)
        return cluster, sender, rx, buf

    def _packets(self, cluster):
        return [(s.status, s.attrs.get("reason")) for s in cluster.obs.spans
                if s.name == "packet"]

    def test_backplane_drop_finishes_the_packet_span(self):
        cluster, sender, _, _ = self._cluster()
        cluster.interconnect.fault_injector = lambda wire: None
        sender.send_bytes(b"d" * 1024)
        cluster.run_until_idle()
        assert cluster.interconnect.packets_dropped == 1
        assert self._packets(cluster) == [("dropped", None)]
        assert cluster.obs.spans.open_spans() == []

    @pytest.mark.parametrize(
        "injector",
        [lambda w: bytes(w)[:-1] + bytes([bytes(w)[-1] ^ 1]), lambda w: [w, w]],
        ids=["corrupt", "duplicate"],
    )
    def test_rewritten_wire_finishes_the_packet_span(self, injector):
        cluster, sender, _, _ = self._cluster()
        cluster.interconnect.fault_injector = injector
        sender.send_bytes(b"c" * 1024)
        cluster.run_until_idle()
        assert self._packets(cluster) == [("rewritten", None)]
        assert cluster.obs.spans.open_spans() == []

    def test_iommu_queue_full_abort_finishes_the_packet_span(self):
        cluster, sender, rx, buf = self._cluster(
            iommu=IommuConfig(fault_queue_depth=1)
        )
        vm = cluster.node(1).kernel.vm
        vm._page_out(vm.resident_frame(rx, buf // 4096))  # a cold page parks
        sender.send_bytes(b"a" * 64)
        sender.send_bytes(b"b" * 64, channel_offset=64)  # arrives while parked
        cluster.run_until_idle()
        assert self._packets(cluster) == [
            ("delivered", None), ("aborted", "queue-full")
        ]
        parked = [s for s in cluster.obs.spans if s.status == "delivered"][0]
        assert [e.name for e in parked.events][-2:] == ["park", "replay"]
        assert cluster.obs.spans.open_spans() == []


class TestBitIdenticalSimulation:
    def test_spans_do_not_change_cycles_or_counters(self):
        def run(obs):
            m = Machine(config=MachineConfig(mem_size=MEM, obs=obs))
            sink = SinkDevice("sink", size=1 << 14)
            m.attach_device(sink)
            p = m.create_process("p")
            buf = m.kernel.syscalls.alloc(p, 4096)
            grant = m.kernel.syscalls.grant_device_proxy(p, "sink")
            from repro.userlib import DeviceRef, MemoryRef, UdmaUser
            u = UdmaUser(m, p)
            m.cpu.write_bytes(buf, b"q" * 4096)
            for _ in range(3):
                u.transfer(MemoryRef(buf), DeviceRef(grant), 4096)
                m.run_until_idle()
            return m.now, m.cpu.instructions, m.udma_engine.bytes_transferred

        baseline = run(ObsConfig(metrics=False, spans=False))
        with_spans = run(ObsConfig(metrics=True, spans=True))
        assert baseline == with_spans


class TestChromeExport:
    def test_export_structure_and_json_round_trip(self):
        cluster = _run_cluster_send()
        trace = chrome_trace(cluster.obs.spans, costs=cluster.node(0).costs)
        events = trace["traceEvents"]
        assert trace["displayTimeUnit"] == "ms"
        phases = {e["ph"] for e in events}
        assert {"M", "X", "i"} <= phases
        meta = [e for e in events if e["ph"] == "M" and e["name"] == "process_name"]
        assert meta and meta[0]["args"]["name"] == "shrimp-udma"
        xs = [e for e in events if e["ph"] == "X"]
        assert len(xs) == len(cluster.obs.spans)
        for e in xs:
            assert isinstance(e["ts"], float) and isinstance(e["dur"], float)
            assert e["dur"] >= 0
            assert "status" in e["args"]
        # every X event sits on its tree's track (tid = root span id)
        spans = cluster.obs.spans
        for e in xs:
            assert e["tid"] == spans.root_of(e["args"]["id"])
        # round-trips through JSON (what Perfetto ingests)
        assert json.loads(json.dumps(trace)) == trace

    def test_open_spans_render_to_horizon(self):
        t = SpanTracker()
        root = t.begin("transfer")
        t.event(root, "late", at=0)
        child = t.begin("dma", parent=root)
        t.finish(child)
        trace = chrome_trace(t)
        x_root = [
            e for e in trace["traceEvents"]
            if e["ph"] == "X" and e["args"]["id"] == root
        ][0]
        assert x_root["dur"] >= 0  # open span still exported


class TestObservabilityHandle:
    def test_chrome_trace_requires_spans_enabled(self):
        m = Machine(config=MachineConfig(mem_size=MEM))  # spans off by default
        from repro.errors import ConfigurationError
        with pytest.raises(ConfigurationError):
            m.obs.chrome_trace()

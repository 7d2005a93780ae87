"""Per-layer host time from spans recorded at layer boundaries.

The benchmark wraps the entry points below from outside -- class
attributes are swapped before the world is built and restored after --
so the program itself carries no instrumentation.  Every wrapped call
becomes a span; every scheduling call also wraps its callback, so the
event fires as a span of its own, attributed to the module of the object
that owns the callback, whose parent is the span that scheduled it and
whose request id it inherits.  A request is one send attempt: a call of
one of :data:`REQUEST_ENTRY_POINTS` starts a new request id.

A span's *self time* is its duration minus the time covered by spans
nested inside it, so self times never overlap and sum to at most the
traced wall time.  Layers are the subpackages of ``repro`` (``repro.net``
is ``net``); the layer of an entry point is the subpackage that defines
it.  cProfile is not used: it gives neither causal parents nor request
ids.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import types
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Dict, Iterator, List, Tuple

#: the layers the per-layer report covers (``iommu``, ``snapshot`` and
#: ``obs`` are on no workload's path)
LAYERS = (
    "sim", "net", "userlib", "cpu", "vm", "kernel", "protection",
    "core", "dma", "mem", "traffic", "sharding",
)

#: (module, "Class.method") of every wrapped layer boundary
ENTRY_POINTS: Tuple[Tuple[str, str], ...] = (
    ("repro.sim.clock", "Clock.run"),
    ("repro.sim.clock", "Clock.run_until_idle"),
    ("repro.sim.clock", "Clock.advance"),
    ("repro.sim.clock", "ShardClock.advance"),
    ("repro.sim.clock", "ShardClock.fire_next"),
    ("repro.userlib.messaging", "Sender.send_bytes"),
    ("repro.userlib.messaging", "Sender.send_buffer"),
    ("repro.userlib.messaging", "Sender.try_send"),
    ("repro.userlib.udma", "UdmaUser.transfer"),
    ("repro.userlib.udma", "UdmaUser.send_once"),
    ("repro.userlib.udma", "UdmaUser.initiate"),
    ("repro.cpu.cpu", "CPU.load"),
    ("repro.cpu.cpu", "CPU.store"),
    ("repro.cpu.cpu", "CPU.fence"),
    ("repro.cpu.cpu", "CPU.execute"),
    ("repro.cpu.cpu", "CPU.read_into"),
    ("repro.cpu.cpu", "CPU.write_bytes"),
    ("repro.core.controller", "UdmaController.io_store"),
    ("repro.core.controller", "UdmaController.io_load"),
    ("repro.core.controller", "UdmaController.fast_poll"),
    ("repro.dma.engine", "DmaEngine.start"),
    ("repro.mem.physmem", "PhysicalMemory.write"),
    ("repro.mem.physmem", "PhysicalMemory.read"),
    ("repro.mem.physmem", "PhysicalMemory.readinto"),
    ("repro.vm.mmu", "MMU.translate"),
    ("repro.vm.tlb", "TLB.note_context_switch"),
    ("repro.kernel.scheduler", "Scheduler.switch_to"),
    ("repro.kernel.syscalls", "SyscallInterface.alloc"),
    ("repro.kernel.syscalls", "SyscallInterface.grant_device_proxy"),
    ("repro.kernel.vm_manager", "VmManager.handle_fault"),
    ("repro.kernel.vm_manager", "VmManager.touch_resident"),
    ("repro.protection.base", "ProtectionBackend.decode"),
    ("repro.protection.base", "ProtectionBackend.nipt_changed"),
    ("repro.protection.proxy", "ProxyBackend.source_errors"),
    ("repro.protection.proxy", "ProxyBackend.dest_errors"),
    ("repro.net.nic", "ShrimpNic.dma_write"),
    ("repro.net.nic", "ShrimpNic.deliver"),
    ("repro.net.nic", "ShrimpNic.retransmit"),
    ("repro.net.interconnect", "Interconnect.route"),
    ("repro.net.reliable", "ReliabilityPlane.on_transmit"),
    ("repro.net.reliable", "ReliabilityPlane.on_ack"),
    ("repro.net.reliable", "ReliabilityPlane.on_data"),
    ("repro.net.reliable", "ReliabilityPlane.on_delivered"),
    ("repro.net.pool", "PacketPool.acquire"),
    ("repro.net.pool", "PacketPool.release"),
    ("repro.traffic.engine", "TrafficEngine._step"),
    ("repro.traffic.tenants", "TenantPlacement.build"),
    ("repro.traffic.tenants", "TenantPlacement.churn"),
    ("repro.sharding.engine", "InProcessEngine.run"),
    ("repro.sharding.shard", "Shard.run_until_blocked"),
    ("repro.sharding.shard", "Shard._execute_step"),
    ("repro.sharding.shard", "Shard.handoff"),
    ("repro.sharding.shard", "Shard.ingest"),
    ("repro.sharding.shard", "ShardInterconnect.route"),
)

#: entry points whose every call is a new request (one send attempt)
REQUEST_ENTRY_POINTS = frozenset({
    "Sender.send_buffer", "Sender.try_send", "Shard._execute_step",
})

#: scheduling calls: the callback (last argument) becomes an event span
SCHEDULERS: Tuple[Tuple[str, str], ...] = (
    ("repro.sim.clock", "Clock.schedule"),
    ("repro.sim.clock", "ShardClock.schedule_keyed"),
)

#: spans kept for the trace file; later spans still count in the totals
MAX_KEPT_SPANS = 300_000

SPAN_COLUMNS = ("id", "parent", "request", "layer", "name", "start_s", "dur_s", "self_s")


def layer_of(module: str) -> str:
    """``repro.net.nic`` -> ``net``; anything outside ``repro`` -> ``other``."""
    parts = module.split(".")
    return parts[1] if len(parts) > 1 and parts[0] == "repro" else "other"


def owner_of(callback: Callable) -> Tuple[str, str]:
    """(layer, name) of an event callback, from the object that owns it."""
    fn = callback
    while isinstance(fn, functools.partial):
        fn = fn.func
    owner = getattr(fn, "__self__", None)
    if owner is not None and not isinstance(owner, types.ModuleType):
        cls = type(owner)
        return layer_of(cls.__module__), f"{cls.__name__}.{fn.__name__}"
    return (
        layer_of(getattr(fn, "__module__", None) or ""),
        getattr(fn, "__qualname__", type(fn).__name__),
    )


class SpanRecorder:
    """In-memory spans plus running per-layer totals."""

    def __init__(self) -> None:
        self.t0 = perf_counter()
        self.spans: List[tuple] = []
        self.dropped = 0
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        #: per entry point: calls and calls that returned False (refusals)
        self.entry_calls: Dict[str, int] = defaultdict(int)
        self.entry_false: Dict[str, int] = defaultdict(int)
        self.missing: List[str] = []
        self._stack: List[list] = []
        self._ids = itertools.count(1)
        self._requests = itertools.count(1)

    def begin(self, layer: str, name: str, parent: int = -1, request: int = -1,
              new_request: bool = False) -> None:
        stack = self._stack
        top = stack[-1] if stack else None
        if parent < 0:
            parent = top[0] if top else 0
        if new_request:
            request = next(self._requests)
        elif request < 0:
            request = top[6] if top else 0
        stack.append([next(self._ids), layer, name, perf_counter(), 0.0, parent, request])

    def end(self) -> None:
        now = perf_counter()
        span_id, layer, name, start, covered, parent, request = self._stack.pop()
        duration = now - start
        own = duration - covered
        if self._stack:
            self._stack[-1][4] += duration
        self.self_s[layer] += own
        self.calls[layer] += 1
        if len(self.spans) < MAX_KEPT_SPANS:
            self.spans.append(
                (span_id, parent, request, layer, name, start - self.t0, duration, own)
            )
        else:
            self.dropped += 1

    def event(self, callback: Callable) -> Callable[[], None]:
        """Wrap an event callback so it fires as a span caused by the caller."""
        top = self._stack[-1] if self._stack else None
        parent = top[0] if top else 0
        request = top[6] if top else 0
        layer, name = owner_of(callback)

        def fire() -> None:
            self.begin(layer, name, parent, request)
            try:
                callback()
            finally:
                self.end()

        return fire

    def trace_document(self) -> dict:
        return {
            "missing_entry_points": self.missing,
            "dropped_spans": self.dropped,
            "columns": list(SPAN_COLUMNS),
            "spans": self.spans,
        }


def _call_wrapper(rec: SpanRecorder, fn: Callable, layer: str, name: str) -> Callable:
    new_request = name in REQUEST_ENTRY_POINTS

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec.begin(layer, name, new_request=new_request)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.end()
        rec.entry_calls[name] += 1
        if result is False:
            rec.entry_false[name] += 1
        return result

    return wrapper


def _schedule_wrapper(rec: SpanRecorder, fn: Callable, layer: str, name: str) -> Callable:
    @functools.wraps(fn)
    def wrapper(self, *args):
        # The event's cause is the caller, so wrap before opening our span.
        args = args[:-1] + (rec.event(args[-1]),)
        rec.begin(layer, name)
        try:
            return fn(self, *args)
        finally:
            rec.end()

    return wrapper


@contextmanager
def traced(rec: SpanRecorder) -> Iterator[SpanRecorder]:
    """Install the wrappers for the duration of the block."""
    patches = []
    wanted = [(m, q, _call_wrapper) for m, q in ENTRY_POINTS]
    wanted += [(m, q, _schedule_wrapper) for m, q in SCHEDULERS]
    try:
        for module_name, qualname, make in wanted:
            cls_name, attr = qualname.split(".")
            cls = getattr(importlib.import_module(module_name), cls_name, None)
            fn = cls.__dict__.get(attr) if cls is not None else None
            if not isinstance(fn, types.FunctionType):
                # Renamed or removed by a later change: its time now shows
                # up in the enclosing layer, and the trace file says so.
                rec.missing.append(f"{module_name}.{qualname}")
                continue
            patches.append((cls, attr, fn))
            setattr(cls, attr, make(rec, fn, layer_of(module_name), qualname))
        yield rec
    finally:
        for cls, attr, fn in reversed(patches):
            setattr(cls, attr, fn)

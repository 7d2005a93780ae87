"""Single-node assembly: CPU + MMU + kernel + UDMA + devices.

:class:`Machine` is the library's main entry point for single-node use.
It wires every substrate together with one shared clock and a consistent
address map, following Figure 4's structure:

* the CPU issues loads/stores through the MMU;
* accesses landing in proxy space hit the UDMA controller, which sits in
  front of a standard DMA engine;
* a second, traditional DMA controller provides the section-2 baseline;
* the kernel supplies scheduling (with the I1 hook), demand paging with
  the I2/I3 machinery, the I4 remap guard, and the syscall surface.

Example::

    from repro import Machine, MachineConfig
    from repro.devices import SinkDevice

    m = Machine(config=MachineConfig(mem_size=1 << 22))
    m.attach_device(SinkDevice("sink", size=1 << 16))
    p = m.create_process("app")
    ...
"""

from __future__ import annotations

from typing import List, Optional

from repro.config import MachineConfig
from repro.core.controller import UdmaController
from repro.core.queueing import QueuedUdmaController
from repro.cpu.cpu import CPU
from repro.devices.base import UDMADevice
from repro.dma.engine import DmaEngine
from repro.dma.traditional import TraditionalDmaController
from repro.errors import ConfigurationError
from repro.iommu import Iommu
from repro.kernel.kernel import Kernel
from repro.kernel.process import Process
from repro.mem.layout import DeviceWindow, Layout
from repro.mem.physmem import PhysicalMemory
from repro.obs import Observability, unflatten
from repro.params import shrimp
from repro.protection import ProtectionBackend, make_backend
from repro.sim.clock import Clock
from repro.vm.mmu import MMU


class Machine:
    """One simulated node.

    The front door is a typed config (see :mod:`repro.config` for every
    option)::

        from repro import Machine, MachineConfig

        m = Machine(config=MachineConfig(mem_size=1 << 21, iommu=True))

    Wiring parameters that name live objects owned by an enclosing
    assembly stay keyword arguments here:

    Args:
        config: a :class:`~repro.config.MachineConfig`; ``None`` builds
            the defaults.
        clock: share an existing clock (a cluster's); ``None`` builds a
            private one configured from ``config.reference``.
        name: node name (namespaces metrics and span sources).
    """

    def __init__(
        self,
        config: Optional[MachineConfig] = None,
        *,
        clock: Optional[Clock] = None,
        name: str = "node",
    ) -> None:
        if config is None:
            config = MachineConfig()
        elif not isinstance(config, MachineConfig):
            raise ConfigurationError(
                f"config must be a MachineConfig, got {type(config).__name__}"
            )
        self.config = config
        self.costs = config.costs if config.costs is not None else shrimp()
        self.name = name
        # A shared (cluster) clock arrives configured by its owner.
        self.clock = (
            clock if clock is not None else Clock(reference=config.reference)
        )
        obs = config.obs
        if isinstance(obs, Observability):
            # Shared plane (a cluster's): namespace this node's metrics.
            self.obs = obs
            self._obs_prefix = f"{name}."
        else:
            self.obs = Observability(obs, clock=self.clock)
            self._obs_prefix = ""
        self.obs.adopt_clock(self.clock)
        self._metrics_bound = False
        self.layout = Layout(
            mem_size=config.mem_size,
            scheme=config.scheme,
            page_size=self.costs.page_size,
        )
        self.physmem = PhysicalMemory(config.mem_size, self.costs.page_size)
        self.mmu = MMU(self.costs, clock=None)  # walk penalty charged via CPU path

        self.udma_engine = DmaEngine(
            self.clock, self.costs, name=f"{name}.udma-engine",
            burst_bytes=config.dma_burst_bytes,
        )
        backend = make_backend(config.protection)
        if config.queue_depth > 0:
            self.udma: UdmaController = QueuedUdmaController(
                self.layout,
                self.physmem,
                self.udma_engine,
                self.clock,
                queue_depth=config.queue_depth,
                name=f"{name}.udma",
                backend=backend,
            )
        else:
            self.udma = UdmaController(
                self.layout,
                self.physmem,
                self.udma_engine,
                self.clock,
                name=f"{name}.udma",
                backend=backend,
            )

        self.tdma_engine = DmaEngine(
            self.clock, self.costs, name=f"{name}.tdma-engine"
        )
        self.tdma = TraditionalDmaController(self.tdma_engine, name=f"{name}.tdma")

        self.cpu = CPU(
            self.clock,
            self.costs,
            self.mmu,
            self.layout,
            self.physmem,
            udma=self.udma,
        )
        if config.reference:
            self.cpu.xlat_enabled = False
            self.cpu.bulk_io_enabled = False
        self.kernel = Kernel(
            clock=self.clock,
            costs=self.costs,
            layout=self.layout,
            physmem=self.physmem,
            mmu=self.mmu,
            cpu=self.cpu,
            udma_controllers=[self.udma],
            tdma=self.tdma,
            replacement_policy=config.replacement_policy,
            i3_strategy=config.i3_strategy,
            guard_strategy=config.guard_strategy,
            bounce_frames=config.bounce_frames,
        )
        #: the virtual-address RDMA tier (:mod:`repro.iommu`); built only
        #: when the config asks for it -- ``None`` keeps every receive
        #: path byte-identical to the paper's physical-address NIC
        self.iommu: Optional[Iommu] = None
        iommu_config = config.iommu_config
        if iommu_config is not None:
            self.iommu = Iommu(
                iommu_config,
                clock=self.clock,
                costs=self.costs,
                kernel=self.kernel,
                name=f"{name}.iommu",
            )
        if self.obs.spans is not None:
            self.udma._spans = self.obs.spans
            self.udma_engine._spans = self.obs.spans
        self.swap_disk = None
        #: requested reliability setting; the plane itself is created
        #: lazily when the first NIC is attached (most machines have none)
        self._reliability_requested = config.reliability
        self.reliability = None
        if config.swap != "dict":
            self._attach_swap_disk(config.swap, config.bounce_frames)
        if self.obs.config.metrics:
            self._bind_metrics()

    def _attach_swap_disk(self, swap: str, bounce_frames: int) -> None:
        """Replace the dict backing store with a real swap disk.

        ``swap`` is ``"disk"`` (kernel pages through the traditional DMA
        engine) or ``"disk-system-queue"`` (kernel paging rides the
        section-7 system-priority queue of a queued UDMA device).
        """
        from repro.devices.disk import Disk
        from repro.kernel.swapdisk import DiskBackingStore

        if swap not in ("disk", "disk-system-queue"):
            raise ConfigurationError(f"unknown swap mode {swap!r}")
        if bounce_frames < 2:
            raise ConfigurationError(
                "a swap disk needs bounce_frames >= 2 (frame 1 stages pages)"
            )
        transport = "system-queue" if swap == "disk-system-queue" else "traditional"
        if transport == "system-queue" and not isinstance(
            self.udma, QueuedUdmaController
        ):
            raise ConfigurationError(
                "swap='disk-system-queue' requires a queued UDMA device "
                "(set queue_depth > 0)"
            )
        # Generously sized: four times RAM, in page-sized blocks.
        self.swap_disk = Disk(
            "swapdisk",
            num_blocks=(self.physmem.size * 4) // 512,
            block_size=512,
            seek_cycles=self.costs.disk_seek_cycles // 10,  # fast swap area
            bytes_per_cycle=self.costs.disk_bytes_per_cycle,
            alignment=4,
        )
        self.attach_device(self.swap_disk)
        store = DiskBackingStore(
            clock=self.clock,
            costs=self.costs,
            layout=self.layout,
            physmem=self.physmem,
            disk=self.swap_disk,
            udma=self.udma if transport == "system-queue" else None,
            transport=transport,
            tdma_engine=self.tdma_engine,
        )
        self.kernel.backing = store
        self.kernel.vm.backing = store

    # ------------------------------------------------------------ assembly
    def attach_device(self, device: UDMADevice) -> DeviceWindow:
        """Attach a device to the UDMA controller (reserves a proxy window)."""
        window = self.udma.attach_device(device)
        if self.obs.spans is not None:
            device._spans = self.obs.spans
        if hasattr(device, "attach_cpu"):
            # A bus snooper (the NIC's automatic update) taps this CPU's
            # stores while it has pages bound.
            device.attach_cpu(self.cpu)
        if self.iommu is not None and hasattr(device, "attach_iommu"):
            # The virtual-address RDMA tier: the NIC's receive DMA
            # translates through this node's IOMMU.
            device.attach_iommu(self.iommu)
        if self._reliability_requested and hasattr(device, "enable_reliability"):
            # A NIC on a reliability-enabled machine joins the machine's
            # plane (created on first need).
            if self.reliability is None:
                from repro.net.reliable import ReliabilityConfig, ReliabilityPlane

                requested = self._reliability_requested
                config = (
                    requested
                    if isinstance(requested, ReliabilityConfig)
                    else None
                )
                self.reliability = ReliabilityPlane(
                    config,
                    clock=self.clock,
                    spans=self.obs.spans,
                )
            device.enable_reliability(self.reliability)
        return window

    def set_protection(
        self, protection: "str | ProtectionBackend"
    ) -> ProtectionBackend:
        """Switch the UDMA protection backend on the live machine.

        Accepts the same spec strings as ``MachineConfig(protection=...)``
        (see :func:`repro.protection.make_backend`).  Devices and
        outstanding grants are replayed into the new backend and the
        host-side decode caches are flushed.
        """
        return self.udma.set_backend(make_backend(protection))

    @property
    def protection(self) -> ProtectionBackend:
        """The active UDMA protection backend."""
        return self.udma.backend

    # ------------------------------------------------------- observability
    def _bind_metrics(self) -> None:
        """Register this node's stable metric names over its live counters.

        Bindings are *sampled*: each counter/gauge reads the component's
        bare integer attribute only when a snapshot is taken, so the hot
        paths stay untouched.  The one recording instrument is the
        per-transfer latency histogram, handed to the UDMA controller
        (guarded there with ``if hist is not None``).  Names are stable
        API -- see ``tests/obs/test_metric_names_golden.py``.
        """
        if self._metrics_bound:
            return
        self._metrics_bound = True
        reg = self.obs.registry
        p = self._obs_prefix
        cpu, tlb = self.cpu, self.mmu.tlb
        vm = self.kernel.vm
        sched = self.kernel.scheduler
        sys = self.kernel.syscalls

        reg.counter(p + "cpu.instructions", cpu, "instructions")
        reg.counter(p + "cpu.loads", cpu, "loads")
        reg.counter(p + "cpu.stores", cpu, "stores")
        reg.counter(p + "cpu.charged_cycles", cpu, "charged_cycles")
        reg.counter(p + "cpu.xlat_hits", cpu, "xlat_hits")
        reg.counter(p + "cpu.xlat_misses", cpu, "xlat_misses")
        reg.counter(p + "cpu.xlat_fills", cpu, "xlat_fills")
        reg.counter(p + "tlb.hits", tlb, "hits")
        reg.counter(p + "tlb.misses", tlb, "misses")
        reg.gauge(p + "tlb.hit_rate", tlb, "hit_rate")
        reg.counter(p + "tlb.flushes", tlb, "flushes")
        reg.counter(p + "vm.faults", vm, "faults_handled")
        reg.counter(p + "vm.proxy_faults", vm, "proxy_faults")
        reg.counter(p + "vm.pages_in", vm, "pages_in")
        reg.counter(p + "vm.pages_out", vm, "pages_out")
        reg.counter(p + "vm.cleans", vm, "cleans")
        reg.counter(p + "vm.cleans_deferred", vm, "cleans_deferred")
        reg.counter(p + "vm.evictions_redirected", vm, "evictions_redirected")
        reg.counter(p + "scheduler.switches", sched, "switches")
        reg.counter(p + "scheduler.invals_fired", sched, "invals_fired")
        reg.counter(p + "syscalls.dma_calls", sys, "dma_calls")
        reg.counter(p + "syscalls.pages_pinned", sys, "pages_pinned")
        reg.counter(p + "syscalls.bytes_copied", sys, "bytes_copied")
        reg.counter(
            p + "udma.engine_transfers", self, "udma_engine.transfers_completed"
        )
        reg.counter(p + "udma.engine_bytes", self, "udma_engine.bytes_transferred")
        udma = self.udma
        if isinstance(udma, QueuedUdmaController):
            reg.counter(p + "udma.accepted", udma, "accepted")
            reg.counter(p + "udma.refused", udma, "refused")
            reg.gauge(p + "udma.backlog", udma, "backlog_requests")
        else:
            sm = udma.sm
            reg.counter(p + "udma.initiations", sm, "initiations")
            reg.counter(p + "udma.completions", sm, "completions")
            reg.counter(p + "udma.bad_loads", sm, "bad_loads")
            reg.counter(p + "udma.invals", sm, "invals")
        if self.iommu is not None:
            # IOMMU names exist only when the tier does: default machines
            # keep the historical metric name set bit-identical
            # (golden-file gated).
            io = self.iommu
            reg.counter(p + "iommu.translations", io, "translations")
            reg.counter(p + "iommu.iotlb_hits", io, "iotlb.hits")
            reg.counter(p + "iommu.iotlb_misses", io, "iotlb.misses")
            reg.counter(p + "iommu.delivered_direct", io, "delivered_direct")
            reg.counter(p + "iommu.delivered_replayed", io, "delivered_replayed")
            reg.counter(p + "iommu.faults_parked", io, "faults_parked")
            reg.counter(p + "iommu.faults_reparked", io, "faults_reparked")
            reg.counter(p + "iommu.aborted", io, "aborted")
            reg.gauge(p + "iommu.parked_now", io, "parked_count")
            reg.gauge(p + "iommu.windows", io, "table.windows")
        reg.gauge(p + "sim.now_cycles", self, "clock.now")
        reg.counter(p + "sim.events_fired", self, "clock.events_fired")
        self.udma._latency_hist = reg.histogram(
            p + "udma.transfer_cycles",
            help="initiation-to-completion latency per UDMA transfer",
        )

    def metrics(self) -> dict:
        """This node's counters, grouped by subsystem.

        The report is a nested view over the observability plane's registry
        (``m.obs.registry``), sampled at call time.
        """
        self._bind_metrics()
        return unflatten(
            self.obs.registry.snapshot(self._obs_prefix), strip=self._obs_prefix
        )

    # ------------------------------------------------------------- helpers
    def create_process(self, name: str) -> Process:
        """Create and schedule a process."""
        return self.kernel.create_process(name)

    def proxy(self, vaddr: int) -> int:
        """Virtual PROXY(): the address user code stores/loads to."""
        return self.layout.proxy(vaddr)

    def run_until_idle(self) -> None:
        """Drain all pending hardware events (DMA, packets...)."""
        self.clock.run_until_idle()

    @property
    def now(self) -> int:
        """Current cycle time."""
        return self.clock.now

    def us(self, cycles: int) -> float:
        """Convert cycles to microseconds under this machine's cost model."""
        return self.costs.cycles_to_us(cycles)

    def __repr__(self) -> str:
        return (
            f"<Machine {self.name!r} mem={self.physmem.size:#x} "
            f"udma={'queued' if isinstance(self.udma, QueuedUdmaController) else 'basic'}>"
        )

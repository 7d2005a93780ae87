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
from repro.obs import MetricTable, Observability, unflatten
from repro.params import shrimp
from repro.protection import ProtectionBackend, make_backend
from repro.sim.clock import Clock
from repro.vm.mmu import MMU


#: A node's sampled metrics, one table per component group (see
#: :meth:`Machine._bind_metrics`).  Names are stable API -- see
#: ``tests/obs/test_metric_names_golden.py``.
NODE_METRICS = MetricTable([
    ("cpu.instructions", "counter", "cpu", "instructions"),
    ("cpu.loads", "counter", "cpu", "loads"),
    ("cpu.stores", "counter", "cpu", "stores"),
    ("cpu.charged_cycles", "counter", "cpu", "charged_cycles"),
    ("cpu.xlat_hits", "counter", "cpu", "xlat_hits"),
    ("cpu.xlat_misses", "counter", "cpu", "xlat_misses"),
    ("cpu.xlat_fills", "counter", "cpu", "xlat_fills"),
    ("tlb.hits", "counter", "tlb", "hits"),
    ("tlb.misses", "counter", "tlb", "misses"),
    ("tlb.hit_rate", "gauge", "tlb", "hit_rate"),
    ("tlb.flushes", "counter", "tlb", "flushes"),
    ("vm.faults", "counter", "vm", "faults_handled"),
    ("vm.proxy_faults", "counter", "vm", "proxy_faults"),
    ("vm.pages_in", "counter", "vm", "pages_in"),
    ("vm.pages_out", "counter", "vm", "pages_out"),
    ("vm.cleans", "counter", "vm", "cleans"),
    ("vm.cleans_deferred", "counter", "vm", "cleans_deferred"),
    ("vm.evictions_redirected", "counter", "vm", "evictions_redirected"),
    ("scheduler.switches", "counter", "scheduler", "switches"),
    ("scheduler.invals_fired", "counter", "scheduler", "invals_fired"),
    ("syscalls.dma_calls", "counter", "syscalls", "dma_calls"),
    ("syscalls.pages_pinned", "counter", "syscalls", "pages_pinned"),
    ("syscalls.bytes_copied", "counter", "syscalls", "bytes_copied"),
    ("udma.engine_transfers", "counter", "machine",
     "udma_engine.transfers_completed"),
    ("udma.engine_bytes", "counter", "machine", "udma_engine.bytes_transferred"),
    ("sim.now_cycles", "gauge", "machine", "clock.now"),
    ("sim.events_fired", "counter", "machine", "clock.events_fired"),
])
#: the basic device's state machine
UDMA_METRICS = MetricTable([
    ("udma.initiations", "counter", "sm", "initiations"),
    ("udma.completions", "counter", "sm", "completions"),
    ("udma.bad_loads", "counter", "sm", "bad_loads"),
    ("udma.invals", "counter", "sm", "invals"),
])
#: the queued device (``queue_depth > 0``)
QUEUED_UDMA_METRICS = MetricTable([
    ("udma.accepted", "counter", "udma", "accepted"),
    ("udma.refused", "counter", "udma", "refused"),
    ("udma.backlog", "gauge", "udma", "backlog_requests"),
])
#: the virtual-address receive tier; its names exist only when it does
IOMMU_METRICS = MetricTable([
    ("iommu.translations", "counter", "iommu", "translations"),
    ("iommu.iotlb_hits", "counter", "iommu", "iotlb.hits"),
    ("iommu.iotlb_misses", "counter", "iommu", "iotlb.misses"),
    ("iommu.delivered_direct", "counter", "iommu", "delivered_direct"),
    ("iommu.delivered_replayed", "counter", "iommu", "delivered_replayed"),
    ("iommu.faults_parked", "counter", "iommu", "faults_parked"),
    ("iommu.faults_reparked", "counter", "iommu", "faults_reparked"),
    ("iommu.aborted", "counter", "iommu", "aborted"),
    ("iommu.parked_now", "gauge", "iommu", "parked_count"),
    ("iommu.windows", "gauge", "iommu", "table.windows"),
])


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
            private one.
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
        self.clock = clock if clock is not None else Clock()
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

    @property
    def protection(self) -> ProtectionBackend:
        """The UDMA protection backend, fixed by ``MachineConfig(protection=)``."""
        return self.udma.backend

    # ------------------------------------------------------- observability
    def _bind_metrics(self) -> None:
        """Bind this node's stable metric names over its live counters.

        Bindings are *sampled* table rows: each reads the component's
        bare integer attribute only when a snapshot is taken, so the hot
        paths stay untouched.  The one recording instrument is the
        per-transfer latency histogram, whose sample dict the UDMA
        controller counts into (guarded there with ``if samples is not
        None``).
        """
        if self._metrics_bound:
            return
        self._metrics_bound = True
        reg = self.obs.registry
        p = self._obs_prefix
        kernel = self.kernel
        reg.bind(
            p, NODE_METRICS, cpu=self.cpu, tlb=self.mmu.tlb, vm=kernel.vm,
            scheduler=kernel.scheduler, syscalls=kernel.syscalls, machine=self,
        )
        udma = self.udma
        if isinstance(udma, QueuedUdmaController):
            reg.bind(p, QUEUED_UDMA_METRICS, udma=udma)
        else:
            reg.bind(p, UDMA_METRICS, sm=udma.sm)
        if self.iommu is not None:
            reg.bind(p, IOMMU_METRICS, iommu=self.iommu)
        udma._latency_samples = reg.histogram(
            p + "udma.transfer_cycles",
            help="initiation-to-completion latency per UDMA transfer",
        ).samples

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

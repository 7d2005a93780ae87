"""Typed construction configs for :class:`Machine` and :class:`ShrimpCluster`.

The public construction surface had sprawled to ~20 ad-hoc keyword
arguments on both entry points.  This module is the redesigned front
door: one frozen dataclass per entry point, carrying every *configuration*
decision (cost model, proxy scheme, reference mode, observability, transport,
protection, IOMMU tier...), while *wiring* parameters that name live
objects owned by someone else -- ``clock``, ``name`` -- stay explicit
keyword arguments on the constructors.  Each decision has one field:
span tracing is ``obs=ObsConfig(spans=True)``, the queued device is
``queue_depth > 0``.

    from repro import Machine, MachineConfig

    m = Machine(config=MachineConfig(mem_size=1 << 21, protection="captable"))

The constructors take no configuration keywords of their own: a stray
``Machine(mem_size=...)`` raises Python's own ``TypeError``.  The
virtual-address RDMA tier is enabled here too: ``iommu=True`` (or an
:class:`IommuConfig`) on either config.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from repro.errors import ConfigurationError
from repro.kernel.remap_guard import GuardStrategy
from repro.kernel.vm_manager import I3_WRITE_PROTECT
from repro.mem.layout import ProxyScheme
from repro.params import CostModel


@dataclass(frozen=True)
class IommuConfig:
    """The virtual-address RDMA tier (see ``docs/VM_RDMA.md``).

    Attributes:
        iotlb_entries: capacity of the IOMMU's translation cache.
        fault_queue_depth: how many incoming transfers may be parked
            awaiting fault service at once; an arriving fault beyond
            this bound degrades to the classic abort (Inval/BadLoad
            outcome: the packet is refused and counted in
            ``rx_errors``).
        park_budget: how many times one transfer may re-park before it
            degrades to the abort outcome.  The service path maps the
            page in and replays atomically, so the budget is a
            defensive bound, not a steady-state mechanism.
    """

    iotlb_entries: int = 64
    fault_queue_depth: int = 16
    park_budget: int = 4

    def __post_init__(self) -> None:
        if self.iotlb_entries <= 0:
            raise ConfigurationError("iotlb_entries must be positive")
        if self.fault_queue_depth <= 0:
            raise ConfigurationError("fault_queue_depth must be positive")
        if self.park_budget <= 0:
            raise ConfigurationError("park_budget must be positive")

    @staticmethod
    def coerce(value: "bool | IommuConfig | None") -> "Optional[IommuConfig]":
        """Normalise the ``iommu=`` option: False/None off, True defaults."""
        if value is None or value is False:
            return None
        if value is True:
            return IommuConfig()
        if isinstance(value, IommuConfig):
            return value
        raise ConfigurationError(
            f"iommu must be a bool or IommuConfig, got {value!r}"
        )


@dataclass(frozen=True)
class MachineConfig:
    """Everything a :class:`~repro.machine.Machine` is configured by.

    Wiring parameters (``clock``, ``name``) are *not* here:
    they identify live objects owned by an enclosing assembly (a
    cluster's shared clock) and stay keyword arguments on ``Machine``.
    ``obs`` may be an :class:`~repro.obs.ObsConfig` (build a private
    plane) or a shared :class:`~repro.obs.Observability` instance.
    """

    costs: Optional[CostModel] = None
    mem_size: int = 1 << 22
    scheme: ProxyScheme = ProxyScheme.HIGH_BIT
    #: depth of the section-7 hardware request queue (0 = unqueued device)
    queue_depth: int = 0
    replacement_policy: str = "clock"
    i3_strategy: str = I3_WRITE_PROTECT
    guard_strategy: GuardStrategy = GuardStrategy.REGISTERS
    bounce_frames: int = 8
    dma_burst_bytes: int = 0
    swap: str = "dict"
    #: run without any host fast path (see :class:`ClusterConfig`)
    reference: bool = False
    obs: object = None
    reliability: object = None
    protection: object = None
    #: the virtual-address RDMA tier: False (default, bit-identical to a
    #: pre-IOMMU machine), True for defaults, or an :class:`IommuConfig`.
    iommu: "bool | IommuConfig" = False

    def replace(self, **overrides: object) -> "MachineConfig":
        """A copy with the given fields replaced."""
        return replace(self, **overrides)  # type: ignore[arg-type]

    @property
    def iommu_config(self) -> Optional[IommuConfig]:
        return IommuConfig.coerce(self.iommu)


@dataclass(frozen=True)
class ClusterConfig:
    """Everything a :class:`~repro.cluster.ShrimpCluster` is configured by.

    Per-node options mirror :class:`MachineConfig`; cluster-level options
    (topology, NIPT size, transport) live only here.  Use
    :meth:`node_config` to see the per-node projection the cluster
    constructs its machines from.
    """

    num_nodes: int = 4
    costs: Optional[CostModel] = None
    mem_size: int = 1 << 22
    nipt_entries: int = 1 << 12
    queue_depth: int = 0
    scheme: ProxyScheme = ProxyScheme.HIGH_BIT
    cut_through: bool = True
    topology: str = "linear"
    mesh_width: int = 0
    dma_burst_bytes: int = 0
    #: reference mode: no host fast path at all -- no translation cache,
    #: no page-run bulk I/O, no event free list, no packet pool, no
    #: send-plan pipelining.  Simulated results are bit-identical either
    #: way; the chaos ``fast-paths`` and ``shards`` twins diff the two.
    reference: bool = False
    obs: object = None
    reliability: object = None
    protection: object = None
    #: the virtual-address RDMA tier, applied to every node: NIPT entries
    #: name (asid, virtual page) instead of physical frames, receive
    #: buffers are not pinned, and receiver-side faults park-and-replay.
    iommu: "bool | IommuConfig" = False

    def replace(self, **overrides: object) -> "ClusterConfig":
        """A copy with the given fields replaced."""
        return replace(self, **overrides)  # type: ignore[arg-type]

    def node_config(self, obs: object = None) -> MachineConfig:
        """The per-node :class:`MachineConfig` projection.

        ``obs``/``reliability`` are intentionally not projected: the
        cluster owns one shared observability plane and one shared
        transport plane and wires them itself -- the plane by passing it
        here as ``obs`` (see :func:`repro.cluster.build_node`).
        """
        return MachineConfig(
            obs=obs,
            costs=self.costs,
            mem_size=self.mem_size,
            scheme=self.scheme,
            queue_depth=self.queue_depth,
            dma_burst_bytes=self.dma_burst_bytes,
            reference=self.reference,
            protection=self.protection,
            iommu=self.iommu,
        )

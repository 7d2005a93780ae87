"""Specifications for the sharded conservative-PDES cluster.

A :class:`ClusterSpec` describes a *self-driving* multi-node workload --
a Paragon-style mesh/torus of nodes, a ring of deliberate-update
channels, and a fixed per-node send schedule -- precisely enough that
any engine (single shard, K in-process shards, K worker processes) can
reconstruct the identical simulation from it.  The spec is plain data:
it crosses process boundaries by pickling and serialises to JSON for
failing-schedule artifacts.

The determinism contract hangs off two properties of the spec:

* **Deterministic construction.**  Every node is built by the same code
  path with the same parameters, so the physical frames backing each
  node's receive buffer are identical across nodes.  The sending side's
  NIPT entries can therefore name the *canonical* frames (probed from a
  template node) without ever touching the receiving node's shard --
  cross-shard packet handoff stays the only inter-shard channel.

* **Fixed lookahead.**  The minimum latency from a send on ``src`` to an
  arrival at ``dst`` is the dimension-ordered routing distance times
  ``hop_cycles``.  That constant is each link's *lookahead*: a shard may
  safely execute everything strictly earlier than its neighbours'
  promised next-operation time plus the lookahead.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Dict, List, Tuple

from repro.config import ClusterConfig
from repro.errors import ConfigurationError
from repro.params import CostModel, shrimp

#: gap before a failed (device-busy) initiation is retried, by the
#: sharded ring and by :class:`~repro.traffic.engine.TrafficEngine` alike
RETRY_GAP_CYCLES = 512


@dataclass(frozen=True)
class ClusterSpec:
    """One reproducible sharded-cluster workload.

    Attributes:
        num_nodes: cluster size (must fill the topology's rectangle).
        topology: ``"linear"``, ``"mesh2d"`` or ``"torus2d"``.
        mesh_width: columns of the 2D grid (0 = square).
        messages_per_node: sends each node performs.
        msg_bytes: payload bytes per message (one page max: each send is
            a single bounded two-instruction initiation).
        gap_cycles: nominal cycles between a node's sends.
        start_cycle: earliest first-send time.
        seed: perturbs per-node start offsets (schedule diversity for
            the differential suite).
        mem_size: per-node RAM.
        channel_pages: channel/buffer length in pages.
        nipt_entries: sender NIPT size (sized to the channel).
        reference: run every node without host fast paths (no
            translation cache, bulk I/O, packet pool or send plans).
            Exact: the simulation is bit-identical either way, which the
            chaos ``shards`` twin verifies.
        iommu: run every node with the virtual-address RDMA tier
            (:mod:`repro.iommu`): NIPT entries name (asid, virtual page)
            on the receiver, receive buffers start *cold* (allocated but
            not resident, never pinned), and the first delivery to each
            page takes the park / fault-service / replay path.  Park and
            replay are local clock events, so the determinism contract
            is unchanged: equal specs yield bit-identical artefacts at
            any shard count.
    """

    num_nodes: int = 64
    topology: str = "mesh2d"
    mesh_width: int = 0
    messages_per_node: int = 8
    msg_bytes: int = 2048
    gap_cycles: int = 6000
    start_cycle: int = 1000
    seed: int = 0
    mem_size: int = 96 * 4096
    channel_pages: int = 1
    nipt_entries: int = 16
    reference: bool = False
    iommu: bool = False

    def __post_init__(self) -> None:
        costs = shrimp()
        if self.num_nodes < 2:
            raise ConfigurationError(
                f"a sharded cluster needs >= 2 nodes, got {self.num_nodes}"
            )
        if not 4 <= self.msg_bytes <= costs.page_size:
            raise ConfigurationError(
                f"msg_bytes must be in [4, {costs.page_size}] so each send "
                f"is one bounded initiation, got {self.msg_bytes}"
            )
        if self.msg_bytes % 4:
            raise ConfigurationError(
                f"msg_bytes must be 4-byte aligned, got {self.msg_bytes}"
            )
        if self.messages_per_node < 1:
            raise ConfigurationError("messages_per_node must be >= 1")
        if self.gap_cycles < 1 or self.start_cycle < 0:
            raise ConfigurationError("gap_cycles/start_cycle out of range")

    def cluster_config(self) -> ClusterConfig:
        """The spec's nodes as a :class:`~repro.config.ClusterConfig`.

        Shards build their nodes from this projection, through the same
        :func:`repro.cluster.build_node` a :class:`~repro.cluster.ShrimpCluster`
        uses, so node ``k`` is configured identically in either world.
        """
        return ClusterConfig(
            num_nodes=self.num_nodes,
            costs=shrimp(),
            topology=self.topology,
            mesh_width=self.mesh_width,
            mem_size=self.mem_size,
            nipt_entries=self.nipt_entries,
            reference=self.reference,
            iommu=self.iommu,
        )

    # ------------------------------------------------------------ schedule
    def start_offset(self, node: int) -> int:
        """Deterministic per-node jitter of the first send (seed-mixed)."""
        h = (node * 2654435761 + self.seed * 97003 + 12345) & 0xFFFFFFFF
        return h % 997

    def dst_of(self, node: int) -> int:
        """The ring: node ``i`` sends to node ``i + 1`` (mod N)."""
        return (node + 1) % self.num_nodes

    def links(self) -> List[Tuple[int, int]]:
        """Every configured channel as a (src, dst) pair."""
        return [(i, self.dst_of(i)) for i in range(self.num_nodes)]

    def lookaheads(self, costs: "CostModel | None" = None) -> Dict[Tuple[int, int], int]:
        """Per-link lookahead: min wire latency = hops x hop_cycles."""
        from repro.net.interconnect import Interconnect
        from repro.sim.clock import Clock

        costs = costs if costs is not None else shrimp()
        probe = Interconnect(
            Clock(), costs, topology=self.topology, mesh_width=self.mesh_width
        )
        probe.validate_topology(self.num_nodes)
        return {
            (s, d): probe.hops(s, d) * costs.hop_cycles
            for (s, d) in self.links()
        }

    # --------------------------------------------------------- serialising
    def as_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ClusterSpec":
        return cls(**data)


@dataclass(frozen=True)
class ShardSpec:
    """One shard's slice of a :class:`ClusterSpec`.

    Attributes:
        index: shard number in [0, num_shards).
        num_shards: total shard count.
        nodes: node ids this shard owns (a contiguous block).
        rx_frames: canonical receive-buffer frames every node's identical
            construction yields (probed once from a template node); the
            sender side's NIPT entries name these without touching the
            receiving shard.
    """

    index: int
    num_shards: int
    nodes: Tuple[int, ...]
    rx_frames: Tuple[int, ...] = field(default=())


def partition(num_nodes: int, num_shards: int) -> List[Tuple[int, ...]]:
    """Contiguous, near-equal node blocks, one per shard."""
    if not 1 <= num_shards <= num_nodes:
        raise ConfigurationError(
            f"num_shards must be in [1, {num_nodes}], got {num_shards}"
        )
    base, extra = divmod(num_nodes, num_shards)
    blocks: List[Tuple[int, ...]] = []
    start = 0
    for j in range(num_shards):
        size = base + (1 if j < extra else 0)
        blocks.append(tuple(range(start, start + size)))
        start += size
    return blocks

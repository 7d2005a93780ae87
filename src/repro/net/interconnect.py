"""The routing backplane connecting SHRIMP nodes.

The real machine used an Intel Paragon routing backplane.  We model the
essentials: nodes live on a linear array of routers, a packet pays a
per-hop routing latency proportional to the Manhattan distance, and
delivery hands the encoded packet to the destination NIC's incoming FIFO.
Link serialisation is the *sender's* job (the NIC owns its wire), so the
backplane adds latency, not bandwidth limits.

Packets are normally carried as :class:`~repro.net.packet.Packet` objects
-- the zero-copy fast path, where the only per-byte work of a whole wire
transit is the receive DMA's single copy into destination physical memory.
When a fault injector is installed it sees the packet's wire bytes; bytes
it changed, duplicated or held back are decoded -- checksum and all -- at
the receiver, where real hardware would detect corruption, while bytes it
hands back untouched let the original packet ride on.  Raw wire bytes
handed directly to :meth:`Interconnect.route` always take the decode path.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Callable, Dict, Optional, Union

from repro.errors import ConfigurationError, NetworkError
from repro.net.packet import Packet
from repro.params import CostModel
from repro.sim.clock import Clock
from repro.sim.trace import NULL_TRACER, Tracer

#: what the backplane can carry: a packet object or encoded wire bytes
Wire = Union[Packet, bytes]


class Interconnect:
    """The backplane: routes encoded packets between registered NICs."""

    def __init__(
        self,
        clock: Clock,
        costs: CostModel,
        tracer: Tracer = NULL_TRACER,
        topology: str = "linear",
        mesh_width: int = 0,
    ) -> None:
        """``topology`` is ``"linear"`` (a row of routers), ``"mesh2d"``
        (the Paragon's 2D mesh, dimension-ordered routing) or
        ``"torus2d"`` (the mesh with wraparound links in both
        dimensions); for the 2D topologies, ``mesh_width`` gives the
        number of columns (0 = square, derived from the node count --
        see :meth:`validate_topology`)."""
        if topology not in ("linear", "mesh2d", "torus2d"):
            raise ConfigurationError(f"unknown topology {topology!r}")
        self.clock = clock
        self.costs = costs
        self.tracer = tracer
        self.topology = topology
        self.mesh_width = mesh_width
        #: rows of the 2D grid; pinned by :meth:`validate_topology`,
        #: otherwise derived from the registered node count on demand
        self._mesh_height: Optional[int] = None
        self._nics: Dict[int, "ReceiverPort"] = {}
        # Span tracker when the owning cluster traces spans (repro.obs).
        self._spans = None
        #: per-backplane packet/payload free lists (one per shard in the
        #: sharded kernel); ``None`` in reference mode: NICs allocate fresh
        self.packet_pool = None
        #: (src, dst) -> routing delay; topology and hop cost are fixed
        #: once nodes register, so the product is memoised per pair
        self._delay_cache: Dict["tuple[int, int]", int] = {}
        self.packets_routed = 0
        self.bytes_routed = 0
        self.packets_dropped = 0
        #: optional fault injector: wire bytes -> corrupted bytes, ``None``
        #: (the packet is dropped by the backplane), or a list of wire
        #: byte strings (each delivered in order -- duplication, and, with
        #: a stateful injector that holds packets back, reordering; list
        #: entries may themselves be ``None`` to drop just that copy)
        self.fault_injector: Optional[
            Callable[[bytes], "bytes | None | list[bytes | None]"]
        ] = None

    def register(self, node_id: int, port: "ReceiverPort") -> None:
        """Attach a node's NIC receive port."""
        if node_id in self._nics:
            raise ConfigurationError(f"node {node_id} already registered")
        self._nics[node_id] = port
        # Grid dimensions may be derived from the node count until
        # validate_topology pins them, so memoised distances go stale.
        self._delay_cache.clear()

    def validate_topology(self, num_nodes: int) -> None:
        """Check ``num_nodes`` fits the configured topology; pin the grid.

        The 2D topologies require a full rectangle: with ``mesh_width``
        given, ``num_nodes`` must be an exact multiple of it; with
        ``mesh_width == 0`` the grid is square and ``num_nodes`` must be
        a perfect square.  Rejections name the nearest valid node counts
        so a mis-sized cluster is a one-line fix.  On success the derived
        width/height are pinned, which also fixes the torus wraparound
        before any NIC registers.
        """
        if num_nodes < 1:
            raise ConfigurationError(
                f"a cluster needs at least one node, got {num_nodes}"
            )
        if self.topology == "linear":
            return
        width = self.mesh_width
        if width > 0:
            if num_nodes % width != 0:
                below = width * (num_nodes // width)
                above = below + width
                nearest = [
                    f"{n} nodes ({width}x{n // width})"
                    for n in (below, above)
                    if n > 0
                ]
                raise ConfigurationError(
                    f"{self.topology} with mesh_width={width} needs a full "
                    f"rectangle of nodes; {num_nodes} leaves a ragged last "
                    f"row (nearest valid: {' or '.join(nearest)})"
                )
            height = num_nodes // width
        else:
            root = math.isqrt(num_nodes)
            if root * root != num_nodes:
                below, above = root * root, (root + 1) * (root + 1)
                nearest = [
                    f"{n} nodes ({r}x{r})"
                    for n, r in ((below, root), (above, root + 1))
                    if n > 0
                ]
                raise ConfigurationError(
                    f"{self.topology} without mesh_width needs a square "
                    f"node count; got {num_nodes} "
                    f"(nearest valid: {' or '.join(nearest)})"
                )
            width = height = root
        self.mesh_width = width
        self._mesh_height = height
        self._delay_cache.clear()

    def _grid_dims(self) -> "tuple[int, int]":
        """(columns, rows) of the 2D grid, derived if not yet validated."""
        width = self.mesh_width
        if width <= 0:
            count = max(len(self._nics), 1)
            width = max(1, int(count ** 0.5))
        height = self._mesh_height
        if height is None or height <= 0:
            count = max(len(self._nics), 1)
            height = max(1, -(-count // width))
        return width, height

    def hops(self, src_node: int, dst_node: int) -> int:
        """Routing distance under the configured topology (minimum 1).

        Linear: a row of routers, distance = |src - dst|.  Mesh2d:
        dimension-ordered (X then Y) routing on a ``mesh_width``-column
        grid, the Paragon backplane's scheme.  Torus2d: the same grid
        with wraparound links, so each per-dimension distance is the
        shorter way around the ring.
        """
        if self.topology == "linear":
            return max(1, abs(src_node - dst_node))
        width, height = self._grid_dims()
        sx, sy = src_node % width, src_node // width
        dx, dy = dst_node % width, dst_node // width
        ddx, ddy = abs(sx - dx), abs(sy - dy)
        if self.topology == "torus2d":
            ddx = min(ddx, width - ddx)
            ddy = min(ddy, height - ddy)
        return max(1, ddx + ddy)

    def route_delay(self, src_node: int, dst_node: int) -> int:
        """Wire latency of one packet: ``hops * hop_cycles``, memoised."""
        pair = (src_node, dst_node)
        delay = self._delay_cache.get(pair)
        if delay is None:
            delay = self.hops(src_node, dst_node) * self.costs.hop_cycles
            self._delay_cache[pair] = delay
        return delay

    def route(self, src_node: int, dst_node: int, wire: Wire) -> None:
        """Inject a packet (object or wire bytes); delivery after routing delay.

        Packet objects ride the backplane as-is -- no serialisation, no
        copy.  A fault injector sees real wire bytes; when it returns that
        very (immutable) object the wire is unchanged and the packet rides
        on, so only changed, copied, duplicated or held bytes are decoded.

        The common case -- a packet, no injector, no spans, tracer off --
        is handled in this frame; everything else goes through
        :meth:`_route_one`, which charges the same counters.
        """
        port = self._nics.get(dst_node)
        if port is None:
            raise NetworkError(f"no node {dst_node} on the backplane")
        if (
            type(wire) is Packet
            and self.fault_injector is None
            and self._spans is None
            and not self.tracer.enabled
        ):
            delay = self._delay_cache.get((src_node, dst_node))
            if delay is None:
                delay = self.route_delay(src_node, dst_node)
            self.packets_routed += 1
            self.bytes_routed += Packet.HEADER_BYTES + len(wire.payload)
            self.clock.schedule(delay, partial(port.deliver, wire))
            return
        if self.fault_injector is not None:
            packet = wire
            if isinstance(wire, Packet):
                wire = wire.encode()
            produced = self.fault_injector(wire)
            if produced is wire:
                self._route_one(src_node, dst_node, packet)
                return
            # Normalise the injector's output to a list of copies; every
            # copy -- including a dropped one (``None``) -- goes through
            # ``_route_one``, the single place where drop and routing
            # counters are charged.  An injector that duplicates *and*
            # drops therefore charges each copy exactly once.
            pieces = (
                produced if isinstance(produced, (list, tuple)) else [produced]
            )
            for piece in pieces:
                self._route_one(src_node, dst_node, piece)
            return
        self._route_one(src_node, dst_node, wire)

    def _route_one(
        self, src_node: int, dst_node: int, wire: Optional[Wire]
    ) -> None:
        """Deliver one (possibly injector-produced) packet after routing delay.

        ``None`` means the fault injector dropped this copy: the drop is
        counted and traced here -- and only here -- so single-drop and
        drop-within-a-list injector outputs are charged identically.
        """
        if wire is None:
            self.packets_dropped += 1
            if self.tracer.enabled:
                self.tracer.emit(
                    self.clock.now, "net", "drop", src=src_node, dst=dst_node
                )
            return
        nbytes = wire.wire_bytes if isinstance(wire, Packet) else len(wire)
        delay = self.route_delay(src_node, dst_node)
        self.packets_routed += 1
        self.bytes_routed += nbytes
        port = self._nics[dst_node]
        if (
            self._spans is not None
            and isinstance(wire, Packet)
            and wire.span is not None
        ):
            self._spans.event(
                wire.span, "route", src=src_node, dst=dst_node, delay=delay
            )
        if self.tracer.enabled:
            self.tracer.emit(
                self.clock.now,
                "net",
                "route",
                src=src_node,
                dst=dst_node,
                bytes=nbytes,
                delay=delay,
            )
        # partial (not a lambda): delivery events must survive
        # snapshot/restore, and partials of bound methods pickle cleanly.
        self.clock.schedule(delay, partial(port.deliver, wire))

    @property
    def node_ids(self) -> "list[int]":
        """All registered node ids."""
        return sorted(self._nics)


class ReceiverPort:
    """Protocol-ish base for things the backplane can deliver to."""

    def deliver(self, wire: Wire) -> None:  # pragma: no cover - interface
        raise NotImplementedError

"""Collective operations over deliberate-update channels.

The paper motivates UDMA with multicomputer workloads whose communication
is fine-grained; collectives are the canonical library layer above
point-to-point message passing.  :class:`CollectiveGroup` wires a full
mesh of channels once (OS work), after which every collective is pure
user-level UDMA.

Message framing: each member owns one receive *slot* per peer inside its
channel buffers, and a one-word sequence flag written *after* the payload
orders delivery (packets on a channel are delivered in order, so the flag
word acts as the arrival barrier -- the idiom SHRIMP applications used).
"""

from __future__ import annotations

import struct
from typing import Dict, List, Sequence, Tuple

from repro.cluster import ShrimpCluster
from repro.errors import ConfigurationError, DmaError
from repro.kernel.process import Process
from repro.userlib.messaging import Receiver, Sender

_FLAG = struct.Struct("<I")


class CollectiveGroup:
    """An N-member group with mesh channels and collective operations.

    Args:
        cluster: the multicomputer.
        processes: one process per node, rank order == node order.
        slot_bytes: per-peer receive slot size (max message per collective
            step); rounded up to whole pages internally by the channels.
    """

    def __init__(
        self,
        cluster: ShrimpCluster,
        processes: Sequence[Process],
        slot_bytes: int = 8192,
    ) -> None:
        if len(processes) != cluster.num_nodes:
            raise ConfigurationError(
                f"need one process per node: {len(processes)} processes, "
                f"{cluster.num_nodes} nodes"
            )
        self.cluster = cluster
        self.processes = list(processes)
        self.size = cluster.num_nodes
        page = cluster.costs.page_size
        # Slot = payload area + one trailing flag page position; round the
        # whole slot to pages so channels stay page aligned.
        self.slot_bytes = -(-(slot_bytes + _FLAG.size) // page) * page
        self._senders: Dict[Tuple[int, int], Sender] = {}
        self._receivers: Dict[Tuple[int, int], Receiver] = {}
        self._recv_base: Dict[Tuple[int, int], int] = {}
        self._seq = 0
        self._build_mesh()

    # ------------------------------------------------------------ plumbing
    def _build_mesh(self) -> None:
        for dst in range(self.size):
            dst_proc = self.processes[dst]
            node = self.cluster.node(dst)
            # One contiguous receive arena with a slot per peer.
            arena = node.kernel.syscalls.alloc(
                dst_proc, self.slot_bytes * (self.size - 1)
            )
            slot = 0
            for src in range(self.size):
                if src == dst:
                    continue
                base = arena + slot * self.slot_bytes
                channel = self.cluster.create_channel(
                    src, dst, dst_proc, base, self.slot_bytes
                )
                self._senders[(src, dst)] = Sender(
                    self.cluster, self.processes[src], channel
                )
                self._receivers[(src, dst)] = Receiver(
                    self.cluster, dst_proc, channel
                )
                self._recv_base[(src, dst)] = base
                slot += 1

    def _payload_capacity(self) -> int:
        return self.slot_bytes - _FLAG.size

    def _send(self, src: int, dst: int, data: bytes, seq: int) -> None:
        if len(data) > self._payload_capacity():
            raise DmaError(
                f"collective payload of {len(data)} bytes exceeds the "
                f"{self._payload_capacity()}-byte slot"
            )
        sender = self._senders[(src, dst)]
        # Payload first, then the flag word: channel packets arrive in
        # order, so a visible flag implies a complete payload.
        framed = data + bytes(
            (-len(data)) % 4
        ) + _FLAG.pack(seq)
        sender.send_bytes(framed, channel_offset=0, wait=True)

    def _recv(self, src: int, dst: int, nbytes: int, seq: int) -> bytes:
        receiver = self._receivers[(src, dst)]
        receiver.drain()
        padded = nbytes + ((-nbytes) % 4)
        raw = receiver.recv_bytes(padded + _FLAG.size)
        flag = _FLAG.unpack(raw[padded:])[0]
        if flag != seq:
            raise DmaError(
                f"collective sequence mismatch on {src}->{dst}: "
                f"expected {seq}, found {flag}"
            )
        return raw[:nbytes]

    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    # ----------------------------------------------------------- operations
    def broadcast(self, root: int, data: bytes) -> List[bytes]:
        """Root sends ``data`` to every other member; returns each copy."""
        self._check_rank(root)
        seq = self._next_seq()
        for dst in range(self.size):
            if dst != root:
                self._send(root, dst, data, seq)
        out: List[bytes] = [b""] * self.size
        out[root] = data
        for dst in range(self.size):
            if dst != root:
                out[dst] = self._recv(root, dst, len(data), seq)
        return out

    def gather(self, root: int, contributions: Sequence[bytes]) -> List[bytes]:
        """Every member sends its contribution to root; returns the list.

        ``contributions[i]`` is rank i's payload (they may differ in
        length).
        """
        self._check_rank(root)
        if len(contributions) != self.size:
            raise ConfigurationError("one contribution per rank required")
        seq = self._next_seq()
        for src in range(self.size):
            if src != root:
                self._send(src, root, contributions[src], seq)
        gathered: List[bytes] = []
        for src in range(self.size):
            if src == root:
                gathered.append(contributions[root])
            else:
                gathered.append(self._recv(src, root, len(contributions[src]), seq))
        return gathered

    def reduce_sum(self, root: int, values: Sequence[Sequence[int]]) -> List[int]:
        """Element-wise int32 sum of per-rank vectors, at root."""
        width = len(values[0])
        if any(len(v) != width for v in values):
            raise ConfigurationError("all reduce vectors must have equal length")
        packed = [struct.pack(f"<{width}i", *v) for v in values]
        gathered = self.gather(root, packed)
        totals = [0] * width
        for blob in gathered:
            for i, value in enumerate(struct.unpack(f"<{width}i", blob)):
                totals[i] += value
        return totals

    def barrier(self) -> None:
        """Token-ring barrier: a token circulates 0 -> 1 -> ... -> 0 twice.

        Two laps make the barrier symmetric: after the second lap every
        member has proof that every other member reached the barrier.
        """
        token = b"BARR"
        for _ in range(2):
            seq = self._next_seq()
            for src in range(self.size):
                dst = (src + 1) % self.size
                self._send(src, dst, token, seq)
                received = self._recv(src, dst, len(token), seq)
                if received != token:
                    raise DmaError("barrier token corrupted")

    def _check_rank(self, rank: int) -> None:
        if not 0 <= rank < self.size:
            raise ConfigurationError(f"rank {rank} out of range 0..{self.size - 1}")

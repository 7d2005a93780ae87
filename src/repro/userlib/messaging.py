"""User-level message passing over deliberate-update channels.

"A user process sends a packet to another machine with a simple UDMA
transfer of the data from memory to the network interface device"
(section 8).  :class:`Sender` wraps exactly that: it owns a grant over the
channel's slice of the NIC's device-proxy window and a send buffer, and
each :meth:`Sender.send` is nothing but user-level UDMA initiations.

:class:`Receiver` is the passive side: data appears directly in its
buffer, written by the receive-side DMA with no receiver CPU involvement;
it reads the buffer through ordinary loads.
"""

from __future__ import annotations

from typing import Optional

from repro.cluster import Channel, ShrimpCluster
from repro.errors import DmaError
from repro.kernel.process import Process
from repro.userlib.udma import DeviceRef, MemoryRef, TransferStats, UdmaUser


class Sender:
    """The sending endpoint of a channel.

    Construction performs the one-time OS work (device-proxy grant and
    send-buffer allocation); after that, every send is kernel-free.
    """

    def __init__(
        self,
        cluster: ShrimpCluster,
        process: Process,
        channel: Channel,
        buffer_bytes: Optional[int] = None,
    ) -> None:
        self.cluster = cluster
        self.channel = channel
        self.process = process
        self.machine = cluster.node(channel.src_node)
        self.nic = cluster.nic(channel.src_node)
        kernel = self.machine.kernel
        # Grant only the channel's pages of the NIC window (least privilege).
        self.grant_base = kernel.syscalls.grant_device_proxy(
            process,
            self.nic.name,
            writable=True,
            pages=(channel.nipt_base, channel.npages),
        )
        nbytes = buffer_bytes if buffer_bytes is not None else channel.nbytes
        self.buffer = kernel.syscalls.alloc(process, nbytes)
        self.buffer_bytes = nbytes
        self.udma = UdmaUser(self.machine, process)
        # (nbytes, buffer_offset, channel_offset) -> (src ref, dst ref,
        # padded length): back-to-back sends of the same shape reuse one
        # validated endpoint pair, which also keeps the UDMA runtime's
        # plan cache hitting on identical keys.
        self._ref_memo: "dict[tuple, tuple]" = {}
        # Per-shape fast-lane plan handles (None: not plannable yet) and
        # one reusable cumulative stats object for try_send -- both
        # host-side only, so reuse cannot perturb the simulation.
        self._plan_memo: "dict[tuple, object]" = {}
        self._try_stats = TransferStats()

    def device_ref(self, channel_offset: int = 0) -> DeviceRef:
        """Device-proxy endpoint for a byte offset within the channel."""
        return DeviceRef(self.grant_base + channel_offset)

    def send_bytes(
        self, data: bytes, channel_offset: int = 0, wait: bool = True
    ) -> TransferStats:
        """Copy ``data`` into the send buffer, then UDMA it to the channel.

        The buffer fill uses ordinary stores (it is the application
        preparing its message); the network part is pure UDMA.
        """
        if len(data) > self.buffer_bytes:
            raise DmaError(
                f"message of {len(data)} bytes exceeds the "
                f"{self.buffer_bytes}-byte send buffer"
            )
        self._ensure_current()
        self.machine.cpu.write_bytes(self.buffer, data)
        return self.send_buffer(len(data), channel_offset=channel_offset, wait=wait)

    def send_buffer(
        self, nbytes: int, buffer_offset: int = 0, channel_offset: int = 0,
        wait: bool = True,
    ) -> TransferStats:
        """UDMA ``nbytes`` of the (already filled) send buffer.

        The NIC "transfers outgoing message data aligned on 4-byte
        boundaries" (section 8), so the runtime pads the transfer length
        up to the device alignment -- the padding bytes land in the
        channel past the message, which the channel sizing must allow.
        Offsets must already be aligned.
        """
        source, destination, padded = self._refs(
            nbytes, buffer_offset, channel_offset
        )
        self._ensure_current()
        return self.udma.transfer(
            source=source, destination=destination, nbytes=padded, wait=wait
        )

    def try_send(
        self, nbytes: int, buffer_offset: int = 0, channel_offset: int = 0
    ) -> bool:
        """One non-blocking send attempt of the (already filled) buffer.

        The event-driven traffic engine's primitive: returns True when the
        UDMA transfer started, False on a transient refusal (device still
        draining the previous message) -- the caller schedules its own
        retry instead of spinning.  Never coasts the clock, so it is safe
        to call from inside an event callback.
        """
        source, destination, padded = self._refs(
            nbytes, buffer_offset, channel_offset
        )
        self._ensure_current()
        key = (nbytes, buffer_offset, channel_offset)
        plan = self._plan_memo.get(key)
        if plan is None:
            plan = self._plan_memo[key] = self.udma.plan_for(
                source, destination, padded
            )
        return self.udma.send_once(
            source, destination, padded, stats=self._try_stats, plan=plan
        )

    def _refs(
        self, nbytes: int, buffer_offset: int, channel_offset: int
    ) -> "tuple[MemoryRef, DeviceRef, int]":
        key = (nbytes, buffer_offset, channel_offset)
        memo = self._ref_memo.get(key)
        if memo is not None:
            return memo
        if channel_offset + nbytes > self.channel.nbytes:
            raise DmaError(
                f"send of {nbytes} bytes at channel offset {channel_offset} "
                f"exceeds the {self.channel.nbytes}-byte channel"
            )
        align = self.nic.alignment or 1
        padded = -(-nbytes // align) * align
        if channel_offset + padded > self.channel.nbytes:
            padded = nbytes  # no room to pad; let the device report it
        memo = (
            MemoryRef(self.buffer + buffer_offset),
            self.device_ref(channel_offset),
            padded,
        )
        if len(self._ref_memo) < 1024:
            self._ref_memo[key] = memo
        return memo

    def _ensure_current(self) -> None:
        kernel = self.machine.kernel
        if kernel.current is not self.process:
            kernel.scheduler.switch_to(self.process)


class Receiver:
    """The receiving endpoint of a channel: a buffer the network writes."""

    def __init__(
        self,
        cluster: ShrimpCluster,
        process: Process,
        channel: Channel,
    ) -> None:
        self.cluster = cluster
        self.channel = channel
        self.process = process
        self.machine = cluster.node(channel.dst_node)
        self.nic = cluster.nic(channel.dst_node)

    def drain(self) -> None:
        """Let all in-flight packets land (coast the shared clock)."""
        self.cluster.run_until_idle()

    def recv_bytes(self, nbytes: int, offset: int = 0) -> bytes:
        """Read received data out of the buffer with ordinary loads.

        The receiver must run as the current process on its node (the
        caller switches if needed); data arrived without any CPU work.
        """
        kernel = self.machine.kernel
        if kernel.current is not self.process:
            kernel.scheduler.switch_to(self.process)
        return self.machine.cpu.read_bytes(self.channel.dst_vaddr + offset, nbytes)

    @property
    def packets_received(self) -> int:
        """Packets the node's NIC has delivered to memory so far."""
        return self.nic.packets_received

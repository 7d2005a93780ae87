"""Wire faults as data: ``(src_node, dst_node, n) -> (op, salt)``.

``n`` is a packet's ordinal on its directed lane, counted from the header
(the sharded backplane's ``chseq``), so an entry hits the same packet
whatever the traffic on other lanes.  ``corrupt`` inverts byte ``salt %
len`` of the wire image, ``drop`` loses the packet, ``dup`` delivers it
twice, ``reorder`` holds it until packet ``n + 1`` of its lane is routed
(whose own entry applies first).  Untouched packets are never encoded.
"""

from __future__ import annotations

import itertools
from typing import Dict, Optional, Tuple

from repro.errors import ConfigurationError
from repro.net.packet import Packet

#: the operations an entry can name
FAULT_OPS = ("corrupt", "drop", "dup", "reorder")


class FaultPlan:
    """The fault injector of one backplane; building it installs it."""

    def __init__(self, interconnect) -> None:
        self.interconnect = interconnect
        self.entries: Dict[Tuple[int, int, int], Tuple[str, int]] = {}
        #: lane -> packets routed on it so far (the next one's ordinal)
        self.routed: Dict[Tuple[int, int], int] = {}
        #: lane -> the packet a ``reorder`` holds back
        self.held: Dict[Tuple[int, int], Packet] = {}
        interconnect.fault_injector = self

    def add(
        self, src: int, dst: int, op: str, salt: int = 0, n: Optional[int] = None
    ) -> int:
        """Plan ``op`` for packet ``n`` of lane ``src -> dst`` (default:
        the first one not yet routed or planned); returns ``n``."""
        if op not in FAULT_OPS:
            raise ConfigurationError(f"unknown wire fault {op!r}")
        routed = self.routed.get((src, dst), 0)
        if n is None:
            n = next(k for k in itertools.count(routed)
                     if (src, dst, k) not in self.entries)
        elif n < routed:
            raise ConfigurationError(
                f"packet {n} of lane {src}->{dst} was already routed"
            )
        self.entries[(src, dst, n)] = (op, salt)
        return n

    def __call__(self, wire: Packet):
        lane = (wire.src_node, wire.dst_node)
        n = self.routed.get(lane, 0)
        self.routed[lane] = n + 1
        op, salt = self.entries.get(lane + (n,), (None, 0))
        held = self.held.pop(lane, None) if self.held else None
        if op is None:
            return wire if held is None else [wire, held]
        if op == "corrupt":
            data = bytearray(bytes(wire))
            data[salt % len(data)] ^= 0xFF
            out = [bytes(data)]
        elif op == "drop":
            out = [None]
        elif op == "dup":
            out = [wire, wire]
        else:
            self.held[lane] = wire
            out = []
        return out if held is None else out + [held]

    def run_until_idle(self) -> None:
        """Run the clock idle; route what is still held (its successor
        never came), charged as any packet, and run again until none is."""
        clock = self.interconnect.clock
        clock.run_until_idle()
        while self.held:
            held, self.held = self.held, {}
            for (src, dst), packet in held.items():
                self.interconnect._route_one(src, dst, packet)
            clock.run_until_idle()

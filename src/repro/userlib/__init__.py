"""User-level library: what an application links against.

* :mod:`repro.userlib.udma` -- the two-instruction initiation sequence,
  retry loops, page-boundary splitting and completion polling (the code a
  SHRIMP application's runtime library would contain).
* :mod:`repro.userlib.messaging` -- user-level message passing over
  deliberate-update channels.
* :mod:`repro.userlib.collectives` -- broadcast/gather/reduce/barrier
  built on mesh channels.
"""

from repro.userlib.collectives import CollectiveGroup
from repro.userlib.messaging import Receiver, Sender
from repro.userlib.ring import MessageRing, RingReceiver, RingSender
from repro.userlib.udma import DeviceRef, MemoryRef, TransferStats, UdmaUser

__all__ = [
    "CollectiveGroup",
    "MessageRing",
    "RingReceiver",
    "RingSender",
    "DeviceRef",
    "MemoryRef",
    "Receiver",
    "Sender",
    "TransferStats",
    "UdmaUser",
]

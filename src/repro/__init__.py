"""repro: a behavioural reproduction of *Protected, User-Level DMA for the
SHRIMP Network Interface* (Blumrich, Dubnicki, Felten, Li -- HPCA 1996).

The library simulates, end to end, the system the paper describes:

* the **UDMA mechanism** itself (:mod:`repro.core`) -- proxy address
  spaces, the two-instruction initiation sequence, the hardware state
  machine, the status word, and the section-7 queued extension;
* every **substrate** it depends on: a CPU and MMU with TLB and page
  tables (:mod:`repro.cpu`, :mod:`repro.vm`), physical memory and the
  proxy address map (:mod:`repro.mem`), classic DMA hardware
  (:mod:`repro.dma`), an operating-system kernel maintaining invariants
  I1-I4 (:mod:`repro.kernel`), a family of I/O devices
  (:mod:`repro.devices`), and the SHRIMP network -- NIPT, packetizing,
  FIFOs, backplane (:mod:`repro.net`);
* assembly helpers: a single node (:class:`repro.Machine`) and a
  multicomputer (:class:`repro.ShrimpCluster`);
* the **user-level runtime** applications link against
  (:mod:`repro.userlib`), and the **measurement harness** used by the
  paper-reproduction benches (:mod:`repro.bench`).

Quick start::

    from repro import ClusterConfig, ShrimpCluster, Sender, Receiver

    cluster = ShrimpCluster(config=ClusterConfig(num_nodes=2))
    rx_proc = cluster.node(1).create_process("rx")
    buf = cluster.node(1).kernel.syscalls.alloc(rx_proc, 8192)
    channel = cluster.create_channel(0, 1, rx_proc, buf, 8192)
    tx_proc = cluster.node(0).create_process("tx")
    sender = Sender(cluster, tx_proc, channel)
    sender.send_bytes(b"hello, remote memory!")
    Receiver(cluster, rx_proc, channel).drain()
"""

from repro.cluster import Channel, ShrimpCluster
from repro.config import ClusterConfig, IommuConfig, MachineConfig
from repro.core import (
    QueuedUdmaController,
    UdmaController,
    UdmaState,
    UdmaStatus,
)
from repro.machine import Machine
from repro.obs import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Observability,
    ObsConfig,
    Span,
    SpanTracker,
)
from repro.params import CostModel, hippi_paragon, shrimp
from repro.userlib import DeviceRef, MemoryRef, Receiver, Sender, UdmaUser

__version__ = "1.0.0"

__all__ = [
    "Channel",
    "ClusterConfig",
    "CostModel",
    "Counter",
    "DeviceRef",
    "Gauge",
    "Histogram",
    "IommuConfig",
    "Machine",
    "MachineConfig",
    "MemoryRef",
    "MetricsRegistry",
    "ObsConfig",
    "Observability",
    "QueuedUdmaController",
    "Receiver",
    "Sender",
    "ShrimpCluster",
    "Span",
    "SpanTracker",
    "UdmaController",
    "UdmaState",
    "UdmaStatus",
    "UdmaUser",
    "hippi_paragon",
    "shrimp",
    "__version__",
]

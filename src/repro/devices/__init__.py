"""I/O devices that accept UDMA transfers.

The paper claims UDMA "can be used with a wide variety of I/O devices
including network interfaces, data storage devices such as disks and tape
drives, and memory-mapped devices such as graphics frame-buffers"
(abstract).  This package provides that variety; the SHRIMP network
interface lives in :mod:`repro.net`.
"""

from repro.devices.audio import AudioDevice
from repro.devices.base import (
    ERR_ALIGNMENT,
    ERR_RANGE,
    ERR_READONLY,
    ERR_DEVICE_BASE,
    UDMADevice,
)
from repro.devices.disk import Disk
from repro.devices.framebuffer import FrameBuffer
from repro.devices.sink import SinkDevice

__all__ = [
    "AudioDevice",
    "Disk",
    "ERR_ALIGNMENT",
    "ERR_DEVICE_BASE",
    "ERR_RANGE",
    "ERR_READONLY",
    "FrameBuffer",
    "SinkDevice",
    "UDMADevice",
]

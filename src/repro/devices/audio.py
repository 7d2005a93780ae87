"""A streaming audio playback device.

The paper lists "audio and video devices" among UDMA's targets (section
1).  Audio adds a property the other devices lack: a *real-time
consumption rate*.  The device drains its ring buffer continuously while
playing; if the application cannot refill it fast enough -- for example
because each refill pays a traditional-DMA syscall -- the output
underruns.  The audio example and tests use this to show fine-grained,
low-overhead refills are exactly what UDMA provides.

Device-proxy interpretation: the offset is the *stream position* in
bytes.  Writes must be sequential (an append-only stream), which
exercises a device-specific error bit beyond the usual alignment check.
"""

from __future__ import annotations

from repro.devices.base import ERR_DEVICE_BASE, UDMADevice
from repro.errors import DeviceError

#: device-specific error: write not at the current stream position
ERR_NOT_SEQUENTIAL = ERR_DEVICE_BASE


class AudioDevice(UDMADevice):
    """A playback device consuming buffered samples at a fixed rate.

    Args:
        stream_bytes: size of the device-proxy window = maximum stream
            length addressable (positions wrap is not modelled; streams
            are bounded, like a sample being played).
        ring_bytes: size of the device's internal sample buffer.
        bytes_per_cycle: playback consumption rate.  44.1 kHz stereo
            16-bit audio is ~176 KB/s; at 60 MHz that is ~3e-3 B/cycle.
    """

    def __init__(
        self,
        name: str = "audio",
        stream_bytes: int = 1 << 20,
        ring_bytes: int = 16384,
        bytes_per_cycle: float = 0.003,
        alignment: int = 4,
    ) -> None:
        super().__init__(name, proxy_size=stream_bytes, alignment=alignment)
        if ring_bytes <= 0 or bytes_per_cycle <= 0:
            raise DeviceError(f"{name}: ring and rate must be positive")
        self.ring_bytes = ring_bytes
        self.bytes_per_cycle = bytes_per_cycle
        self._playing = False
        self._buffered = 0
        self._stream_position = 0
        self._last_drain_time = 0
        self._played = bytearray()
        self._pending = bytearray()
        self._starved = False
        self._underruns = 0
        self._drain_debt = 0.0  # fractional bytes carried between drains

    # ------------------------------------------------------------ playback
    def play(self) -> None:
        """Start consuming buffered samples."""
        self._drain_to_now()
        self._playing = True

    def pause(self) -> None:
        """Stop consuming (buffer holds)."""
        self._drain_to_now()
        self._playing = False

    @property
    def buffered_bytes(self) -> int:
        """Bytes currently queued in the ring (after draining to now)."""
        self._drain_to_now()
        return self._buffered

    @property
    def bytes_played(self) -> int:
        """Bytes that have reached the speaker (after draining to now)."""
        self._drain_to_now()
        return len(self._played)

    @property
    def underruns(self) -> int:
        """Starvation periods observed so far (after draining to now)."""
        self._drain_to_now()
        return self._underruns

    def played_data(self) -> bytes:
        """Every byte that has reached the speaker so far."""
        self._drain_to_now()
        return bytes(self._played)

    # ----------------------------------------------------------- DMA hooks
    def dma_read(self, offset: int, nbytes: int) -> bytes:
        raise DeviceError(f"{self.name}: audio playback is write-only")

    def dma_write(self, offset: int, data: bytes) -> None:
        self._drain_to_now()
        if offset != self._stream_position:
            raise DeviceError(
                f"{self.name}: non-sequential write at {offset} "
                f"(stream position is {self._stream_position})"
            )
        if self._buffered + len(data) > self.ring_bytes:
            raise DeviceError(
                f"{self.name}: ring overflow ({self._buffered}+{len(data)} "
                f"> {self.ring_bytes})"
            )
        self._pending += data
        self._buffered += len(data)
        self._stream_position += len(data)
        self._starved = False  # refilled; a new starvation counts afresh

    def check_transfer(self, as_source: bool, offset: int, nbytes: int) -> int:
        errors = super().check_transfer(as_source, offset, nbytes)
        if as_source:
            errors |= ERR_NOT_SEQUENTIAL  # write-only device
            return errors
        self._drain_to_now()
        if offset != self._stream_position:
            errors |= ERR_NOT_SEQUENTIAL
        return errors

    # ------------------------------------------------------------ internal
    def _drain_to_now(self) -> None:
        """Advance playback state to the current clock time (lazy model)."""
        if self.clock is None:
            return
        now = self.clock.now
        if not self._playing:
            self._last_drain_time = now
            return
        elapsed = now - self._last_drain_time
        self._last_drain_time = now
        want_exact = elapsed * self.bytes_per_cycle + self._drain_debt
        want = int(want_exact)
        self._drain_debt = want_exact - want
        if want <= 0:
            return
        take = min(want, self._buffered)
        if take:
            self._played += self._pending[:take]
            del self._pending[:take]
            self._buffered -= take
        if want > take and not self._starved:
            # The speaker wanted samples the buffer did not have; one
            # underrun per starvation period, not per query.
            self._starved = True
            self._underruns += 1

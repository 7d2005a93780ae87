"""Physical frame allocator.

The kernel owns one :class:`FrameAllocator` per node.  It hands out frame
numbers for process pages, tracks pinned frames (used only by the
*traditional* DMA baseline -- the whole point of UDMA is that its transfers
never pin), and knows which frames are free for the page-replacement path.
"""

from __future__ import annotations

from typing import List, Optional, Set

from repro.errors import ConfigurationError, DmaError


class FrameAllocator:
    """Bump-pointer allocator over ``num_frames`` physical frames.

    The most recently freed frame is handed out first, then the lowest
    frame never used; host memory grows with the frames a run touches,
    not with the size of RAM.  Frames below ``reserved`` are never handed
    out; the kernel keeps them for its own structures (and the
    traditional-DMA bounce buffers).
    """

    def __init__(self, num_frames: int, reserved: int = 0) -> None:
        if num_frames <= 0:
            raise ConfigurationError(f"num_frames must be positive, got {num_frames}")
        if not 0 <= reserved < num_frames:
            raise ConfigurationError(
                f"reserved frame count {reserved} out of range [0, {num_frames})"
            )
        self.num_frames = num_frames
        self.reserved = reserved
        self._next = reserved  # lowest frame never handed out
        self._freed: List[int] = []  # returned frames, most recent last
        self._allocated: Set[int] = set()
        self._pinned: Set[int] = set()

    # ---------------------------------------------------------- allocation
    @property
    def available(self) -> int:
        """Number of frames currently free."""
        return len(self._freed) + self.num_frames - self._next

    def alloc(self) -> Optional[int]:
        """Allocate one frame, or None if memory is exhausted.

        The caller (the kernel VM manager) reacts to None by running page
        replacement and retrying.
        """
        if self._freed:
            frame = self._freed.pop()
        elif self._next < self.num_frames:
            frame = self._next
            self._next += 1
        else:
            return None
        self._allocated.add(frame)
        return frame

    def free(self, frame: int) -> None:
        """Return a frame to the free list."""
        if frame not in self._allocated:
            raise ConfigurationError(f"frame {frame} is not allocated")
        if frame in self._pinned:
            raise DmaError(f"cannot free pinned frame {frame}")
        self._allocated.discard(frame)
        self._freed.append(frame)

    def is_allocated(self, frame: int) -> bool:
        """True if the frame is currently handed out."""
        return frame in self._allocated

    # ------------------------------------------------------------- pinning
    # Pinning exists solely for the traditional-DMA baseline of section 2.
    # UDMA replaces it with the I4 register/queue check (section 6).
    def pin(self, frame: int) -> None:
        """Pin an allocated frame against replacement."""
        if frame not in self._allocated:
            raise DmaError(f"cannot pin unallocated frame {frame}")
        self._pinned.add(frame)

    def unpin(self, frame: int) -> None:
        """Release a pin."""
        if frame not in self._pinned:
            raise DmaError(f"frame {frame} is not pinned")
        self._pinned.discard(frame)

    def is_pinned(self, frame: int) -> bool:
        """True while the frame is pinned."""
        return frame in self._pinned

    @property
    def pinned_count(self) -> int:
        """Number of currently pinned frames."""
        return len(self._pinned)

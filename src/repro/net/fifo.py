"""Bounded byte-accounted FIFOs (the Outgoing/Incoming FIFOs of Figure 6)."""

from __future__ import annotations

from collections import deque
from typing import Deque, Generic, Optional, TypeVar

from repro.errors import ConfigurationError, NetworkError
from repro.snapshot.protocol import SnapshotMixin

T = TypeVar("T")


class BoundedFifo(SnapshotMixin, Generic[T]):
    """A FIFO of items with a byte budget.

    Items must expose a ``wire_bytes`` attribute (packets do); plain
    byte-strings are also accepted and use their length.  A caller that
    already knows an item's size passes it to :meth:`push`.
    """

    def __init__(self, capacity_bytes: int, name: str = "fifo") -> None:
        if capacity_bytes <= 0:
            raise ConfigurationError(
                f"{name}: capacity must be positive, got {capacity_bytes}"
            )
        self.capacity_bytes = capacity_bytes
        self.name = name
        self._items: Deque[T] = deque()
        # Sizes are computed once at push and remembered (parallel deque),
        # so pop never re-measures an item -- packets compute wire_bytes
        # lazily and FIFO churn is on the per-packet hot path.
        self._item_sizes: Deque[int] = deque()
        self.used_bytes = 0
        self.high_water = 0
        self.overruns = 0

    @staticmethod
    def _size(item: object) -> int:
        size = getattr(item, "wire_bytes", None)
        if size is None:
            size = len(item)  # type: ignore[arg-type]
        return int(size)

    def can_accept(self, item: T) -> bool:
        """True if pushing ``item`` would not overflow."""
        return self.used_bytes + self._size(item) <= self.capacity_bytes

    def push(self, item: T, size: Optional[int] = None) -> None:
        """Append an item; raises :class:`NetworkError` on overflow.

        ``size`` is the item's byte size when the caller has it already;
        otherwise the FIFO measures the item.
        """
        if size is None:
            size = self._size(item)
        if self.used_bytes + size > self.capacity_bytes:
            self.overruns += 1
            raise NetworkError(
                f"{self.name}: overflow pushing {size} bytes "
                f"({self.used_bytes}/{self.capacity_bytes} used)"
            )
        self._items.append(item)
        self._item_sizes.append(size)
        self.used_bytes += size
        if self.used_bytes > self.high_water:
            self.high_water = self.used_bytes

    def pop(self) -> T:
        """Remove and return the head item."""
        if not self._items:
            raise NetworkError(f"{self.name}: pop from empty FIFO")
        item = self._items.popleft()
        self.used_bytes -= self._item_sizes.popleft()
        return item

    def peek(self) -> Optional[T]:
        """The head item without removing it, or None."""
        return self._items[0] if self._items else None

    @property
    def empty(self) -> bool:
        return not self._items

    def __len__(self) -> int:
        return len(self._items)

"""Tests for the frame allocator."""

import pytest

from repro.errors import ConfigurationError, DmaError
from repro.mem.frames import FrameAllocator


class TestAllocation:
    def test_allocates_distinct_frames(self):
        alloc = FrameAllocator(8)
        frames = [alloc.alloc() for _ in range(8)]
        assert len(set(frames)) == 8
        assert all(f is not None for f in frames)

    def test_exhaustion_returns_none(self):
        alloc = FrameAllocator(2)
        alloc.alloc()
        alloc.alloc()
        assert alloc.alloc() is None

    def test_free_makes_frame_reusable(self):
        alloc = FrameAllocator(1)
        frame = alloc.alloc()
        alloc.free(frame)
        assert alloc.alloc() == frame

    def test_available_tracks_free_count(self):
        alloc = FrameAllocator(4, reserved=1)
        assert alloc.available == 3
        alloc.alloc()
        assert alloc.available == 2

    def test_reserved_frames_never_handed_out(self):
        alloc = FrameAllocator(4, reserved=2)
        frames = {alloc.alloc() for _ in range(2)}
        assert frames == {2, 3}

    def test_double_free_rejected(self):
        alloc = FrameAllocator(2)
        frame = alloc.alloc()
        alloc.free(frame)
        with pytest.raises(ConfigurationError):
            alloc.free(frame)

    def test_order_is_most_recently_freed_then_lowest_unused(self):
        alloc = FrameAllocator(8, reserved=1)
        a, b, c = alloc.alloc(), alloc.alloc(), alloc.alloc()
        assert (a, b, c) == (1, 2, 3)
        alloc.free(a)
        alloc.free(c)
        assert alloc.available == 6
        assert [alloc.alloc() for _ in range(4)] == [c, a, 4, 5]

    def test_is_allocated(self):
        alloc = FrameAllocator(2)
        frame = alloc.alloc()
        assert alloc.is_allocated(frame)
        alloc.free(frame)
        assert not alloc.is_allocated(frame)

    def test_bad_construction(self):
        with pytest.raises(ConfigurationError):
            FrameAllocator(0)
        with pytest.raises(ConfigurationError):
            FrameAllocator(4, reserved=4)


class TestPinning:
    def test_pin_blocks_free(self):
        alloc = FrameAllocator(2)
        frame = alloc.alloc()
        alloc.pin(frame)
        with pytest.raises(DmaError):
            alloc.free(frame)

    def test_unpin_allows_free(self):
        alloc = FrameAllocator(2)
        frame = alloc.alloc()
        alloc.pin(frame)
        alloc.unpin(frame)
        alloc.free(frame)
        assert not alloc.is_allocated(frame)

    def test_pin_unallocated_rejected(self):
        alloc = FrameAllocator(2)
        with pytest.raises(DmaError):
            alloc.pin(1)

    def test_unpin_unpinned_rejected(self):
        alloc = FrameAllocator(2)
        frame = alloc.alloc()
        with pytest.raises(DmaError):
            alloc.unpin(frame)

    def test_pinned_count(self):
        alloc = FrameAllocator(4)
        a, b = alloc.alloc(), alloc.alloc()
        alloc.pin(a)
        alloc.pin(b)
        assert alloc.pinned_count == 2
        alloc.unpin(a)
        assert alloc.pinned_count == 1

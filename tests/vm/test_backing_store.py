"""Tests for the backing store."""

import pytest

from repro.errors import ConfigurationError
from repro.vm.backing_store import BackingStore

PAGE = 4096


@pytest.fixture
def store():
    return BackingStore(PAGE)


class TestBackingStore:
    def test_save_load_roundtrip(self, store):
        data = bytes(range(256)) * 16
        store.save(1, 5, data)
        assert store.load(1, 5) == data

    def test_load_missing_returns_none(self, store):
        assert store.load(1, 5) is None

    def test_has(self, store):
        store.save(1, 5, bytes(PAGE))
        assert store.has(1, 5)
        assert not store.has(1, 6)
        assert not store.has(2, 5)

    def test_partial_page_rejected(self, store):
        with pytest.raises(ConfigurationError):
            store.save(1, 5, b"short")

    def test_save_overwrites(self, store):
        store.save(1, 5, bytes(PAGE))
        store.save(1, 5, b"\x01" * PAGE)
        assert store.load(1, 5) == b"\x01" * PAGE

    def test_io_counters(self, store):
        store.save(1, 5, bytes(PAGE))
        store.load(1, 5)
        store.load(1, 6)  # miss does not count as a read
        assert store.writes == 1 and store.reads == 1

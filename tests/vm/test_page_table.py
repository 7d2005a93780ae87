"""Tests for per-process page tables."""

import pytest

from repro.errors import ConfigurationError
from repro.vm.page_table import PageTable


@pytest.fixture
def table():
    return PageTable(4096, name="test")


class TestMapping:
    def test_map_and_get(self, table):
        table.map(5, 10)
        pte = table.get(5)
        assert pte is not None and pte.pfn == 10

    def test_get_missing_returns_none(self, table):
        assert table.get(99) is None

    def test_contains(self, table):
        table.map(1, 2)
        assert 1 in table
        assert 2 not in table

    def test_map_replaces_existing(self, table):
        table.map(1, 2)
        table.map(1, 3)
        assert table.get(1).pfn == 3

    def test_unmap_returns_old_pte(self, table):
        table.map(1, 2)
        old = table.unmap(1)
        assert old.pfn == 2
        assert table.get(1) is None

    def test_unmap_missing_returns_none(self, table):
        assert table.unmap(42) is None

    def test_map_with_permissions(self, table):
        pte = table.map(1, 2, writable=False, user=False)
        assert not pte.writable and not pte.user

    def test_len(self, table):
        table.map(1, 1)
        table.map(2, 2)
        assert len(table) == 2


class TestFlagEdits:
    def test_set_present(self, table):
        table.map(1, 2)
        table.set_present(1, False)
        assert not table.get(1).present

    def test_set_writable(self, table):
        table.map(1, 2)
        table.set_writable(1, False)
        assert not table.get(1).writable

    def test_clear_dirty(self, table):
        table.map(1, 2)
        table.get(1).dirty = True
        table.clear_dirty(1)
        assert not table.get(1).dirty

    def test_clear_referenced(self, table):
        table.map(1, 2)
        table.get(1).referenced = True
        table.clear_referenced(1)
        assert not table.get(1).referenced

    def test_edit_of_missing_entry_rejected(self, table):
        with pytest.raises(ConfigurationError):
            table.set_present(9, True)


class TestGeneration:
    def test_generation_bumps_on_structural_change(self, table):
        g0 = table.generation
        table.map(1, 1)
        assert table.generation > g0

    def test_generation_bumps_on_permission_change(self, table):
        table.map(1, 1)
        g0 = table.generation
        table.set_writable(1, False)
        assert table.generation > g0

    def test_bad_page_size_rejected(self):
        with pytest.raises(ConfigurationError):
            PageTable(1000)

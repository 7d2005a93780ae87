"""Tests for page-table entries."""

from repro.vm.pte import PTE


class TestPTE:
    def test_defaults(self):
        pte = PTE(pfn=5)
        assert pte.present and pte.writable and pte.user
        assert not pte.dirty and not pte.referenced

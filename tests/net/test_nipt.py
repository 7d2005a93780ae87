"""Tests for the Network Interface Page Table."""

import pytest

from repro.errors import ConfigurationError, NetworkError, SyscallError
from repro.net.nipt import (
    DEFAULT_NIPT_ENTRIES,
    NetworkInterfacePageTable,
    NiptEntry,
)


class TestNipt:
    def test_paper_size_is_32k(self):
        # "Since the NIPT is indexed with 15 bits, it can hold 32K
        # different destination pages."
        assert DEFAULT_NIPT_ENTRIES == 32768
        nipt = NetworkInterfacePageTable()
        nipt.set_entry(32767, 1, 5)
        with pytest.raises(ConfigurationError):
            nipt.set_entry(32768, 1, 5)

    def test_set_and_lookup(self):
        nipt = NetworkInterfacePageTable(16)
        nipt.set_entry(3, dst_node=2, dst_page=0x44)
        entry = nipt.lookup(3)
        assert entry.dst_node == 2 and entry.dst_page == 0x44

    def test_lookup_invalid_returns_none(self):
        assert NetworkInterfacePageTable(16).lookup(0) is None

    def test_require_raises_on_invalid(self):
        with pytest.raises(NetworkError):
            NetworkInterfacePageTable(16).require(0)

    def test_clear_entry(self):
        nipt = NetworkInterfacePageTable(16)
        nipt.set_entry(1, 0, 0)
        nipt.clear_entry(1)
        assert nipt.lookup(1) is None

    def test_clear_absent_is_noop(self):
        NetworkInterfacePageTable(16).clear_entry(5)

    def test_valid_entries_count(self):
        nipt = NetworkInterfacePageTable(16)
        nipt.set_entry(1, 0, 0)
        nipt.set_entry(2, 0, 1)
        assert nipt.valid_entries == 2

    def test_negative_index_rejected(self):
        with pytest.raises(ConfigurationError):
            NetworkInterfacePageTable(16).set_entry(-1, 0, 0)

    def test_negative_destination_rejected(self):
        with pytest.raises(ConfigurationError):
            NetworkInterfacePageTable(16).set_entry(0, -1, 0)

    def test_overwrite_entry(self):
        nipt = NetworkInterfacePageTable(16)
        nipt.set_entry(0, 1, 10)
        nipt.set_entry(0, 2, 20)
        assert nipt.lookup(0).dst_node == 2


class TestInstall:
    """The OS-side index allocator: first fit, merging, ENOSPC."""

    def test_first_fit_hands_out_runs_in_order(self):
        nipt = NetworkInterfacePageTable(16)
        assert nipt.install(1, (10, 11, 12)) == 0
        assert nipt.install(2, (20, 21)) == 3
        assert [(i, e.dst_node, e.dst_page) for i, e in nipt.entries()] == [
            (0, 1, 10), (1, 1, 11), (2, 1, 12), (3, 2, 20), (4, 2, 21),
        ]

    def test_virtual_entries_carry_the_asid(self):
        nipt = NetworkInterfacePageTable(16)
        base = nipt.install(3, range(40, 42), dst_asid=7)
        assert [nipt.require(base + i) for i in range(2)] == [
            NiptEntry(3, 40, 7), NiptEntry(3, 41, 7),
        ]

    def test_first_fit_reuses_the_lowest_hole_that_fits(self):
        nipt = NetworkInterfacePageTable(16)
        a = nipt.install(1, (0, 1))
        b = nipt.install(1, (2, 3, 4))
        nipt.install(1, (5,))
        nipt.uninstall(a, 2)
        nipt.uninstall(b, 3)
        # the two holes merged into one run of 5 at index 0
        assert nipt.install(2, (6, 7, 8, 9)) == 0
        assert nipt.install(2, (10,)) == 4
        assert nipt.install(2, (11,)) == 6

    def test_uninstall_clears_entries_and_merges_neighbours(self):
        nipt = NetworkInterfacePageTable(8)
        bases = [nipt.install(1, (i,)) for i in range(8)]
        assert bases == list(range(8))
        for base in (1, 3, 2):  # middle last: it bridges both neighbours
            nipt.uninstall(base, 1)
        assert nipt.lookup(2) is None and nipt.valid_entries == 5
        assert nipt._free == [(1, 3)]
        assert nipt.install(2, (7, 7, 7)) == 1

    def test_exhaustion_is_enospc(self):
        nipt = NetworkInterfacePageTable(4)
        nipt.install(1, (0, 1, 2))
        with pytest.raises(SyscallError) as excinfo:
            nipt.install(1, (3, 4))
        assert excinfo.value.errno == "ENOSPC"
        assert nipt.valid_entries == 3  # a refused install changes nothing
        assert nipt.install(1, (3,)) == 3
        with pytest.raises(SyscallError):
            nipt.install(1, (4,))

    def test_one_generation_bump_and_listener_call_per_entry(self):
        nipt = NetworkInterfacePageTable(16)
        calls = []
        nipt.add_listener(lambda index, installed: calls.append((index, installed)))
        base = nipt.install(1, (10, 11, 12))
        assert nipt.generation == 3
        assert calls == [(0, True), (1, True), (2, True)]
        nipt.uninstall(base, 3)
        assert nipt.generation == 6
        assert calls[3:] == [(0, False), (1, False), (2, False)]

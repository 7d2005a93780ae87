"""Tests for physical memory."""

import os
import subprocess
import sys
import textwrap

import pytest

import repro
from repro.errors import AddressError, ConfigurationError
from repro.mem.physmem import PhysicalMemory
from repro.snapshot import fork, restore, snapshot


@pytest.fixture
def ram():
    return PhysicalMemory(64 * 1024, page_size=4096)


class TestConstruction:
    def test_num_frames(self, ram):
        assert ram.num_frames == 16

    def test_size_must_be_page_multiple(self):
        with pytest.raises(ValueError):
            PhysicalMemory(5000, page_size=4096)

    def test_size_must_be_positive(self):
        with pytest.raises(ValueError):
            PhysicalMemory(0)

    def test_page_size_must_be_power_of_two(self):
        with pytest.raises(ValueError):
            PhysicalMemory(8192, page_size=3000)

    def test_starts_zeroed(self, ram):
        assert ram.read(0, 16) == bytes(16)

    def test_unmappable_size_names_the_size(self):
        for size in (1 << 62, 1 << 64):  # past the address space; past ssize_t
            with pytest.raises(ConfigurationError, match=str(size)):
                PhysicalMemory(size)


class TestByteIO:
    def test_write_read_roundtrip(self, ram):
        ram.write(100, b"hello")
        assert ram.read(100, 5) == b"hello"

    def test_write_at_end(self, ram):
        ram.write(ram.size - 4, b"tail")
        assert ram.read(ram.size - 4, 4) == b"tail"

    def test_read_past_end_rejected(self, ram):
        with pytest.raises(AddressError):
            ram.read(ram.size - 2, 4)

    def test_write_past_end_rejected(self, ram):
        with pytest.raises(AddressError):
            ram.write(ram.size - 2, b"long")

    def test_negative_address_rejected(self, ram):
        with pytest.raises(AddressError):
            ram.read(-1, 1)

    def test_negative_length_rejected(self, ram):
        with pytest.raises(ValueError):
            ram.read(0, -1)


class TestWordIO:
    def test_word_roundtrip(self, ram):
        ram.write_word(8, 0xDEADBEEF)
        assert ram.read_word(8) == 0xDEADBEEF

    def test_word_is_little_endian(self, ram):
        ram.write_word(0, 0x01020304)
        assert ram.read(0, 4) == bytes([4, 3, 2, 1])

    def test_word_wraps_modulo_32_bits(self, ram):
        ram.write_word(0, 1 << 33)
        assert ram.read_word(0) == 0

    def test_negative_word_stored_as_twos_complement(self, ram):
        ram.write_word(0, -1)
        assert ram.read_word(0) == 0xFFFFFFFF


class TestFrameIO:
    def test_frame_base(self, ram):
        assert ram.frame_base(3) == 3 * 4096

    def test_frame_base_out_of_range(self, ram):
        with pytest.raises(AddressError):
            ram.frame_base(16)

    def test_frame_roundtrip(self, ram):
        data = bytes(range(256)) * 16
        ram.write_frame(2, data)
        assert ram.read_frame(2) == data

    def test_frame_write_must_be_exact_page(self, ram):
        with pytest.raises(ValueError):
            ram.write_frame(0, b"short")

    def test_zero_frame(self, ram):
        ram.write_frame(1, b"\xff" * 4096)
        ram.zero_frame(1)
        assert ram.read_frame(1) == bytes(4096)


class TestHostMemory:
    """RAM is a private, demand-zero host mapping with sparse state."""

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_writes_stay_in_the_child(self, ram):
        ram.write(0, b"parent")
        pid = os.fork()
        if pid == 0:  # pragma: no cover - runs in the child
            try:
                ram.write(0, b"child!")
                ram.write_frame(3, b"\xff" * 4096)
            finally:
                os._exit(0)
        _, status = os.waitpid(pid, 0)
        assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0
        assert ram.read(0, 6) == b"parent"
        assert ram.read_frame(3) == bytes(4096)

    def test_state_holds_only_nonzero_frames(self, ram):
        ram.write(2 * 4096 + 7, b"x")
        ram.write_frame(5, b"\xab" * 4096)
        ram.zero_frame(5)
        state = ram.state_dict()
        assert sorted(state["frames"]) == [2]
        assert state["frames"][2] == bytes(7) + b"x" + bytes(4088)

    def test_restore_and_fork_are_bit_identical_after_zeroing(self, ram):
        ram.write(100, b"kept")
        ram.write_frame(9, b"\x5a" * 4096)
        ram.zero_frame(9)
        image = ram.read(0, ram.size)
        for twin in (restore(snapshot(ram)), fork(ram)):
            assert twin.read(0, twin.size) == image
            assert (twin.size, twin.page_size) == (ram.size, ram.page_size)

    @pytest.mark.skipif(
        not sys.platform.startswith("linux"), reason="ru_maxrss is KiB on Linux"
    )
    def test_idle_cluster_ram_costs_no_host_memory(self):
        # A fresh interpreter, so peak RSS reflects only this build.
        script = textwrap.dedent(
            """
            import resource
            from repro import ClusterConfig, ShrimpCluster

            def peak_kib():
                return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

            before = peak_kib()
            cluster = ShrimpCluster(config=ClusterConfig(num_nodes=64, mem_size=1 << 22))
            print(peak_kib() - before)
            """
        )
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(repro.__file__)))
        out = subprocess.run(
            [sys.executable, "-c", script],
            env=env, capture_output=True, text=True, check=True, timeout=120,
        )
        grown_mib = int(out.stdout.strip().splitlines()[-1]) / 1024
        # 64 nodes x 4 MiB of RAM: 256 MiB if zero-filled up front.
        assert grown_mib < 64, f"building the cluster raised peak RSS by {grown_mib:.0f} MiB"

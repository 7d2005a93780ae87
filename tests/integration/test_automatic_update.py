"""Tests for the cluster-level automatic-update extension (section 9)."""

import pytest

from repro import ClusterConfig, ShrimpCluster
from repro.errors import ConfigurationError, SyscallError

PAGE = 4096


@pytest.fixture
def bound_pair():
    cluster = ShrimpCluster(
                  config=ClusterConfig(num_nodes=2, mem_size=1 << 20),
              )
    src = cluster.node(0).create_process("writer")
    dst = cluster.node(1).create_process("mirror")
    src_buf = cluster.node(0).kernel.syscalls.alloc(src, 2 * PAGE)
    dst_buf = cluster.node(1).kernel.syscalls.alloc(dst, 2 * PAGE)
    channel = cluster.bind_automatic_update(
        0, src, src_buf, 1, dst, dst_buf, 2 * PAGE
    )
    return cluster, src, dst, src_buf, dst_buf, channel


class TestAutomaticUpdate:
    def test_plain_stores_appear_remotely(self, bound_pair):
        cluster, src, dst, src_buf, dst_buf, channel = bound_pair
        cluster.node(0).kernel.scheduler.switch_to(src)
        cluster.node(0).cpu.store(src_buf + 64, 0xCAFEBABE)
        cluster.run_until_idle()
        frame = channel.dst_frames[0]
        remote = cluster.node(1).physmem.read_word(frame * PAGE + 64)
        assert remote == 0xCAFEBABE

    def test_second_page_maps_to_second_frame(self, bound_pair):
        cluster, src, dst, src_buf, dst_buf, channel = bound_pair
        cluster.node(0).kernel.scheduler.switch_to(src)
        cluster.node(0).cpu.store(src_buf + PAGE + 8, 0x1234)
        cluster.run_until_idle()
        frame = channel.dst_frames[1]
        assert cluster.node(1).physmem.read_word(frame * PAGE + 8) == 0x1234

    def test_buffered_writes_propagate(self, bound_pair):
        cluster, src, dst, src_buf, dst_buf, channel = bound_pair
        cluster.node(0).kernel.scheduler.switch_to(src)
        cluster.node(0).cpu.write_bytes(src_buf, b"automatic update stream")
        cluster.run_until_idle()
        frame = channel.dst_frames[0]
        assert (
            cluster.node(1).physmem.read(frame * PAGE, 23)
            == b"automatic update stream"
        )

    def test_unbound_pages_do_not_propagate(self, bound_pair):
        cluster, src, dst, src_buf, dst_buf, channel = bound_pair
        other = cluster.node(0).kernel.syscalls.alloc(src, PAGE)
        sent_before = cluster.nic(0).packets_sent
        cluster.node(0).kernel.scheduler.switch_to(src)
        cluster.node(0).cpu.store(other, 0x5555)
        cluster.run_until_idle()
        assert cluster.nic(0).packets_sent == sent_before

    def test_source_pages_pinned_for_fixed_mapping(self, bound_pair):
        cluster, src, dst, src_buf, dst_buf, channel = bound_pair
        vpage = src_buf // PAGE
        frame = src.page_table.get(vpage).pfn
        assert cluster.node(0).kernel.frames.is_pinned(frame)

    def test_unaligned_source_rejected(self):
        cluster = ShrimpCluster(
                      config=ClusterConfig(num_nodes=2, mem_size=1 << 20),
                  )
        src = cluster.node(0).create_process("w")
        dst = cluster.node(1).create_process("m")
        dst_buf = cluster.node(1).kernel.syscalls.alloc(dst, PAGE)
        src_buf = cluster.node(0).kernel.syscalls.alloc(src, 2 * PAGE)
        with pytest.raises(SyscallError):
            cluster.bind_automatic_update(
                0, src, src_buf + 100, 1, dst, dst_buf, PAGE
            )

    def test_loopback_rejected(self):
        cluster = ShrimpCluster(
                      config=ClusterConfig(num_nodes=2, mem_size=1 << 20),
                  )
        p = cluster.node(0).create_process("p")
        buf = cluster.node(0).kernel.syscalls.alloc(p, PAGE)
        with pytest.raises(ConfigurationError):
            cluster.bind_automatic_update(0, p, buf, 0, p, buf, PAGE)

"""Workload generators for the reproduction benches."""

from __future__ import annotations

from typing import List

from repro.mem.payload import make_payload  # noqa: F401  (e2ebench imports it here)


def fig8_sizes() -> List[int]:
    """Message sizes for the Figure 8 sweep (0-8 KB plus the tail).

    The paper plots 0 to 8 KB; we extend to 16 KB to show the plateau is
    sustained, and sample densely around the 4 KB page boundary where the
    curve dips.
    """
    sizes = [64, 128, 256, 384, 512, 768, 1024, 1536, 2048, 3072, 4096]
    sizes += [4096 + 64, 4096 + 512, 5120, 6144, 7168, 8192]
    sizes += [12288, 16384]
    return sizes


def hippi_block_sizes() -> List[int]:
    """Block sizes for the section-1 HIPPI motivation sweep."""
    return [256, 512, 1024, 2048, 4096, 8192, 16384, 32768, 65536,
            131072, 262144, 524288]

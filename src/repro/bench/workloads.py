"""Workload generators for the reproduction benches."""

from __future__ import annotations

from typing import List


#: the payload LCG: state' = (A * state + C) mod 2**32
_LCG_A, _LCG_C, _WORD = 1103515245, 12345, 0xFFFFFFFF


def make_payload(nbytes: int, seed: int = 1) -> bytes:
    """A deterministic, non-trivial payload of ``nbytes``.

    A repeating LCG byte pattern: cheap to generate, detects both dropped
    and reordered pages at the receiver.  Word ``k`` is the LCG's state
    ``k + 1`` from ``seed``, little-endian.

    The stream is built with whole-stream integer arithmetic, not one
    Python step per word: one big integer holds the states so far in
    64-bit lanes, and each round computes the next as many lanes from
    them at once with the jump-ahead constants ``A**n``, ``C*(A**n - 1)
    / (A - 1)`` (mod 2**32), doubling the stream.  A lane's product plus
    its increment stays below 2**64, so lanes never carry into each
    other.
    """
    if nbytes <= 0:
        return b""
    words = (nbytes + 3) >> 2
    lanes = ((seed & _WORD or 1) * _LCG_A + _LCG_C) & _WORD
    # ``ones`` has a 1 in each of the ``n`` lanes held, ``mul``/``add``
    # jump a state ``n`` steps ahead.
    n, mul, add, ones = 1, _LCG_A, _LCG_C, 1
    while n < words:
        if n + n > words:  # the last round: only the lanes still missing
            keep = (1 << ((words - n) << 6)) - 1
            base, base_ones = lanes & keep, ones & keep
        else:
            base, base_ones = lanes, ones
        ahead = (base * mul + add * base_ones) & (_WORD * base_ones)
        lanes |= ahead << (n << 6)
        ones |= ones << (n << 6)
        add = (add * mul + add) & _WORD
        mul = (mul * mul) & _WORD
        n += n
    # Each lane's low 4 bytes, in memory order (so on any host byte order).
    low = memoryview(lanes.to_bytes(words << 3, "little")).cast("I")[::2]
    return low.tobytes()[:nbytes]


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

"""Deterministic payloads: what benches, shards and chaos worlds send."""

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

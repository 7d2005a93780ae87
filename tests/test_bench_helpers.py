"""Tests for the measurement-harness helpers."""

import pytest

from repro.bench.report import Row, fmt_mbs, fmt_pct, fmt_us, print_table
from repro.bench.workloads import (
    fig8_sizes,
    hippi_block_sizes,
    make_payload,
)


def _reference_payload(nbytes, seed=1):
    """The per-word LCG loop ``make_payload`` reproduces: the oracle."""
    state = seed & 0xFFFFFFFF or 1
    out = bytearray()
    while len(out) < nbytes:
        state = (state * 1103515245 + 12345) & 0xFFFFFFFF
        out += state.to_bytes(4, "little")
    return bytes(out[:nbytes])


#: every size to 64, then to 8,200 by 4s and odd tails, then 1 MiB
PAYLOAD_SIZES = (
    list(range(65))
    + list(range(68, 8201, 4))
    + list(range(69, 8201, 4))
    + list(range(71, 8201, 4))
    + [1 << 20]
)


class TestWorkloads:
    @pytest.mark.parametrize("seed", [0, 1, 251, 2**32 + 5, -3])
    def test_payload_matches_the_per_word_loop(self, seed):
        # The loop's output for n bytes is the first n of its longest run.
        stream = _reference_payload(max(PAYLOAD_SIZES), seed)
        for n in PAYLOAD_SIZES:
            assert make_payload(n, seed=seed) == stream[:n], n

    def test_payload_is_deterministic(self):
        assert make_payload(128, seed=3) == make_payload(128, seed=3)

    def test_payload_varies_with_seed(self):
        assert make_payload(128, seed=1) != make_payload(128, seed=2)

    def test_payload_length_exact(self):
        for n in (0, 1, 3, 100, 4097):
            assert len(make_payload(n)) == n

    def test_payload_is_not_trivial(self):
        data = make_payload(4096)
        assert len(set(data)) > 50  # not a constant fill

    def test_fig8_sizes_cover_the_paper_range(self):
        sizes = fig8_sizes()
        assert 512 in sizes and 4096 in sizes and 8192 in sizes
        assert any(s > 4096 and s < 4608 for s in sizes)  # the dip region
        assert sizes == sorted(sizes)

    def test_hippi_sizes_span_1k_to_beyond_64k(self):
        sizes = hippi_block_sizes()
        assert 1024 in sizes and 65536 in sizes
        assert max(sizes) > 65536


class TestReport:
    def test_row_verdicts(self):
        assert Row("a", "x", "y", True).verdict == "OK"
        assert Row("a", "x", "y", False).verdict == "DIFFERS"
        assert Row("a", "x", "y", None).verdict == ""

    def test_print_table_renders_all_rows(self, capsys):
        print_table(
            "TITLE",
            [Row("quantity-one", "1", "1", True)],
            notes=["a note"],
        )
        out = capsys.readouterr().out
        assert "TITLE" in out
        assert "quantity-one" in out
        assert "note: a note" in out
        assert "OK" in out

    def test_formatters(self):
        assert fmt_pct(0.945) == "94.5%"
        assert fmt_us(2.866) == "2.87 us"
        assert fmt_mbs(28.9e6) == "28.90 MB/s"


class TestMeasure:
    def test_message_timing_properties(self, channel_rig):
        from repro.bench.measure import measure_message

        timing = measure_message(channel_rig.sender, 1024)
        assert timing.nbytes == 1024
        assert timing.delivered_cycle > timing.start_cycle
        assert timing.send_returned_cycle >= timing.start_cycle
        assert 0 < timing.bytes_per_cycle < 1

    def test_peak_clamped_to_channel(self, channel_rig):
        from repro.bench.measure import measure_peak_bandwidth

        # The fixture channel is 64 KB; a 256 KB probe must not blow up.
        peak = measure_peak_bandwidth(channel_rig.sender)
        assert peak > 0

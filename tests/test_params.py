"""Tests for the cost-model presets and their calibration anchors."""

import pytest

from repro.params import CostModel, hippi_paragon, shrimp


class TestShrimpPreset:
    def test_initiation_anchor(self):
        """The headline calibration: ~2.8 us at 60 MHz."""
        costs = shrimp()
        us = costs.cycles_to_us(costs.udma_initiation_cycles)
        assert 2.5 <= us <= 3.1

    def test_traditional_overhead_anchor(self):
        """'Hundreds, possibly thousands of CPU instructions.'"""
        costs = shrimp()
        assert 500 <= costs.traditional_dma_overhead_cycles(1) <= 5_000
        assert costs.traditional_dma_overhead_cycles(8) > \
            costs.traditional_dma_overhead_cycles(1)

    def test_wire_slower_than_fill(self):
        """The Figure 8 shape requires the wire to be the bottleneck."""
        costs = shrimp()
        assert costs.wire_bytes_per_cycle < costs.dma_bytes_per_cycle

    def test_overrides(self):
        costs = shrimp(cpu_hz=100e6)
        assert costs.cpu_hz == 100e6

    def test_immutability(self):
        with pytest.raises(Exception):
            shrimp().cpu_hz = 1  # frozen dataclass

    def test_scaled_returns_copy(self):
        base = shrimp()
        derived = base.scaled(io_ref_cycles=99)
        assert base.io_ref_cycles != 99
        assert derived.io_ref_cycles == 99


class TestHippiPreset:
    def test_raw_bandwidth_is_100mbs(self):
        costs = hippi_paragon()
        assert costs.bytes_per_second(costs.dma_bytes_per_cycle) == pytest.approx(100e6)

    def test_overhead_exceeds_350us(self):
        costs = hippi_paragon()
        us = costs.cycles_to_us(costs.traditional_dma_overhead_cycles(1))
        assert us > 350


class TestConversions:
    def test_cycles_us_roundtrip(self):
        costs = shrimp()
        assert costs.us_to_cycles(costs.cycles_to_us(1234)) == 1234

    def test_bytes_per_second(self):
        costs = CostModel(cpu_hz=10e6)
        assert costs.bytes_per_second(2.0) == 20e6

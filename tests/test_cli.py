"""Tests for the command-line interface."""

import json
import re

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_known_commands(self):
        parser = build_parser()
        for command in ("info", "fig8", "init", "demo", "metrics"):
            args = parser.parse_args([command])
            assert args.command == command

    def test_demo_nbytes_option(self):
        args = build_parser().parse_args(["demo", "--nbytes", "512"])
        assert args.nbytes == 512


class TestCommands:
    def test_info_prints_anchors(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "2.87 us" in out or "2.8" in out
        assert "MB/s" in out

    def test_init_prints_ratio(self, capsys):
        assert main(["init"]) == 0
        out = capsys.readouterr().out
        assert "ratio" in out
        assert "UDMA initiation" in out

    def test_demo_renders_timeline(self, capsys):
        assert main(["demo", "--nbytes", "256"]) == 0
        out = capsys.readouterr().out
        assert "|" in out and "legend" in out

    def test_fig8_prints_curve(self, capsys):
        assert main(["fig8"]) == 0
        out = capsys.readouterr().out
        assert "512" in out and "%" in out

    def test_metrics_dumps_counters(self, capsys):
        assert main(["metrics"]) == 0
        out = capsys.readouterr().out
        assert "initiations" in out and "hit_rate" in out

    def test_trace_json_is_a_perfetto_trace(self, capsys, tmp_path):
        path = tmp_path / "trace.json"
        assert main(["trace", "--nbytes", "8192", "--json", str(path)]) == 0
        tree = capsys.readouterr().out
        printed = {int(m) for m in re.findall(r"^\s*#(\d+) ", tree, re.MULTILINE)}
        assert len(printed) == 6  # two pages: transfer, dma, packet each
        events = json.loads(path.read_text())["traceEvents"]
        assert isinstance(events, list)
        spans = [e for e in events if e["ph"] == "X"]
        for event in spans:
            assert {"name", "ph", "ts", "dur", "pid", "tid"} <= set(event)
            assert event["dur"] >= 0
        ids = [e["args"]["id"] for e in spans]
        assert len(ids) == len(set(ids)) and set(ids) == printed  # one per span
        assert {e["args"]["parent"] for e in spans if "parent" in e["args"]} <= printed

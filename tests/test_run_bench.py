"""run_bench.py: the one check, the paired rate gate and the eight-option CLI."""

import copy
import json
import os
import re
import sys

import pytest

_BENCH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "benchmarks"
)
if _BENCH not in sys.path:  # the bench package is not installed
    sys.path.insert(0, _BENCH)

from bench_host_throughput import (  # noqa: E402
    SCENARIOS,
    SECTIONS,
    Result,
    to_payload,
)
from run_bench import (  # noqa: E402
    RATE_BOUND,
    check,
    gated_rows,
    main,
    parent_check,
    record_lines,
    rerecorded,
)

OPTIONS = ["--json", "--check", "--quick", "--repeats", "--parent",
           "--profile", "--section", "--scenario"]


def _core_payload(msg_s=1000.0):
    spec = SCENARIOS[("core", "udma_send")]
    result = Result(
        sim={"sim_cycles": 1598500, "events_fired": 200, "messages": 200,
             "sim_bytes": 200 * 4096},
        host_seconds=200 / msg_s, xlat_hits=797, xlat_misses=3,
    )
    return to_payload([(spec, {"default": result})], quick=True)


def _exit_code(argv):
    with pytest.raises(SystemExit) as info:
        main(argv)
    return info.value.code


class TestCheck:
    def test_core_sim_cycles_change_fails_the_check(self):
        payload = _core_payload()
        baseline = copy.deepcopy(payload)
        baseline["sections"]["core"]["udma_send"]["variants"]["default"][
            "sim"]["sim_cycles"] += 1
        failures, _ = check(payload, baseline)
        assert len(failures) == 1
        assert "sim_cycles" in failures[0]
        assert "determinism break" in failures[0]

    def test_identical_core_run_passes(self):
        payload = _core_payload()
        assert check(payload, copy.deepcopy(payload)) == ([], [])

    def test_host_statistics_are_not_compared(self):
        payload = _core_payload()
        baseline = copy.deepcopy(payload)
        row = baseline["sections"]["core"]["udma_send"]["variants"]["default"]
        row["xlat_hits"], row["xlat_hit_rate"] = 0, 0.0
        assert check(payload, baseline) == ([], [])

    def test_reliability_variants_may_differ(self):
        spec = SCENARIOS[("reliability", "cluster_pingpong")]
        assert not spec.identical
        variants = {
            name: Result(sim={"sim_cycles": i, "events_fired": i,
                              "messages": 1, "sim_bytes": 1},
                         host_seconds=1.0)
            for i, name in enumerate(spec.variants)
        }
        assert check(to_payload([(spec, variants)], True), None)[0] == []

    def test_rates_are_printed_next_to_the_record_not_gated(self):
        payload = _core_payload(msg_s=500.0)
        baseline = _core_payload(msg_s=1000.0)
        assert check(payload, baseline) == ([], [])
        assert record_lines(payload, baseline) == [
            "core/udma_send [default]: 500 msgs/s, record 1000 (0.50x)"
        ]


def _reading(msg_s, sim=None):
    return {"msgs_per_s": msg_s, "sim": sim or {"sim_cycles": 7}, "failed": 0}


def _fake_pairs(ratio, sim=None):
    """A fake pairing: the parent reads 1000 msgs/s, the change ``ratio``x."""
    def pairs_of(section, name, variant):
        return [(_reading(1000.0), _reading(1000.0 * ratio, sim))] * 3
    return pairs_of


ROWS = [("core", "udma_send", "default"), ("core", "stepping_dma", "default")]


class TestParentCheck:
    def test_ratio_below_the_bound_fails_naming_the_row(self):
        failures, _ = parent_check(ROWS[:1], _fake_pairs(0.8), set())
        assert len(failures) == 1
        assert failures[0].startswith("core/udma_send [default]: median B/A 0.800")

    def test_a_a_passes(self):
        failures, lines = parent_check(ROWS, _fake_pairs(1.0), set())
        assert failures == []
        assert len(lines) == 2 and "median B/A 1.000 over 3 pairs" in lines[0]

    def test_a_pair_printed_one_is_a_tie_not_a_win(self):
        # 1000.4 / 1000 prints 1.000, so it counts for neither side.
        _, lines = parent_check(ROWS[:1], _fake_pairs(1.0004), set())
        assert "B won 0 (1.000 1.000 1.000)" in lines[0]
        _, lines = parent_check(ROWS[:1], _fake_pairs(1.0006), set())
        assert "B won 3 (1.001 1.001 1.001)" in lines[0]

    def test_the_bound_is_at_most_fifteen_percent(self):
        assert 0 < RATE_BOUND <= 0.15
        assert parent_check(ROWS, _fake_pairs(1.0 - RATE_BOUND + 0.01), set())[0] == []
        assert parent_check(ROWS, _fake_pairs(1.0 - RATE_BOUND - 0.01), set())[0]

    def test_sim_differing_from_the_parent_is_a_determinism_break(self):
        failures, _ = parent_check(ROWS[:1], _fake_pairs(1.0, {"sim_cycles": 8}),
                                   set())
        assert len(failures) == 1
        assert "sim_cycles 8 != 7" in failures[0]
        assert "determinism break" in failures[0]

    def test_re_recorded_row_is_reported_not_gated(self):
        failures, lines = parent_check(
            ROWS[:1], _fake_pairs(0.5, {"sim_cycles": 8}), {("core", "udma_send")}
        )
        assert failures == []
        assert "re-recorded" in lines[0] and "500 msgs/s reported" in lines[0]

    def test_rerecorded_names_rows_whose_sim_or_kwargs_changed(self):
        parent = _core_payload()
        change = copy.deepcopy(parent)
        assert rerecorded(change, parent) == set()
        row = change["sections"]["core"]["udma_send"]["variants"]["default"]
        row["messages_per_s"] *= 2  # a fresh rate alone is no re-record
        assert rerecorded(change, parent) == set()
        row["sim"]["sim_cycles"] += 1
        assert rerecorded(change, parent) == {("core", "udma_send")}
        del parent["sections"]["core"]["udma_send"]
        change = _core_payload()
        assert rerecorded(change, parent) == {("core", "udma_send")}

    def test_only_rate_gated_rows_are_paired(self):
        payload = _core_payload()
        assert gated_rows(payload) == [("core", "udma_send", "default")]
        payload["sections"]["core"]["udma_send"]["gate_rate"] = False
        assert gated_rows(payload) == []


class TestCli:
    def test_help_lists_exactly_the_eight_options(self, capsys):
        assert _exit_code(["--help"]) == 0
        out = capsys.readouterr().out
        options = out.split("options:", 1)[1]
        found = re.findall(r"^\s+(--[a-z-]+)", options, flags=re.M)
        assert found == OPTIONS

    @pytest.mark.parametrize("flag", [
        "--scale", "--obs-overhead", "--obs-tolerance=0.02",
        "--reliability-overhead", "--warm-start", "--shards=2", "--no-sweep",
        "--no-baseline",
    ])
    def test_removed_flags_exit_2(self, flag):
        assert _exit_code([flag]) == 2

    def test_parent_without_check_exits_2(self, tmp_path, capsys):
        assert _exit_code(["--quick", "--parent", str(tmp_path)]) == 2
        assert "--parent needs --check" in capsys.readouterr().err

    def test_parent_that_is_not_a_checkout_exits_2(self, tmp_path, capsys):
        path = tmp_path / "base.json"
        path.write_text(json.dumps(_core_payload()))
        argv = ["--quick", "--check", str(path), "--parent", str(tmp_path)]
        assert _exit_code(argv) == 2
        assert "not a checkout" in capsys.readouterr().err

    def test_profile_with_json_exits_2(self, tmp_path):
        argv = ["--quick", "--profile", str(tmp_path / "p.txt"),
                "--json", str(tmp_path / "x.json")]
        assert _exit_code(argv) == 2
        assert not (tmp_path / "x.json").exists()

    def test_profile_with_check_exits_2(self, tmp_path):
        path = tmp_path / "base.json"
        path.write_text(json.dumps(_core_payload()))
        argv = ["--quick", "--profile", str(tmp_path / "p.txt"),
                "--check", str(path)]
        assert _exit_code(argv) == 2

    def test_baseline_with_different_quick_exits_2(self, tmp_path, capsys):
        payload = _core_payload()
        payload["quick"] = False
        path = tmp_path / "base.json"
        path.write_text(json.dumps(payload))
        assert _exit_code(["--quick", "--check", str(path)]) == 2
        assert "quick=False" in capsys.readouterr().err

    def test_baseline_with_different_schema_exits_2(self, tmp_path):
        payload = _core_payload()
        payload["schema"] = "shrimp-bench-host-throughput/1"
        path = tmp_path / "base.json"
        path.write_text(json.dumps(payload))
        assert _exit_code(["--quick", "--check", str(path)]) == 2

    def test_unknown_section_exits_2_naming_the_choices(self, capsys):
        assert _exit_code(["--section", "nope"]) == 2
        err = capsys.readouterr().err
        assert all(section in err for section in SECTIONS)

    def test_unknown_scenario_exits_2_naming_the_choices(self, capsys):
        assert _exit_code(["--section", "scale", "--scenario", "nope"]) == 2
        err = capsys.readouterr().err
        assert "nope" in err
        assert "incast_64x1" in err and "hotspot_32x2" in err

    def test_a_name_in_two_sections_exits_2_naming_the_rows(self, capsys):
        argv = ["--section", "core", "--section", "obs", "--scenario", "udma_send"]
        assert _exit_code(argv) == 2
        err = capsys.readouterr().err
        assert "udma_send" in err and "core/udma_send, obs/udma_send" in err

    def test_section_slash_name_runs_that_row_only(self, capsys):
        argv = ["--quick", "--repeats", "1", "--section", "core", "--section",
                "obs", "--scenario", "obs/udma_send"]
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert "obs/udma_send:" in captured.err
        assert "core/udma_send" not in captured.err

    def test_recorded_run_checks_clean_then_catches_a_sim_change(
        self, tmp_path, capsys
    ):
        path = tmp_path / "base.json"
        argv = ["--quick", "--repeats", "1", "--scenario", "udma_send"]
        assert main(argv + ["--json", str(path)]) == 0
        baseline = json.loads(path.read_text())
        assert list(baseline["sections"]) == ["core"]
        # Without --parent, host rates are printed next to the record.
        assert main(argv + ["--check", str(path)]) == 0
        assert "core/udma_send [default]: " in capsys.readouterr().out
        row = baseline["sections"]["core"]["udma_send"]["variants"]["default"]
        row["sim"]["sim_cycles"] += 1
        path.write_text(json.dumps(baseline))
        assert main(argv + ["--check", str(path)]) == 1
        assert "determinism break" in capsys.readouterr().err

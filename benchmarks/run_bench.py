"""Host-throughput bench runner and regression gate.

Record the baseline (sections core, obs and scale)::

    python benchmarks/run_bench.py --quick --repeats 5 \\
        --section core --section obs --section scale --json BENCH_core.json

CI regression gate (tier-2; runs the sections the baseline holds)::

    python benchmarks/run_bench.py --quick --check BENCH_core.json

``--check`` exits 1 if a simulated field differs from the baseline (a
determinism break, on any host), if variants that must simulate
identically do not, if the obs section's default ``metrics`` variant
costs more than 2% of the plane-off ``baseline``, or if any scenario's
host msgs/s falls more than ``--tolerance`` (default 30%) below the
baseline.  See ``docs/PERFORMANCE.md`` for the JSON schema and how to
refresh baselines.  Exit codes: 0 ok, 1 a failed check, 2 bad flags or an
unusable baseline.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

_HERE = os.path.dirname(os.path.abspath(__file__))
_ROOT = os.path.dirname(_HERE)
for path in (os.path.join(_ROOT, "src"), _HERE):
    if path not in sys.path:
        sys.path.insert(0, path)

from bench_host_throughput import (  # noqa: E402
    SCENARIOS,
    SCHEMA,
    SECTIONS,
    format_payload,
    run,
    to_payload,
    transfer_latency_profile,
)

#: the most host msgs/s the default observability plane may cost
OBS_TOLERANCE = 0.02


def _sim_diffs(sim: dict, ref: dict):
    """``(key, value, reference value)`` for every simulated field that differs."""
    return [(key, sim.get(key), ref.get(key))
            for key in sorted(set(sim) | set(ref))
            if sim.get(key) != ref.get(key)]


def check(payload: dict, baseline, tolerance: float):
    """Judge a run's payload, alone and against an optional baseline.

    Returns ``(failures, warnings)``.  Simulated fields are pure
    functions of the workload, so they must equal the baseline's exactly
    wherever the recorded workload kwargs match (else: a "re-record"
    warning) and must agree across a scenario's variants where the table
    says so.  Host msgs/s must stay within ``tolerance`` of the baseline;
    a different ``cpu_count`` is reported, but rate failures still fail.
    """
    failures, warnings = [], []
    sections = payload["sections"]
    for section, scenarios in sections.items():
        for name, entry in scenarios.items():
            if not entry["identical"]:
                continue
            (first, ref), *rest = entry["variants"].items()
            for variant, row in rest:
                for key, value, expected in _sim_diffs(row["sim"], ref["sim"]):
                    failures.append(
                        f"{section}/{name}: variant {variant!r} simulated "
                        f"{key} {value!r} != {expected!r} in {first!r}"
                    )
    obs = sections.get("obs", {}).get("udma_send", {}).get("variants", {})
    if "baseline" in obs and "metrics" in obs:
        base = obs["baseline"]["messages_per_s"]
        rate = obs["metrics"]["messages_per_s"]
        if rate < base * (1.0 - OBS_TOLERANCE):
            failures.append(
                f"obs/udma_send: metrics variant {rate:.0f} msgs/s < floor "
                f"{base * (1.0 - OBS_TOLERANCE):.0f} (baseline variant "
                f"{base:.0f} msgs/s, tolerance {OBS_TOLERANCE:.0%})"
            )
    if baseline is None:
        return failures, warnings

    if baseline.get("cpu_count") != payload["cpu_count"]:
        warnings.append(
            f"baseline cpu_count={baseline.get('cpu_count')} != host "
            f"cpu_count={payload['cpu_count']}; host rates come from "
            f"different hardware"
        )
    for section, scenarios in sections.items():
        for name, entry in scenarios.items():
            base = baseline["sections"].get(section, {}).get(name)
            if base is None:
                continue  # new scenario; nothing to regress against
            where = f"{section}/{name}"
            same_workload = base["kwargs"] == entry["kwargs"]
            if not same_workload:
                warnings.append(
                    f"{where}: workload {entry['kwargs']} differs from the "
                    f"baseline's {base['kwargs']}; simulated fields not "
                    f"compared -- re-record the baseline"
                )
            for variant, row in entry["variants"].items():
                brow = base["variants"].get(variant)
                if brow is None:
                    continue
                diffs = _sim_diffs(row["sim"], brow["sim"]) if same_workload else []
                for key, value, expected in diffs:
                    failures.append(
                        f"{where} [{variant}]: simulated {key} diverged from "
                        f"baseline ({value!r} != {expected!r}) -- determinism "
                        f"break"
                    )
                floor = brow["messages_per_s"] * (1.0 - tolerance)
                if entry["gate_rate"] and row["messages_per_s"] < floor:
                    failures.append(
                        f"{where} [{variant}]: {row['messages_per_s']:.0f} "
                        f"msgs/s < floor {floor:.0f} (baseline "
                        f"{brow['messages_per_s']:.0f} msgs/s, tolerance "
                        f"{tolerance:.0%})"
                    )
    return failures, warnings


def profile_call(fn, kwargs: dict, label: str, path: str, top: int = 25):
    """Run ``fn(**kwargs)`` under cProfile, append its top-``top``
    cumulative entries to ``path``, and return ``fn``'s result."""
    import cProfile
    import io
    import pstats

    profiler = cProfile.Profile()
    result = profiler.runcall(fn, **kwargs)
    buf = io.StringIO()
    stats = pstats.Stats(profiler, stream=buf)
    stats.strip_dirs().sort_stats("cumulative").print_stats(top)
    with open(path, "a") as fh:
        fh.write(f"==== {label} ====\n")
        fh.write(buf.getvalue())
        fh.write("\n")
    return result


def _load_baseline(path: str, quick: bool) -> dict:
    """The baseline at ``path``; ValueError unless it matches this run."""
    try:
        with open(path) as fh:
            baseline = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot read baseline {path}: {exc}") from None
    schema = baseline.get("schema") if isinstance(baseline, dict) else None
    if schema != SCHEMA:
        raise ValueError(f"{path} has schema {schema!r}, expected {SCHEMA!r}")
    if baseline.get("quick") != quick:
        raise ValueError(
            f"{path} was recorded with quick={baseline.get('quick')}, this "
            f"run has quick={quick}; compare like with like"
        )
    return baseline


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
        allow_abbrev=False,
    )
    parser.add_argument("--json", metavar="PATH",
                        help="write the run's results to PATH as JSON")
    parser.add_argument("--check", metavar="BASELINE",
                        help="compare against a baseline JSON; exit 1 on a "
                             "failed check")
    parser.add_argument("--quick", action="store_true",
                        help="smaller workloads (CI-friendly)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="best-of-N host timing (default 3)")
    parser.add_argument("--tolerance", type=float, default=0.30,
                        help="allowed fractional msgs/s drop for --check "
                             "(default 0.30)")
    parser.add_argument("--profile", metavar="PATH",
                        help="run each variant once under cProfile and write "
                             "the top-25 cumulative entries per variant to "
                             "PATH (not with --check or --json)")
    parser.add_argument("--section", action="append", choices=SECTIONS,
                        metavar="NAME",
                        help="run this section (repeatable): "
                             + ", ".join(SECTIONS) + "; default: the "
                             "sections of the --check baseline, else core")
    parser.add_argument("--scenario", action="append", metavar="NAME",
                        help="run only this scenario of the chosen "
                             "sections (repeatable)")
    args = parser.parse_args(argv)

    if args.profile and (args.check or args.json):
        parser.error("--profile slows every timed window; it cannot be "
                     "combined with --check or --json")
    try:
        baseline = _load_baseline(args.check, args.quick) if args.check else None
    except ValueError as exc:
        parser.error(str(exc))
    sections = args.section or (
        list(baseline["sections"]) if baseline else ["core"]
    )
    chosen = [s for s in SCENARIOS.values() if s.section in sections]
    if args.scenario:
        names = sorted({s.name for s in chosen})
        unknown = sorted(set(args.scenario) - set(names))
        if unknown:
            parser.error(f"unknown scenario(s) {', '.join(unknown)} in "
                         f"section(s) {', '.join(sections)}; choose from "
                         f"{', '.join(names)}")
        chosen = [s for s in chosen if s.name in args.scenario]

    call, repeats = None, args.repeats
    if args.profile:
        # Profiling skews host timing, so each variant runs once.
        with open(args.profile, "w") as fh:
            fh.write(f"# cProfile top-25 cumulative, quick={args.quick}\n\n")
        repeats = 1

        def call(fn, kwargs, label):
            return profile_call(fn, kwargs, label, args.profile)

    results = []
    for spec in chosen:
        t0 = time.perf_counter()
        results += run([spec], quick=args.quick, repeats=repeats, call=call)
        print(f"{spec.section}/{spec.name}: {time.perf_counter() - t0:.1f}s",
              file=sys.stderr, flush=True)
    payload = to_payload(results, args.quick)
    print(format_payload(payload))
    if "obs" in payload["sections"]:
        latency = transfer_latency_profile()
        print(f"udma transfer latency: p50={latency['p50']} "
              f"p99={latency['p99']} cycles over {latency['count']} transfers")
    if args.profile:
        # Profiled rates are not rates: there is nothing to judge.
        print(f"profile written to {args.profile}")
        return 0

    if args.json:
        with open(args.json, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.json}")

    failures, warnings = check(payload, baseline, args.tolerance)
    for warning in warnings:
        print(f"warning: {warning}")
    if failures:
        print("BENCH CHECK FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    if baseline is not None:
        print(f"check ok vs {args.check}: simulated fields identical, no "
              f"msgs/s more than {args.tolerance:.0%} under the baseline")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Host-throughput bench runner and regression gate.

Record the baseline (sections core, obs and scale)::

    python benchmarks/run_bench.py --quick --repeats 5 \\
        --section core --section obs --section scale --json BENCH_core.json

CI regression gate (tier-2; runs the sections the baseline holds, and
pairs every rate-gated row against the parent commit's program)::

    git archive HEAD^ | (mkdir -p /tmp/parent && tar -x -C /tmp/parent)
    python benchmarks/run_bench.py --quick --check BENCH_core.json --parent /tmp/parent

``--check`` exits 1 if a simulated field differs from the baseline (a
determinism break, on any host) or if variants that must simulate
identically do not; it prints each host rate next to the baseline's,
which is a record, not a bound.  Nothing here times the default
observability plane against the plane-off ``baseline``: its cost is
counted, in calls and bytecodes per transfer, by
``tests/obs/test_default_plane_cost.py``.  With
``--parent DIR`` every rate-gated row also runs :data:`PAIRS` pairs of
fresh workers, ``DIR``'s ``src/`` against this checkout's, with this
checkout's benchmark code on both sides (``paired.py``), and fails if
its median B/A msgs/s is below ``1 - RATE_BOUND``.  A row the parent
simulates differently is a determinism break, unless this change
re-recorded that row in the baseline: then its rate is reported, not
gated.  See ``docs/PERFORMANCE.md`` for the JSON schema and how to
refresh baselines.  Exit codes: 0 ok, 1 a failed check, 2 bad flags or
an unusable baseline or parent.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from pathlib import Path

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
from paired import _ratio, run_pairs  # noqa: E402

#: pairs of fresh workers per rate-gated row against the parent.  One
#: pair's ratio swings by +-20% on a shared 2-vCPU host; the median of
#: 20 read A/A 0.939-1.102 over 140 rows (docs/PERFORMANCE.md, "The
#: paired gate")
PAIRS = 20
#: a row fails when its median B/A msgs/s against the parent is below
#: 1 - RATE_BOUND: about 4 standard deviations of those A/A medians
#: below 1, and as far above a 20% loss
RATE_BOUND = 0.10


def _sim_diffs(sim: dict, ref: dict):
    """``(key, value, reference value)`` for every simulated field that differs."""
    return [(key, sim.get(key), ref.get(key))
            for key in sorted(set(sim) | set(ref))
            if sim.get(key) != ref.get(key)]


def check(payload: dict, baseline):
    """Judge a run's simulated fields, alone and against an optional baseline.

    Returns ``(failures, warnings)``.  Simulated fields are pure
    functions of the workload, so they must equal the baseline's exactly
    wherever the recorded workload kwargs match (else: a "re-record"
    warning) and must agree across a scenario's variants where the table
    says so.  Host rates are not compared with the baseline's, nor
    variant with variant: :func:`parent_check` judges them against the
    parent.
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
    if baseline is None:
        return failures, warnings

    for section, scenarios in sections.items():
        for name, entry in scenarios.items():
            base = baseline["sections"].get(section, {}).get(name)
            if base is None:
                continue  # new scenario; nothing to compare against
            where = f"{section}/{name}"
            if base["kwargs"] != entry["kwargs"]:
                warnings.append(
                    f"{where}: workload {entry['kwargs']} differs from the "
                    f"baseline's {base['kwargs']}; simulated fields not "
                    f"compared -- re-record the baseline"
                )
                continue
            for variant, row in entry["variants"].items():
                brow = base["variants"].get(variant)
                if brow is None:
                    continue
                for key, value, expected in _sim_diffs(row["sim"], brow["sim"]):
                    failures.append(
                        f"{where} [{variant}]: simulated {key} diverged from "
                        f"baseline ({value!r} != {expected!r}) -- determinism "
                        f"break"
                    )
    return failures, warnings


def _variants(doc: dict) -> list:
    """``(section, name, entry, variant, row)`` of every variant in ``doc``."""
    return [(section, name, entry, variant, row)
            for section, entries in doc["sections"].items()
            for name, entry in entries.items()
            for variant, row in entry["variants"].items()]


def _recorded(doc: dict, section: str, name: str):
    """A row's workload and simulated fields in ``doc``, or None."""
    entry = doc["sections"].get(section, {}).get(name)
    return entry and (entry["kwargs"],
                      {v: row["sim"] for v, row in entry["variants"].items()})


def record_lines(payload: dict, baseline: dict) -> list:
    """Each variant's host msgs/s next to the baseline's recorded rate."""
    lines = []
    for section, name, _, variant, row in _variants(payload):
        base = baseline["sections"].get(section, {}).get(name, {})
        recorded = base.get("variants", {}).get(variant, {}).get("messages_per_s")
        if recorded:
            rate = row["messages_per_s"]
            lines.append(f"{section}/{name} [{variant}]: {rate:.0f} msgs/s, "
                         f"record {recorded:.0f} ({rate / recorded:.2f}x)")
    return lines


def gated_rows(payload: dict) -> list:
    """``(section, name, variant)`` of every rate-gated variant of a run."""
    return [(section, name, variant)
            for section, name, entry, variant, _ in _variants(payload)
            if entry["gate_rate"]]


def rerecorded(baseline: dict, parent_baseline: dict) -> set:
    """``(section, name)`` of every row whose kwargs or simulated fields
    differ from the parent's copy of the baseline (or that it lacks)."""
    return {(section, name) for section, name, *_ in _variants(baseline)
            if _recorded(baseline, section, name)
            != _recorded(parent_baseline, section, name)}


def parent_check(rows: list, pairs_of, changed: set):
    """Judge each rate-gated row's pairs against the parent.

    ``pairs_of(section, name, variant)`` returns the row's ``(parent
    reading, change reading)`` pairs, the last one first to differ in
    ``sim`` if any does.  Returns ``(failures, lines)``: a median B/A
    msgs/s below ``1 - RATE_BOUND`` fails, naming the row; a row the
    parent simulates differently is a determinism break unless it is in
    ``changed`` (re-recorded by this change), whose rate is reported.
    """
    failures, lines = [], []
    for section, name, variant in rows:
        where = f"{section}/{name} [{variant}]"
        got = pairs_of(section, name, variant)
        a, b = got[-1]
        if a["sim"] != b["sim"]:
            diffs = ", ".join(f"{key} {value!r} != {expected!r}" for key, value,
                              expected in _sim_diffs(b["sim"], a["sim"]))
            if (section, name) in changed:
                lines.append(f"{where}: re-recorded, simulates differently from "
                             f"the parent ({diffs}); {b['msgs_per_s']:.0f} "
                             f"msgs/s reported, not gated")
            else:
                failures.append(f"{where}: simulated differently from the "
                                f"parent ({diffs}) -- determinism break")
            continue
        # Counted as printed: a pair that prints 1.000 is a tie.
        ratios = [_ratio(a["msgs_per_s"], b["msgs_per_s"]) for a, b in got]
        median = statistics.median(ratios)
        line = (f"{where}: median B/A {median:.3f} over {len(got)} pairs vs "
                f"parent, B won {sum(r > 1.0 for r in ratios)} ("
                + " ".join(f"{r:.3f}" for r in ratios) + ")")
        lines.append(line)
        if median < 1.0 - RATE_BOUND:
            failures.append(f"{line} < {1.0 - RATE_BOUND:.2f}")
    return failures, lines


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
    parser.add_argument("--parent", metavar="DIR",
                        help="with --check: pair every rate-gated row "
                             "against the checkout at DIR (its src/ and "
                             "its copy of the baseline)")
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
                        help="run only this row of the chosen sections, "
                             "SECTION/NAME or a NAME one section has "
                             "(repeatable)")
    args = parser.parse_args(argv)

    if args.profile and (args.check or args.json):
        parser.error("--profile slows every timed window; it cannot be "
                     "combined with --check or --json")
    if args.parent and not args.check:
        parser.error("--parent needs --check")
    try:
        baseline = _load_baseline(args.check, args.quick) if args.check else None
        if args.parent:
            parent_file = Path(args.parent) / os.path.relpath(args.check, _ROOT)
            if not (Path(args.parent) / "src" / "repro").is_dir():
                raise ValueError(f"{args.parent} is not a checkout (no src/repro)")
            changed = rerecorded(baseline, _load_baseline(parent_file, args.quick))
    except ValueError as exc:
        parser.error(str(exc))
    sections = args.section or (
        list(baseline["sections"]) if baseline else ["core"]
    )
    chosen = [s for s in SCENARIOS.values() if s.section in sections]
    if args.scenario:
        rows = {f"{s.section}/{s.name}": s for s in chosen}
        picked = []
        for wanted in args.scenario:
            found = [label for label, s in rows.items()
                     if wanted in (label, s.name)]
            if not found:
                parser.error(f"unknown scenario {wanted} in section(s) "
                             f"{', '.join(sections)}; choose from "
                             f"{', '.join(rows)}")
            if len(found) > 1:
                parser.error(f"scenario {wanted} is a row of more than one "
                             f"section; choose one of {', '.join(found)}")
            picked += found
        chosen = [s for label, s in rows.items() if label in picked]

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

    failures, warnings = check(payload, baseline)
    for warning in warnings:
        print(f"warning: {warning}")
    if baseline is not None:
        print("\n".join(record_lines(payload, baseline)))
    if args.parent:
        def pairs_of(section, name, variant):
            request = {"row": [section, name], "variant": variant,
                       "quick": args.quick}
            t0 = time.perf_counter()
            got = run_pairs(Path(args.parent), Path(_ROOT), request, PAIRS)
            print(f"{section}/{name} [{variant}]: {len(got)} pairs "
                  f"{time.perf_counter() - t0:.1f}s", file=sys.stderr, flush=True)
            return got

        rate_failures, lines = parent_check(gated_rows(payload), pairs_of,
                                            changed)
        print("\n".join(lines))
        failures += rate_failures
    if failures:
        print("BENCH CHECK FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    if baseline is not None:
        rates = (f"no rate-gated row under {1.0 - RATE_BOUND:.2f}x the "
                 f"parent over {PAIRS} pairs" if args.parent
                 else "host rates not gated (no --parent)")
        print(f"check ok vs {args.check}: simulated fields identical, {rates}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

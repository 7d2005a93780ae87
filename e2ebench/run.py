#!/usr/bin/env python3
"""The end-to-end benchmark: one command, four workloads, checked outputs.

Run from the repository root (the script finds ``src/`` itself)::

    python3 e2ebench/run.py                   # every workload, 3 fresh processes
                                              # each, plus the paper-claim benches
    python3 e2ebench/run.py --trace DIR       # one traced run per workload:
                                              # per-layer metrics + DIR/<w>.trace.json
    python3 e2ebench/run.py --compare A.json B.json
    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 e2ebench/run.py --record-goldens  # after a deliberate model change

A single-workload run repeats *timed windows* -- build the world, warm
it up, run the workload -- until ``--seconds`` have passed (at least
three), after one untimed window that lets the host settle, and reports
the median window.  Its last stdout line is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics, or
with tracing the per-layer ones).  Metric names,
units and directions are in ``metrics.py``; regression bounds are in
``BENCHMARK.json``; see ``README.md`` for what each metric should move.
"""

from __future__ import annotations

import sys

# Leave no __pycache__ behind in the checkout being measured.
sys.dont_write_bytecode = True

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
GOLDENS = HERE / "goldens.json"

DEFAULT_SEED = 0
#: a second recorded seed: its goldens show the simulation itself is
#: unchanged, not only its behaviour on the default inputs
HELD_OUT_SEED = 1
MIN_WINDOWS = 3
#: fresh processes per workload when running them all
REPEATS = 3
CHILD_TIMEOUT_S = 600
#: fixed before the interpreter starts: string hashing (so dict layouts do
#: not differ from process to process) and glibc's mmap threshold (so every
#: world's memory is freshly mapped, and set-up time does not depend on
#: what an earlier window freed)
STEADY_ENV = {"PYTHONHASHSEED": "0", "MALLOC_MMAP_THRESHOLD_": str(1 << 20)}


def host_info() -> dict:
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
    }


def steady_interpreter() -> None:
    """Re-execute this script under :data:`STEADY_ENV` unless already there."""
    if all(os.environ.get(k) == v for k, v in STEADY_ENV.items()):
        return
    script = str(Path(__file__).resolve())
    os.execve(
        sys.executable,
        [sys.executable, script, *sys.argv[1:]],
        {**os.environ, **STEADY_ENV},
    )


def bootstrap() -> None:
    """Import the program from this checkout's ``src/``, or fail loudly."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"error: {src / 'repro'} not found; run from a repository checkout")
    sys.path.insert(0, str(src))


def run_window(cls, seed: int, scale: float) -> dict:
    """Build one world, run its timed window, read back the outcome."""
    gc.collect()
    t0 = perf_counter()
    world = cls(seed, scale)
    built = perf_counter() - t0
    pre, window = world.run()
    return {"setup_s": built + pre, "window_s": window, "outcome": world.outcome()}


def golden_for(name: str, seed: int, scale: float):
    """The recorded simulated results, if any (recorded at full size only)."""
    if scale != 1.0 or not GOLDENS.is_file():
        return None
    return json.loads(GOLDENS.read_text())["workloads"].get(name, {}).get(str(seed))


def check(units: list, golden) -> "tuple[int, list]":
    """Failed messages and problems: structure, determinism, goldens."""
    first = units[0]["outcome"]
    failed = sum(u["outcome"].failed for u in units)
    problems = [p for u in units for p in u["outcome"].problems]
    for k, unit in enumerate(units[1:], start=2):
        if unit["outcome"].sim != first.sim:
            problems.append(f"window {k} simulated differently from window 1")
            failed += unit["outcome"].messages
    if golden is not None:
        diff = sorted(k for k in golden if first.sim.get(k) != golden[k])
        if diff:
            problems.append(f"simulated results differ from goldens.json: {diff}")
            failed += sum(u["outcome"].messages for u in units)
    return failed, problems


def measure(name: str, seed: int, seconds: float, scale: float = 1.0) -> dict:
    """Timed windows for ``seconds`` (at least three); their medians."""
    from metrics import END_TO_END, as_report, end_to_end
    from repro.params import shrimp
    from workloads import WORKLOADS

    cls = WORKLOADS[name]
    # The first window settles the host (CPU clock, lazy imports); it is
    # checked but not timed.
    units = [run_window(cls, seed, scale)]
    started = perf_counter()
    while len(units) <= MIN_WINDOWS or perf_counter() - started < seconds:
        units.append(run_window(cls, seed, scale))
    golden = golden_for(name, seed, scale)
    failed, problems = check(units, golden)
    first = units[0]["outcome"]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    values = end_to_end(units[1:], peak_rss_mb, shrimp().cpu_hz)
    return {
        "workload": name,
        "seed": seed,
        "windows": len(units) - 1,
        "correct": failed == 0 and not problems,
        "attempted": sum(u["outcome"].messages for u in units),
        "failed": failed,
        "problems": problems,
        "golden": golden is not None,
        "sim": first.sim,
        "metrics": as_report(values, END_TO_END),
        "host": host_info(),
    }


def trace(name: str, seed: int, trace_dir: Path, scale: float = 1.0) -> dict:
    """Untraced reference windows, then one traced window; per-layer metrics."""
    from layers import SpanRecorder, traced
    from metrics import PER_LAYER, as_report, per_layer
    from workloads import WORKLOADS

    cls = WORKLOADS[name]
    reference = [run_window(cls, seed, scale) for _ in range(1 + MIN_WINDOWS)]
    untraced = statistics.median(
        u["outcome"].messages / u["window_s"] for u in reference[1:]
    )
    gc.collect()
    rec = SpanRecorder()
    with traced(rec):
        t0 = perf_counter()
        rec.begin("bench", "construct")
        world = cls(seed, scale)
        rec.end()
        rec.begin("bench", "run")
        _pre, window = world.run()
        rec.end()
        wall = perf_counter() - t0
    outcome = world.outcome()
    golden = golden_for(name, seed, scale)
    failed, problems = check(reference, golden)
    failed += outcome.failed
    problems += outcome.problems
    if outcome.sim != reference[0]["outcome"].sim:
        problems.append("tracing changed the simulated results")
        failed += outcome.messages
    covered = sum(rec.self_s.values())
    if covered > wall:
        problems.append(f"layer self times sum to {covered:.6f} s > wall {wall:.6f} s")
    traced_rate = outcome.messages / window
    values = per_layer(rec, wall, outcome.counters, untraced / traced_rate)
    report = {
        "workload": name,
        "seed": seed,
        "scale": scale,
        "correct": failed == 0 and not problems,
        "attempted": outcome.messages + sum(u["outcome"].messages for u in reference),
        "failed": failed,
        "problems": problems,
        "golden": golden is not None,
        "sim": outcome.sim,
        "metrics": as_report(values, PER_LAYER),
        "host": host_info(),
    }
    trace_dir.mkdir(parents=True, exist_ok=True)
    document = {
        **{k: report[k] for k in ("workload", "seed", "scale", "host", "metrics")},
        "wall_s": wall,
        "window_s": window,
        "layers": {
            layer: {"self_s": rec.self_s[layer], "calls": rec.calls[layer]}
            for layer in sorted(rec.self_s)
        },
        **rec.trace_document(),
    }
    path = trace_dir / f"{name}.trace.json"
    path.write_text(json.dumps(document, separators=(",", ":")))
    report["trace_file"] = str(path)
    return report


def run_child(args: list, report_path: Path) -> dict:
    """One single-workload run in a fresh interpreter; its full report."""
    cmd = [sys.executable, str(HERE / "run.py"), *args, "--report", str(report_path)]
    proc = subprocess.run(
        cmd, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
    )
    if proc.returncode != 0 or not report_path.is_file():
        raise RuntimeError(
            f"{' '.join(args)} exited {proc.returncode}:\n{proc.stderr[-2000:]}"
        )
    report = json.loads(report_path.read_text())
    report_path.unlink()
    return report


def paper_benches() -> dict:
    """The 23 paper-claim benches: simulated results vs EXPERIMENTS.md."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "benchmarks/", "--benchmark-only",
         "-o", "addopts=", "-q", "-p", "no:cacheprovider"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    counts = {
        kind: int(m.group(1)) if m else 0
        for kind in ("passed", "failed", "error")
        for m in [re.search(rf"(\d+) {kind}", proc.stdout)]
    }
    return {**counts, "returncode": proc.returncode}


def summarize(runs: list) -> dict:
    summary = {}
    for metric, first in runs[0]["metrics"].items():
        values = [run["metrics"][metric]["value"] for run in runs]
        summary[metric] = {
            "value": statistics.median(values),
            "unit": first["unit"],
            "min": min(values),
            "max": max(values),
        }
    return summary


def run_all(seed: int, seconds: float, trace_dir, out: Path) -> bool:
    from workloads import WORKLOADS

    OUT.mkdir(exist_ok=True)
    results = {"host": host_info(), "seed": seed, "workloads": {}}
    if trace_dir is None:
        results.update(seconds=seconds, repeats=REPEATS)
    for name in WORKLOADS:
        args = ["--workload", name, "--seed", str(seed)]
        if trace_dir is None:
            args += ["--seconds", str(seconds), "--trace", "0"]
            runs = [run_child(args, OUT / "child.json") for _ in range(REPEATS)]
        else:
            runs = [run_child(args + ["--trace", str(trace_dir)], OUT / "child.json")]
        results["workloads"][name] = {"runs": runs, "summary": summarize(runs)}
        print(format_workload(name, runs, with_metrics=trace_dir is None), flush=True)
    if trace_dir is not None:
        print(format_layers(results["workloads"]))
    correct = all(
        run["correct"] for w in results["workloads"].values() for run in w["runs"]
    )
    if trace_dir is None:
        benches = results["paper_benches"] = paper_benches()
        print(f"paper-claim benches: {benches['passed']} passed, "
              f"{benches['failed']} failed, {benches['error']} errors")
        correct = correct and benches["returncode"] == 0
    results["correct"] = correct
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(results, indent=1))
    print(f"results: {out}")
    runs = [run for w in results["workloads"].values() for run in w["runs"]]
    print(json.dumps({
        "correct": correct,
        "attempted": sum(run["attempted"] for run in runs),
        "failed": sum(run["failed"] for run in runs),
        "metrics": {
            f"{name}.{metric}": stats
            for name, w in results["workloads"].items()
            for metric, stats in w["summary"].items()
        },
    }))
    return correct


def format_workload(name: str, runs: list, with_metrics: bool) -> str:
    summary = summarize(runs) if with_metrics else {}
    status = "ok" if all(r["correct"] for r in runs) else "FAILED"
    golden = "goldens checked" if runs[0]["golden"] else "no goldens for this seed"
    lines = [f"== {name}: {len(runs)} run(s), correctness {status}, {golden}"]
    for run in runs:
        lines += [f"   problem: {p}" for p in run["problems"]]
    for metric, s in summary.items():
        lines.append(
            f"   {metric:<32} {s['value']:>14.6g} {s['unit']:<16} "
            f"[{s['min']:.6g} .. {s['max']:.6g}]"
        )
    sim = ", ".join(f"{k}={v}" for k, v in runs[0]["sim"].items() if k != "digest")
    lines.append(f"   sim: {sim}")
    return "\n".join(lines)


def format_layers(workloads: dict) -> str:
    """Per-layer metrics: one row per metric, one column per workload."""
    names = list(workloads)
    lines = [f"{'metric':<30}" + "".join(f"{n:>18}" for n in names) + "  unit"]
    for metric, first in workloads[names[0]]["summary"].items():
        values = "".join(
            f"{workloads[n]['summary'][metric]['value']:>18.6g}" for n in names
        )
        lines.append(f"{metric:<30}{values}  {first['unit']}")
    return "\n".join(lines)


def compare(a_path: Path, b_path: Path) -> int:
    """One row per workload and metric; exit 1 if any got worse than its bound."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    specs = {m["name"]: m for m in bench["end_to_end"]}
    a, b = json.loads(a_path.read_text()), json.loads(b_path.read_text())
    for label, doc in (("A", a), ("B", b)):
        print(f"{label}: {doc['host']}")
    if {k: a["host"][k] for k in ("cpu_count", "python")} != {
        k: b["host"][k] for k in ("cpu_count", "python")
    }:
        print("warning: A and B were recorded on different hosts")
    print(f"{'workload':<18} {'metric':<18} {'A median':>12} {'B median':>12} "
          f"{'worse by':>9} {'bound':>6}  verdict")
    worse = False
    for name in a["workloads"]:
        for metric, spec in specs.items():
            av = [r["metrics"][metric]["value"] for r in a["workloads"][name]["runs"]]
            bv = [r["metrics"][metric]["value"] for r in b["workloads"][name]["runs"]]
            verdict, change = judge(av, bv, spec["bound"], spec["better"])
            worse |= verdict == "worse"
            print(f"{name:<18} {metric:<18} {statistics.median(av):>12.6g} "
                  f"{statistics.median(bv):>12.6g} {change:>+8.1%} "
                  f"{spec['bound']:>6.0%}  {verdict}")
    return 1 if worse else 0


def judge(a: list, b: list, bound: float, better: str) -> "tuple[str, float]":
    """Verdict for B against A: better, worse, unchanged or unresolved.

    ``change`` is how much worse B's median is, as a share of A's; it
    must pass the bound to count either way.  When either side's runs
    spread wider than the bound, a change cannot be told from noise: the
    verdict is "unresolved", not "unchanged", unless every run of B beats
    every run of A.
    """
    ma, mb = statistics.median(a), statistics.median(b)
    if better == "lower":
        change = (mb - ma) / ma
        every_run_better = max(b) < min(a)
    else:
        change = (ma - mb) / ma
        every_run_better = min(b) > max(a)
    spread = max((max(v) - min(v)) / statistics.median(v) for v in (a, b))
    if spread > bound:
        return ("better" if every_run_better else "unresolved"), change
    if change > bound:
        return "worse", change
    if change < -bound:
        return "better", change
    return "unchanged", change


def record_goldens() -> None:
    from workloads import WORKLOADS

    goldens = {
        name: {
            str(seed): run_window(cls, seed, 1.0)["outcome"].sim
            for seed in (DEFAULT_SEED, HELD_OUT_SEED)
        }
        for name, cls in WORKLOADS.items()
    }
    GOLDENS.write_text(json.dumps(
        {"recorded_on": host_info(), "scale": 1.0, "workloads": goldens}, indent=1
    ) + "\n")
    print(f"wrote {GOLDENS}")


def parse_args(argv=None) -> argparse.Namespace:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", help="run one workload in this process")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=bench["run_seconds"],
                   help="measure timed windows for this long (at least 3 windows)")
    p.add_argument("--trace", default="0",
                   help="0 = off; 1 = traced run into e2ebench/out/traces; or a directory")
    p.add_argument("--out", type=Path, help="results file when running them all")
    p.add_argument("--report", type=Path, help=argparse.SUPPRESS)
    p.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"))
    p.add_argument("--record-goldens", action="store_true")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    bootstrap()
    steady_interpreter()
    trace_dir = {"0": None, "1": OUT / "traces"}.get(args.trace, Path(args.trace))
    if args.record_goldens:
        record_goldens()
        return 0
    if args.workload is None:
        kind = "trace" if trace_dir else "results"
        out = args.out or OUT / f"{kind}-seed{args.seed}.json"
        return 0 if run_all(args.seed, args.seconds, trace_dir, out) else 1
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    if trace_dir is None:
        report = measure(args.workload, args.seed, args.seconds)
    else:
        report = trace(args.workload, args.seed, trace_dir)
    if args.report:
        args.report.write_text(json.dumps(report))
    for problem in report["problems"]:
        print(f"problem: {problem}")
    print(f"host: {report['host']}")
    print(f"sim: {report['sim']}")
    print(json.dumps({k: report[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Paired A/B host-speed comparison of two checkouts: the one pairing loop.

Usage::

    python benchmarks/paired.py A_DIR B_DIR WORKLOAD [--pairs N] [--scale S] [--seed K]
        [--metric msgs_per_s|setup_s]

``A_DIR`` and ``B_DIR`` are repository checkouts; only their ``src/`` is
used.  The benchmark code is this file's checkout on both sides: the
e2ebench workload ``WORKLOAD`` (imported from ``e2ebench/workloads.py``)
or, through :func:`run_pairs`, a ``bench_host_throughput.SCENARIOS`` row
(``run_bench.py --check --parent`` gates its rates this way).

Every pair starts a fresh worker process per side, so no side keeps a
process that runs faster or slower than the other's for the whole run.
Both workers of a pair start together; each imports its checkout's
program and runs one untimed window that settles imports and the host.
Then the two timed windows run back to back, and which side goes first
swaps from pair to pair, so host drift hits both sides alike.  Every
pair asserts that A and B simulated identically (equal ``sim``), so a
speedup is only ever reported for bit-identical simulations.

Prints one line per pair (A and B readings, the B/A ratio to three
decimals), then each side's median and quartiles, the median ratio and
how many pairs B won, counted on the printed ratios: a pair that prints
``1.000`` is a tie and counts for neither side.
``--metric`` picks the reading: ``msgs_per_s`` (the default; higher
wins) is the timed window's host rate, ``setup_s`` (lower wins) is the
world's construction plus its pre-window seconds, exactly what
``e2ebench/run.py`` reports under that name.  Exit status: 0 done, 1
the simulations differed, 2 bad arguments.  Point both sides at the
same checkout for an A/A control: its median ratio shows the harness's
own noise floor.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent

#: the environment e2ebench/run.py fixes before a measurement (string
#: hashing and glibc's mmap threshold), so windows here match its windows
STEADY_ENV = {"PYTHONHASHSEED": "0", "MALLOC_MMAP_THRESHOLD_": str(1 << 20)}


def _window(request: dict) -> dict:
    """One window of the requested workload: its reading and ``sim``."""
    gc.collect()
    if "row" in request:
        from bench_host_throughput import SCENARIOS

        spec = SCENARIOS[tuple(request["row"])]
        result = spec.fn(**spec.kwargs(request["quick"]),
                         **spec.variants[request["variant"]])
        return {"msgs_per_s": result.messages_per_s, "sim": result.sim,
                "failed": 0}
    from bench_host_throughput import E2E_WORKLOADS

    t0 = perf_counter()
    world = E2E_WORKLOADS[request["workload"]](request["seed"], request["scale"])
    built = perf_counter() - t0
    pre, window = world.run()
    outcome = world.outcome()
    return {"msgs_per_s": outcome.messages / window, "setup_s": built + pre,
            "sim": outcome.sim, "failed": outcome.failed}


def worker_main(checkout: str, request: str) -> int:
    """Run one untimed window on ``checkout``'s program, then, on ``go``
    from stdin, one timed window; print its reading."""
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(Path(checkout).resolve() / "src"), str(HERE)]
    request = json.loads(request)
    _window(request)
    print("ready", flush=True)
    sys.stdin.readline()
    reading = _window(request)
    reading["pid"] = os.getpid()
    print(json.dumps(reading), flush=True)
    return 0


class Worker:
    """A fresh worker process: one side of one pair."""

    def __init__(self, checkout: Path, request: dict) -> None:
        self.checkout = checkout
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--worker",
             str(checkout), json.dumps(request)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env={**os.environ, **STEADY_ENV, "PYTHONDONTWRITEBYTECODE": "1"},
            text=True,
        )

    def _exited(self) -> None:
        self.proc.wait()
        raise RuntimeError(f"worker for {self.checkout} exited "
                           f"{self.proc.returncode}")

    def ready(self) -> None:
        """Wait until the untimed window is done."""
        if not self.proc.stdout.readline():
            self._exited()

    def timed(self) -> dict:
        """Run the timed window; its reading."""
        out, _ = self.proc.communicate("go\n")
        if self.proc.returncode != 0:
            self._exited()
        return json.loads(out)

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()


def run_pairs(a_dir: Path, b_dir: Path, request: dict, pairs: int,
              on_pair=None) -> list:
    """``(A reading, B reading)`` per pair, alternating which runs first.

    Both workers of a pair start together and run their untimed windows;
    then the timed windows run one after the other, in the pair's order,
    so the two readings see the host at nearly the same moment.  Stops
    after the first pair whose sides simulated differently, so the last
    pair returned is the one to look at.  ``on_pair(k, order, a, b)`` is
    called after every pair.
    """
    dirs = {"A": a_dir, "B": b_dir}
    got = []
    for k in range(pairs):
        order = ("A", "B") if k % 2 == 0 else ("B", "A")
        workers = {side: Worker(dirs[side], request) for side in order}
        try:
            for worker in workers.values():
                worker.ready()
            reading = {side: workers[side].timed() for side in order}
        finally:
            for worker in workers.values():
                worker.kill()
        got.append((reading["A"], reading["B"]))
        if on_pair is not None:
            on_pair(k, order, reading["A"], reading["B"])
        if reading["A"]["sim"] != reading["B"]["sim"]:
            break
    return got


#: metric -> (unit, print format, True if higher is better)
METRICS = {
    "msgs_per_s": ("msgs/s", "{:10.1f}", True),
    "setup_s": ("s", "{:10.5f}", False),
}


def _ratio(a: float, b: float) -> float:
    """B/A as printed, to three decimals: wins are counted on this value,
    so a pair that prints ``1.000`` is a tie and counts for neither side."""
    return round(b / a, 3)


def _quartiles(values: list, fmt: str) -> str:
    """First and third quartile, or the lone value of a one-pair run."""
    if len(values) < 2:
        return fmt.format(values[0]).strip()
    q1, _median, q3 = statistics.quantiles(values, n=4)
    return f"{fmt.format(q1).strip()} .. {fmt.format(q3).strip()}"


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("a_dir", type=Path, metavar="A_DIR")
    p.add_argument("b_dir", type=Path, metavar="B_DIR")
    p.add_argument("workload", metavar="WORKLOAD")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--metric", choices=sorted(METRICS), default="msgs_per_s")
    args = p.parse_args(argv)
    for checkout in (args.a_dir, args.b_dir):
        if not (checkout / "src" / "repro" / "__init__.py").is_file():
            p.error(f"{checkout} is not a checkout (no src/repro)")
    if args.pairs < 1:
        p.error("--pairs must be at least 1")
    return args


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv[:1] == ["--worker"]:
        return worker_main(argv[1], argv[2])
    args = parse_args(argv)
    unit, fmt, higher_wins = METRICS[args.metric]
    request = {"workload": args.workload, "seed": args.seed, "scale": args.scale}

    def show(k, order, a, b):
        print(f"pair {k:2d} ({order[0]} first): A {fmt.format(a[args.metric])}  "
              f"B {fmt.format(b[args.metric])} {unit}  "
              f"B/A {_ratio(a[args.metric], b[args.metric]):.3f}", flush=True)

    got = run_pairs(args.a_dir, args.b_dir, request, args.pairs, show)
    a, b = got[-1]
    if a["sim"] != b["sim"]:
        print(f"pair {len(got) - 1}: A and B simulated differently:\n"
              f"  A {a['sim']}\n  B {b['sim']}")
        return 1
    failed = [(a["failed"], b["failed"]) for a, b in got if a["failed"] or b["failed"]]
    if failed:
        print(f"failed messages (A, B) per pair: {failed}")
        return 1
    readings = {"A": [a[args.metric] for a, _ in got],
                "B": [b[args.metric] for _, b in got]}
    ratios = [_ratio(a, b) for a, b in zip(readings["A"], readings["B"])]
    for side, values in readings.items():
        median = fmt.format(statistics.median(values)).strip()
        print(f"{side}: median {median} {unit} [{_quartiles(values, fmt)}]")
    wins = sum((r > 1.0) if higher_wins else (r < 1.0) for r in ratios)
    print(f"{args.workload} seed {args.seed} scale {args.scale} {args.metric}: "
          f"median B/A {statistics.median(ratios):.3f}, "
          f"B won {wins}/{len(ratios)} pairs")
    return 0


if __name__ == "__main__":
    sys.exit(main())

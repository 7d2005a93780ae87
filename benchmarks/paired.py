#!/usr/bin/env python3
"""Paired A/B host-speed comparison of two checkouts on one e2ebench workload.

Usage::

    python benchmarks/paired.py A_DIR B_DIR WORKLOAD [--pairs N] [--scale S] [--seed K]
        [--metric msgs_per_s|setup_s]

``A_DIR`` and ``B_DIR`` are repository checkouts (each with ``src/`` and
``e2ebench/workloads.py``).  One persistent worker process per checkout
imports that checkout's program and workloads; the parent then runs
timed windows alternately on A and B, swapping which goes first on every
pair, so slow drifts of host speed hit both sides alike.  Every pair
asserts that A and B simulated identically (equal ``sim``), so a speedup
is only ever reported for bit-identical simulations.

Prints one line per pair (A and B readings, the B/A ratio), then each
side's median and quartiles, the median ratio and how many pairs B won.
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
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

#: the environment e2ebench/run.py fixes before a measurement (string
#: hashing and glibc's mmap threshold), so windows here match its windows
STEADY_ENV = {"PYTHONHASHSEED": "0", "MALLOC_MMAP_THRESHOLD_": str(1 << 20)}


def worker_main(checkout: str) -> int:
    """Serve windows for one checkout: one JSON request and reply per line."""
    sys.dont_write_bytecode = True
    root = Path(checkout).resolve()
    sys.path.insert(0, str(root / "e2ebench"))
    sys.path.insert(0, str(root / "src"))
    import gc
    from time import perf_counter

    from workloads import WORKLOADS

    for line in sys.stdin:
        request = json.loads(line)
        cls = WORKLOADS[request["workload"]]
        gc.collect()
        t0 = perf_counter()
        world = cls(request["seed"], request["scale"])
        built = perf_counter() - t0
        pre, window = world.run()
        outcome = world.outcome()
        reply = {
            "msgs_per_s": outcome.messages / window,
            "setup_s": built + pre,
            "sim": outcome.sim,
            "failed": outcome.failed,
        }
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
    return 0


class Worker:
    """A persistent worker process bound to one checkout."""

    def __init__(self, checkout: Path) -> None:
        self.checkout = checkout
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--worker", str(checkout)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env={**os.environ, **STEADY_ENV, "PYTHONDONTWRITEBYTECODE": "1"},
            text=True,
        )

    def window(self, workload: str, seed: int, scale: float) -> dict:
        request = {"workload": workload, "seed": seed, "scale": scale}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"worker for {self.checkout} exited")
        return json.loads(line)

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait(timeout=60)


#: metric -> (unit, print format, True if higher is better)
METRICS = {
    "msgs_per_s": ("msgs/s", "{:10.1f}", True),
    "setup_s": ("s", "{:10.5f}", False),
}


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
        if not (checkout / "e2ebench" / "workloads.py").is_file():
            p.error(f"{checkout} is not a checkout (no e2ebench/workloads.py)")
    if args.pairs < 1:
        p.error("--pairs must be at least 1")
    return args


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv[:1] == ["--worker"]:
        return worker_main(argv[1])
    args = parse_args(argv)
    unit, fmt, higher_wins = METRICS[args.metric]
    workers = {"A": Worker(args.a_dir), "B": Worker(args.b_dir)}
    try:
        # One untimed window per side settles imports and the host.
        for worker in workers.values():
            worker.window(args.workload, args.seed, args.scale)
        ratios = []
        readings = {"A": [], "B": []}
        for k in range(args.pairs):
            order = ("A", "B") if k % 2 == 0 else ("B", "A")
            got = {
                side: workers[side].window(args.workload, args.seed, args.scale)
                for side in order
            }
            if got["A"]["sim"] != got["B"]["sim"]:
                print(f"pair {k}: A and B simulated differently:\n"
                      f"  A {got['A']['sim']}\n  B {got['B']['sim']}")
                return 1
            if got["A"]["failed"] or got["B"]["failed"]:
                print(f"pair {k}: failed messages A={got['A']['failed']} "
                      f"B={got['B']['failed']}")
                return 1
            a, b = got["A"][args.metric], got["B"][args.metric]
            readings["A"].append(a)
            readings["B"].append(b)
            ratios.append(b / a)
            print(f"pair {k:2d} ({order[0]} first): A {fmt.format(a)}  "
                  f"B {fmt.format(b)} {unit}  B/A {b / a:.3f}", flush=True)
    finally:
        for worker in workers.values():
            worker.close()
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

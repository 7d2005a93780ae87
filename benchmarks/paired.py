#!/usr/bin/env python3
"""Paired A/B host-speed comparison of two checkouts on one e2ebench workload.

Usage::

    python benchmarks/paired.py A_DIR B_DIR WORKLOAD [--pairs N] [--scale S] [--seed K]

``A_DIR`` and ``B_DIR`` are repository checkouts (each with ``src/`` and
``e2ebench/workloads.py``).  One persistent worker process per checkout
imports that checkout's program and workloads; the parent then runs
timed windows alternately on A and B, swapping which goes first on every
pair, so slow drifts of host speed hit both sides alike.  Every pair
asserts that A and B simulated identically (equal ``sim``), so a speedup
is only ever reported for bit-identical simulations.

Prints one line per pair (A and B msgs/s, the B/A ratio), then each
side's median and quartiles of msgs/s, the median ratio and how many
pairs B won.  Exit status: 0 done, 1 the simulations differed, 2 bad
arguments.  Point both sides at the same checkout for an A/A control:
its median ratio shows the harness's own noise floor.
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
    from workloads import WORKLOADS

    for line in sys.stdin:
        request = json.loads(line)
        cls = WORKLOADS[request["workload"]]
        gc.collect()
        world = cls(request["seed"], request["scale"])
        _pre, window = world.run()
        outcome = world.outcome()
        reply = {
            "rate": outcome.messages / window,
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


def _quartiles(values: list) -> str:
    """First and third quartile, or the lone value of a one-pair run."""
    if len(values) < 2:
        return f"{values[0]:.1f}"
    q1, _median, q3 = statistics.quantiles(values, n=4)
    return f"{q1:.1f} .. {q3:.1f}"


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("a_dir", type=Path, metavar="A_DIR")
    p.add_argument("b_dir", type=Path, metavar="B_DIR")
    p.add_argument("workload", metavar="WORKLOAD")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
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
    workers = {"A": Worker(args.a_dir), "B": Worker(args.b_dir)}
    try:
        # One untimed window per side settles imports and the host.
        for worker in workers.values():
            worker.window(args.workload, args.seed, args.scale)
        ratios = []
        rates = {"A": [], "B": []}
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
            for side in rates:
                rates[side].append(got[side]["rate"])
            ratio = got["B"]["rate"] / got["A"]["rate"]
            ratios.append(ratio)
            print(f"pair {k:2d} ({order[0]} first): A {got['A']['rate']:10.1f}  "
                  f"B {got['B']['rate']:10.1f} msgs/s  B/A {ratio:.3f}", flush=True)
    finally:
        for worker in workers.values():
            worker.close()
    for side, values in rates.items():
        print(f"{side}: median {statistics.median(values):.1f} msgs/s "
              f"[{_quartiles(values)}]")
    wins = sum(r > 1.0 for r in ratios)
    print(f"{args.workload} seed {args.seed} scale {args.scale}: "
          f"median B/A {statistics.median(ratios):.3f}, "
          f"B won {wins}/{len(ratios)} pairs")
    return 0


if __name__ == "__main__":
    sys.exit(main())

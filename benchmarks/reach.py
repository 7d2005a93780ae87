"""Which functions of ``src/repro`` does anything actually run?

Runs every consumer in :func:`consumers` in a fresh interpreter under
``cProfile`` (forked shard workers included) and prints, per source file,
the functions no *system* consumer reached and those tier-1 missed too::

    python benchmarks/reach.py                    # ~2 min on 2 vCPUs
    python benchmarks/reach.py --json reach.json  # plus per-function verdicts

A function counts as reached if any consumer entered it, whatever that
consumer's exit code.  Each code is printed as the consumer finishes, and
the script exits 1 if any consumer exited with another code than it
should: 0, or 1 for a ci.yml ``must_fail`` row (a planted bug the chaos
twin has to catch).  A consumer that replaces the profiler (its own
``cProfile.Profile().enable()`` or ``sys.setprofile``) would hide
everything it runs afterwards, so it fails instead: ``FAILED: profiler
displaced`` and exit status :data:`DISPLACED`.  Not part of any gate.
"""

from __future__ import annotations

import argparse
import ast
import cProfile
import json
import multiprocessing.util as mp_util
import os
import re
import runpy
import shlex
import subprocess
import sys
import tempfile
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"

#: exit status of a consumer that displaced the profiler (EX_SOFTWARE):
#: distinct from 0 and from a ``must_fail`` row's 1, so it always fails
DISPLACED = 70


def consumers():
    """``(group, argv, exit code)`` for every consumer; argv follows
    ``python``.

    System consumers: the paper benches, the e2ebench self-test, the
    examples, the CLI commands, every chaos row of ci.yml (read from the
    file, so they follow CI) and each ``run_bench.py --quick`` section.
    """
    table = [
        ("system", ["-m", "pytest", "benchmarks/", "--benchmark-disable"]),
        ("system", ["-m", "pytest", "e2ebench/test_e2e.py"]),
        *[("system", [str(p)]) for p in sorted((ROOT / "examples").glob("*.py"))],
        *[("system", ["-m", "repro", cmd]) for cmd in
          ("info", "fig8", "init", "demo", "metrics")],
        ("system", ["-m", "repro", "trace", "--json", os.devnull]),
        *[("system", ["benchmarks/run_bench.py", "--quick", "--section", s])
          for s in sections()],
        ("tier1", ["-m", "pytest"]),
    ]
    table = [(group, argv, 0) for group, argv in table]
    ci = (ROOT / ".github" / "workflows" / "ci.yml").read_text().replace("\\\n", " ")
    oracle, code = None, 0
    for line in ci.splitlines():
        line = re.sub(r"--repro-file \S+", "", line)
        if m := re.match(r"\s+- oracle: (\S+)", line):
            oracle, code = m.group(1), 0
        elif m := re.match(r"\s+(campaigns|must_fail): \|", line):
            code = int(m.group(1) == "must_fail")
        elif m := re.match(r"\s{14}(--.*)", line):                 # a campaigns row
            table.append(("system", ["-m", "repro", "chaos", "--oracle", oracle,
                                     *shlex.split(m.group(1))], code))
        elif m := re.match(r"\s+python -m repro chaos (--oracle [^$]*)$", line):
            table.append(("system", ["-m", "repro", "chaos", *shlex.split(m.group(1))], 0))
    return table


def sections():
    """``run_bench.py``'s sections, read from their one definition."""
    tree = ast.parse((ROOT / "benchmarks" / "bench_host_throughput.py").read_text())
    return next(ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "SECTIONS" for t in node.targets))


def record(out: str, argv: list) -> int:
    """Run ``python *argv`` under cProfile, write the code keys it entered
    and return the exit status ``python *argv`` would have had, or
    :data:`DISPLACED` if the profiler was no longer installed at the end."""
    prof = cProfile.Profile()

    def dump(path):
        prof.disable()
        Path(path).write_text(json.dumps(sorted(
            {(e.code.co_filename, e.code.co_firstlineno) for e in prof.getstats()
             if not isinstance(e.code, str) and e.code.co_filename.startswith(str(SRC))})))

    # A forked shard worker inherits the profiler; it dumps its keys at exit.
    mp_util.register_after_fork(prof, lambda _: mp_util.Finalize(
        None, dump, args=(f"{out}.{os.getpid()}",), exitpriority=0))
    sys.argv = argv[1:] if argv[0] == "-m" else argv
    prof.enable()
    # Where the interpreter shows cProfile through sys.getprofile() (before
    # 3.12), it must still be ours at the end of the run.
    watched = sys.getprofile() is prof
    code = 0
    try:
        if argv[0] == "-m":
            runpy.run_module(argv[1], run_name="__main__", alter_sys=True)
        else:
            runpy.run_path(argv[0], run_name="__main__")
    except SystemExit as e:
        code = e.code if isinstance(e.code, int) else int(e.code is not None)
    finally:
        displaced = watched and sys.getprofile() is not prof
        dump(out)
    if displaced:
        print(f"FAILED: profiler displaced in {' '.join(argv)}", file=sys.stderr)
        return DISPLACED
    return code


def functions():
    """``{(file, first line): (qualname, lines)}`` for every def in src/."""
    found = {}

    def name_of(fn, prefix):
        # A property's setter or deleter shares the getter's name; it
        # gets a key of its own (``Class.prop.setter``).
        for d in fn.decorator_list:
            if (isinstance(d, ast.Attribute) and d.attr in ("setter", "deleter")
                    and isinstance(d.value, ast.Name) and d.value.id == fn.name):
                return f"{prefix}{fn.name}.{d.attr}"
        return prefix + fn.name

    def walk(path, node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[(str(path), first)] = (name_of(child, prefix), child.end_lineno - first + 1)
                walk(path, child, prefix + child.name + ".<locals>.")
            else:
                walk(path, child, prefix + child.name + "."
                     if isinstance(child, ast.ClassDef) else prefix)

    for path in sorted(SRC.rglob("*.py")):
        walk(path, ast.parse(path.read_text()), "")
    return found


def run_all():
    """``{group: set of code keys}`` reached by each consumer group, and
    the argv of every consumer that exited with an unexpected code."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1",
               PYTEST_ADDOPTS="-q -p no:cacheprovider")
    reached, failed = defaultdict(set), []
    with tempfile.TemporaryDirectory() as tmp:
        def one(i, group, argv, code):
            out = os.path.join(tmp, f"{i}.json")
            proc = subprocess.run(
                [sys.executable, __file__, "--record", out, *argv],
                cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
            print(f"  [{group}] exit {proc.returncode}: {' '.join(argv)}", file=sys.stderr)
            if proc.returncode != code:
                failed.append(" ".join(argv))
            return group, {tuple(k) for path in Path(tmp).glob(f"{i}.json*")
                           for k in json.loads(path.read_text())}

        table = consumers()
        with ThreadPoolExecutor(2) as pool:
            for group, keys in pool.map(one, range(len(table)), *zip(*table)):
                reached[group] |= keys
    return reached, failed


def main() -> int:
    if sys.argv[1:2] == ["--record"]:
        return record(sys.argv[2], sys.argv[3:])
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--json", metavar="FILE", help="write each function's verdicts")
    args = parser.parse_args()
    found, (reached, failed) = functions(), run_all()
    rows, verdicts = defaultdict(lambda: [0] * 5), {}
    for key, (name, lines) in found.items():
        system = key in reached["system"]
        tier1 = system or key in reached["tier1"]
        file = os.path.relpath(key[0], SRC.parent)
        for row in (rows[file], rows["total"]):
            for i, add in enumerate((1, not system, lines * (not system),
                                     not tier1, lines * (not tier1))):
                row[i] += add
        verdicts[f"{file}:{name}"] = {"lines": lines, "system": system, "tier1": tier1}
    print(f"{'file':<34} {'funcs':>5}  {'system-unreached':>16}  {'tier1-unreached':>15}")
    for file, r in sorted(rows.items(), key=lambda kv: (kv[0] == "total", kv[0])):
        if r[1] or file == "total":
            print(f"{file:<34} {r[0]:>5}  {r[1]:>6} fn {r[2]:>5} ln  {r[3]:>5} fn {r[4]:>5} ln")
    if args.json:
        Path(args.json).write_text(json.dumps(verdicts, indent=1, sort_keys=True) + "\n")
    for argv in failed:
        print(f"FAILED: {argv}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

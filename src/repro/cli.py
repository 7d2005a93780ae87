"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``info``  -- print the active cost model and its calibration anchors.
* ``fig8``  -- run the Figure 8 bandwidth sweep and print the curve.
* ``init``  -- compare UDMA vs traditional initiation cost.
* ``demo``  -- run one traced transfer and render its pipeline timeline.
* ``metrics`` -- run a small workload and dump the metrics registry.
* ``trace`` -- run one cluster transfer and print its causal span tree
  (optionally exporting a Perfetto-loadable Chrome trace).
* ``chaos`` -- deterministic adversarial subjects with always-on invariant
  auditing, judged by the differential twins selected with ``--oracle``;
  failing schedules are shrunk to a paste-ready minimal reproducer.
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, List, Optional

from repro import ClusterConfig, Machine, MachineConfig, ObsConfig, ShrimpCluster
from repro.bench import (
    bandwidth_curve,
    fig8_sizes,
    make_payload,
    measure_peak_bandwidth,
)
from repro.devices import SinkDevice
from repro.params import shrimp
from repro.sim.timeline import legend, render_timeline
from repro.userlib import DeviceRef, MemoryRef, Sender, UdmaUser


def _cmd_info(args: argparse.Namespace) -> int:
    costs = shrimp()
    print("SHRIMP-calibrated cost model:")
    print(f"  CPU clock                 {costs.cpu_hz / 1e6:.0f} MHz")
    print(f"  page size                 {costs.page_size} bytes")
    print(f"  uncached I/O reference    {costs.io_ref_cycles} cycles")
    print(f"  UDMA initiation           {costs.udma_initiation_cycles} cycles "
          f"= {costs.cycles_to_us(costs.udma_initiation_cycles):.2f} us "
          "(paper anchor: ~2.8 us)")
    print(f"  traditional DMA (1 page)  "
          f"{costs.traditional_dma_overhead_cycles(1)} cycles "
          f"= {costs.cycles_to_us(costs.traditional_dma_overhead_cycles(1)):.1f} us")
    print(f"  DMA fill bandwidth        "
          f"{costs.bytes_per_second(costs.dma_bytes_per_cycle) / 1e6:.1f} MB/s")
    print(f"  wire bandwidth            "
          f"{costs.bytes_per_second(costs.wire_bytes_per_cycle) / 1e6:.1f} MB/s")
    return 0


def _cmd_fig8(args: argparse.Namespace) -> int:
    cluster = ShrimpCluster(config=ClusterConfig(num_nodes=2, mem_size=1 << 21))
    rx = cluster.node(1).create_process("rx")
    buf = cluster.node(1).kernel.syscalls.alloc(rx, 1 << 19)
    channel = cluster.create_channel(0, 1, rx, buf, 1 << 19)
    tx = cluster.node(0).create_process("tx")
    sender = Sender(cluster, tx, channel)
    peak = measure_peak_bandwidth(sender)
    print("Figure 8: % of peak bandwidth vs message size "
          f"(peak {cluster.costs.bytes_per_second(peak) / 1e6:.1f} MB/s)")
    for size, bw in bandwidth_curve(sender, fig8_sizes()):
        pct = bw / peak * 100
        print(f"  {size:6d} B  {pct:5.1f}%  {'#' * int(pct / 2)}")
    return 0


def _cmd_init(args: argparse.Namespace) -> int:
    machine = Machine(config=MachineConfig(mem_size=1 << 20))
    machine.attach_device(SinkDevice("sink", size=1 << 16))
    p = machine.create_process("app")
    buf = machine.kernel.syscalls.alloc(p, 4096)
    grant = machine.kernel.syscalls.grant_device_proxy(p, "sink")
    udma = UdmaUser(machine, p)
    machine.cpu.write_bytes(buf, make_payload(64))
    udma.transfer(MemoryRef(buf), DeviceRef(grant), 4)  # warm mappings
    machine.run_until_idle()

    before = machine.cpu.charged_cycles
    machine.cpu.execute(machine.costs.udma_align_check_cycles)
    status = udma.initiate(grant, machine.proxy(buf), 64)
    udma_cycles = machine.cpu.charged_cycles - before
    machine.run_until_idle()
    assert status.started

    t0 = machine.clock.now
    machine.kernel.syscalls.dma(p, "sink", 0, buf, 64, to_device=True)
    trad_cycles = machine.clock.now - t0

    us = machine.costs.cycles_to_us
    print(f"UDMA initiation:        {udma_cycles:6d} cycles = {us(udma_cycles):6.2f} us")
    print(f"traditional DMA (64 B): {trad_cycles:6d} cycles = {us(trad_cycles):6.2f} us")
    print(f"ratio: {trad_cycles / udma_cycles:.1f}x")
    return 0


def _cmd_demo(args: argparse.Namespace) -> int:
    machine = Machine(
        config=MachineConfig(mem_size=1 << 20, obs=ObsConfig(spans=True))
    )
    machine.attach_device(SinkDevice("sink", size=1 << 16))
    p = machine.create_process("app")
    buf = machine.kernel.syscalls.alloc(p, 8192)
    grant = machine.kernel.syscalls.grant_device_proxy(p, "sink")
    udma = UdmaUser(machine, p)
    machine.cpu.write_bytes(buf, make_payload(args.nbytes))
    udma.transfer(MemoryRef(buf), DeviceRef(grant), args.nbytes)
    machine.run_until_idle()
    print(f"one {args.nbytes}-byte UDMA transfer, traced:")
    print(render_timeline(machine.obs.spans, width=64))
    print(f"\nlegend: {legend()}")
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    from repro.analysis import render
    from repro.userlib import DeviceRef, MemoryRef

    machine = Machine(config=MachineConfig(mem_size=1 << 20))
    machine.attach_device(SinkDevice("sink", size=1 << 16))
    p = machine.create_process("app")
    buf = machine.kernel.syscalls.alloc(p, 8192)
    grant = machine.kernel.syscalls.grant_device_proxy(p, "sink")
    udma = UdmaUser(machine, p)
    for i, size in enumerate((64, 512, 4096)):
        machine.cpu.write_bytes(buf, make_payload(size, seed=i + 1))
        udma.transfer(MemoryRef(buf), DeviceRef(grant), size)
        machine.run_until_idle()
    print("system counters after a small workload:")
    print(render(machine.metrics()))
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    cluster = ShrimpCluster(
        config=ClusterConfig(
            num_nodes=2, mem_size=1 << 21, obs=ObsConfig(spans=True)
        )
    )
    rx = cluster.node(1).create_process("rx")
    buf = cluster.node(1).kernel.syscalls.alloc(rx, 1 << 16)
    channel = cluster.create_channel(0, 1, rx, buf, 1 << 16)
    tx = cluster.node(0).create_process("tx")
    sender = Sender(cluster, tx, channel)
    sender.send_bytes(make_payload(args.nbytes))
    cluster.run_until_idle()

    tracker = cluster.obs.spans
    assert tracker is not None
    print(f"one {args.nbytes}-byte transfer, as a causal span tree:")
    for root in tracker.roots():
        print(tracker.render_tree(root.id))
    if args.json:
        from repro.obs import write_chrome_trace

        write_chrome_trace(tracker, args.json, costs=cluster.costs)
        print(f"\n(Chrome trace written to {args.json}; "
              "open it at https://ui.perfetto.dev)")
    return 0


#: chaos flags that apply to some twins only: flag -> (dest, subject kind)
_SCOPED_FLAGS = {
    "--steps": ("steps", "schedule"),
    "--break": ("break_mode", "schedule"),
    "--backend": ("backend", "schedule"),
    "--checkpoint-every": ("checkpoint_every", "schedule"),
    "--max-shrink-evals": ("max_shrink_evals", "schedule"),
    "--dump-log": ("dump_log", "schedule"),
    "--shards": ("shards", "spec"),
    "--no-audit": ("no_audit", "spec"),
    "--engine": ("engine", "spec"),
}


def _chaos_epilog() -> str:
    """The twin table and flag scoping, as ``chaos --help`` prints them."""
    import textwrap

    from repro.chaos import TWINS

    lines = ["twins (--oracle NAME[,NAME...]; diffed against the first variant):"]
    for twin in TWINS.values():
        needs = f" [needs {', '.join(sorted(twin.requires))}]" if twin.requires else ""
        lines.append(f"  {twin.name:<12} {twin.subject} subject{needs}")
        lines += textwrap.wrap(twin.doc, 76, initial_indent=" " * 15,
                               subsequent_indent=" " * 15)
    lines += ["", "scoped flags (every selected twin must accept them):"]
    scopes: Dict[str, List[str]] = {}
    for flag, (_, scope) in _SCOPED_FLAGS.items():
        scopes.setdefault(scope, []).append(flag)
    for scope, flags in scopes.items():
        users = [t.name for t in TWINS.values() if t.subject == scope]
        lines.append(f"  {' '.join(flags)}")
        lines.append(f"{' ' * 15}{', '.join(users)}")
    return "\n".join(lines)


def _given(value: object) -> bool:
    """Was a flag set on the command line (its default is None/False)?"""
    return value is not None and value is not False


def _load_replay(args: argparse.Namespace) -> dict:
    """Read ``--replay``: an action list, or an artifact whose recorded
    settings fill in every flag the command line left unset."""
    import json

    from repro.chaos import actions_from_json
    from repro.sharding import ClusterSpec

    with open(args.replay, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    if isinstance(payload, list):
        return {"actions": actions_from_json(payload)}
    for key, value in payload.get("settings", {}).items():
        if not _given(getattr(args, key, None)):
            setattr(args, key, value)
    if "spec" in payload:
        return {"spec": ClusterSpec.from_dict(payload["spec"])}
    return {"actions": actions_from_json(payload["actions"])}


def _cmd_chaos(args: argparse.Namespace) -> int:
    import json

    from repro.chaos import PROTECTION_BACKENDS, run_chaos
    from repro.chaos.twins import get_twins

    def refuse(reason: str) -> int:
        print(f"bad flag combination: {reason}", file=sys.stderr)
        return 2

    try:
        subject = _load_replay(args) if args.replay else {}
    except (OSError, ValueError, KeyError) as exc:
        return refuse(f"cannot replay {args.replay}: {exc!r}")
    names = (args.oracle or "fast-paths").split(",")
    try:
        twins = get_twins(names)
    except ValueError as exc:
        return refuse(str(exc))
    for flag, (dest, scope) in _SCOPED_FLAGS.items():
        if _given(getattr(args, dest)):
            for twin in twins:
                if twin.subject != scope:
                    return refuse(f"{flag} does not apply to the {twin.name} twin")
    if args.replay and args.schedules != 1:
        return refuse("--replay reruns one subject; drop --schedules")
    backends = None
    if args.backend == "all":
        backends = PROTECTION_BACKENDS
    elif args.backend:
        backends = [b.strip() for b in args.backend.split(",") if b.strip()]

    reports = []
    for seed in range((args.seed or 0), (args.seed or 0) + args.schedules):
        try:
            report = run_chaos(
                seed=seed,
                steps=args.steps or 100,
                nodes=args.nodes,
                break_mode=args.break_mode,
                oracles=names,
                max_shrink_evals=args.max_shrink_evals or 200,
                iommu=args.iommu,
                profile=args.profile,
                checkpoint_every=args.checkpoint_every,
                backends=backends,
                shards=args.shards,
                engine=args.engine or "in-process",
                audit=not args.no_audit,
                **subject,
            )
        except ValueError as exc:
            return refuse(str(exc))
        reports.append(report)
        if not report.ok:
            break
    for report in reports[:-1]:
        print(f"seed {report.seed}: PASS")
    last = reports[-1]
    print(last.summary())
    if args.schedules > 1:
        passed = sum(r.ok for r in reports)
        stopped = "" if len(reports) == args.schedules else " (stopped at the first failure)"
        print(f"{passed}/{len(reports)} subjects pass{stopped}")
    if args.dump_log and last.fast is not None:
        for line in last.fast.audit_log:
            print(line)
    if last.ok:
        return 0
    if last.repro:
        print()
        print(last.repro)
    if args.repro_file:
        with open(args.repro_file, "w", encoding="utf-8") as fh:
            json.dump(last.artifact(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"\n(failing subject written to {args.repro_file})")
    return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SHRIMP UDMA reproduction (HPCA 1996) command-line tools",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("info", help="print the cost model").set_defaults(func=_cmd_info)
    sub.add_parser("fig8", help="run the Figure 8 sweep").set_defaults(func=_cmd_fig8)
    sub.add_parser("init", help="initiation cost comparison").set_defaults(func=_cmd_init)
    demo = sub.add_parser("demo", help="run one traced transfer")
    demo.add_argument("--nbytes", type=int, default=2048,
                      help="transfer size in bytes (default 2048)")
    demo.set_defaults(func=_cmd_demo)
    sub.add_parser(
        "metrics", help="run a small workload and dump every counter"
    ).set_defaults(func=_cmd_metrics)
    trace = sub.add_parser(
        "trace",
        help="run one cluster transfer and print its causal span tree",
    )
    trace.add_argument("--nbytes", type=int, default=8192,
                       help="transfer size in bytes (default 8192)")
    trace.add_argument("--json", default=None, metavar="FILE",
                       help="also write a Perfetto-loadable Chrome trace")
    trace.set_defaults(func=_cmd_trace)
    chaos = sub.add_parser(
        "chaos",
        help="adversarial subjects + invariant auditing + differential twins",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=_chaos_epilog() + """

examples
  chaos --seed 7 --steps 200 --nodes 2
  chaos --oracle fast-paths,delivery --seed 7 --steps 150 --nodes 2
  chaos --oracle fast-paths,iommu --steps 300
  chaos --oracle backends --backend all --nodes 2 --schedules 8
  chaos --oracle shards --shards 4 --engine both --iommu
  chaos --oracle shards --shards 1 --profile contention
  chaos --replay chaos-failure.json
""",
    )
    chaos.add_argument("--oracle", default=None, metavar="NAME[,NAME...]",
                       help="twins to judge every subject with (default "
                            "fast-paths); see the table below")
    chaos.add_argument("--seed", type=int, default=None,
                       help="first subject seed (default 0)")
    chaos.add_argument("--schedules", type=int, default=1, metavar="M",
                       help="run M consecutive seeds, stopping at the first "
                            "failure (default 1)")
    chaos.add_argument("--steps", type=int, default=None,
                       help="schedule length (default 100)")
    chaos.add_argument("--nodes", type=int, default=None,
                       help="1 = single node + sink; >= 2 = cluster ring "
                            "(default 1; 2 when a twin needs a cluster or "
                            "--iommu is on; 16 for spec twins)")
    chaos.add_argument("--profile", default=None, metavar="P",
                       help="schedule action mix: default | churn | paging; "
                            "spec twins: cluster shape mesh | contention | "
                            "torus (default: the twin's own)")
    chaos.add_argument("--break", dest="break_mode", default=None,
                       metavar="MODE",
                       help="plant a kernel bug: no-inval (context "
                            "switches skip the I1 Inval) | stale-xlat "
                            "(page-table edits skip their translation-"
                            "cache eviction)")
    chaos.add_argument("--iommu", action="store_true",
                       help="enable the virtual-address RDMA tier on every "
                            "node (the iommu twin turns it on itself)")
    chaos.add_argument("--backend", default=None, metavar="SPEC",
                       help="protection backend(s): proxy | captable | "
                            "handler | all, or a comma list; name:bug plants "
                            "a backend bug (e.g. captable:stale-cap).  The "
                            "backends twin runs each entry; other twins run "
                            "on a single one")
    chaos.add_argument("--shards", type=int, default=None, metavar="K",
                       help="shard count of the sharded variants")
    chaos.add_argument("--engine", default=None,
                       choices=["in-process", "worker", "both"],
                       help="sharded engine(s) the shards twin checks")
    chaos.add_argument("--no-audit", action="store_true",
                       help="skip per-operation invariant auditing of "
                            "sharded runs")
    chaos.add_argument("--replay", default=None, metavar="FILE",
                       help="replay a JSON action list, or a failure "
                            "artifact (its recorded flags apply unless "
                            "given here)")
    chaos.add_argument("--repro-file", default=None, metavar="FILE",
                       help="write the failing subject's JSON artifact here")
    chaos.add_argument("--dump-log", action="store_true",
                       help="print the full per-action audit log")
    chaos.add_argument("--max-shrink-evals", type=int, default=None,
                       help="ddmin replay budget (default 200)")
    chaos.add_argument("--checkpoint-every", type=int, default=None,
                       metavar="N",
                       help="snapshot the live world every N actions so "
                            "shrink candidates resume from the checkpointed "
                            "prefix instead of replaying from t=0 (exact -- "
                            "reports and shrunk reproducers are "
                            "bit-identical with or without checkpoints)")
    chaos.set_defaults(func=_cmd_chaos)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

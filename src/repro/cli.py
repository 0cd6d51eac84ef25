"""Command-line interface.

The subcommands mirror the library's main workflows::

    repro profile  <circuit.qasm> [...]     # Table I profiling
    repro map      <circuit.qasm> --device surface17 --mapper sabre
    repro trace    <circuit.qasm>           # traced mapping -> telemetry files
    repro metrics  [results/telemetry]      # inspect an exported telemetry dir
    repro suite    <directory> --num 20     # generate a QASM benchmark corpus
    repro run      <directory> --journal j.jsonl [--resume]  # fault-tolerant run
    repro serve    --workers 2 --requests 200  # compilation service + load
    repro chaos    --waves 12 --wave-size 6 # seeded chaos soak + invariants
    repro reproduce [--full]                # regenerate the paper's figures
    repro fuzz     --samples 200 [--faults] # differential fuzz the mapping stack

Every subcommand is also reachable as ``python -m repro.cli ...``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from .circuit import Circuit, draw as draw_circuit, parse_qasm
from .compiler.mapper import MAPPERS
from .core import MapperAdvisor, profile_circuit, routing_difficulty
from .hardware import Device, resolve_device

__all__ = ["main", "build_parser"]


def _resolve_device(spec: str) -> Device:
    """Parse a device spec: named chips or ``line:N`` / ``grid:RxC``."""
    try:
        return resolve_device(spec)
    except ValueError as exc:
        raise SystemExit(str(exc))


def _load_circuit(path: str) -> Circuit:
    source = Path(path)
    if not source.is_file():
        raise SystemExit(f"no such file: {path}")
    circuit = parse_qasm(source.read_text())
    circuit.name = source.stem
    return circuit


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_profile(args: argparse.Namespace) -> int:
    header = (
        f"{'circuit':24s} {'qubits':>6s} {'gates':>7s} {'2q %':>6s} "
        f"{'path':>6s} {'maxdeg':>6s} {'mindeg':>6s} {'adjstd':>7s} "
        f"{'difficulty':>10s}"
    )
    print(header)
    for path in args.circuits:
        profile = profile_circuit(_load_circuit(path))
        metrics = profile.metrics
        print(
            f"{profile.name[:24]:24s} {profile.size.num_qubits:6d} "
            f"{profile.size.num_gates:7d} "
            f"{profile.size.two_qubit_percentage:6.1f} "
            f"{metrics.avg_shortest_path:6.2f} {metrics.max_degree:6.0f} "
            f"{metrics.min_degree:6.0f} {metrics.adjacency_std:7.2f} "
            f"{routing_difficulty(metrics):10.2f}"
        )
    return 0


def _cmd_map(args: argparse.Namespace) -> int:
    circuit = _load_circuit(args.circuit)
    device = _resolve_device(args.device)
    if args.mapper == "advisor":
        advisor = MapperAdvisor()
        decision = advisor.decide(circuit)
        print(
            f"advisor: difficulty {decision.difficulty:.2f} -> "
            f"{decision.mapper_name}"
        )
        result = advisor.map(circuit, device)
    else:
        result = MAPPERS[args.mapper]().map(circuit, device)
    print(f"device:        {device.name} ({device.num_qubits} qubits)")
    print(f"mapper:        {result.mapper_name}")
    print(
        f"gates:         {result.overhead.gates_before} -> "
        f"{result.overhead.gates_after} "
        f"(+{result.overhead.gate_overhead_percent:.1f}%)"
    )
    print(f"swaps:         {result.swap_count}")
    print(
        f"depth:         {result.overhead.depth_before} -> "
        f"{result.overhead.depth_after}"
    )
    print(
        f"fidelity:      {result.fidelity.fidelity_before:.4f} -> "
        f"{result.fidelity.fidelity_after:.4f}"
    )
    print(f"latency:       {result.latency_ns:.0f} ns")
    print(f"initial layout: {result.initial_layout}")
    print(f"final layout:   {result.final_layout}")
    if args.verify:
        try:
            print(f"verified:      {result.verify()}")
        except ValueError as exc:
            print(f"verified:      skipped ({exc})")
    if args.draw:
        print()
        print(draw_circuit(result.mapped, max_width=100))
    return 0


def _format_span_tree(spans) -> str:
    """Indented one-line-per-span rendering of a span batch."""
    by_parent = {}
    by_id = {}
    for span_record in spans:
        by_id[span_record.span_id] = span_record
        by_parent.setdefault(span_record.parent_id, []).append(span_record)

    lines = []

    def render(span_record, depth: int) -> None:
        attrs = ", ".join(
            f"{k}={v}"
            for k, v in sorted(span_record.attributes.items())
            if k not in ("error",)
        )
        suffix = f"  [{attrs}]" if attrs else ""
        lines.append(
            f"{'  ' * depth}{span_record.name:<{max(1, 28 - 2 * depth)}s} "
            f"{span_record.duration_s * 1000:9.3f} ms{suffix}"
        )
        children = sorted(
            by_parent.get(span_record.span_id, []), key=lambda s: s.start_s
        )
        for child in children:
            render(child, depth + 1)

    roots = sorted(
        (s for s in spans if s.parent_id not in by_id),
        key=lambda s: s.start_s,
    )
    for root in roots:
        render(root, 0)
    return "\n".join(lines)


def _cmd_trace(args: argparse.Namespace) -> int:
    from . import telemetry

    circuit = _load_circuit(args.circuit)
    device = _resolve_device(args.device)
    mapper = MAPPERS[args.mapper]()
    with telemetry.session(export_dir=args.out) as tele:
        result = mapper.map(circuit, device)
        if args.verify:
            try:
                result.verify()
            except ValueError:
                pass
    print(_format_span_tree(tele.spans))
    print()
    print(
        f"mapped {circuit.name}: {result.overhead.gates_before} -> "
        f"{result.overhead.gates_after} gates, {result.swap_count} swaps"
    )
    for kind in ("events", "trace", "metrics"):
        print(f"wrote {tele.paths[kind]}")
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    from .telemetry.export import (
        EVENTS_FILENAME,
        METRICS_FILENAME,
        read_jsonl,
    )

    directory = Path(args.directory)
    events_path = directory / EVENTS_FILENAME
    metrics_path = directory / METRICS_FILENAME
    if not events_path.is_file() and not metrics_path.is_file():
        raise SystemExit(
            f"no telemetry found under {directory} (expected "
            f"{EVENTS_FILENAME} and/or {METRICS_FILENAME}; run "
            "'repro trace' or a traced suite first)"
        )
    if events_path.is_file():
        totals = {}
        for event in read_jsonl(events_path):
            entry = totals.setdefault(event["name"], [0, 0.0])
            entry[0] += 1
            entry[1] += event["end_s"] - event["start_s"]
        print(f"{'span':28s} {'count':>7s} {'total':>12s} {'mean':>12s}")
        for name in sorted(totals, key=lambda n: -totals[n][1]):
            count, seconds = totals[name]
            print(
                f"{name:28s} {count:7d} {seconds * 1000:10.2f}ms "
                f"{seconds / count * 1000:10.3f}ms"
            )
    if metrics_path.is_file():
        if events_path.is_file():
            print()
        print(metrics_path.read_text(), end="")
    return 0


def _cmd_suite(args: argparse.Namespace) -> int:
    from .runtime import workers_from_env
    from .workloads import evaluation_suite, save_suite

    suite = evaluation_suite(
        num_circuits=args.num,
        seed=args.seed,
        max_qubits=args.max_qubits,
        max_gates=args.max_gates,
    )
    workers = args.workers if args.workers is not None else workers_from_env()
    paths = save_suite(suite, args.directory, workers=workers)
    print(f"wrote {len(paths)} circuits + manifest to {args.directory}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    from .resilience import FaultPlan
    from .runtime import run_suite_parallel
    from .workloads import load_suite

    if args.resume and not args.journal:
        raise SystemExit("--resume requires --journal")
    suite = load_suite(args.corpus)
    device = _resolve_device(args.device)
    mapper = MAPPERS[args.mapper]()
    faults = FaultPlan.parse(args.faults) if args.faults else None
    policy = None
    if args.retries is not None:
        from .resilience import RetryPolicy

        policy = RetryPolicy(attempts=args.retries + 1)
    print(
        f"mapping {len(suite)} circuits from {args.corpus} onto "
        f"{device.name} with {args.mapper} ...",
        file=sys.stderr,
    )
    report = run_suite_parallel(
        suite,
        device,
        mapper,
        workers=args.workers,
        deadline_s=args.deadline_s,
        policy=policy,
        degrade=not args.no_degrade,
        faults=faults,
        journal=args.journal,
        resume=args.resume,
        item_timeout_s=args.item_timeout_s,
    )
    total = len(report.records) + len(report.failures)
    print(
        f"mapped {len(report.records)}/{total} circuits "
        f"(workers={report.workers}, {report.wall_time_s:.2f}s)"
    )
    if report.journal_path:
        print(f"journal:   {report.journal_path}")
    if report.resumed:
        print(f"resumed:   {report.resumed} circuits from the journal")
    if report.skipped:
        print(f"skipped:   {len(report.skipped)} wider than the device")
    if report.resilience:
        retries = sum(r.retries for r in report.resilience)
        expiries = sum(1 for r in report.resilience if r.deadline_expired)
        print(
            f"attempts:  {report.total_mapping_attempts} "
            f"({retries} retries, {expiries} deadline expiries)"
        )
        for name in report.degraded:
            annotated = next(
                r for r in report.resilience if r.name == name
            )
            print(
                f"degraded:  {name}: {' -> '.join(annotated.steps)} "
                f"(final router {annotated.router or 'none'})"
            )
    if report.recomputed:
        print(
            f"recovered: {report.recomputed} circuits recomputed after "
            "worker loss"
        )
    for failure in report.failures:
        print(f"FAILED:    {failure.name}: {failure.error}")
    return 1 if report.failures else 0


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from .fuzz import planted_bug_selftest, run_fuzz

    if args.self_test:
        print("self-test: planting an off-by-one in the SABRE router ...")
        planted_bug_selftest()
        print("self-test: planted bug found and shrunk — harness is live")
    if args.faults:
        from .resilience import fault_recovery_selftest

        print(
            "fault drill: injecting raise / sleep-past-deadline / worker "
            "kill / parent crash ..."
        )
        for line in fault_recovery_selftest():
            print(f"  ok: {line}")
        print("fault drill: every recovery path fired")
    report = run_fuzz(
        seed=args.seed,
        samples=args.samples,
        out_dir=args.out,
        shrink=not args.no_shrink,
    )
    print(report.format())
    if not report.ok and args.out:
        print(f"reproducers dumped under {args.out}")
    return 0 if report.ok else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    import signal

    from .runtime import workers_from_env
    from .service import CompilationService, install_drain_handlers
    from .service.loadgen import build_corpus, drive, generate_requests

    workers = args.workers
    if workers is None:
        workers = workers_from_env(default=0)
    corpus = build_corpus(args.circuits, seed=args.seed)
    requests = generate_requests(
        corpus,
        args.requests,
        seed=args.seed + 1,
        device=args.device,
        mapper=args.mapper,
        fault_at=0 if args.fault else None,
        fault=args.fault or "raise@0",
    )
    print(
        f"serving {args.requests} mixed-priority requests "
        f"({args.circuits} distinct circuits) on {args.device} with "
        f"{args.mapper}, workers={workers} ...",
        file=sys.stderr,
    )
    with CompilationService(
        workers=workers, devices=(args.device,), cache_capacity=args.cache
    ) as service:
        previous = install_drain_handlers(
            service, journal=args.drain_journal
        )
        try:
            report = drive(service, requests, wave_size=args.wave)
        finally:
            for signum, handler in previous.items():
                signal.signal(signum, handler)
    summary = report.summary()
    print(
        f"requests:   {summary['requests']} "
        f"({summary['requests_per_second']:.1f}/s, "
        f"wall {summary['wall_s']:.2f}s)"
    )
    print(
        f"latency:    p50 {summary['latency_p50_ms']:.2f} ms, "
        f"p99 {summary['latency_p99_ms']:.2f} ms"
    )
    print(
        f"cache:      {summary['cache_hits']} hits / "
        f"{summary['cache_misses']} misses "
        f"(hit rate {summary['cache_hit_rate']:.0%}), "
        f"{summary['coalesced']} coalesced, "
        f"{summary['cache_evictions']} evicted"
    )
    print(
        f"resilience: {summary['recovered']} recovered after worker loss, "
        f"{summary['failed']} failed"
    )
    return 1 if summary["failed"] else 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    from .chaos import ChaosPlan, ChaosRunner, run_selftest

    if args.self_test:
        report = run_selftest(device=args.device, workers=1, seed=args.seed)
        print("self-test: planted payload corruption was caught")
        print(report.format())
        return 0
    plan = ChaosPlan.generate(
        device=args.device,
        seed=args.seed,
        waves=args.waves,
        wave_size=args.wave_size,
        kills=args.kills,
        hangs=args.hangs,
        poisons=args.poisons,
        drifts=args.drifts,
        pressures=args.pressures,
    )
    print(f"chaos plan: {plan.describe()}", file=sys.stderr)
    runner = ChaosRunner(
        plan,
        device=args.device,
        workers=args.workers,
        heartbeat_budget_s=args.heartbeat_budget,
        raise_on_violation=False,
    )
    report = runner.run()
    print(report.format())
    if args.json:
        path = Path(args.json)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"
        )
        print(f"report written to {path}", file=sys.stderr)
    return 0 if report.ok else 1


def _cmd_report(args: argparse.Namespace) -> int:
    from .experiments import generate_report, records_to_csv, run_suite
    from .workloads import load_suite

    suite = load_suite(args.corpus)
    device = _resolve_device(args.device)
    mapper = MAPPERS[args.mapper]()
    print(
        f"mapping {len(suite)} circuits from {args.corpus} "
        f"onto {device.name} with {args.mapper} ...",
        file=sys.stderr,
    )
    records = run_suite(suite, device=device, mapper=mapper, workers=args.workers)
    report = generate_report(
        records,
        title=f"Mapping report: {Path(args.corpus).name}",
        device_name=device.name,
        mapper_name=args.mapper,
    )
    if args.output:
        Path(args.output).write_text(report)
        print(f"wrote {args.output}")
    else:
        print(report)
    if args.csv:
        records_to_csv(records, args.csv)
        print(f"wrote {args.csv}")
    return 0


def _reproduce(args: argparse.Namespace) -> int:
    from .experiments import (
        fig3_data,
        fig5_data,
        format_fig3,
        format_fig4,
        format_fig5,
        format_table1,
        run_fig4,
        run_suite,
        run_table1,
    )
    from .workloads import evaluation_suite

    if args.full:
        suite = evaluation_suite(num_circuits=200, seed=2022, max_gates=20000)
    else:
        suite = evaluation_suite(
            num_circuits=60, seed=2022, max_qubits=30, max_gates=2000
        )
    print(f"mapping {len(suite)} benchmarks ...", file=sys.stderr)
    records = run_suite(suite, workers=args.workers)
    print(format_fig3(fig3_data(records)))
    print(format_fig4(run_fig4()))
    print(format_fig5(fig5_data(records)))
    print(format_table1(run_table1(records)))
    return 0


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Full-stack NISQ compilation: profile, map and "
        "reproduce the DATE'22 evaluation.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    profile = commands.add_parser(
        "profile", help="interaction-graph profiling of QASM circuits"
    )
    profile.add_argument("circuits", nargs="+", help="OpenQASM 2.0 files")
    profile.set_defaults(handler=_cmd_profile)

    mapping = commands.add_parser("map", help="map a QASM circuit onto a device")
    mapping.add_argument("circuit", help="OpenQASM 2.0 file")
    mapping.add_argument(
        "--device",
        default="surface17",
        help="surface7|surface17|surface100|surface:N|line:N|grid:RxC",
    )
    mapping.add_argument(
        "--mapper",
        default="sabre",
        choices=sorted(MAPPERS) + ["advisor"],
    )
    mapping.add_argument(
        "--draw", action="store_true", help="print the mapped circuit"
    )
    mapping.add_argument(
        "--verify",
        action="store_true",
        help="check semantics against the state-vector oracle (small circuits)",
    )
    mapping.set_defaults(handler=_cmd_map)

    trace = commands.add_parser(
        "trace",
        help="map a QASM circuit with telemetry on and export the trace",
    )
    trace.add_argument("circuit", help="OpenQASM 2.0 file")
    trace.add_argument(
        "--device",
        default="surface17",
        help="surface7|surface17|surface100|surface:N|line:N|grid:RxC",
    )
    trace.add_argument(
        "--mapper", default="sabre", choices=sorted(MAPPERS)
    )
    trace.add_argument(
        "--out",
        default="results/telemetry",
        help="telemetry export directory (events.jsonl, trace.json, "
        "metrics.prom)",
    )
    trace.add_argument(
        "--verify",
        action="store_true",
        help="also run (and trace) the equivalence oracle",
    )
    trace.set_defaults(handler=_cmd_trace)

    metrics = commands.add_parser(
        "metrics", help="summarise an exported telemetry directory"
    )
    metrics.add_argument(
        "directory",
        nargs="?",
        default="results/telemetry",
        help="directory written by 'repro trace' or a traced suite run",
    )
    metrics.set_defaults(handler=_cmd_metrics)

    suite = commands.add_parser(
        "suite", help="generate a QASM benchmark corpus"
    )
    suite.add_argument("directory")
    suite.add_argument("--num", type=int, default=20)
    suite.add_argument("--seed", type=int, default=2022)
    suite.add_argument("--max-qubits", type=int, default=20)
    suite.add_argument("--max-gates", type=int, default=500)
    suite.add_argument(
        "-j",
        "--workers",
        type=int,
        default=None,
        help="serialise circuits across N worker processes "
        "(default: REPRO_WORKERS or serial)",
    )
    suite.set_defaults(handler=_cmd_suite)

    fuzz = commands.add_parser(
        "fuzz",
        help="differential + metamorphic fuzz of the mapping stack",
    )
    fuzz.add_argument(
        "--seed", type=int, default=2022, help="seed block to fuzz"
    )
    fuzz.add_argument(
        "--samples", type=int, default=200, help="samples in the block"
    )
    fuzz.add_argument(
        "--out",
        default=None,
        help="directory for minimal reproducers (e.g. results/fuzz)",
    )
    fuzz.add_argument(
        "--self-test",
        action="store_true",
        help="first prove the harness finds+shrinks a planted router bug",
    )
    fuzz.add_argument(
        "--no-shrink",
        action="store_true",
        help="skip delta-debugging of failing samples",
    )
    fuzz.add_argument(
        "--faults",
        action="store_true",
        help="also drill the resilience layer: inject one fault of every "
        "class and assert each recovery path fires",
    )
    fuzz.set_defaults(handler=_cmd_fuzz)

    run = commands.add_parser(
        "run",
        help="fault-tolerant mapping run over a QASM corpus "
        "(deadlines, retries, crash-safe journal, resume)",
    )
    run.add_argument("corpus", help="directory written by 'repro suite'")
    run.add_argument(
        "--device",
        default="surface17",
        help="surface7|surface17|surface100|surface:N|line:N|grid:RxC",
    )
    run.add_argument("--mapper", default="sabre", choices=sorted(MAPPERS))
    run.add_argument(
        "--deadline-s",
        type=float,
        default=None,
        help="per-attempt wall-clock budget; expiry degrades the circuit "
        "down the fallback chain instead of failing it",
    )
    run.add_argument(
        "--retries",
        type=int,
        default=None,
        help="retries per degradation step (seeded deterministic backoff)",
    )
    run.add_argument(
        "--journal",
        default=None,
        help="crash-safe JSONL journal path (atomic append per circuit)",
    )
    run.add_argument(
        "--resume",
        action="store_true",
        help="skip circuits already in --journal; byte-identical results",
    )
    run.add_argument(
        "--faults",
        default=None,
        help="inject a fault plan, e.g. 'raise@1,sleep@2,kill@3' "
        "(testing/drills)",
    )
    run.add_argument(
        "--item-timeout-s",
        type=float,
        default=None,
        help="hard per-circuit bound: kill unresponsive workers and "
        "recompute in the parent",
    )
    run.add_argument(
        "--no-degrade",
        action="store_true",
        help="disable the fallback chain (retry the primary mapper only)",
    )
    run.add_argument(
        "-j",
        "--workers",
        type=int,
        default=None,
        help="map circuits across N worker processes "
        "(default: REPRO_WORKERS or CPU count)",
    )
    run.set_defaults(handler=_cmd_run)

    serve = commands.add_parser(
        "serve",
        help="boot the compilation service (queue + warm workers + "
        "result cache) and drive a mixed-priority load",
    )
    serve.add_argument(
        "--device",
        default="surface17",
        help="surface7|surface17|surface100|surface:N|line:N|grid:RxC",
    )
    serve.add_argument("--mapper", default="sabre", choices=sorted(MAPPERS))
    serve.add_argument(
        "-j",
        "--workers",
        type=int,
        default=None,
        help="warm worker processes (default: REPRO_WORKERS or 0 = inline)",
    )
    serve.add_argument(
        "--requests", type=int, default=200, help="requests to drive"
    )
    serve.add_argument(
        "--circuits",
        type=int,
        default=40,
        help="distinct circuits in the corpus (repeats drive cache hits)",
    )
    serve.add_argument(
        "--cache", type=int, default=128, help="result-cache capacity"
    )
    serve.add_argument(
        "--wave", type=int, default=8, help="in-flight request window"
    )
    serve.add_argument("--seed", type=int, default=7)
    serve.add_argument(
        "--fault",
        default=None,
        help="inject a fault on the first request, e.g. 'kill@0' (drill)",
    )
    serve.add_argument(
        "--drain-journal",
        default=None,
        help="JSONL path for queued jobs journaled on SIGTERM/SIGINT "
        "graceful drain (default: alongside the CWD)",
    )
    serve.set_defaults(handler=_cmd_serve)

    chaos = commands.add_parser(
        "chaos",
        help="seeded chaos soak: composed kill/hang/poison/drift/"
        "pressure faults against a live service, end-to-end invariants "
        "checked against a fault-free twin",
    )
    chaos.add_argument(
        "--device",
        default="surface7",
        help="surface7|surface17|surface100|surface:N|line:N|grid:RxC",
    )
    chaos.add_argument("-j", "--workers", type=int, default=2)
    chaos.add_argument("--seed", type=int, default=2022)
    chaos.add_argument("--waves", type=int, default=12)
    chaos.add_argument("--wave-size", type=int, default=6)
    chaos.add_argument("--kills", type=int, default=2)
    chaos.add_argument("--hangs", type=int, default=1)
    chaos.add_argument("--poisons", type=int, default=1)
    chaos.add_argument("--drifts", type=int, default=1)
    chaos.add_argument("--pressures", type=int, default=1)
    chaos.add_argument(
        "--heartbeat-budget",
        type=float,
        default=1.0,
        help="watchdog hang-detection budget in seconds",
    )
    chaos.add_argument(
        "--self-test",
        action="store_true",
        help="plant a payload corruption and verify the checker reports it",
    )
    chaos.add_argument("--json", default=None, help="write the report as JSON")
    chaos.set_defaults(handler=_cmd_chaos)

    report = commands.add_parser(
        "report", help="map a QASM corpus and write a markdown report"
    )
    report.add_argument("corpus", help="directory written by 'repro suite'")
    report.add_argument("--device", default="surface100")
    report.add_argument("--mapper", default="trivial", choices=sorted(MAPPERS))
    report.add_argument("-o", "--output", help="markdown output path")
    report.add_argument("--csv", help="also dump per-circuit records as CSV")
    report.add_argument(
        "-j",
        "--workers",
        type=int,
        default=1,
        help="map circuits across N worker processes (default: 1, inline)",
    )
    report.set_defaults(handler=_cmd_report)

    reproduce = commands.add_parser(
        "reproduce", help="regenerate the paper's figures and table"
    )
    reproduce.add_argument("--full", action="store_true")
    reproduce.add_argument(
        "-j",
        "--workers",
        type=int,
        default=1,
        help="map circuits across N worker processes (default: 1, inline)",
    )
    reproduce.set_defaults(handler=_reproduce)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())

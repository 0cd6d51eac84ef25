"""Trace-smoke gate: telemetry outputs are valid and near-free.

Two checks, both against the observability layer added in
``repro.telemetry``:

1. **Traced suite** — maps a 10-circuit suite with telemetry on and an
   export directory, then validates all three exporter outputs: every
   ``events.jsonl`` line parses and the expected span names are present
   (``suite.run`` down to the ``map.*`` stages and ``route.sabre``),
   ``trace.json`` loads as a Chrome trace with one complete event per
   span, ``metrics.prom`` parses as Prometheus text exposition with the
   routing metric families, and the per-worker shards merged into a
   lossless ``workers/merged.jsonl``.
2. **Overhead** — SABRE-routes a 10-circuit suite (up to 54 qubits and
   2000 gates) onto the 100-qubit extended Surface-17 with telemetry off
   and on, and fails when the traced time (min of ``--repeats``) exceeds
   ``OVERHEAD_LIMIT`` x the untraced one.  Each round runs both sides,
   and every other round runs the traced side first: host CPU speed
   drifts over a run, and timing all untraced repeats before all traced
   ones turns that drift into a bias of either sign.  The repeat count
   must be even so both orders occur equally often.

Usage::

    PYTHONPATH=src python benchmarks/bench_telemetry_overhead.py

Exits non-zero on any validation failure or overhead regression; this
is what ``make trace-smoke`` runs.
"""

from __future__ import annotations

import argparse
import json
import re
import tempfile
import time
from pathlib import Path

from repro import telemetry
from repro.compiler.decompose import decompose_circuit
from repro.compiler.layout import Layout
from repro.compiler.mapper import sabre_mapper
from repro.compiler.routing import SabreRouter, clear_distance_cache
from repro.hardware.device import surface17_device, surface17_extended_device
from repro.runtime import run_suite_parallel
from repro.telemetry.export import read_jsonl
from repro.telemetry.merge import MERGED_FILENAME, WORKER_DIR_NAME
from repro.workloads import evaluation_suite

#: Telemetry-on wall time must stay below this multiple of telemetry-off.
OVERHEAD_LIMIT = 1.10

#: Circuits in the traced suite and in the overhead workload.
NUM_CIRCUITS = 10

#: Overhead workload: suite seed, gate cap, router seed and device width.
SUITE_SEED = 2022
MAX_GATES = 2000
ROUTER_SEED = 11
DEVICE_QUBITS = 100

#: Span names the traced suite run must produce.
EXPECTED_SPANS = {
    "suite.run",
    "suite.circuit",
    "map.run",
    "map.decompose",
    "map.place",
    "map.route",
    "map.lower",
    "map.schedule",
    "route.sabre",
}

#: Metric families the traced suite run must expose in metrics.prom.
EXPECTED_METRICS = {
    "repro_route_runs",
    "repro_swaps_inserted",
    "repro_route_swaps_per_circuit",
}

#: Prometheus text exposition: `# TYPE ...` or `name{labels} value`.
_PROM_SAMPLE_RE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? -?[0-9.e+-]+$"
)

_TRACE_SEED = 2022


def _fail(message: str) -> None:
    raise SystemExit(f"trace-smoke FAILED: {message}")


def _traced_suite(export_dir: Path) -> None:
    """Map 10 circuits traced and validate every exporter output."""
    device = surface17_device()
    suite = evaluation_suite(
        num_circuits=NUM_CIRCUITS,
        seed=_TRACE_SEED,
        max_qubits=device.num_qubits,
        max_gates=400,
    )
    with telemetry.session(export_dir=export_dir) as tele:
        report = run_suite_parallel(
            suite, device=device, mapper=sabre_mapper(seed=_TRACE_SEED),
            workers=2,
        )
    if len(report.records) != len(suite):
        _fail(f"suite mapped {len(report.records)}/{len(suite)} circuits")

    # events.jsonl: every line parses, expected span names all present.
    events = read_jsonl(tele.paths["events"])
    names = {event["name"] for event in events}
    missing = EXPECTED_SPANS - names
    if missing:
        _fail(f"events.jsonl is missing span names: {sorted(missing)}")

    # trace.json: Chrome trace with one complete event per span.
    trace = json.loads(Path(tele.paths["trace"]).read_text())
    trace_events = trace.get("traceEvents", [])
    if len(trace_events) != len(events):
        _fail(
            f"trace.json has {len(trace_events)} events for "
            f"{len(events)} spans"
        )
    if any(event.get("ph") != "X" for event in trace_events):
        _fail("trace.json contains non-complete ('ph' != 'X') events")

    # metrics.prom: parseable text exposition, routing families present.
    prom_lines = [
        line
        for line in Path(tele.paths["metrics"]).read_text().splitlines()
        if line.strip()
    ]
    for line in prom_lines:
        if line.startswith("#"):
            continue
        if not _PROM_SAMPLE_RE.match(line):
            _fail(f"metrics.prom line does not parse: {line!r}")
    families = {
        line.split()[2] for line in prom_lines if line.startswith("# TYPE")
    }
    missing_metrics = {
        name
        for name in EXPECTED_METRICS
        if not any(f.startswith(name) for f in families)
    }
    if missing_metrics:
        _fail(f"metrics.prom is missing families: {sorted(missing_metrics)}")

    # Per-worker shards merged without loss.
    merged_path = export_dir / WORKER_DIR_NAME / MERGED_FILENAME
    if not merged_path.is_file():
        _fail(f"no merged worker shard log at {merged_path}")
    merged = read_jsonl(merged_path)
    # Everything except the parent's suite.run root came from a worker
    # shard, so the merge must preserve it all, in suite order.
    per_circuit = [e for e in events if e["name"] != "suite.run"]
    if sorted(e["name"] for e in merged) != sorted(
        e["name"] for e in per_circuit
    ):
        _fail(
            f"merged.jsonl lost events: {len(merged)} merged vs "
            f"{len(per_circuit)} captured"
        )
    batches = [e.get("batch") for e in merged]
    if batches != sorted(batches):
        _fail("merged.jsonl is not in suite (batch) order")

    # Stage breakdown rode along on every timing.
    stages = set()
    for timing in report.timings:
        stages.update(timing.stages)
    expected_stages = {"decompose", "place", "route", "lower", "schedule"}
    if not expected_stages <= stages:
        _fail(f"stage breakdown incomplete: {sorted(stages)}")

    print(
        f"traced suite ok: {len(events)} spans, "
        f"{len(prom_lines)} metrics.prom lines, "
        f"{len(merged)} merged worker events"
    )


def _workload():
    device = surface17_extended_device(DEVICE_QUBITS)
    suite = evaluation_suite(
        num_circuits=NUM_CIRCUITS,
        seed=SUITE_SEED,
        max_qubits=54,
        max_gates=MAX_GATES,
    )
    return device, [decompose_circuit(b.circuit, device.gate_set) for b in suite]


def _route_all(device, circuits) -> float:
    """Wall time of routing every circuit with a fresh SABRE router."""
    start = time.perf_counter()
    for circuit in circuits:
        layout = Layout.trivial(circuit.num_qubits, device.num_qubits)
        SabreRouter(seed=ROUTER_SEED).route(circuit, device, layout)
    return time.perf_counter() - start


def _route_time(enabled: bool, device, circuits) -> float:
    if enabled:
        with telemetry.capture(enabled=True):
            return _route_all(device, circuits)
    return _route_all(device, circuits)


def _overhead_gate(repeats: int) -> None:
    """Telemetry-on must stay within OVERHEAD_LIMIT of telemetry-off."""
    device, circuits = _workload()
    clear_distance_cache()
    _route_all(device, circuits)  # warm caches
    best = {False: float("inf"), True: float("inf")}
    for round_no in range(repeats):
        # Every other round times the traced side first (module docstring).
        order = (False, True) if round_no % 2 == 0 else (True, False)
        for enabled in order:
            elapsed = _route_time(enabled, device, circuits)
            best[enabled] = min(best[enabled], elapsed)
    off_s, on_s = best[False], best[True]
    ratio = on_s / off_s
    status = "ok" if ratio <= OVERHEAD_LIMIT else "FAILED"
    print(
        f"overhead gate (seed {ROUTER_SEED}): off {off_s:.3f}s, "
        f"on {on_s:.3f}s -> {ratio:.3f}x "
        f"(limit {OVERHEAD_LIMIT:.2f}x) ... {status}"
    )
    if ratio > OVERHEAD_LIMIT:
        _fail(
            f"telemetry overhead {ratio:.3f}x exceeds the "
            f"{OVERHEAD_LIMIT:.2f}x limit"
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out",
        type=Path,
        default=None,
        help="export directory for the traced suite "
        "(default: a temporary directory)",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=4,
        help="timing rounds, each running both sides (min is kept); "
        "even, so off-first and on-first rounds are equal",
    )
    args = parser.parse_args(argv)
    if args.repeats < 2 or args.repeats % 2:
        parser.error("--repeats must be a positive even number")
    if args.out is not None:
        _traced_suite(args.out)
    else:
        with tempfile.TemporaryDirectory() as tmp:
            _traced_suite(Path(tmp) / "telemetry")
    _overhead_gate(args.repeats)
    print("trace-smoke passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

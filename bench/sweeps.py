"""The two suite-sweep workloads: the paper's Fig. 3/5 sweep and SABRE.

Population
----------
Both sweeps map the paper's 200-circuit population onto the 100-qubit
extended Surface-17.  ``evaluation_suite(200, seed=2022)`` fixes every
circuit's family, width and gate count; ``--seed`` then redraws the
content of every random and random-reversible circuit at those sizes.
Throughput on a draw of sizes swings by a third from seed to seed,
because a few large circuits dominate; holding the sizes keeps the seed
in charge of the inputs without letting it decide the run time.

Units of work
-------------
The population is split into two halves of equal input gate count, and
each half is one ``run_suite_parallel`` call with a fresh mapper.  A run
maps halves in turn until the next one would overrun ``--seconds``
(always at least one full population), and reports the median per-call
throughput.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Sequence

from repro.compiler.mapper import sabre_mapper, trivial_mapper
from repro.hardware import resolve_device
from repro.resilience.journal import encode_record
from repro.runtime import parallel_map, run_suite_parallel
from repro.workloads.random_circuits import random_circuit
from repro.workloads.reversible import random_reversible_circuit
from repro.workloads.suite import BenchmarkCircuit, evaluation_suite

import checks
import spans
from common import DEFAULT_SEED, DEVICE, WORKERS, Result, content_seed, median, peak_rss_mb, percentile

#: Per-sweep configuration: mapper factory and the population's gate cap.
#: The paper sweep caps at 5000 gates instead of the generator's 20000 so
#: that one half of the population maps in about 4.5 s on two workers.
SWEEPS: Dict[str, dict] = {
    "paper-sweep": {"mapper": trivial_mapper, "max_gates": 5000},
    "sabre-sweep": {"mapper": sabre_mapper, "max_gates": 2000},
}
CIRCUITS, MAX_QUBITS = 200, 54
SMOKE_CIRCUITS, SMOKE_MAX_GATES = 24, 300


def population(name: str, seed: int, smoke: bool = False) -> List[BenchmarkCircuit]:
    """The paper-shaped population with content drawn from ``seed``."""
    count = SMOKE_CIRCUITS if smoke else CIRCUITS
    max_gates = SMOKE_MAX_GATES if smoke else SWEEPS[name]["max_gates"]
    master = evaluation_suite(count, DEFAULT_SEED, MAX_QUBITS, max_gates)
    suite = []
    for index, benchmark in enumerate(master):
        circuit = benchmark.circuit
        content = content_seed(seed, index)
        if benchmark.source.startswith("random_"):
            two = sum(1 for gate in circuit if gate.num_qubits == 2)
            circuit = random_circuit(
                circuit.num_qubits, circuit.num_gates, two / circuit.num_gates, seed=content
            )
        elif benchmark.source.startswith("revnet_"):
            circuit = random_reversible_circuit(
                circuit.num_qubits, circuit.num_gates, seed=content
            )
        else:
            suite.append(benchmark)
            continue
        suite.append(BenchmarkCircuit(circuit, benchmark.family, circuit.name))
    return suite


def halves(suite: Sequence[BenchmarkCircuit]) -> List[List[int]]:
    """Two index lists of near-equal input gate count, each in suite order."""
    order = sorted(range(len(suite)), key=lambda i: (-suite[i].circuit.num_gates, i))
    parts: List[List[int]] = [[], []]
    for rank, index in enumerate(order):
        parts[(rank + rank // 2) % 2].append(index)  # snake: 0 1 1 0 0 1 ...
    return [sorted(part) for part in parts]


def traced_map(payload):
    """Map one circuit under the compiler probes (runs in a pool worker)."""
    benchmark, device, mapper = payload
    tracer = spans.Tracer()
    with spans.compile_probes(tracer):
        with tracer.span("compile"):
            mapped = mapper.map(benchmark.circuit, device)
            record = checks.expected_record(benchmark, mapped)
            with tracer.span("compile.encode"):
                encode_record(record)
    return record.swap_count, tracer.spans, tracer.counts


def _untraced(suite, units, device, factory: Callable, seconds: float, result: Result):
    """Map halves until the next would overrun ``seconds``; returns the
    records of the first full pass and per-call measurements."""
    records: List = [None] * len(suite)
    calls = []
    start = time.perf_counter()
    while True:
        unit = units[len(calls) % len(units)]
        began = time.perf_counter()
        report = run_suite_parallel([suite[i] for i in unit], device, factory(), workers=WORKERS)
        wall = time.perf_counter() - began
        calls.append((len(calls) % len(units), report, wall))
        result.attempted += len(unit)
        result.failed += len(report.failures)
        for failure in report.failures:
            result.check(False, f"{failure.name}: {failure.error}")
        if len(calls) <= len(units) and not report.failures:
            for index, record in zip(unit, report.records):
                records[index] = record
        elapsed = time.perf_counter() - start
        if len(calls) >= len(units) and elapsed + median(c[2] for c in calls) > seconds:
            return records, calls


def run(name: str, seed: int, seconds: float, trace: bool, smoke: bool, plant: str, out) -> Result:
    result = Result(name)
    factory = SWEEPS[name]["mapper"]
    device = resolve_device(DEVICE)
    suite = population(name, seed, smoke)
    units = halves(suite)
    budget = 0.0 if trace else seconds
    records, calls = _untraced(suite, units, device, factory, budget, result)

    latencies = [t.elapsed_s * 1e3 for _, report, _ in calls for t in report.timings]
    result.put("latency.p50_ms", percentile(latencies, 50), latencies)
    result.put("latency.p90_ms", percentile(latencies, 90))
    result.put("latency.p99_ms", percentile(latencies, 99))
    if not trace:
        result.put("throughput_per_s", median(len(units[u]) / w for u, _, w in calls),
                   [len(units[u]) / w for u, _, w in calls])
    else:
        _traced(result, suite, units, device, factory, records, calls, out)
    result.put("peak_rss_mb", peak_rss_mb())  # before the checks, which are not the workload
    if all(record is not None for record in records):
        checks.quality(result, records)
    checks.check_sweep(result, suite, [r for r in records if r is not None], device, factory, seed, plant)
    return result


def _traced(result, suite, units, device, factory, records, calls, out) -> None:
    # Runtime layer, read off the untraced suite reports.
    busy = [report.total_circuit_time_s for _, report, _ in calls]
    walls = [wall for _, _, wall in calls]
    result.put("runtime.pool.busy_s", median(busy))
    result.put("runtime.pool.utilisation", median(b / (w * WORKERS) for b, w in zip(busy, walls)))
    result.put("runtime.pool.overhead_s", median(w - b / WORKERS for b, w in zip(busy, walls)))
    result.put("runtime.pool.straggler_s", median(max(t.elapsed_s for t in r.timings) for _, r, _ in calls))
    result.put("runtime.pool.shipped_bytes", median(r.shipped_bytes for _, r, _ in calls))
    result.put("runtime.pool.recomputed", sum(r.recomputed for _, r, _ in calls))

    tracer = spans.Tracer()
    busy_s = 0.0
    overheads = []
    for position, unit in enumerate(units):
        payloads = [(suite[i], device, factory()) for i in unit]
        began = time.perf_counter()
        outcome = parallel_map(traced_map, payloads, workers=WORKERS)
        wall = time.perf_counter() - began
        overheads.append(100.0 * (wall / median(w for u, _, w in calls if u == position) - 1.0))
        for index, item in zip(unit, outcome.outcomes):
            if not item.ok:
                result.check(False, f"{suite[index].source}: traced map failed: {item.error}")
                continue
            swap_count, circuit_spans, counts = item.value
            if records[index] is not None:
                result.check(
                    swap_count == records[index].swap_count,
                    f"{suite[index].source}: traced swap count {swap_count} != {records[index].swap_count}",
                )
            busy_s += item.elapsed_s
            tracer.extend(circuit_spans, item=index)
            for name, amount in counts.items():
                tracer.count(name, amount)
    for name, value in spans.compile_summary(tracer).items():
        result.put(name, value)
    own = spans.self_times(tracer.spans)
    roots = [s for s in tracer.spans if s["name"] == "compile"]
    covered = sum(s["end"] - s["start"] - own[s["id"]] for s in roots)
    # Coverage is measured against the pool's own per-circuit busy time,
    # so time the traced function spends outside its spans counts as a gap.
    result.put("trace.coverage", covered / busy_s if busy_s else 0.0)
    result.put("trace.overhead_pct", median(overheads))
    tracer.write(out / f"{result.workload}.trace.jsonl")

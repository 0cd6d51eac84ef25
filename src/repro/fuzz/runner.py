"""The fuzzing loop: sample, check, shrink, dump reproducers.

:func:`run_fuzz` drives a fixed seed block through the invariant bank,
shrinks every failure to a minimal reproducer and writes it out as a
QASM file plus a JSON sidecar (seed coordinates, invariant, message) so
``repro.fuzz.generator.FuzzSeed(seed, index)`` — or the dumped QASM —
replays it exactly.

:func:`planted_bug_selftest` is the harness's proof of life: it plants a
deliberate off-by-one in the SABRE router's tie-break, fuzzes a small
block, and demands that the differential bank both *finds* the bug and
*shrinks* it to a handful of gates.  A green self-test means a red
fuzz run is worth trusting.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from ..circuit import to_qasm
from ..compiler.routing import SabreRouter
from ..telemetry import metrics as telemetry_metrics
from ..telemetry import tracing
from ..telemetry.tracing import span
from ..workloads.suite import BenchmarkCircuit
from .generator import FuzzSeed, generate_sample
from .invariants import (
    Invariant,
    RouterFactory,
    SabreTwinInvariant,
    SkipInvariant,
    check_sample,
    default_bank,
    parallel_determinism_failure,
)
from .shrink import ShrinkResult, shrink_sample

__all__ = [
    "InvariantStats",
    "FuzzFailure",
    "FuzzReport",
    "run_fuzz",
    "planted_bug_selftest",
]

#: Gate-count ceiling the self-test demands of its shrunk reproducer.
SELFTEST_SHRINK_LIMIT = 8


@dataclass
class InvariantStats:
    """Per-invariant tallies over one fuzz run."""

    ok: int = 0
    skipped: int = 0
    failed: int = 0

    @property
    def checked(self) -> int:
        return self.ok + self.skipped + self.failed


@dataclass
class FuzzFailure:
    """One invariant violation, with its (possibly shrunk) reproducer."""

    seed: int
    index: int
    invariant: str
    message: str
    circuit_class: str
    topology_class: str
    shrunk: Optional[ShrinkResult] = None
    artifacts: List[Path] = field(default_factory=list)

    def describe(self) -> str:
        reproducer = self.shrunk.sample if self.shrunk else None
        size = (
            f" (shrunk to {len(reproducer.circuit)} gates, "
            f"{reproducer.circuit.num_qubits}q)"
            if reproducer is not None
            else ""
        )
        return (
            f"[{self.invariant}] seed={self.seed} index={self.index} "
            f"{self.circuit_class}/{self.topology_class}: "
            f"{self.message}{size}"
        )


@dataclass
class FuzzReport:
    """Everything one :func:`run_fuzz` call learned."""

    seed: int
    samples: int
    stats: Dict[str, InvariantStats]
    failures: List[FuzzFailure]
    parallel_message: Optional[str] = None

    @property
    def ok(self) -> bool:
        return not self.failures and self.parallel_message is None

    def format(self) -> str:
        lines = [
            f"fuzz seed={self.seed}: {self.samples} samples, "
            f"{len(self.failures)} failure(s)"
        ]
        width = max((len(name) for name in self.stats), default=0)
        for name, stat in self.stats.items():
            lines.append(
                f"  {name:{width}s}  ok={stat.ok:4d}  "
                f"skipped={stat.skipped:4d}  failed={stat.failed:4d}"
            )
        if self.parallel_message is not None:
            lines.append(f"  parallel determinism: {self.parallel_message}")
        else:
            lines.append("  parallel determinism: ok")
        for failure in self.failures:
            lines.append("  " + failure.describe())
        return "\n".join(lines)


def _still_fails_predicate(invariant: Invariant):
    """Sample predicate: the same invariant still reports a failure."""

    def still_fails(sample) -> bool:
        try:
            return invariant.check(sample) is not None
        except SkipInvariant:
            return False

    return still_fails


def _dump_reproducer(
    out_dir: Path, failure: FuzzFailure
) -> List[Path]:
    """Write ``{seed}-{index}-{invariant}.qasm`` + ``.json`` sidecar."""
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{failure.seed}-{failure.index}-{failure.invariant}"
    sample = failure.shrunk.sample if failure.shrunk else None
    paths: List[Path] = []
    if sample is not None:
        qasm_path = out_dir / f"{stem}.qasm"
        qasm_path.write_text(to_qasm(sample.circuit))
        paths.append(qasm_path)
    sidecar = {
        "seed": failure.seed,
        "index": failure.index,
        "invariant": failure.invariant,
        "message": failure.message,
        "circuit_class": failure.circuit_class,
        "topology_class": failure.topology_class,
    }
    if failure.shrunk is not None:
        sidecar["shrunk"] = {
            "gates_before": failure.shrunk.gates_before,
            "gates_after": failure.shrunk.gates_after,
            "qubits_before": failure.shrunk.qubits_before,
            "qubits_after": failure.shrunk.qubits_after,
            "probes": failure.shrunk.probes,
            "device": failure.shrunk.sample.device.name,
        }
    json_path = out_dir / f"{stem}.json"
    json_path.write_text(json.dumps(sidecar, indent=2) + "\n")
    paths.append(json_path)
    return paths


def run_fuzz(
    seed: int = 2022,
    samples: int = 200,
    bank: Optional[Sequence[Invariant]] = None,
    out_dir: Optional[Union[str, Path]] = None,
    shrink: bool = True,
    router_factory: Optional[RouterFactory] = None,
    check_parallel: bool = True,
) -> FuzzReport:
    """Fuzz one seed block through the invariant bank.

    Parameters
    ----------
    seed / samples:
        Block coordinates: indices ``0..samples-1`` of block ``seed``.
    bank:
        Invariants to evaluate; defaults to the full
        :func:`~repro.fuzz.invariants.default_bank` (built with
        ``router_factory`` when one is given).
    out_dir:
        Where to dump minimal reproducers; ``None`` skips dumping.
    shrink:
        Minimize failing samples before dumping.
    router_factory:
        Router substitution hook, threaded into the default bank (the
        self-test plants its buggy router here).
    check_parallel:
        Also run the once-per-block ``workers=1`` vs ``workers=2`` suite
        determinism comparison on a slice of the generated samples.
    """
    if bank is None:
        bank = (
            default_bank(router_factory)
            if router_factory is not None
            else default_bank()
        )
    stats: Dict[str, InvariantStats] = {
        invariant.name: InvariantStats() for invariant in bank
    }
    failures: List[FuzzFailure] = []
    by_name = {invariant.name: invariant for invariant in bank}
    routable: List[BenchmarkCircuit] = []

    telemetry_on = tracing.is_enabled()
    with span("fuzz.run", seed=seed, samples=samples):
        for index in range(samples):
            sample = generate_sample(FuzzSeed(seed, index))
            if telemetry_on:
                telemetry_metrics.counter(
                    "fuzz_samples", circuit_class=sample.circuit_class
                ).inc()
            if (
                len(routable) < 6
                and len(sample.circuit) > 0
                and sample.circuit.num_qubits <= sample.device.num_qubits
            ):
                routable.append(
                    BenchmarkCircuit(sample.circuit, "random", sample.describe())
                )
            for outcome in check_sample(sample, bank):
                stat = stats[outcome.invariant]
                if telemetry_on:
                    telemetry_metrics.counter(
                        "fuzz_checks",
                        invariant=outcome.invariant,
                        status=outcome.status,
                    ).inc()
                if outcome.status == "ok":
                    stat.ok += 1
                    continue
                if outcome.status == "skipped":
                    stat.skipped += 1
                    continue
                stat.failed += 1
                failure = _register_failure(
                    seed, index, sample, outcome, by_name, shrink, out_dir
                )
                failures.append(failure)

    parallel_message = None
    if check_parallel and routable:
        parallel_message = parallel_determinism_failure(routable)

    return FuzzReport(
        seed=seed,
        samples=samples,
        stats=stats,
        failures=failures,
        parallel_message=parallel_message,
    )


def _register_failure(
    seed, index, sample, outcome, by_name, shrink, out_dir
) -> FuzzFailure:
    """Build (and optionally shrink/dump) one invariant violation."""
    if tracing.is_enabled():
        telemetry_metrics.counter(
            "fuzz_invariant_failures", invariant=outcome.invariant
        ).inc()
    failure = FuzzFailure(
        seed=seed,
        index=index,
        invariant=outcome.invariant,
        message=outcome.message,
        circuit_class=sample.circuit_class,
        topology_class=sample.topology_class,
    )
    if shrink:
        failure.shrunk = shrink_sample(
            sample,
            _still_fails_predicate(by_name[outcome.invariant]),
        )
    if out_dir is not None:
        failure.artifacts = _dump_reproducer(Path(out_dir), failure)
    return failure


# ---------------------------------------------------------------------------
# Planted-bug self-test
# ---------------------------------------------------------------------------

class _PlantedOffByOneRouter(SabreRouter):
    """SABRE with an off-by-one in the tie-break index.

    Whenever a swap-selection round has two or more tied candidates, the
    buggy router picks the slot *after* the RNG draw — exactly the class
    of silent divergence the differential bank exists to catch.
    """

    def _select(self, scores, rng) -> int:
        import math as _math

        best_score = _math.inf
        best = []
        for index, score in enumerate(scores):
            if score < best_score - 1e-12:
                best_score = score
                best = [index]
            elif abs(score - best_score) <= 1e-12:
                best.append(index)
        draw = int(rng.integers(len(best)))
        return best[(draw + 1) % len(best)]  # planted bug


def planted_bug_selftest(
    seed: int = 2022, samples: int = 48
) -> FuzzReport:
    """Prove the harness finds and shrinks a real router bug.

    Plants the off-by-one tie-break in the router under test; the
    reference loop draws its tie-breaks through a plain router, so the
    ``sabre_twin`` differential invariant is the one that must fire.
    Raises :class:`RuntimeError` unless at least one failure is found
    and at least one reproducer shrinks to ``<= 8`` gates.
    """

    def buggy_factory(route_seed):
        return _PlantedOffByOneRouter(seed=route_seed)

    report = run_fuzz(
        seed=seed,
        samples=samples,
        bank=[SabreTwinInvariant(buggy_factory)],
        out_dir=None,
        shrink=True,
        router_factory=None,
        check_parallel=False,
    )
    if not report.failures:
        raise RuntimeError(
            "self-test failed: the planted off-by-one tie-break was not "
            f"detected in {samples} samples"
        )
    best = min(
        (
            f.shrunk
            for f in report.failures
            if f.shrunk is not None
        ),
        key=lambda s: len(s.sample.circuit),
        default=None,
    )
    if best is None or len(best.sample.circuit) > SELFTEST_SHRINK_LIMIT:
        size = "none" if best is None else str(len(best.sample.circuit))
        raise RuntimeError(
            "self-test failed: planted bug found but not shrunk to "
            f"<= {SELFTEST_SHRINK_LIMIT} gates (best reproducer: {size})"
        )
    return report

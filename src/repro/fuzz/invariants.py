"""The invariant bank: differential and metamorphic oracles per sample.

Two families of checks run on every :class:`~repro.fuzz.generator.FuzzSample`:

*Differential* — every optimised path against the reference it
replaced (:mod:`repro.fuzz.reference`): SABRE routing against the
original copy-the-layout loop, the batched equivalence oracle against
the serial trial loop, the vectorised Table I metrics against the
per-node loops; plus ``workers=1`` vs ``workers=N`` suite records.

*Metamorphic* — properties that need no second implementation: mapping
preserves unitary semantics, routed circuits respect the coupling graph,
metric vectors are invariant under qubit relabeling, the fidelity product
is invariant under commuting-gate exchange, QASM serialisation
round-trips.

Each invariant reports ``None`` (holds), a failure message, or raises
:class:`SkipInvariant` when the sample is outside its domain (e.g. too
wide for the dense oracle).  The bank is a plain list, so the runner, the
self-test and the tests can compose restricted banks freely.
"""

from __future__ import annotations

import math
import pickle
from typing import Callable, List, Optional, Sequence, Tuple

from ..circuit import Circuit, parse_qasm, to_qasm
from ..compiler import (
    Layout,
    QuantumMapper,
    SabreRouter,
    TrivialPlacement,
    decompose_circuit,
)
from ..core.interaction import InteractionGraph
from ..core.metrics import BETWEENNESS_METRICS, compute_metrics
from ..metrics.fidelity import product_fidelity
from .generator import FuzzSample
from .reference import reference_metrics, reference_route, reference_verify

__all__ = [
    "SkipInvariant",
    "Invariant",
    "InvariantOutcome",
    "RouterFactory",
    "default_bank",
    "check_sample",
    "parallel_determinism_failure",
    "INVARIANT_NAMES",
]

#: Builds the router under test from a tie-break seed: ``factory(seed)``.
#: The self-test swaps in a deliberately broken router here.
RouterFactory = Callable[[Optional[int]], SabreRouter]

#: Betweenness may differ from the reference by float accumulation order
#: up to this.
_BETWEENNESS_ATOL = 1e-12

#: Tolerance for metamorphic metric comparisons (relabeling changes the
#: float accumulation order of reductions like ``std`` and assortativity).
_RELABEL_ATOL = 1e-9


class SkipInvariant(Exception):
    """Raised by a check whose sample lies outside the invariant's domain."""


def _default_router_factory(seed: Optional[int]) -> SabreRouter:
    return SabreRouter(seed=seed)


def _route_seed(sample: FuzzSample) -> int:
    # Per-sample tie-break seed: deterministic, but varied across the
    # block so the fuzzer explores many RNG paths.
    return 11 + sample.seed.index


class Invariant:
    """One oracle: a name plus a ``check(sample)`` returning a verdict."""

    name = "invariant"

    def check(self, sample: FuzzSample) -> Optional[str]:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# Differential invariants (optimised path vs reference implementation)
# ---------------------------------------------------------------------------

class _RoutingMixin:
    """Shared routing plumbing for the router-level invariants."""

    def __init__(self, router_factory: RouterFactory = _default_router_factory):
        self.router_factory = router_factory

    def _prepare(
        self, sample: FuzzSample
    ) -> Tuple[SabreRouter, Circuit, Layout]:
        """A fresh router under test plus the decomposed circuit to route."""
        if sample.circuit.num_qubits > sample.device.num_qubits:
            raise SkipInvariant("circuit wider than device")
        circuit = decompose_circuit(sample.circuit, sample.device.gate_set)
        layout = Layout.trivial(circuit.num_qubits, sample.device.num_qubits)
        return self.router_factory(_route_seed(sample)), circuit, layout


class SabreTwinInvariant(_RoutingMixin, Invariant):
    """The router and the reference SABRE loop emit identical circuits."""

    name = "sabre_twin"

    def check(self, sample: FuzzSample) -> Optional[str]:
        router, circuit, layout = self._prepare(sample)
        fast = router.route(circuit, sample.device, layout)
        slow = reference_route(router, circuit, sample.device, layout)
        if fast.swap_count != slow.swap_count:
            return (
                f"swap counts diverge: router={fast.swap_count} "
                f"reference={slow.swap_count}"
            )
        if fast.circuit != slow.circuit:
            for position, (a, b) in enumerate(
                zip(fast.circuit.gates, slow.circuit.gates)
            ):
                if a != b:
                    return (
                        f"routed gates diverge at position {position}: "
                        f"router={a} reference={b}"
                    )
            return (
                f"routed lengths diverge: router={len(fast.circuit)} "
                f"reference={len(slow.circuit)}"
            )
        if fast.final_layout != slow.final_layout:
            return "final layouts diverge"
        return None


class RoutedCouplingInvariant(_RoutingMixin, Invariant):
    """Routed output must respect the coupling graph and count its swaps."""

    name = "routed_coupling"

    def check(self, sample: FuzzSample) -> Optional[str]:
        router, circuit, layout = self._prepare(sample)
        result = router.route(circuit, sample.device, layout)
        coupling = sample.device.coupling
        for position, gate in enumerate(result.circuit):
            if gate.is_two_qubit and not coupling.are_adjacent(*gate.qubits):
                return (
                    f"gate {gate.name}{gate.qubits} at position {position} "
                    "acts on uncoupled qubits"
                )
        emitted = sum(1 for g in result.circuit if g.name == "swap")
        if emitted != result.swap_count:
            return (
                f"swap_count={result.swap_count} but {emitted} swap "
                "gates emitted"
            )
        images = list(result.final_layout.values())
        if len(set(images)) != len(images):
            return "final layout is not injective"
        return None


class _MappingMixin:
    """Shared full-pipeline mapping for the oracle-level invariants."""

    def __init__(self, router_factory: RouterFactory = _default_router_factory):
        self.router_factory = router_factory

    def _map(self, sample: FuzzSample):
        if sample.circuit.num_qubits > sample.device.num_qubits:
            raise SkipInvariant("circuit wider than device")
        mapper = QuantumMapper(
            TrivialPlacement(),
            self.router_factory(_route_seed(sample)),
            name="fuzz",
        )
        return mapper.map(sample.circuit, sample.device)


class OracleTwinInvariant(_MappingMixin, Invariant):
    """The batched oracle and the serial reference agree on the verdict."""

    name = "oracle_twin"

    def check(self, sample: FuzzSample) -> Optional[str]:
        result = self._map(sample)
        seed = _route_seed(sample)
        try:
            verdict = result.verify(trials=2, seed=seed)
        except ValueError as exc:  # too wide for the dense oracle
            raise SkipInvariant(str(exc)) from None
        # The same compacted register MappingResult.verify hands the oracle.
        compact, initial, final = result._compact()
        expected = reference_verify(
            result.original.without_directives(),
            compact,
            initial,
            final,
            trials=2,
            seed=seed,
        )
        if verdict != expected:
            return (
                f"oracle verdicts diverge: oracle={verdict} "
                f"reference={expected}"
            )
        return None


class MetricsTwinInvariant(Invariant):
    """Table I metrics must match the per-node reference loops."""

    name = "metrics_twin"

    def check(self, sample: FuzzSample) -> Optional[str]:
        graph = InteractionGraph.from_circuit(sample.circuit)
        fast = compute_metrics(graph).as_dict()
        slow = reference_metrics(graph).as_dict()
        for name in fast:
            delta = abs(fast[name] - slow[name])
            tolerance = _BETWEENNESS_ATOL if name in BETWEENNESS_METRICS else 0.0
            if delta > tolerance or math.isnan(delta):
                return f"metric {name} diverges by {delta!r}"
        return None


# ---------------------------------------------------------------------------
# Metamorphic invariants
# ---------------------------------------------------------------------------

class MappingSemanticsInvariant(_MappingMixin, Invariant):
    """Mapping must preserve the circuit's unitary semantics."""

    name = "mapping_semantics"

    def check(self, sample: FuzzSample) -> Optional[str]:
        result = self._map(sample)
        try:
            verdict = result.verify(trials=2, seed=_route_seed(sample))
        except ValueError as exc:
            raise SkipInvariant(str(exc)) from None
        if not verdict:
            return "mapped circuit is not equivalent to the original"
        return None


class RelabelMetricsInvariant(Invariant):
    """Metric vectors are invariant under qubit relabeling (isomorphism)."""

    name = "relabel_metrics"

    def check(self, sample: FuzzSample) -> Optional[str]:
        circuit = sample.circuit
        n = circuit.num_qubits
        if n < 2:
            raise SkipInvariant("nothing to permute")
        perm = sample.seed.rng(salt=1).permutation(n)
        relabeled = circuit.remap_qubits(
            {q: int(perm[q]) for q in range(n)}, num_qubits=n
        )
        base = compute_metrics(InteractionGraph.from_circuit(circuit)).as_dict()
        moved = compute_metrics(
            InteractionGraph.from_circuit(relabeled)
        ).as_dict()
        for name in base:
            if abs(base[name] - moved[name]) > _RELABEL_ATOL:
                return (
                    f"metric {name} not relabel-invariant: "
                    f"{base[name]!r} vs {moved[name]!r}"
                )
        return None


class CommutationFidelityInvariant(Invariant):
    """Exchanging disjoint adjacent gates keeps the fidelity product."""

    name = "commutation_fidelity"

    def check(self, sample: FuzzSample) -> Optional[str]:
        gates = list(sample.circuit.gates)
        swap_at = None
        for i in range(len(gates) - 1):
            a, b = gates[i], gates[i + 1]
            if a.is_unitary and b.is_unitary and not a.overlaps(b):
                swap_at = i
                break
        if swap_at is None:
            raise SkipInvariant("no disjoint adjacent gate pair")
        exchanged = list(gates)
        exchanged[swap_at], exchanged[swap_at + 1] = (
            exchanged[swap_at + 1],
            exchanged[swap_at],
        )
        calibration = sample.device.calibration
        before = product_fidelity(sample.circuit, calibration)
        after = product_fidelity(
            Circuit(sample.circuit.num_qubits, exchanged), calibration
        )
        if not math.isclose(before, after, rel_tol=1e-12, abs_tol=1e-300):
            return (
                f"fidelity product changed under commutation: "
                f"{before!r} -> {after!r}"
            )
        return None


class QasmRoundTripInvariant(Invariant):
    """``parse(dump(c))`` reproduces gates, params and qubit order."""

    name = "qasm_roundtrip"

    def check(self, sample: FuzzSample) -> Optional[str]:
        circuit = sample.circuit
        parsed = parse_qasm(to_qasm(circuit))
        if parsed.num_qubits != circuit.num_qubits:
            return (
                f"register width changed: {circuit.num_qubits} -> "
                f"{parsed.num_qubits}"
            )
        if len(parsed) != len(circuit):
            return f"gate count changed: {len(circuit)} -> {len(parsed)}"
        for position, (a, b) in enumerate(zip(circuit, parsed)):
            if a.name != b.name or a.qubits != b.qubits:
                return (
                    f"gate {position} changed: {a.name}{a.qubits} -> "
                    f"{b.name}{b.qubits}"
                )
            if len(a.params) != len(b.params) or any(
                abs(p - q) > 1e-12 for p, q in zip(a.params, b.params)
            ):
                return (
                    f"gate {position} params changed: {a.params} -> {b.params}"
                )
        return None


# ---------------------------------------------------------------------------
# Suite-level differential invariant (runs once per fuzz run)
# ---------------------------------------------------------------------------

def parallel_determinism_failure(
    benchmarks: Sequence,
    workers_pair: Tuple[int, int] = (1, 2),
) -> Optional[str]:
    """Byte-compare suite records across two worker counts.

    Runs :func:`~repro.runtime.run_suite_parallel` twice on the same
    benchmarks and compares the pickled mapping records, the failure
    roster and the skip list — everything except wall times, which are
    legitimately nondeterministic.  Returns ``None`` when identical.
    """
    from ..runtime import run_suite_parallel

    first, second = (
        run_suite_parallel(benchmarks, workers=w) for w in workers_pair
    )
    if pickle.dumps(first.records) != pickle.dumps(second.records):
        return (
            f"records diverge between workers={workers_pair[0]} and "
            f"workers={workers_pair[1]}"
        )
    roster = lambda report: [(f.name, f.error) for f in report.failures]  # noqa: E731
    if roster(first) != roster(second):
        return "failure rosters diverge across worker counts"
    if first.skipped != second.skipped:
        return "skip lists diverge across worker counts"
    return None


# ---------------------------------------------------------------------------
# Bank assembly
# ---------------------------------------------------------------------------

def default_bank(
    router_factory: RouterFactory = _default_router_factory,
) -> List[Invariant]:
    """The full per-sample invariant bank, in evaluation order."""
    return [
        SabreTwinInvariant(router_factory),
        RoutedCouplingInvariant(router_factory),
        OracleTwinInvariant(router_factory),
        MetricsTwinInvariant(),
        MappingSemanticsInvariant(router_factory),
        RelabelMetricsInvariant(),
        CommutationFidelityInvariant(),
        QasmRoundTripInvariant(),
    ]


INVARIANT_NAMES: Tuple[str, ...] = tuple(i.name for i in default_bank())


class InvariantOutcome:
    """Verdict of one invariant on one sample."""

    __slots__ = ("invariant", "status", "message")

    def __init__(self, invariant: str, status: str, message: str = "") -> None:
        self.invariant = invariant
        self.status = status  # "ok" | "skipped" | "failed"
        self.message = message

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        suffix = f": {self.message}" if self.message else ""
        return f"<{self.invariant} {self.status}{suffix}>"


def check_sample(
    sample: FuzzSample, bank: Optional[Sequence[Invariant]] = None
) -> List[InvariantOutcome]:
    """Evaluate every invariant of ``bank`` on one sample."""
    outcomes: List[InvariantOutcome] = []
    for invariant in bank if bank is not None else default_bank():
        try:
            message = invariant.check(sample)
        except SkipInvariant as skip:
            outcomes.append(
                InvariantOutcome(invariant.name, "skipped", str(skip))
            )
            continue
        if message is None:
            outcomes.append(InvariantOutcome(invariant.name, "ok"))
        else:
            outcomes.append(
                InvariantOutcome(invariant.name, "failed", message)
            )
    return outcomes

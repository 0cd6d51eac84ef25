"""End-to-end quantum circuit mappers.

A :class:`QuantumMapper` chains the paper's four mapping steps —
decomposition, placement, routing, (re-)decomposition of the inserted
SWAPs — and returns a :class:`MappingResult` that carries every artefact
the evaluation needs: the physical circuit, the before/after layouts, the
overhead and fidelity reports of Fig. 3, and a simulator-backed
:meth:`~MappingResult.verify` oracle.

Factory functions build the three named configurations:

* :func:`trivial_mapper` — identity placement + shortest-path routing;
  the OpenQL trivial mapper the paper's experiments use.
* :func:`sabre_mapper` — algorithm-driven placement + SABRE routing.
* :func:`noise_aware_mapper` — calibration-aware placement and routing.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Optional

from ..circuit import Circuit
from ..hardware.device import Device
from ..metrics.fidelity import FidelityReport, fidelity_report
from ..metrics.overhead import OverheadReport, overhead_report
from ..telemetry import tracing
from ..telemetry.tracing import span
from .decompose import decompose_circuit
from .optimize import optimize_circuit
from .placement import (
    GraphSimilarityPlacement,
    NoiseAwarePlacement,
    PlacementPass,
    TrivialPlacement,
)
from .routing import NoiseAwareRouter, Router, RoutingResult, SabreRouter, TrivialRouter
from .scheduling import Schedule, asap_schedule

__all__ = [
    "MappingResult",
    "QuantumMapper",
    "trivial_mapper",
    "sabre_mapper",
    "noise_aware_mapper",
    "MAPPERS",
]

_VERIFY_QUBIT_LIMIT = 14


@dataclass
class MappingResult:
    """Everything produced by one mapping run.

    Attributes
    ----------
    original:
        The input circuit (arbitrary gate vocabulary, virtual qubits).
    decomposed:
        The input lowered to the device's primitive set — the "before"
        circuit of the paper's overhead metric, so gate overhead measures
        *routing* cost, not vocabulary translation.
    routed:
        Physical circuit containing explicit ``swap`` gates.
    mapped:
        Final physical circuit with SWAPs lowered to primitives.
    initial_layout / final_layout:
        Virtual-to-physical maps at circuit start/end.
    swap_count:
        SWAPs inserted by the router.
    bridge_count:
        BRIDGE realisations emitted by the router (4 CNOTs each).
    device / mapper_name:
        Provenance for reports.
    """

    original: Circuit
    decomposed: Circuit
    routed: Circuit
    mapped: Circuit
    initial_layout: Dict[int, int]
    final_layout: Dict[int, int]
    swap_count: int
    device: Device
    mapper_name: str
    bridge_count: int = 0

    # ------------------------------------------------------------------
    @cached_property
    def overhead(self) -> OverheadReport:
        """Gate/depth overhead of mapping (decomposed vs mapped)."""
        return overhead_report(
            self.decomposed, self.mapped, self.swap_count, self.bridge_count
        )

    @cached_property
    def fidelity(self) -> FidelityReport:
        """Fidelity before/after mapping under the device calibration."""
        return fidelity_report(
            self.decomposed, self.mapped, self.device.calibration
        )

    def schedule(self, max_parallel_2q: Optional[int] = None) -> Schedule:
        """ASAP schedule of the mapped circuit on the device calibration."""
        with span(
            "map.schedule",
            gates=self.mapped.num_gates if tracing.is_enabled() else None,
        ):
            return asap_schedule(
                self.mapped,
                self.device.calibration,
                max_parallel_2q=max_parallel_2q,
            )

    @property
    def latency_ns(self) -> float:
        return self.schedule().latency_ns

    # ------------------------------------------------------------------
    def verify(
        self,
        trials: int = 3,
        seed: Optional[int] = 1234,
    ) -> bool:
        """Check semantic correctness against the state-vector oracle.

        The mapped circuit is compacted onto its touched physical qubits
        first; verification requires that compact register to stay within
        the dense-simulation limit.

        Raises
        ------
        ValueError
            When the circuit is too wide to simulate.
        """
        from ..sim.equivalence import verify_mapping

        compact, initial, final = self._compact()
        if compact.num_qubits > _VERIFY_QUBIT_LIMIT:
            raise ValueError(
                f"verification needs <= {_VERIFY_QUBIT_LIMIT} touched "
                f"physical qubits, have {compact.num_qubits}"
            )
        return verify_mapping(
            self.original.without_directives(),
            compact,
            initial,
            final,
            trials=trials,
            seed=seed,
        )

    def _compact(self):
        """Relabel the mapped circuit onto its touched physical qubits."""
        used = set()
        for gate in self.mapped:
            used.update(gate.qubits)
        used.update(self.initial_layout.values())
        used.update(self.final_layout.values())
        order = sorted(used)
        relabel = {old: new for new, old in enumerate(order)}
        compact = self.mapped.remap_qubits(relabel, num_qubits=len(order))
        initial = {v: relabel[p] for v, p in self.initial_layout.items()}
        final = {v: relabel[p] for v, p in self.final_layout.items()}
        return compact, initial, final


class QuantumMapper:
    """Composable mapping pipeline: decompose, place, route, lower SWAPs.

    Parameters
    ----------
    placement / router:
        The strategy objects for steps 3 and 4.
    optimize_input / optimize_output:
        Run the peephole optimiser on the decomposed input / the final
        mapped circuit.
    name:
        Report label.
    """

    def __init__(
        self,
        placement: PlacementPass,
        router: Router,
        optimize_input: bool = False,
        optimize_output: bool = False,
        name: str = "",
    ) -> None:
        self.placement = placement
        self.router = router
        self.optimize_input = optimize_input
        self.optimize_output = optimize_output
        self.name = name or f"{placement.name}+{router.name}"

    def map(
        self, circuit: Circuit, device: Device, deadline=None
    ) -> MappingResult:
        """Map ``circuit`` onto ``device``; see :class:`MappingResult`.

        With telemetry enabled, the run is one ``map.run`` span with a
        child per mapping stage (``map.decompose`` / ``map.place`` /
        ``map.route`` / ``map.lower``); disabled telemetry adds nothing
        and changes nothing.

        ``deadline`` (a :class:`repro.resilience.deadline.Deadline`) is
        threaded into :meth:`Router.route`, which checks it on entry and
        inside its search loop; an expired budget raises
        ``DeadlineExceeded`` for the resilience engine to catch.  The
        default ``None`` is a strict no-op.
        """
        with span(
            "map.run",
            mapper=self.name,
            qubits=circuit.num_qubits,
            # Counting gates walks the circuit; only a traced run reads it.
            gates=circuit.num_gates if tracing.is_enabled() else None,
            device=device.name,
        ):
            with span("map.decompose"):
                decomposed = decompose_circuit(circuit, device.gate_set)
                if self.optimize_input:
                    decomposed = optimize_circuit(decomposed)
            with span("map.place", placement=self.placement.name):
                layout = self.placement.place(decomposed, device)
            with span("map.route", router=self.router.name):
                routing: RoutingResult = self.router.route(
                    decomposed, device, layout, deadline=deadline
                )
            with span("map.lower"):
                mapped = decompose_circuit(routing.circuit, device.gate_set)
                if self.optimize_output:
                    mapped = optimize_circuit(mapped)
        return MappingResult(
            original=circuit,
            decomposed=decomposed,
            routed=routing.circuit,
            mapped=mapped,
            initial_layout=routing.initial_layout,
            final_layout=routing.final_layout,
            swap_count=routing.swap_count,
            device=device,
            mapper_name=self.name,
            bridge_count=routing.bridge_count,
        )


def trivial_mapper() -> QuantumMapper:
    """The paper's baseline: identity placement + shortest-path routing."""
    return QuantumMapper(TrivialPlacement(), TrivialRouter(), name="trivial")


def sabre_mapper(
    seed: Optional[int] = 11, optimize_output: bool = False
) -> QuantumMapper:
    """Algorithm-driven mapper: interaction-graph placement + SABRE routing."""
    return QuantumMapper(
        GraphSimilarityPlacement(),
        SabreRouter(seed=seed),
        optimize_output=optimize_output,
        name="sabre",
    )


def noise_aware_mapper(
    seed: Optional[int] = 11, optimize_output: bool = False
) -> QuantumMapper:
    """Hardware- and algorithm-aware mapper (calibration-weighted)."""
    return QuantumMapper(
        NoiseAwarePlacement(),
        NoiseAwareRouter(seed=seed),
        optimize_output=optimize_output,
        name="noise-aware",
    )


#: The named mapper factories, by the name the CLI and the compilation
#: service accept.
MAPPERS = {
    "trivial": trivial_mapper,
    "sabre": sabre_mapper,
    "noise-aware": noise_aware_mapper,
}

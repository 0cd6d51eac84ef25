"""Array-scored placement against the per-candidate scalar loop it replaced.

``GraphSimilarityPlacement`` scores every free physical qubit at once and
picks the lexicographic minimum of (cost, -degree, index).  The reference
below is the scalar loop it replaced: one ``coupling.distance`` call per
(candidate, partner), a validated ``cz`` gate per incident edge for the
noise-aware quality, and ``min(free, key=...)``.  Layouts must be
identical, ties included.
"""

from dataclasses import replace

import pytest

from repro.circuit import Circuit
from repro.circuit.gates import Gate
from repro.compiler.layout import Layout
from repro.compiler.placement import (
    GraphSimilarityPlacement,
    IsomorphismPlacement,
    NoiseAwarePlacement,
    SabrePlacement,
)
from repro.core import InteractionGraph
from repro.fuzz.generator import TOPOLOGY_CLASSES, sample_block
from repro.hardware import CouplingGraph, Device, TopologyError, resolve_device
from repro.hardware.drift import CalibrationStream, DriftPlan
from repro.service.loadgen import build_corpus


# -- scalar reference ---------------------------------------------------
def _candidate_cost(graph, device, placed, virtual, candidate):
    cost = 0.0
    for partner in graph.neighbors(virtual):
        position = placed.get(partner)
        if position is not None:
            cost += graph.weight(virtual, partner) * device.coupling.distance(
                candidate, position
            )
    return cost


def _tie_break(device, candidate):
    return -device.coupling.degree(candidate)


def _edge_quality(device, physical):
    errors = [
        device.calibration.gate_error(Gate("cz", (physical, neighbor)))
        for neighbor in device.coupling.neighbors(physical)
    ]
    return min(errors) if errors else 1.0


def reference_embed(graph, device, error_weight=None):
    """The scalar greedy embedding; ``error_weight`` adds the noise term."""
    quality = {}  # _edge_quality is pure; memoised only to keep tests fast

    def cost(virtual, placed, candidate):
        base = _candidate_cost(graph, device, placed, virtual, candidate)
        if error_weight is None:
            return base
        if candidate not in quality:
            quality[candidate] = _edge_quality(device, candidate)
        penalty = error_weight * quality[candidate]
        return base + graph.weighted_degree(virtual) * penalty

    placed = {}
    free = set(range(device.coupling.num_qubits))
    for virtual in sorted(
        range(graph.num_qubits), key=lambda v: (-graph.weighted_degree(v), v)
    ):
        if not placed:
            candidate = min(free, key=lambda p: (_tie_break(device, p), p))
        else:
            candidate = min(
                free,
                key=lambda p: (cost(virtual, placed, p), _tie_break(device, p), p),
            )
        placed[virtual] = candidate
        free.discard(candidate)
    return placed


def mapping(layout):
    return {v: layout.physical(v) for v in range(layout.num_virtual)}


def reference_layout(placement, circuit, device):
    """``placement``'s layout with the scalar loop patched in."""

    def embed(self, graph, device):
        weight = getattr(self, "error_weight", None)
        return Layout(
            graph.num_qubits,
            device.num_qubits,
            reference_embed(graph, device, weight),
        )

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(GraphSimilarityPlacement, "_embed", embed)
        return mapping(placement.place(circuit, device))


# -- populations --------------------------------------------------------
@pytest.fixture(scope="module")
def surface100():
    return resolve_device("surface100")


@pytest.fixture(scope="module")
def catalogue():
    return build_corpus(192, 2022, 4, 12)


@pytest.fixture(scope="module")
def drifted(surface100):
    plan = DriftPlan.generate(surface100, 12, seed=2022)
    stream = CalibrationStream(surface100.calibration, name="surface100")
    for update in plan.updates:
        stream.apply(update)
    device = replace(surface100, calibration=stream.calibration)
    assert device.calibration.edge_errors  # the drift really moved rates
    return device


@pytest.fixture(scope="module")
def fuzz_block():
    samples = list(sample_block(2022, 64))
    assert {s.topology_class for s in samples} == set(TOPOLOGY_CLASSES)
    return samples


# -- identity -----------------------------------------------------------
class TestCatalogueIdentity:
    def test_graph_similarity(self, catalogue, surface100):
        for circuit in catalogue:
            graph = InteractionGraph.from_circuit(circuit)
            got = mapping(GraphSimilarityPlacement().place(circuit, surface100))
            assert got == reference_embed(graph, surface100)

    @pytest.mark.parametrize("calibration", ["pristine", "drifted"])
    def test_noise_aware(self, catalogue, surface100, drifted, calibration):
        device = surface100 if calibration == "pristine" else drifted
        for circuit in catalogue:
            graph = InteractionGraph.from_circuit(circuit)
            got = mapping(NoiseAwarePlacement().place(circuit, device))
            assert got == reference_embed(graph, device, 10.0)

    def test_error_weight_is_honoured(self, catalogue, drifted):
        placement = NoiseAwarePlacement(error_weight=250)
        for circuit in catalogue[:48]:
            graph = InteractionGraph.from_circuit(circuit)
            got = mapping(placement.place(circuit, drifted))
            assert got == reference_embed(graph, drifted, 250)

    def test_sabre_placement(self, catalogue, drifted):
        for circuit in catalogue[::12]:
            placement = SabrePlacement(seed=5)
            expected = reference_layout(SabrePlacement(seed=5), circuit, drifted)
            assert mapping(placement.place(circuit, drifted)) == expected

    def test_isomorphism_placement(self, catalogue, drifted):
        # Dense random interaction graphs rarely embed exactly, so 31 of
        # these 32 fall back to graph similarity.
        for circuit in catalogue[::6]:
            placement = IsomorphismPlacement()
            expected = reference_layout(placement, circuit, drifted)
            assert mapping(placement.place(circuit, drifted)) == expected


class TestFuzzBlockIdentity:
    """Small rings, grids, surface crops and random graphs: many ties."""

    def test_graph_similarity_and_noise_aware(self, fuzz_block):
        for sample in fuzz_block:
            graph = InteractionGraph.from_circuit(sample.circuit)
            device = sample.device
            got = mapping(GraphSimilarityPlacement().place(sample.circuit, device))
            assert got == reference_embed(graph, device), sample.seed
            got = mapping(NoiseAwarePlacement().place(sample.circuit, device))
            assert got == reference_embed(graph, device, 10.0), sample.seed

    def test_sabre_and_isomorphism(self, fuzz_block):
        for sample in fuzz_block:
            circuit, device = sample.circuit, sample.device
            for make in (lambda: SabrePlacement(seed=1), IsomorphismPlacement):
                expected = reference_layout(make(), circuit, device)
                got = mapping(make().place(circuit, device))
                assert got == expected, sample.seed


# -- disconnected couplings ---------------------------------------------
SPLIT = Device(CouplingGraph(6, [(0, 1), (1, 2), (3, 4), (4, 5)]))


@pytest.mark.parametrize(
    "placement", [GraphSimilarityPlacement(), NoiseAwarePlacement()]
)
class TestDisconnectedCoupling:
    def test_interacting_qubits_raise(self, placement):
        # Virtual 1 seeds on physical 1; placing virtual 0 next, the scalar
        # loop raised on the lowest free qubit that cannot reach it: 3.
        circuit = Circuit(3).cx(0, 1).cx(1, 2)
        with pytest.raises(TopologyError, match="qubits 3 and 1 are disconnected"):
            placement.place(circuit, SPLIT)

    def test_no_two_qubit_gates_still_placed(self, placement):
        circuit = Circuit(4).h(0).x(1).h(2).measure_all()
        got = mapping(placement.place(circuit, SPLIT))
        assert got == reference_embed(InteractionGraph.from_circuit(circuit), SPLIT)
        assert got == {0: 1, 1: 4, 2: 0, 3: 2}

"""Golden outputs: swap counts, oracle verdicts and Table I values.

``golden/outputs.json`` holds fixed expected values, never regenerated
from the code under test:

* per-circuit trivial, SABRE and noise-aware swap counts for a
  30-circuit suite (up to 54 qubits, 2000 gates) routed onto the
  100-qubit extended Surface-17 from the trivial layout (the trivial
  router is the paper's mapper behind Figs. 3 and 5);
* state-vector oracle verdicts for 18 small circuits mapped by the
  trivial mapper onto a 4x4 grid;
* the full Table I metric vector of ten 20-54 qubit interaction graphs.

A change that moves any of them changes the paper's reproduced numbers.
These workloads are also larger than any other tier-1 equivalence check,
so a smoke subset of each is compared against the reference
implementations in :mod:`repro.fuzz.reference`.
"""

import json
from functools import partial
from pathlib import Path

import pytest

from repro.compiler import (
    Layout,
    NoiseAwareRouter,
    SabreRouter,
    TrivialRouter,
    decompose_circuit,
)
from repro.compiler.mapper import trivial_mapper
from repro.core.interaction import InteractionGraph, interaction_graph
from repro.core.metrics import compute_metrics
from repro.fuzz.reference import reference_route, reference_verify
from repro.hardware.device import grid_device, surface17_extended_device
from repro.workloads.qaoa import qaoa_maxcut, random_maxcut_instance
from repro.workloads.suite import evaluation_suite

from .test_metrics_vectorized import (
    assert_metrics_agree,
    assert_paths_agree,
    grid_graph,
    random_graph,
    ring_graph,
)

GOLDEN = json.loads((Path(__file__).parent / "golden" / "outputs.json").read_text())

SUITE_SEED = 2022
ROUTER_SEED = 11
#: Router factories by golden key; a fresh router routes each circuit.
ROUTERS = {
    "trivial": TrivialRouter,
    "sabre": partial(SabreRouter, seed=ROUTER_SEED),
    "noise_aware": partial(NoiseAwareRouter, seed=ROUTER_SEED),
}
#: Routers with a reference implementation in repro.fuzz.reference.
REFERENCE_ROUTERS = ["sabre", "noise_aware"]
#: Leading circuits of the routing suite also routed by the reference.
ROUTING_REFERENCE_CIRCUITS = 10

VERIFY_SEED = 1234
VERIFY_TRIALS = 8
#: Leading circuits of the oracle suite also verified by the reference.
ORACLE_REFERENCE_CIRCUITS = 8


def qaoa_graph(num_nodes, num_edges, seed) -> InteractionGraph:
    edges = random_maxcut_instance(num_nodes, num_edges, seed=seed)
    return interaction_graph(qaoa_maxcut(num_nodes, edges, num_layers=2))


#: (name, builder, parameters) of every Table I graph.
GRAPHS = [
    ("random_20_p20", random_graph, (20, 0.20, 11)),
    ("random_24_p20", random_graph, (24, 0.20, 12)),
    ("random_32_p15", random_graph, (32, 0.15, 13)),
    ("random_48_p10", random_graph, (48, 0.10, 14)),
    ("random_54_p10", random_graph, (54, 0.10, 15)),
    ("qaoa_20_e40", qaoa_graph, (20, 40, 16)),
    ("qaoa_28_e70", qaoa_graph, (28, 70, 17)),
    ("ring_24", ring_graph, (24,)),
    ("grid_5x5", grid_graph, (5, 5)),
    ("grid_6x6", grid_graph, (6, 6)),
]


# ---------------------------------------------------------------------------
# Routing
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def routing_suite():
    device = surface17_extended_device(100)
    suite = evaluation_suite(
        num_circuits=30, seed=SUITE_SEED, max_qubits=54, max_gates=2000
    )
    circuits = [decompose_circuit(b.circuit, device.gate_set) for b in suite]
    return device, [b.source for b in suite], circuits


@pytest.fixture(scope="module")
def routed(routing_suite):
    device, _, circuits = routing_suite
    return {
        key: [
            make_router().route(
                circuit,
                device,
                Layout.trivial(circuit.num_qubits, device.num_qubits),
            )
            for circuit in circuits
        ]
        for key, make_router in ROUTERS.items()
    }


class TestRoutingGolden:
    @pytest.mark.parametrize("key", ROUTERS)
    def test_swap_counts(self, routing_suite, routed, key):
        _, names, _ = routing_suite
        swaps = {name: r.swap_count for name, r in zip(names, routed[key])}
        assert swaps == GOLDEN["swaps"][key]

    @pytest.mark.parametrize("key", REFERENCE_ROUTERS)
    def test_leading_circuits_match_reference(self, routing_suite, routed, key):
        device, _, circuits = routing_suite
        for circuit, fast in list(zip(circuits, routed[key]))[
            :ROUTING_REFERENCE_CIRCUITS
        ]:
            slow = reference_route(
                ROUTERS[key](),
                circuit,
                device,
                Layout.trivial(circuit.num_qubits, device.num_qubits),
            )
            assert fast.circuit == slow.circuit
            assert fast.swap_count == slow.swap_count
            assert fast.final_layout == slow.final_layout


# ---------------------------------------------------------------------------
# Equivalence oracle
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def oracle_suite():
    device = grid_device(4, 4)
    suite = evaluation_suite(
        num_circuits=18, seed=SUITE_SEED, max_qubits=10, max_gates=400
    )
    mapper = trivial_mapper()
    return [(b.source, mapper.map(b.circuit, device)) for b in suite]


@pytest.fixture(scope="module")
def verdicts(oracle_suite):
    return {
        name: result.verify(trials=VERIFY_TRIALS, seed=VERIFY_SEED)
        for name, result in oracle_suite
    }


class TestOracleGolden:
    def test_verdicts(self, verdicts):
        assert verdicts == GOLDEN["verdicts"]

    def test_leading_circuits_match_reference(self, oracle_suite, verdicts):
        for name, result in oracle_suite[:ORACLE_REFERENCE_CIRCUITS]:
            # The reference sees the compacted register verify() builds.
            compact, initial, final = result._compact()
            expected = reference_verify(
                result.original,
                compact,
                initial,
                final,
                trials=VERIFY_TRIALS,
                seed=VERIFY_SEED,
            )
            assert verdicts[name] == expected, name


# ---------------------------------------------------------------------------
# Table I metrics
# ---------------------------------------------------------------------------

class TestTable1Golden:
    @pytest.mark.parametrize(
        "name, build, params", GRAPHS, ids=[g[0] for g in GRAPHS]
    )
    def test_values(self, name, build, params):
        values = compute_metrics(build(*params)).as_dict()
        assert_metrics_agree(GOLDEN["table1"][name], values)

    @pytest.mark.parametrize(
        "name, build, params", GRAPHS, ids=[g[0] for g in GRAPHS]
    )
    def test_reference_matches(self, name, build, params):
        assert_paths_agree(build(*params))

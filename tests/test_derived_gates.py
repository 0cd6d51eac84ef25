"""Every gate a mapping derives re-validates through the public constructor.

Decomposition and routing build gates from already-valid parts without
re-running ``Gate``'s validation.  Over the golden 30-circuit routing
workload, with all three mapper factories, each gate of the decomposed,
routed and mapped circuits must equal ``Gate(name, qubits, params)`` and
hold Python ``int`` qubits and ``float`` parameters.  A layout built from
numpy integers must not leak them into routed gates.
"""

import numpy as np
import pytest

from repro.circuit import Circuit
from repro.compiler import Layout, SabreRouter, TrivialRouter
from repro.compiler.mapper import noise_aware_mapper, sabre_mapper, trivial_mapper
from repro.fuzz.invariants import _revalidation_problem
from repro.hardware.device import grid_device, surface17_extended_device
from repro.workloads.suite import evaluation_suite

MAPPERS = {
    "trivial": trivial_mapper,
    "sabre": sabre_mapper,
    "noise_aware": noise_aware_mapper,
}


def assert_revalidates(circuit: Circuit, label: str) -> None:
    # The fuzz bank's derived_gates check, gate by gate.
    for position, gate in enumerate(circuit):
        problem = _revalidation_problem(gate)
        assert problem is None, f"{label} gate {position}: {problem}"


@pytest.fixture(scope="module")
def golden_workload():
    # The routing workload of tests/test_golden_outputs.py.
    device = surface17_extended_device(100)
    suite = evaluation_suite(
        num_circuits=30, seed=2022, max_qubits=54, max_gates=2000
    )
    return device, suite


@pytest.mark.parametrize("key", MAPPERS)
def test_golden_workload_gates_revalidate(golden_workload, key):
    device, suite = golden_workload
    mapper = MAPPERS[key]()
    for benchmark in suite:
        result = mapper.map(benchmark.circuit, device)
        for stage in ("decomposed", "routed", "mapped"):
            assert_revalidates(getattr(result, stage), f"{benchmark.source} {stage}")


@pytest.mark.parametrize(
    "router",
    [TrivialRouter(), TrivialRouter(use_bridge=True), SabreRouter(seed=3)],
    ids=["trivial", "bridge", "sabre"],
)
def test_numpy_layout_does_not_leak_into_gates(router):
    device = grid_device(3, 3)
    placement = {np.int64(v): np.int64(p) for v, p in enumerate((8, 0, 4, 2))}
    layout = Layout(4, device.num_qubits, placement)
    assert all(type(p) is int for p in layout.as_dict().values())
    circuit = Circuit(4).h(0).cx(0, 1).cx(1, 3).cx(2, 0).rz(0.5, 3).measure(2)
    result = router.route(circuit, device, layout)
    assert result.swap_count > 0
    assert_revalidates(result.circuit, "routed")

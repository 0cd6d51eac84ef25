"""A mapping is a pure function of (circuit, device, seed).

Routers and placements seed a fresh generator inside each call, so a
mapper object carries nothing from one ``map()`` to the next: mapping
leaves its pickle unchanged, a circuit gets the same result whatever
the object mapped before, and a suite's records do not depend on the
execution path (``run_suite``, or ``run_suite_parallel`` at one or two
workers).
"""

import pickle

import pytest

from repro.compiler import (
    QuantumMapper,
    RandomPlacement,
    SabrePlacement,
    SabreRouter,
)
from repro.compiler.mapper import noise_aware_mapper, sabre_mapper, trivial_mapper
from repro.experiments.common import paper_configuration, run_suite
from repro.resilience.policy import default_degradation_chain
from repro.runtime import run_suite_parallel
from repro.workloads.suite import evaluation_suite


def _chain_step(position):
    return lambda: default_degradation_chain(sabre_mapper())[position].mapper


#: Zero-argument factories: each call builds a fresh mapper.
FACTORIES = {
    "trivial": trivial_mapper,
    "sabre": sabre_mapper,
    "noise-aware": noise_aware_mapper,
    "random+sabre": lambda: QuantumMapper(
        RandomPlacement(seed=3), SabreRouter(seed=3)
    ),
    "sabre-place+sabre": lambda: QuantumMapper(
        SabrePlacement(seed=3), SabreRouter(seed=3)
    ),
    **{
        f"chain[{position}]": _chain_step(position)
        for position in range(len(default_degradation_chain(sabre_mapper())))
    },
}


@pytest.fixture(scope="module")
def workload():
    suite = evaluation_suite(num_circuits=8, seed=7, max_qubits=12, max_gates=200)
    return suite, paper_configuration()


def _fingerprint(result) -> bytes:
    return pickle.dumps(
        (
            result.routed,
            result.mapped,
            result.initial_layout,
            result.final_layout,
            result.swap_count,
            result.bridge_count,
        )
    )


def test_map_leaves_the_mapper_unchanged(workload):
    suite, device = workload
    changed = []
    for name, factory in FACTORIES.items():
        mapper = factory()
        before = pickle.dumps(mapper)
        for benchmark in suite:
            mapper.map(benchmark.circuit, device)
        if pickle.dumps(mapper) != before:
            changed.append(name)
    assert changed == []


def test_mapping_order_does_not_matter(workload):
    # One object maps the list forward, then in reverse; every circuit
    # must get exactly what a fresh mapper gives it.
    suite, device = workload
    differing = []
    for name, factory in FACTORIES.items():
        fresh = {
            b.source: _fingerprint(factory().map(b.circuit, device)) for b in suite
        }
        mapper = factory()
        for benchmark in list(suite) + list(reversed(suite)):
            result = mapper.map(benchmark.circuit, device)
            if _fingerprint(result) != fresh[benchmark.source]:
                differing.append((name, benchmark.source))
    assert differing == []


def test_run_suite_matches_parallel_runs(workload):
    suite, device = workload
    records = run_suite(suite, device, sabre_mapper())
    for workers in (1, 2):
        report = run_suite_parallel(suite, device, sabre_mapper(), workers=workers)
        assert report.records == records, f"workers={workers}"
        assert pickle.dumps(report.records) == pickle.dumps(records)

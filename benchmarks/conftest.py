"""Shared fixtures for the benchmark harness.

The paper's evaluation maps one 200-circuit suite onto the 100-qubit
extended Surface-17 with the trivial mapper; every figure projects that
sweep.  The sweep runs once per benchmark session (~1 minute) and is
shared by the fig3/fig5/table1 benches.
"""

import sys

import pytest

from repro.experiments import paper_configuration, run_suite
from repro.runtime import workers_from_env
from repro.workloads import evaluation_suite

#: The paper quotes 5-100000 gates; the default harness caps at 20000 to
#: keep the full sweep around a minute.  Export REPRO_FULL_GATES=1 style
#: overrides via this constant if the exact bound is wanted.
SUITE_MAX_GATES = 20000
SUITE_SEED = 2022
SUITE_SIZE = 200


def _suite_workers():
    """Worker count for the sweep: REPRO_WORKERS=N fans it out over N
    processes; unset, it maps inline."""
    return workers_from_env(default=1)


@pytest.fixture(scope="session")
def paper_suite():
    """The 200-circuit benchmark population (random/reversible/real)."""
    return evaluation_suite(
        num_circuits=SUITE_SIZE, seed=SUITE_SEED, max_gates=SUITE_MAX_GATES
    )


@pytest.fixture(scope="session")
def paper_records(paper_suite):
    """The Fig. 3/5 sweep: trivial mapping onto the 100q Surface-17-ext."""

    def progress(index, total, name):
        if index % 50 == 0:
            print(f"  mapping {index}/{total}: {name}", file=sys.stderr)

    return run_suite(
        paper_suite,
        device=paper_configuration(),
        progress=progress,
        workers=_suite_workers(),
    )


@pytest.fixture(scope="session")
def small_records():
    """A reduced sweep for the cheaper ablation benches."""
    suite = evaluation_suite(num_circuits=36, seed=7, max_qubits=20, max_gates=400)
    return suite, run_suite(suite, device=paper_configuration())

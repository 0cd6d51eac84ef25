"""Differential fuzzing & metamorphic testing for the mapping stack.

SABRE routing, the equivalence oracle and the Table I metrics each run
one optimised path; the implementations they replaced live on in
:mod:`repro.fuzz.reference`, and suite runs can be repeated at another
worker count (``run_suite_parallel(workers=1)`` vs ``workers=N``).  This
package hunts for inputs where a path and its reference disagree — the
regression class that silently corrupts the Fig. 3/5 reproductions —
plus metamorphic properties that need no reference at all (relabeling
invariance, commutation invariance, QASM round-trips, unitary
preservation of mapping).

* :mod:`repro.fuzz.generator` — seeded adversarial circuit + topology
  sampler (one :class:`FuzzSeed` reproduces any sample exactly).
* :mod:`repro.fuzz.reference` — the reference implementations of
  routing, the oracle and the metrics; only the bank and tests use them.
* :mod:`repro.fuzz.invariants` — the invariant bank: differential and
  metamorphic oracles evaluated per sample.
* :mod:`repro.fuzz.shrink` — delta-debugging minimizer (drop gates,
  merge qubits, shrink the topology) for failing samples.
* :mod:`repro.fuzz.runner` — the fuzzing loop, reproducer dumps under
  ``results/fuzz/``, and the planted-bug self-test that proves the
  harness can find and shrink a real router bug.
"""

from .generator import (
    CIRCUIT_CLASSES,
    TOPOLOGY_CLASSES,
    FuzzSample,
    FuzzSeed,
    generate_circuit,
    generate_sample,
    generate_topology,
    minimal_device,
    sample_block,
)
from .invariants import (
    INVARIANT_NAMES,
    Invariant,
    InvariantOutcome,
    check_sample,
    default_bank,
    parallel_determinism_failure,
)
from .shrink import ShrinkResult, shrink_circuit, shrink_sample
from .runner import (
    FuzzFailure,
    FuzzReport,
    InvariantStats,
    planted_bug_selftest,
    run_fuzz,
)

__all__ = [
    "CIRCUIT_CLASSES",
    "TOPOLOGY_CLASSES",
    "FuzzSample",
    "FuzzSeed",
    "generate_circuit",
    "generate_sample",
    "generate_topology",
    "minimal_device",
    "sample_block",
    "INVARIANT_NAMES",
    "Invariant",
    "InvariantOutcome",
    "check_sample",
    "default_bank",
    "parallel_determinism_failure",
    "ShrinkResult",
    "shrink_circuit",
    "shrink_sample",
    "FuzzFailure",
    "FuzzReport",
    "InvariantStats",
    "planted_bug_selftest",
    "run_fuzz",
]

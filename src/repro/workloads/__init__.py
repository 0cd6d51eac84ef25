"""Benchmark workloads: random, reversible and real-algorithm circuits."""

from .random_circuits import (
    random_circuit,
    random_clifford_circuit,
    supremacy_style_circuit,
)
from .qaoa import (
    FIG4_NUM_GATES,
    FIG4_NUM_QUBITS,
    FIG4_TWO_QUBIT_FRACTION,
    fig4_qaoa_circuit,
    fig4_random_circuit,
    qaoa_maxcut,
    random_maxcut_instance,
)
from .algorithms import (
    bernstein_vazirani,
    deutsch_jozsa,
    ghz_state,
    grover,
    inverse_qft,
    qft,
    quantum_phase_estimation,
    quantum_volume,
    vqe_ansatz,
    w_state,
)
from .reversible import (
    cuccaro_adder,
    increment_circuit,
    majority_vote_circuit,
    parity_circuit,
    random_reversible_circuit,
)
from .suite import FAMILIES, BenchmarkCircuit, evaluation_suite, small_suite
from .trotter import (
    heisenberg_chain,
    ising_chain,
    ising_grid,
    ising_ring,
    two_local_trotter,
)
from .io import load_suite, save_suite

__all__ = [
    "random_circuit",
    "random_clifford_circuit",
    "supremacy_style_circuit",
    "FIG4_NUM_GATES",
    "FIG4_NUM_QUBITS",
    "FIG4_TWO_QUBIT_FRACTION",
    "fig4_qaoa_circuit",
    "fig4_random_circuit",
    "qaoa_maxcut",
    "random_maxcut_instance",
    "bernstein_vazirani",
    "deutsch_jozsa",
    "ghz_state",
    "grover",
    "inverse_qft",
    "qft",
    "quantum_phase_estimation",
    "quantum_volume",
    "vqe_ansatz",
    "w_state",
    "cuccaro_adder",
    "increment_circuit",
    "majority_vote_circuit",
    "parity_circuit",
    "random_reversible_circuit",
    "FAMILIES",
    "BenchmarkCircuit",
    "evaluation_suite",
    "small_suite",
    "heisenberg_chain",
    "ising_chain",
    "ising_grid",
    "ising_ring",
    "two_local_trotter",
    "load_suite",
    "save_suite",
]

"""State-vector simulation and equivalence checking (the compiler oracle)."""

from .statevector import (
    Simulator,
    SimulationResult,
    apply_gate,
    apply_gate_batched,
    basis_state,
    fused_operations,
    probabilities,
    random_product_state,
    random_product_states,
    run_batched,
    sample_counts,
    statevector,
    zero_state,
)
from .unitary import circuit_unitary, permutation_unitary
from .equivalence import (
    allclose_up_to_global_phase,
    circuits_equivalent,
    verify_mapping,
)
from .noisy import NoisySimulator, SuccessRateEstimate, estimate_success_rate
from .density import (
    DensityMatrixSimulator,
    amplitude_damping_kraus,
    channel_fidelity,
    depolarizing_kraus,
    phase_damping_kraus,
    state_fidelity,
)

__all__ = [
    "Simulator",
    "SimulationResult",
    "apply_gate",
    "apply_gate_batched",
    "basis_state",
    "fused_operations",
    "probabilities",
    "random_product_state",
    "random_product_states",
    "run_batched",
    "sample_counts",
    "statevector",
    "zero_state",
    "circuit_unitary",
    "permutation_unitary",
    "allclose_up_to_global_phase",
    "circuits_equivalent",
    "verify_mapping",
    "NoisySimulator",
    "SuccessRateEstimate",
    "estimate_success_rate",
    "DensityMatrixSimulator",
    "amplitude_damping_kraus",
    "channel_fidelity",
    "depolarizing_kraus",
    "phase_damping_kraus",
    "state_fidelity",
]

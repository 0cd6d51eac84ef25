"""repro: full-stack NISQ quantum compilation with algorithm-driven mapping.

A from-scratch reproduction of *"Full-stack quantum computing systems in
the NISQ era: algorithm-driven and hardware-aware compilation techniques"*
(Bandic, Feld, Almudever — DATE 2022): a complete quantum circuit
compilation stack (circuit IR, QASM I/O, state-vector oracle, hardware
models, decomposition / placement / routing / scheduling passes) plus the
paper's contribution — interaction-graph profiling of quantum circuits
and its use for algorithm-driven, hardware-aware mapping.

Quickstart::

    from repro import Circuit, surface17_device, trivial_mapper

    circuit = Circuit(4).h(0).cx(0, 1).cx(1, 2).cx(2, 3)
    result = trivial_mapper().map(circuit, surface17_device())
    print(result.overhead.gate_overhead_percent, result.fidelity.fidelity_after)
"""

from .circuit import (
    Circuit,
    CircuitDag,
    Gate,
    QasmError,
    SizeParameters,
    draw,
    parse_qasm,
    size_parameters,
    to_qasm,
)
from .hardware import (
    Calibration,
    CouplingGraph,
    Device,
    GateSet,
    SURFACE17_CALIBRATION,
    SURFACE17_GATESET,
    all_to_all_device,
    grid_device,
    line_device,
    surface17_device,
    surface17_extended_device,
    surface7_device,
)
from .compiler import (
    IsomorphismPlacement,
    Layout,
    MappingResult,
    QuantumMapper,
    SabrePlacement,
    decompose_circuit,
    noise_aware_mapper,
    optimize_circuit,
    sabre_mapper,
    trivial_mapper,
)
from .core import (
    CircuitProfile,
    InteractionGraph,
    MapperAdvisor,
    PAPER_RETAINED_METRICS,
    cluster_profiles,
    compute_metrics,
    profile_circuit,
    profile_suite,
    reduce_metrics,
    routing_difficulty,
)
from .metrics import (
    crosstalk_fidelity,
    fidelity_report,
    overhead_report,
    product_fidelity,
)
from .workloads import evaluation_suite, small_suite
from .runtime import SuiteRunReport, parallel_map, run_suite_parallel
from .resilience import (
    Deadline,
    DeadlineExceeded,
    FaultPlan,
    RetryPolicy,
    SuiteJournal,
    map_with_resilience,
)
from .fullstack import ControlModel, FullStack
from .sim import Simulator, statevector, verify_mapping
# Package-level conveniences kept outside ``__all__``.
from . import telemetry  # noqa: F401
from .telemetry import span, traced  # noqa: F401

__version__ = "1.0.0"

__all__ = [
    "Circuit",
    "CircuitDag",
    "Gate",
    "QasmError",
    "SizeParameters",
    "draw",
    "parse_qasm",
    "size_parameters",
    "to_qasm",
    "Calibration",
    "CouplingGraph",
    "Device",
    "GateSet",
    "SURFACE17_CALIBRATION",
    "SURFACE17_GATESET",
    "all_to_all_device",
    "grid_device",
    "line_device",
    "surface17_device",
    "surface17_extended_device",
    "surface7_device",
    "IsomorphismPlacement",
    "Layout",
    "MappingResult",
    "QuantumMapper",
    "SabrePlacement",
    "decompose_circuit",
    "noise_aware_mapper",
    "optimize_circuit",
    "sabre_mapper",
    "trivial_mapper",
    "CircuitProfile",
    "InteractionGraph",
    "MapperAdvisor",
    "PAPER_RETAINED_METRICS",
    "cluster_profiles",
    "compute_metrics",
    "profile_circuit",
    "profile_suite",
    "reduce_metrics",
    "routing_difficulty",
    "crosstalk_fidelity",
    "fidelity_report",
    "overhead_report",
    "product_fidelity",
    "evaluation_suite",
    "small_suite",
    "SuiteRunReport",
    "parallel_map",
    "run_suite_parallel",
    "Deadline",
    "DeadlineExceeded",
    "FaultPlan",
    "RetryPolicy",
    "SuiteJournal",
    "map_with_resilience",
    "ControlModel",
    "FullStack",
    "Simulator",
    "statevector",
    "verify_mapping",
    "__version__",
]

"""The compilation pipeline: decomposition, placement, routing, scheduling."""

from .layout import Layout, LayoutError
from .decompose import (
    DecompositionError,
    decompose_circuit,
    decompose_gate,
    zyz_angles,
)
from .placement import (
    GraphSimilarityPlacement,
    IsomorphismPlacement,
    NoiseAwarePlacement,
    PlacementPass,
    RandomPlacement,
    SabrePlacement,
    TrivialPlacement,
)
from .routing import (
    NoiseAwareRouter,
    Router,
    RoutingError,
    RoutingResult,
    SabreRouter,
    TrivialRouter,
)
from .exact import ExactRouter, optimal_swap_count
from .scheduling import Schedule, ScheduledGate, alap_schedule, asap_schedule
from .optimize import (
    cancel_inverse_pairs,
    merge_rotations,
    optimize_circuit,
    remove_trivial_gates,
)
from .mapper import (
    MappingResult,
    QuantumMapper,
    noise_aware_mapper,
    sabre_mapper,
    trivial_mapper,
)

__all__ = [
    "Layout",
    "LayoutError",
    "DecompositionError",
    "decompose_circuit",
    "decompose_gate",
    "zyz_angles",
    "GraphSimilarityPlacement",
    "IsomorphismPlacement",
    "NoiseAwarePlacement",
    "PlacementPass",
    "RandomPlacement",
    "SabrePlacement",
    "TrivialPlacement",
    "NoiseAwareRouter",
    "Router",
    "RoutingError",
    "RoutingResult",
    "SabreRouter",
    "TrivialRouter",
    "ExactRouter",
    "optimal_swap_count",
    "Schedule",
    "ScheduledGate",
    "alap_schedule",
    "asap_schedule",
    "cancel_inverse_pairs",
    "merge_rotations",
    "optimize_circuit",
    "remove_trivial_gates",
    "MappingResult",
    "QuantumMapper",
    "noise_aware_mapper",
    "sabre_mapper",
    "trivial_mapper",
]

"""The paper's contribution: interaction-graph profiling and co-design."""

from .interaction import InteractionGraph, interaction_graph
from .metrics import (
    GraphMetrics,
    METRIC_NAMES,
    PAPER_RETAINED_METRICS,
    TABLE1_ROWS,
    circuit_graph_metrics,
    clear_metrics_cache,
    compute_metrics,
    metrics_cache_info,
)
from .correlation import MetricReduction, pearson_matrix, reduce_metrics
from .profiles import CircuitProfile, profile_circuit, profile_suite
from .clustering import (
    ClusteringResult,
    cluster_profiles,
    hierarchical_labels,
    kmeans,
    silhouette_score,
    standardize_features,
)
from .codesign import (
    AdvisorDecision,
    MapperAdvisor,
    routing_difficulty,
    spearman_correlation,
)

__all__ = [
    "InteractionGraph",
    "interaction_graph",
    "GraphMetrics",
    "METRIC_NAMES",
    "PAPER_RETAINED_METRICS",
    "TABLE1_ROWS",
    "circuit_graph_metrics",
    "clear_metrics_cache",
    "compute_metrics",
    "metrics_cache_info",
    "MetricReduction",
    "pearson_matrix",
    "reduce_metrics",
    "CircuitProfile",
    "profile_circuit",
    "profile_suite",
    "ClusteringResult",
    "cluster_profiles",
    "hierarchical_labels",
    "kmeans",
    "silhouette_score",
    "standardize_features",
    "AdvisorDecision",
    "MapperAdvisor",
    "routing_difficulty",
    "spearman_correlation",
]

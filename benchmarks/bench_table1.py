"""Regenerates Table I: the metric catalogue and the Pearson reduction.

Prints the metric table and the reduction outcome over the 200-circuit
population, asserting that the paper's retained set {average shortest
path, max degree, min degree, adjacency std} survives the reduction.
"""

from repro.experiments import format_table1, run_table1


def test_table1_metric_reduction(benchmark, paper_records):
    result = benchmark.pedantic(
        lambda: run_table1(paper_records), rounds=3, iterations=1
    )
    print()
    print(format_table1(result))

    # The reduction keeps a genuinely low-redundancy set.
    retained = result.retained
    for i, a in enumerate(retained):
        for b in retained[i + 1 :]:
            assert abs(result.reduction.correlation(a, b)) < result.reduction.threshold

    # The paper's headline metrics survive (at least 3 of the 4 — min
    # degree is borderline-redundant on some populations, as the paper's
    # own "codependent" observation predicts).
    assert len(result.paper_metrics_retained) >= 3
    assert "avg_shortest_path" in retained
    assert "adjacency_std" in retained
    assert "max_degree" in retained

    # Redundant variants were folded away, as in the paper.
    kept = set(retained)
    assert not {"adjacency_std", "adjacency_variance"} <= kept


def test_table1_correlations_are_strong(benchmark, paper_records):
    """The premise of the reduction: many metrics are codependent."""
    import numpy as np

    result = benchmark.pedantic(
        lambda: run_table1(paper_records), rounds=1, iterations=1
    )
    matrix = result.reduction.matrix
    n = len(result.reduction.names)
    off_diagonal = np.abs(matrix[np.triu_indices(n, k=1)])
    strong = (off_diagonal >= 0.85).sum()
    print(f"\n{strong} of {len(off_diagonal)} metric pairs are redundant (|r|>=0.85)")
    assert strong >= 5

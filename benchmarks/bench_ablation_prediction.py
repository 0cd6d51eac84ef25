"""Ablation: do the retained graph metrics predict mapping overhead?

The point of Sec. IV: graph-based profiling should "assist, guide,
dimension and optimize" mapping.  This bench quantifies the prediction
power of (a) each retained metric and (b) the combined routing-difficulty
score, as rank correlations against measured gate overhead, and checks
the profile-driven MapperAdvisor makes sane choices.
"""

import numpy as np

from repro.core import (
    MapperAdvisor,
    PAPER_RETAINED_METRICS,
    routing_difficulty,
)


def test_difficulty_score_predicts_overhead(benchmark, paper_records):
    """Width-controlled: the profile score ranks overhead within bands.

    Relative overhead grows with circuit width regardless of structure
    (longer chip distances), so the structure score is evaluated within
    qubit-count strata — exactly the "groups of algorithms" framing the
    paper uses for profile-driven analysis.
    """
    from repro.experiments import stratified_spearman

    correlation = benchmark.pedantic(
        lambda: stratified_spearman(
            paper_records, lambda r: routing_difficulty(r.metrics)
        ),
        rounds=3,
        iterations=1,
    )
    print(f"\nrouting_difficulty vs overhead (width-controlled): {correlation:+.3f}")
    assert correlation > 0.15


def test_per_metric_prediction(benchmark, paper_records):
    from repro.experiments import stratified_spearman

    def compute():
        return {
            name: stratified_spearman(
                paper_records, lambda r, n=name: r.metrics.as_dict()[n]
            )
            for name in PAPER_RETAINED_METRICS
        }

    table = benchmark.pedantic(compute, rounds=1, iterations=1)
    print()
    print(f"{'metric':20s} {'width-controlled spearman':>26s}")
    for name, value in table.items():
        print(f"{name:20s} {value:26.3f}")
    # Table I signs: dense/uniform graphs route worse.
    assert table["adjacency_std"] < 0
    assert table["avg_shortest_path"] < 0
    assert table["max_degree"] > 0


def test_advisor_separates_populations(benchmark, small_records):
    suite, _ = small_records
    advisor = MapperAdvisor()

    def decide_all():
        return [advisor.decide(b.circuit) for b in suite]

    decisions = benchmark.pedantic(decide_all, rounds=1, iterations=1)
    difficulties = np.array([d.difficulty for d in decisions])
    hard = [d for d in decisions if d.mapper_name == advisor.hard_mapper.name]
    easy = [d for d in decisions if d.mapper_name == advisor.easy_mapper.name]
    print(
        f"\nadvisor: {len(easy)} easy / {len(hard)} hard; "
        f"difficulty range [{difficulties.min():.2f}, {difficulties.max():.2f}]"
    )
    # The suite spans both regimes, and hard ones score higher by def.
    if easy and hard:
        assert min(d.difficulty for d in hard) >= max(
            d.difficulty for d in easy
        ) - 1e-12

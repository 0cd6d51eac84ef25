"""Regenerates Fig. 3: the cost of trivial mapping on the 100q chip.

Prints the three panels' series (as text tables) and asserts the shapes
the paper reports: fidelity decays with gate count, overhead grows with
the two-qubit-gate share, fidelity decrease grows with overhead, and
synthetic circuits pay more than real algorithms.
"""


from repro.experiments import fig3_data, fig3_summary, format_fig3


def test_fig3a_fidelity_vs_gates(benchmark, paper_records):
    data = benchmark.pedantic(
        lambda: fig3_data(paper_records), rounds=3, iterations=1
    )
    summary = fig3_summary(data)
    print()
    print(format_fig3(data))
    # Paper shape: fidelity decays (strongly) with gate count.
    assert summary["a_spearman"] < -0.7
    assert len(data.panel_a) > 20


def test_fig3b_overhead_vs_two_qubit_share(benchmark, paper_records):
    data = benchmark.pedantic(
        lambda: fig3_data(paper_records), rounds=3, iterations=1
    )
    summary = fig3_summary(data)
    # Paper shape: "the higher this percentage ... the higher the gate
    # overhead caused by routing".  The global rank correlation is
    # positive but diluted by the width confounder (overhead also grows
    # with qubit count); the width-controlled value is required too.
    assert summary["b_spearman"] > 0.05
    from repro.experiments import stratified_spearman

    controlled = stratified_spearman(
        paper_records, lambda r: r.size.two_qubit_percentage
    )
    print(f"\nwidth-controlled 2q%-vs-overhead Spearman: {controlled:+.3f}")
    assert controlled > 0.05
    # "the gate overhead ... is, on average, higher for synthetic (random)
    # algorithms than for the real ones".
    assert summary["b_mean_overhead_synthetic"] > summary["b_mean_overhead_real"]


def test_fig3c_fidelity_decrease_vs_overhead(benchmark, paper_records):
    data = benchmark.pedantic(
        lambda: fig3_data(paper_records), rounds=3, iterations=1
    )
    summary = fig3_summary(data)
    # Paper shape: added SWAP gates translate into fidelity loss.
    assert summary["c_spearman"] > 0.15

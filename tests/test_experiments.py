"""Integration tests for the figure/table experiment harnesses.

These run the paper's pipeline on a reduced suite (fast) and assert the
*shapes* the paper reports; the full 200-circuit runs live in
benchmarks/.
"""

import pytest

from repro.experiments import (
    GATE_LIMIT_A_C,
    fig3_data,
    fig3_summary,
    fig5_data,
    fig5_summary,
    format_fig3,
    format_fig4,
    format_fig5,
    format_table1,
    paper_configuration,
    run_fig4,
    run_suite,
    run_table1,
)
from repro.compiler import sabre_mapper
from repro.hardware import surface17_device
from repro.workloads import evaluation_suite


@pytest.fixture(scope="module")
def records():
    suite = evaluation_suite(
        num_circuits=24, seed=5, max_qubits=16, max_gates=300
    )
    return run_suite(suite, device=surface17_device())


class TestRunSuite:
    def test_one_record_per_benchmark(self, records):
        assert len(records) == 24

    def test_record_consistency(self, records):
        for record in records:
            assert record.gates_after >= record.gates_before
            assert record.fidelity_after <= record.fidelity_before + 1e-12
            assert 0.0 <= record.fidelity_decrease <= 1.0
            assert record.gate_overhead_percent >= 0.0
            assert record.family in ("random", "reversible", "real")

    def test_wider_than_device_skipped(self):
        suite = evaluation_suite(
            num_circuits=6, seed=2, max_qubits=40, max_gates=50
        )
        records = run_suite(suite, device=surface17_device())
        assert all(r.size.num_qubits <= 17 for r in records)

    def test_custom_mapper(self):
        suite = evaluation_suite(num_circuits=3, seed=1, max_qubits=8, max_gates=60)
        trivial_records = run_suite(suite, device=surface17_device())
        sabre_records = run_suite(
            suite, device=surface17_device(), mapper=sabre_mapper()
        )
        assert sum(r.swap_count for r in sabre_records) <= sum(
            r.swap_count for r in trivial_records
        )

    def test_progress_callback(self):
        suite = evaluation_suite(num_circuits=3, seed=1, max_qubits=8, max_gates=40)
        seen = []
        run_suite(
            suite,
            device=surface17_device(),
            progress=lambda i, n, name: seen.append((i, n)),
        )
        assert len(seen) == 3

    def test_paper_configuration(self):
        device = paper_configuration()
        assert device.num_qubits == 100
        assert device.calibration.two_qubit_error == pytest.approx(0.01)

    def test_record_as_dict(self, records):
        record = records[0].as_dict()
        assert "gate_overhead_percent" in record
        assert "metric_adjacency_std" in record


class TestFig3:
    def test_panel_a_gate_limit(self, records):
        data = fig3_data(records)
        assert all(p.x < GATE_LIMIT_A_C for p in data.panel_a)

    def test_panel_b_includes_everything(self, records):
        data = fig3_data(records)
        assert len(data.panel_b) == len(records)

    def test_paper_shapes(self, records):
        summary = fig3_summary(fig3_data(records))
        # (a) fidelity decays with gate count.
        assert summary["a_spearman"] < -0.5
        # (b) overhead grows with 2q%.
        assert summary["b_spearman"] > 0.0
        # (c) fidelity decrease grows with overhead.
        assert summary["c_spearman"] > 0.0
        # synthetic circuits pay more than real algorithms on average.
        assert (
            summary["b_mean_overhead_synthetic"] > summary["b_mean_overhead_real"]
        )

    def test_format(self, records):
        text = format_fig3(fig3_data(records))
        assert "Fig. 3(a)" in text and "Fig. 3(b)" in text and "Fig. 3(c)" in text
        assert "Summary statistics" in text


class TestFig4:
    def test_premise_and_contrast(self):
        result = run_fig4()
        assert result.size_parameters_match()
        contrast = result.structural_contrast()
        # Random side denser, QAOA side more weight-dispersed.
        assert contrast["num_edges"][1] > contrast["num_edges"][0]
        assert contrast["density"][1] > contrast["density"][0]
        assert contrast["avg_shortest_path"][0] > contrast["avg_shortest_path"][1]

    def test_format(self):
        text = format_fig4(run_fig4())
        assert "Fig. 4" in text
        assert "QAOA" in text and "Random" in text


class TestFig5:
    def test_series_lengths(self, records):
        data = fig5_data(records)
        assert len(data.series) == 3
        for series in data.series:
            assert len(series.x) == len(records)

    def test_paper_signs(self, records):
        summary = fig5_summary(fig5_data(records))
        assert summary["sign_ok_adjacency_std"] == 1.0
        assert summary["sign_ok_max_degree"] == 1.0

    def test_panel_lookup(self, records):
        data = fig5_data(records)
        assert data.panel("max_degree").metric == "max_degree"
        with pytest.raises(KeyError):
            data.panel("nonsense")

    def test_format(self, records):
        text = format_fig5(fig5_data(records))
        assert "Spearman" in text


class TestTable1:
    def test_reduction_keeps_paper_metrics(self, records):
        result = run_table1(records)
        assert "avg_shortest_path" in result.retained
        assert "adjacency_std" in result.retained
        assert len(result.paper_metrics_retained) >= 3

    def test_format(self, records):
        text = format_table1(run_table1(records))
        assert "Table I" in text
        assert "retained:" in text


class TestStratifiedSpearman:
    def test_controls_for_width(self, records):
        from repro.experiments import stratified_spearman

        value = stratified_spearman(
            records,
            lambda r: r.metrics.max_degree,
            bands=((2, 8), (9, 16)),
            min_band_size=3,
        )
        assert -1.0 <= value <= 1.0

    def test_custom_target(self, records):
        from repro.experiments import stratified_spearman

        value = stratified_spearman(
            records,
            lambda r: r.size.num_gates,
            target_fn=lambda r: r.gates_after,
            bands=((2, 16),),
            min_band_size=3,
        )
        # More input gates means more output gates, within any band.
        assert value > 0.8

    def test_no_valid_band_raises(self, records):
        from repro.experiments import stratified_spearman

        with pytest.raises(ValueError, match="no band"):
            stratified_spearman(
                records, lambda r: r.metrics.max_degree, bands=((1000, 2000),)
            )


class TestFig5DecileContrast:
    def test_contrast_structure(self, records):
        from repro.experiments import fig5_decile_contrast

        contrast = fig5_decile_contrast(fig5_data(records))
        assert set(contrast) == {
            "adjacency_std",
            "avg_shortest_path",
            "max_degree",
        }
        for top, rest, ok in contrast.values():
            assert isinstance(ok, bool)

    def test_decile_validated(self, records):
        from repro.experiments import fig5_decile_contrast

        with pytest.raises(ValueError):
            fig5_decile_contrast(fig5_data(records), decile=0.0)


class TestFig2:
    def test_caption_facts(self):
        from repro.experiments import run_fig2

        result = run_fig2()
        assert result.device.num_qubits == 7
        assert result.swap_count == 1
        assert result.verified()

    def test_weighted_interaction_graph(self):
        from repro.experiments import run_fig2

        result = run_fig2()
        weights = [w for _, _, w in result.interaction.edges()]
        assert max(weights) > 1  # the figure shows a weighted graph

    def test_format(self):
        from repro.experiments import format_fig2, run_fig2

        text = format_fig2(run_fig2())
        assert "Fig. 2" in text
        assert "SWAP" in text
        assert "Q0 -- Q2" in text


class TestRecordsCsv:
    def test_roundtrippable_csv(self, records, tmp_path):
        import csv

        from repro.experiments import records_to_csv

        path = records_to_csv(records, tmp_path / "records.csv")
        with path.open() as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == len(records)
        assert float(rows[0]["gate_overhead_percent"]) == pytest.approx(
            records[0].gate_overhead_percent
        )
        assert "metric_adjacency_std" in rows[0]

    def test_empty_rejected(self, tmp_path):
        from repro.experiments import records_to_csv

        with pytest.raises(ValueError):
            records_to_csv([], tmp_path / "nothing.csv")


class TestGenerateReport:
    def test_markdown_structure(self, records):
        from repro.experiments import generate_report

        report = generate_report(
            records, title="Test sweep", device_name="surface-17",
            mapper_name="trivial",
        )
        assert report.startswith("# Test sweep")
        assert "## Headline" in report
        assert "## Per benchmark family" in report
        assert "## Highest-overhead circuits" in report
        assert "## Interaction-graph metrics vs overhead" in report
        # One family row per family present.
        for family in {r.family for r in records}:
            assert f"| {family} |" in report

    def test_worst_limit(self, records):
        from repro.experiments import generate_report

        report = generate_report(records, worst=3)
        section = report.split("## Highest-overhead circuits")[1]
        section = section.split("##")[0]  # cut at the next heading
        table_rows = [
            line for line in section.splitlines()
            if line.startswith("|") and "---" not in line and "circuit |" not in line
        ]
        assert len(table_rows) == 3

    def test_empty_rejected(self):
        from repro.experiments import generate_report

        with pytest.raises(ValueError):
            generate_report([])

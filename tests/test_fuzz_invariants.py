"""The invariant bank: green on healthy code, red on planted bugs."""

import pytest

from repro.circuit import Circuit
from repro.compiler import SabreRouter
from repro.fuzz import (
    FuzzSeed,
    INVARIANT_NAMES,
    check_sample,
    default_bank,
    generate_sample,
    parallel_determinism_failure,
    sample_block,
)
from repro.fuzz.invariants import (
    MetricsTwinInvariant,
    QasmRoundTripInvariant,
    RelabelMetricsInvariant,
    SabreTwinInvariant,
    SkipInvariant,
)
from repro.workloads.suite import BenchmarkCircuit


class TestBankShape:
    def test_every_invariant_named_once(self):
        names = [i.name for i in default_bank()]
        assert names == list(INVARIANT_NAMES)
        assert len(set(names)) == len(names)

    def test_differential_and_metamorphic_families_present(self):
        assert {"sabre_twin", "oracle_twin", "metrics_twin"} <= set(
            INVARIANT_NAMES
        )
        assert {
            "mapping_semantics",
            "relabel_metrics",
            "commutation_fidelity",
            "qasm_roundtrip",
        } <= set(INVARIANT_NAMES)


class TestBankOnHealthyCode:
    def test_block_is_green(self):
        # One full class-pairing rotation through the whole bank.
        for sample in sample_block(2022, 16):
            for outcome in check_sample(sample):
                assert outcome.status in ("ok", "skipped"), (
                    f"{sample.describe()}: {outcome!r}"
                )

    def test_outcomes_cover_the_bank(self):
        outcomes = check_sample(generate_sample(FuzzSeed(2022, 0)))
        assert [o.invariant for o in outcomes] == list(INVARIANT_NAMES)

    def test_skip_is_reported_not_failed(self):
        # An empty circuit has no commuting pair to exchange.
        empties = [
            s
            for s in sample_block(2022, 64)
            if s.circuit_class == "pathological" and len(s.circuit) == 0
        ]
        assert empties, "generator produced no empty circuit in 64 samples"
        outcomes = {
            o.invariant: o for o in check_sample(empties[0])
        }
        assert outcomes["commutation_fidelity"].status == "skipped"


class TestDifferentialDetection:
    def test_sabre_twin_catches_divergent_router(self):
        class OffByOne(SabreRouter):
            def _select(self, scores, rng):
                draw = super()._select(scores, rng)
                # Shift the chosen index by one whenever possible.
                return (draw + 1) % max(1, len(list(scores)))

        invariant = SabreTwinInvariant(lambda seed: OffByOne(seed=seed))
        messages = [
            invariant.check(s)
            for s in sample_block(2022, 16)
        ]
        assert any(m is not None for m in messages)

    def test_sabre_twin_green_with_stock_router(self):
        invariant = SabreTwinInvariant()
        for sample in sample_block(11, 8):
            assert invariant.check(sample) is None

    def test_metrics_twin_green(self):
        invariant = MetricsTwinInvariant()
        for sample in sample_block(13, 8):
            assert invariant.check(sample) is None


class TestMetamorphicDetection:
    def test_relabel_skips_single_qubit(self):
        sample = generate_sample(FuzzSeed(1, 0))
        narrowed = type(sample)(
            seed=sample.seed,
            circuit_class=sample.circuit_class,
            topology_class=sample.topology_class,
            circuit=Circuit(1).h(0),
            device=sample.device,
        )
        with pytest.raises(SkipInvariant):
            RelabelMetricsInvariant().check(narrowed)

    def test_roundtrip_green_on_directives(self):
        circuit = Circuit(3)
        circuit.h(0)
        circuit.barrier()
        circuit.cx(0, 1)
        circuit.measure(2)
        sample = generate_sample(FuzzSeed(1, 0))
        doctored = type(sample)(
            seed=sample.seed,
            circuit_class="pathological",
            topology_class=sample.topology_class,
            circuit=circuit,
            device=sample.device,
        )
        assert QasmRoundTripInvariant().check(doctored) is None


class TestParallelDeterminism:
    def test_suite_records_identical_across_worker_counts(self):
        benchmarks = [
            BenchmarkCircuit(s.circuit, "random", s.describe())
            for s in sample_block(2022, 8)
            if len(s.circuit) > 0
        ][:4]
        assert parallel_determinism_failure(benchmarks, (1, 2)) is None

"""Unit tests for circuit profiles and the co-design advisor."""

import pytest

from repro.circuit import Circuit
from repro.core import (
    MapperAdvisor,
    profile_circuit,
    profile_suite,
    routing_difficulty,
    spearman_correlation,
)
from repro.workloads import (
    fig4_qaoa_circuit,
    fig4_random_circuit,
    ghz_state,
    qft,
    random_circuit,
    small_suite,
)


class TestProfiles:
    def test_profile_fields(self):
        profile = profile_circuit(ghz_state(4), family="real")
        assert profile.family == "real"
        assert profile.size.num_qubits == 4
        assert profile.metrics.num_edges == 3
        assert not profile.is_synthetic

    def test_synthetic_flag(self):
        assert profile_circuit(Circuit(2), family="random").is_synthetic
        assert profile_circuit(Circuit(2), family="reversible").is_synthetic

    def test_feature_vector_mixes_sources(self):
        profile = profile_circuit(ghz_state(3))
        vector = profile.feature_vector(["max_degree", "num_gates", "depth"])
        assert vector.tolist() == [2.0, 3.0, 3.0]

    def test_unknown_feature_rejected(self):
        with pytest.raises(KeyError):
            profile_circuit(Circuit(1)).feature_vector(["nonsense"])

    def test_as_dict_includes_both(self):
        record = profile_circuit(ghz_state(3)).as_dict()
        assert "max_degree" in record
        assert "num_gates" in record

    def test_profile_suite(self):
        profiles = profile_suite(small_suite(6))
        assert len(profiles) == 6
        assert all(p.family in ("random", "reversible", "real") for p in profiles)


class TestRoutingDifficulty:
    def test_bounds(self):
        for circuit in (ghz_state(5), qft(5), random_circuit(6, 60, 0.8, seed=0)):
            score = routing_difficulty(profile_circuit(circuit).metrics)
            assert 0.0 <= score <= 1.0

    def test_no_interactions_scores_zero(self):
        assert routing_difficulty(profile_circuit(Circuit(3).h(0)).metrics) == 0.0

    def test_dense_random_harder_than_qaoa(self):
        qaoa = routing_difficulty(profile_circuit(fig4_qaoa_circuit()).metrics)
        rand = routing_difficulty(profile_circuit(fig4_random_circuit()).metrics)
        assert rand > qaoa

    def test_chain_easier_than_dense(self):
        chain = routing_difficulty(profile_circuit(ghz_state(8)).metrics)
        dense = routing_difficulty(
            profile_circuit(random_circuit(8, 200, 0.8, seed=1)).metrics
        )
        assert chain < dense

    def test_difficulty_predicts_routing_pressure(self, dev17):
        """The headline co-design claim: the profile score ranks the SWAP
        pressure (swaps per two-qubit gate) across same-size circuits.

        Relative gate overhead confounds circuit *size* with routing
        difficulty (a tiny circuit pays a huge percentage for one SWAP
        chain), so the rank check normalises per two-qubit gate.
        """
        from repro.compiler import sabre_mapper
        from repro.workloads import qaoa_maxcut, random_maxcut_instance

        # A structure-exploiting mapper makes the ranking visible: the
        # trivial router pays ~1 SWAP chain per far gate regardless of
        # structure, whereas graph placement + lookahead only pays where
        # the interaction graph is genuinely hard to embed.
        mapper = sabre_mapper()
        qaoa = qaoa_maxcut(
            8,
            random_maxcut_instance(8, 10, seed=1),
            num_layers=6,
            entangler="cx",
            seed=1,
        )
        scores, pressure = [], []
        circuits = [ghz_state(8).repeated(12), qaoa] + [
            random_circuit(8, 100, f, seed=3) for f in (0.2, 0.5, 0.8)
        ]
        for circuit in circuits:
            scores.append(routing_difficulty(profile_circuit(circuit).metrics))
            result = mapper.map(circuit, dev17)
            pressure.append(result.swap_count / circuit.num_two_qubit_gates)
        assert spearman_correlation(scores, pressure) > 0.5


class TestSpearman:
    def test_perfect_monotone(self):
        assert spearman_correlation([1, 2, 3], [10, 20, 30]) == pytest.approx(1.0)
        assert spearman_correlation([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)

    def test_nonlinear_monotone_still_one(self):
        x = [1, 2, 3, 4, 5]
        y = [v ** 3 for v in x]
        assert spearman_correlation(x, y) == pytest.approx(1.0)

    def test_ties_averaged(self):
        value = spearman_correlation([1, 1, 2, 2], [1, 2, 3, 4])
        assert -1.0 <= value <= 1.0

    def test_constant_input_zero(self):
        assert spearman_correlation([1, 1, 1], [1, 2, 3]) == 0.0

    def test_length_validation(self):
        with pytest.raises(ValueError):
            spearman_correlation([1], [1])
        with pytest.raises(ValueError):
            spearman_correlation([1, 2], [1, 2, 3])


class TestMapperAdvisor:
    def test_easy_circuit_gets_trivial(self):
        advisor = MapperAdvisor(threshold=0.5)
        decision = advisor.decide(ghz_state(8))
        assert decision.mapper_name == advisor.easy_mapper.name
        assert decision.difficulty < 0.5

    def test_hard_circuit_gets_sabre(self):
        advisor = MapperAdvisor(threshold=0.5)
        decision = advisor.decide(random_circuit(8, 200, 0.8, seed=0))
        assert decision.mapper_name == advisor.hard_mapper.name

    def test_map_runs_selected_pipeline(self, dev7):
        advisor = MapperAdvisor(threshold=0.5)
        result = advisor.map(ghz_state(5), dev7)
        assert result.mapper_name == advisor.easy_mapper.name
        assert result.verify()

    def test_threshold_validated(self):
        with pytest.raises(ValueError):
            MapperAdvisor(threshold=1.5)

    def test_custom_mappers(self, dev7):
        from repro.compiler import sabre_mapper

        advisor = MapperAdvisor(
            threshold=0.0, hard_mapper=sabre_mapper()
        )  # everything is "hard"
        decision = advisor.decide(ghz_state(4))
        assert decision.mapper_name == "sabre"

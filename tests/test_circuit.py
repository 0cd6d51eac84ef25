"""Unit tests for the Circuit container (repro.circuit.circuit)."""

import math

import numpy as np
import pytest

from repro.circuit import Circuit, CircuitError, Gate
from repro.sim import circuits_equivalent, statevector


class TestConstruction:
    def test_empty(self):
        circuit = Circuit(3)
        assert circuit.num_qubits == 3
        assert len(circuit) == 0
        assert circuit.num_gates == 0

    def test_negative_register_rejected(self):
        with pytest.raises(CircuitError):
            Circuit(-1)

    def test_initial_gates_validated(self):
        with pytest.raises(CircuitError, match="outside register"):
            Circuit(1, [Gate("cx", (0, 1))])

    def test_builder_chaining(self):
        circuit = Circuit(2).h(0).cx(0, 1).measure_all()
        assert [g.name for g in circuit] == ["h", "cx", "measure", "measure"]

    def test_add_resolves_aliases(self):
        circuit = Circuit(2).add("cnot", 0, 1)
        assert circuit[0].name == "cx"

    def test_add_with_implicit_params(self):
        circuit = Circuit(1).add("x90", 0)
        assert circuit[0].name == "rx"
        assert circuit[0].params == (math.pi / 2,)

    def test_append_out_of_range(self):
        with pytest.raises(CircuitError, match="outside register"):
            Circuit(2).h(5)

    def test_barrier_defaults_to_all_qubits(self):
        circuit = Circuit(3).barrier()
        assert circuit[0].qubits == (0, 1, 2)


class TestQueries:
    def test_counts(self):
        circuit = Circuit(3).h(0).cx(0, 1).cx(1, 2).measure(2)
        assert circuit.num_gates == 3  # measure excluded
        assert circuit.num_operations == 4
        assert circuit.num_two_qubit_gates == 2
        assert circuit.two_qubit_fraction == pytest.approx(2 / 3)

    def test_two_qubit_fraction_empty(self):
        assert Circuit(2).two_qubit_fraction == 0.0

    def test_count_ops(self):
        counts = Circuit(2).h(0).h(1).cx(0, 1).count_ops()
        assert counts == {"h": 2, "cx": 1}

    def test_used_qubits(self):
        circuit = Circuit(5).h(1).cx(1, 3)
        assert circuit.used_qubits() == [1, 3]

    def test_depth_chain(self):
        circuit = Circuit(3).h(0).cx(0, 1).cx(1, 2)
        assert circuit.depth() == 3

    def test_depth_parallel(self):
        circuit = Circuit(4).h(0).h(1).h(2).h(3)
        assert circuit.depth() == 1

    def test_depth_excludes_directives_by_default(self):
        circuit = Circuit(2).h(0).barrier().h(0)
        assert circuit.depth() == 2
        assert circuit.depth(count_directives=True) == 3

    def test_barrier_orders_later_gates(self):
        # h(0) | barrier(0,1) | h(1): the barrier forces h(1) after h(0).
        circuit = Circuit(2).h(0).barrier(0, 1).h(1)
        moments = circuit.moments()
        flat = [[g.name for g in m] for m in moments]
        assert flat == [["h"], ["barrier"], ["h"]]

    def test_moments_disjoint(self):
        circuit = Circuit(3).h(0).cx(1, 2).cx(0, 1).h(2)
        for moment in circuit.moments():
            seen = set()
            for gate in moment:
                assert not seen & set(gate.qubits)
                seen.update(gate.qubits)

    def test_moment_count_matches_depth(self):
        circuit = Circuit(3).h(0).cx(0, 1).h(2).cx(1, 2).measure_all()
        assert len(circuit.moments()) == circuit.depth(count_directives=True)


class TestTransforms:
    def test_copy_is_independent(self):
        a = Circuit(2).h(0)
        b = a.copy()
        b.x(1)
        assert len(a) == 1
        assert len(b) == 2

    def test_equality(self):
        assert Circuit(2).h(0) == Circuit(2).h(0)
        assert Circuit(2).h(0) != Circuit(2).h(1)
        assert Circuit(2) != Circuit(3)

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(Circuit(1))

    def test_inverse_undoes(self):
        circuit = Circuit(3).h(0).cx(0, 1).t(1).rzz(0.7, 1, 2)
        identity = circuit.compose(circuit.inverse())
        state = statevector(identity)
        expected = np.zeros(8, dtype=complex)
        expected[0] = 1.0
        assert np.allclose(np.abs(state.reshape(-1)), np.abs(expected), atol=1e-9)

    def test_inverse_reverses_order(self):
        circuit = Circuit(2).s(0).cx(0, 1)
        inverse = circuit.inverse()
        assert [g.name for g in inverse] == ["cx", "sdg"]

    def test_compose_sizes(self):
        combined = Circuit(2).h(0).compose(Circuit(4).x(3))
        assert combined.num_qubits == 4
        assert len(combined) == 2

    def test_remap(self):
        circuit = Circuit(2).cx(0, 1).remap_qubits({0: 2, 1: 0}, num_qubits=3)
        assert circuit[0].qubits == (2, 0)
        assert circuit.num_qubits == 3

    def test_remap_non_injective_rejected(self):
        with pytest.raises(CircuitError, match="injective"):
            Circuit(2).cx(0, 1).remap_qubits({0: 1, 1: 1})

    def test_remap_too_small_register_rejected(self):
        with pytest.raises(CircuitError):
            Circuit(2).cx(0, 1).remap_qubits({0: 0, 1: 5}, num_qubits=3)

    def test_remap_preserves_semantics(self):
        circuit = Circuit(2).h(0).cx(0, 1)
        mapped = circuit.remap_qubits({0: 1, 1: 0})
        swapped = Circuit(2).swap(0, 1).compose(mapped).swap(0, 1)
        assert circuits_equivalent(circuit, swapped)

    def test_without_directives(self):
        circuit = Circuit(2).h(0).barrier().measure_all()
        assert [g.name for g in circuit.without_directives()] == ["h"]

    def test_repeated(self):
        circuit = Circuit(1).x(0).repeated(3)
        assert len(circuit) == 3
        with pytest.raises(CircuitError):
            Circuit(1).x(0).repeated(-1)


class TestContentHash:
    """``content_hash`` is embedded in every service payload key."""

    @staticmethod
    def golden(name=""):
        return (
            Circuit(3, name=name)
            .h(0)
            .cx(0, 1)
            .rz(0.25, 2)
            .u3(0.5, -1.0, 2.0, 1)
            .cz(1, 2)
            .measure_all()
        )

    def test_golden_digest(self):
        assert self.golden().content_hash() == "4e9786390a868bb1a3abecc0e226ead2"

    def test_name_is_ignored(self):
        assert self.golden("a").content_hash() == self.golden("b").content_hash()

    def test_signed_zero_parameters_differ(self):
        positive = Circuit(1).rz(0.0, 0).content_hash()
        negative = Circuit(1).rz(-0.0, 0).content_hash()
        assert positive != negative

    def test_append_changes_digest(self):
        circuit = self.golden()
        before = circuit.content_hash()
        circuit.append(Gate("x", (2,)))
        assert circuit.content_hash() != before

    def test_register_size_is_covered(self):
        assert Circuit(2).h(0).content_hash() != Circuit(3).h(0).content_hash()

    def test_pickle_round_trip_keeps_digest(self):
        import pickle

        circuit = self.golden("pickled")
        clone = pickle.loads(pickle.dumps(circuit))
        assert clone.content_hash() == circuit.content_hash()


class TestBuilderGateCoverage:
    """Every builder shorthand produces the right gate kind."""

    @pytest.mark.parametrize(
        "method,args,expected",
        [
            ("i", (0,), "i"),
            ("x", (0,), "x"),
            ("y", (0,), "y"),
            ("z", (0,), "z"),
            ("h", (0,), "h"),
            ("s", (0,), "s"),
            ("sdg", (0,), "sdg"),
            ("t", (0,), "t"),
            ("tdg", (0,), "tdg"),
            ("sx", (0,), "sx"),
            ("rx", (0.1, 0), "rx"),
            ("ry", (0.1, 0), "ry"),
            ("rz", (0.1, 0), "rz"),
            ("p", (0.1, 0), "p"),
            ("u2", (0.1, 0.2, 0), "u2"),
            ("u3", (0.1, 0.2, 0.3, 0), "u3"),
            ("cx", (0, 1), "cx"),
            ("cz", (0, 1), "cz"),
            ("swap", (0, 1), "swap"),
            ("iswap", (0, 1), "iswap"),
            ("cp", (0.1, 0, 1), "cp"),
            ("crz", (0.1, 0, 1), "crz"),
            ("rzz", (0.1, 0, 1), "rzz"),
            ("rxx", (0.1, 0, 1), "rxx"),
            ("ccx", (0, 1, 2), "ccx"),
            ("ccz", (0, 1, 2), "ccz"),
            ("cswap", (0, 1, 2), "cswap"),
            ("measure", (0,), "measure"),
            ("reset", (0,), "reset"),
        ],
    )
    def test_builder(self, method, args, expected):
        circuit = Circuit(3)
        getattr(circuit, method)(*args)
        assert circuit[0].name == expected

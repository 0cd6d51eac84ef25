"""Tests for the Trotter workloads, the ASCII drawer and suite I/O."""


import numpy as np
import pytest
import scipy.linalg as sla

from repro.circuit import Circuit, draw
from repro.core import InteractionGraph
from repro.sim import circuit_unitary
from repro.workloads import (
    heisenberg_chain,
    ising_chain,
    ising_grid,
    ising_ring,
    load_suite,
    save_suite,
    small_suite,
    two_local_trotter,
)

_Z = np.diag([1.0, -1.0]).astype(complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]])


def _embed(op, position, n):
    out = np.eye(1)
    for q in range(n):
        out = np.kron(out, op if q == position else np.eye(2))
    return out


def _embed2(op_a, a, op_b, b, n):
    out = np.eye(1)
    for q in range(n):
        if q == a:
            out = np.kron(out, op_a)
        elif q == b:
            out = np.kron(out, op_b)
        else:
            out = np.kron(out, np.eye(2))
    return out


class TestTrotterSemantics:
    def test_ising_single_step_approximates_exponential(self):
        n, j, h = 3, 0.08, 0.05
        circuit = ising_chain(n, steps=1, coupling=j, field=h)
        hamiltonian = sum(
            j * _embed2(_Z, q, _Z, q + 1, n) for q in range(n - 1)
        ) + sum(h * _embed(_X, q, n) for q in range(n))
        exact = sla.expm(-1j * hamiltonian)
        actual = circuit_unitary(circuit)
        overlap = np.trace(exact.conj().T @ actual)
        phase = overlap / abs(overlap)
        assert np.linalg.norm(actual - phase * exact) < 0.05

    def test_more_steps_reduce_trotter_error(self):
        n, j, h = 3, 0.3, 0.2
        hamiltonian = sum(
            j * _embed2(_Z, q, _Z, q + 1, n) for q in range(n - 1)
        ) + sum(h * _embed(_X, q, n) for q in range(n))
        exact = sla.expm(-1j * hamiltonian)

        def error(steps):
            circuit = ising_chain(n, steps=steps, coupling=j / steps, field=h / steps)
            actual = circuit_unitary(circuit)
            overlap = np.trace(exact.conj().T @ actual)
            phase = overlap / abs(overlap)
            return np.linalg.norm(actual - phase * exact)

        assert error(8) < error(1)

    def test_heisenberg_two_qubit_exact(self):
        # All three bond terms commute on a single bond: one step is exact.
        j = 0.07
        circuit = heisenberg_chain(2, steps=1, coupling=j, field=0.0)
        hamiltonian = j * (
            _embed2(_X, 0, _X, 1, 2)
            + _embed2(_Y, 0, _Y, 1, 2)
            + _embed2(_Z, 0, _Z, 1, 2)
        )
        exact = sla.expm(-1j * hamiltonian)
        actual = circuit_unitary(circuit)
        overlap = np.trace(exact.conj().T @ actual)
        phase = overlap / abs(overlap)
        assert np.linalg.norm(actual - phase * exact) < 1e-9


class TestTrotterStructure:
    def test_chain_interaction_graph(self):
        graph = InteractionGraph.from_circuit(ising_chain(6, steps=4))
        assert graph.num_edges == 5
        assert all(b - a == 1 for a, b, _ in graph.edges())
        assert all(w == 4 for _, _, w in graph.edges())

    def test_ring_interaction_graph(self):
        graph = InteractionGraph.from_circuit(ising_ring(6, steps=2))
        assert graph.num_edges == 6
        assert all(graph.degree(q) == 2 for q in range(6))

    def test_grid_interaction_graph(self):
        graph = InteractionGraph.from_circuit(ising_grid(3, 3, steps=1))
        assert graph.num_edges == 12
        assert graph.is_connected()

    def test_two_local_validation(self):
        with pytest.raises(ValueError):
            two_local_trotter(3, [(0, 0)])
        with pytest.raises(ValueError):
            two_local_trotter(3, [(0, 5)])
        with pytest.raises(ValueError):
            two_local_trotter(3, [(0, 1)], steps=0)
        with pytest.raises(ValueError):
            ising_ring(2)

    def test_z_field_emits_rz(self):
        circuit = two_local_trotter(2, [(0, 1)], z_angle=0.1)
        assert "rz" in circuit.count_ops()


class TestDrawer:
    def test_gate_labels_present(self):
        diagram = draw(Circuit(2).h(0).cx(0, 1).rz(0.5, 1).measure_all())
        assert "H" in diagram
        assert "●" in diagram and "X" in diagram
        assert "Rz(0.5)" in diagram
        assert "M" in diagram

    def test_one_line_per_wire(self):
        diagram = draw(Circuit(3).h(0))
        assert diagram.count("q0:") == 1
        assert len(diagram.splitlines()) == 5  # 3 wires + 2 gaps

    def test_connector_crosses_intermediate_wire(self):
        diagram = draw(Circuit(3).cx(0, 2))
        assert "┼" in diagram

    def test_swap_symbols(self):
        assert draw(Circuit(2).swap(0, 1)).count("x") == 2

    def test_barrier_column(self):
        assert "░" in draw(Circuit(2).h(0).barrier())

    def test_empty_register(self):
        assert draw(Circuit(0)) == "(empty register)"

    def test_wrap(self):
        circuit = Circuit(2)
        for _ in range(40):
            circuit.h(0).cx(0, 1)
        wrapped = draw(circuit, max_width=60)
        assert max(len(line) for line in wrapped.splitlines()) <= 60

    def test_moment_count_matches_columns(self):
        circuit = Circuit(2).h(0).h(1).cx(0, 1)
        diagram = draw(circuit)
        # Two moments -> the q0 wire contains exactly two cells: H then dot.
        top = diagram.splitlines()[0]
        assert "H" in top and "●" in top


class TestSuiteIo:
    def test_roundtrip(self, tmp_path):
        suite = small_suite(5)
        paths = save_suite(suite, tmp_path)
        assert len(paths) == 5
        loaded = load_suite(tmp_path)
        assert len(loaded) == 5
        for original, reloaded in zip(suite, loaded):
            assert reloaded.family == original.family
            assert reloaded.source == original.source
            assert len(reloaded.circuit) == len(original.circuit)
            assert reloaded.circuit.num_qubits == original.circuit.num_qubits

    def test_semantic_roundtrip(self, tmp_path):
        from repro.sim import circuits_equivalent

        suite = [s for s in small_suite(8) if s.circuit.num_qubits <= 6][:2]
        save_suite(suite, tmp_path)
        loaded = load_suite(tmp_path)
        for original, reloaded in zip(suite, loaded):
            assert circuits_equivalent(
                original.circuit.without_directives(),
                reloaded.circuit.without_directives(),
            )

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_suite(tmp_path)

    def test_malformed_manifest(self, tmp_path):
        save_suite(small_suite(2), tmp_path)
        manifest = tmp_path / "manifest.tsv"
        manifest.write_text(manifest.read_text() + "garbage row\n")
        with pytest.raises(ValueError, match="malformed"):
            load_suite(tmp_path)

    def test_unknown_family_rejected(self, tmp_path):
        save_suite(small_suite(1), tmp_path)
        manifest = tmp_path / "manifest.tsv"
        text = manifest.read_text().replace("\trandom\t", "\tquantum\t")
        text = text.replace("\treversible\t", "\tquantum\t").replace(
            "\treal\t", "\tquantum\t"
        )
        manifest.write_text(text)
        with pytest.raises(ValueError, match="unknown family"):
            load_suite(tmp_path)

    def test_overwrite(self, tmp_path):
        save_suite(small_suite(2), tmp_path)
        save_suite(small_suite(2), tmp_path)
        assert len(load_suite(tmp_path)) == 2

    def test_parallel_save_byte_identical(self, tmp_path):
        suite = small_suite(5)
        serial_dir = tmp_path / "serial"
        pooled_dir = tmp_path / "pooled"
        save_suite(suite, serial_dir, workers=1)
        save_suite(suite, pooled_dir, workers=2)
        serial_files = sorted(p.name for p in serial_dir.iterdir())
        pooled_files = sorted(p.name for p in pooled_dir.iterdir())
        assert serial_files == pooled_files
        for name in serial_files:
            assert (serial_dir / name).read_bytes() == (
                pooled_dir / name
            ).read_bytes()

"""Unit tests for the density-matrix simulator and Kraus channels."""


import numpy as np
import pytest

from repro.circuit import Circuit
from repro.hardware import IDEAL_CALIBRATION, SURFACE17_CALIBRATION
from repro.metrics import product_fidelity
from repro.sim import (
    DensityMatrixSimulator,
    amplitude_damping_kraus,
    channel_fidelity,
    depolarizing_kraus,
    estimate_success_rate,
    phase_damping_kraus,
    state_fidelity,
    statevector,
)
from repro.workloads import ghz_state, random_circuit


def _completeness(kraus, dim):
    total = sum(k.conj().T @ k for k in kraus)
    return np.allclose(total, np.eye(dim), atol=1e-12)


class TestKrausChannels:
    @pytest.mark.parametrize("p", [0.0, 0.1, 0.5, 1.0])
    def test_depolarizing_1q_complete(self, p):
        assert _completeness(depolarizing_kraus(p, 1), 2)

    @pytest.mark.parametrize("p", [0.0, 0.2, 1.0])
    def test_depolarizing_2q_complete(self, p):
        kraus = depolarizing_kraus(p, 2)
        assert len(kraus) == 16
        assert _completeness(kraus, 4)

    @pytest.mark.parametrize("gamma", [0.0, 0.3, 1.0])
    def test_amplitude_damping_complete(self, gamma):
        assert _completeness(amplitude_damping_kraus(gamma), 2)

    @pytest.mark.parametrize("lam", [0.0, 0.4, 1.0])
    def test_phase_damping_complete(self, lam):
        assert _completeness(phase_damping_kraus(lam), 2)

    def test_probability_validated(self):
        with pytest.raises(ValueError):
            depolarizing_kraus(1.5)
        with pytest.raises(ValueError):
            amplitude_damping_kraus(-0.1)
        with pytest.raises(ValueError):
            depolarizing_kraus(0.1, num_qubits=3)

    def test_amplitude_damping_decay(self):
        rho_one = np.diag([0.0, 1.0]).astype(complex)
        out = DensityMatrixSimulator.apply_channel(
            rho_one, amplitude_damping_kraus(0.3), [0]
        )
        assert out[1, 1].real == pytest.approx(0.7)
        assert out[0, 0].real == pytest.approx(0.3)

    def test_phase_damping_kills_coherence(self):
        plus = np.full((2, 2), 0.5, dtype=complex)
        out = DensityMatrixSimulator.apply_channel(
            plus, phase_damping_kraus(1.0), [0]
        )
        assert out[0, 1] == pytest.approx(0.0)
        assert out[0, 0].real == pytest.approx(0.5)

    def test_full_depolarizing_gives_mixed_state(self):
        rho = np.diag([1.0, 0.0]).astype(complex)
        out = DensityMatrixSimulator.apply_channel(
            rho, depolarizing_kraus(1.0, 1), [0]
        )
        # p=1 uniform Pauli: (X+Y+Z rho .../3) -> diag(1/3, 2/3).
        assert np.trace(out).real == pytest.approx(1.0)
        assert out[1, 1].real == pytest.approx(2.0 / 3.0)


class TestDensityMatrixSimulator:
    def test_noiseless_matches_pure_state(self):
        circuit = ghz_state(3)
        rho = DensityMatrixSimulator(IDEAL_CALIBRATION).run(circuit)
        psi = statevector(circuit).reshape(-1)
        assert np.allclose(rho, np.outer(psi, psi.conj()), atol=1e-10)

    def test_density_matrix_properties(self):
        calibration = SURFACE17_CALIBRATION.scaled(5)
        rho = DensityMatrixSimulator(calibration).run(
            random_circuit(4, 30, 0.5, seed=0)
        )
        assert np.trace(rho).real == pytest.approx(1.0)
        assert np.allclose(rho, rho.conj().T, atol=1e-10)
        eigenvalues = np.linalg.eigvalsh(rho)
        assert eigenvalues.min() > -1e-10

    def test_noise_reduces_purity(self):
        circuit = random_circuit(3, 20, 0.5, seed=1)
        noisy = DensityMatrixSimulator(SURFACE17_CALIBRATION.scaled(10)).run(circuit)
        purity = np.trace(noisy @ noisy).real
        assert purity < 0.999

    def test_width_limit(self):
        with pytest.raises(ValueError, match="limited"):
            DensityMatrixSimulator().run(Circuit(11))

    def test_measurements_rejected(self):
        with pytest.raises(ValueError, match="strip"):
            DensityMatrixSimulator().run(Circuit(1).measure(0))

    def test_custom_initial_state(self):
        rho1 = np.diag([0.0, 1.0]).astype(complex)
        out = DensityMatrixSimulator(IDEAL_CALIBRATION).run(
            Circuit(1).x(0), initial=rho1
        )
        assert out[0, 0].real == pytest.approx(1.0)


class TestChannelFidelity:
    def test_ideal_is_one(self):
        assert channel_fidelity(ghz_state(3), IDEAL_CALIBRATION) == pytest.approx(1.0)

    def test_product_model_is_lower_bound(self):
        """The paper's proxy never overestimates the exact fidelity."""
        calibration = SURFACE17_CALIBRATION.scaled(3)
        for circuit in (ghz_state(4), random_circuit(4, 40, 0.5, seed=2)):
            exact = channel_fidelity(circuit, calibration)
            model = product_fidelity(circuit.without_directives(), calibration)
            assert model <= exact + 1e-9

    def test_monte_carlo_converges_to_exact(self):
        """The three noise layers agree: MC sampling ~ exact channel."""
        calibration = SURFACE17_CALIBRATION.scaled(4)
        circuit = random_circuit(4, 30, 0.5, seed=3)
        exact = channel_fidelity(circuit, calibration)
        estimate = estimate_success_rate(
            circuit, calibration, trajectories=500, seed=5
        )
        assert abs(estimate.mean - exact) < 5 * max(estimate.std_error, 0.005)

    def test_state_fidelity_pure_overlap(self):
        psi = np.array([1.0, 0.0])
        rho = np.diag([0.8, 0.2]).astype(complex)
        assert state_fidelity(rho, psi) == pytest.approx(0.8)

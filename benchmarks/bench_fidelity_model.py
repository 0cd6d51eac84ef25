"""Validation: the paper's fidelity proxy vs Monte-Carlo ground truth.

Fig. 3 rests on "circuit fidelity is calculated as product of fidelities
for all one- and two-qubit gates".  This bench quantifies how good that
proxy is: across a spread of circuits, the gate-fidelity product is
compared against the empirical success rate of stochastic Pauli-error
trajectories through the dense simulator.
"""

import pytest

from repro.core import spearman_correlation
from repro.hardware import SURFACE17_CALIBRATION
from repro.metrics import product_fidelity
from repro.sim import estimate_success_rate
from repro.workloads import ghz_state, qft, random_circuit, vqe_ansatz


@pytest.fixture(scope="module")
def model_vs_mc():
    calibration = SURFACE17_CALIBRATION.scaled(3.0)  # amplify for contrast
    circuits = [
        ghz_state(5),
        qft(5, do_swaps=False),
        vqe_ansatz(5, num_layers=3, seed=0),
        random_circuit(5, 30, 0.3, seed=1),
        random_circuit(5, 60, 0.5, seed=2),
        random_circuit(6, 100, 0.5, seed=3),
        random_circuit(6, 160, 0.6, seed=4),
    ]
    rows = []
    for circuit in circuits:
        unitary_part = circuit.without_directives()
        estimate = estimate_success_rate(
            unitary_part, calibration, trajectories=250, seed=11
        )
        rows.append(
            {
                "name": circuit.name,
                "model": product_fidelity(unitary_part, calibration),
                "mc": estimate,
            }
        )
    return rows


def test_fidelity_model_tracks_ground_truth(benchmark, model_vs_mc):
    rows = benchmark.pedantic(lambda: model_vs_mc, rounds=1, iterations=1)
    print()
    print(f"{'circuit':20s} {'model':>8s} {'monte-carlo':>16s}")
    for row in rows:
        mc = row["mc"]
        print(
            f"{row['name'][:20]:20s} {row['model']:8.4f} "
            f"{mc.mean:8.4f} ± {mc.std_error:5.4f}"
        )
    # Rank agreement must be perfect: the proxy orders circuits correctly.
    models = [row["model"] for row in rows]
    means = [row["mc"].mean for row in rows]
    assert spearman_correlation(models, means) > 0.9
    # The product model is a (slightly conservative) lower bound: Pauli
    # errors can cancel, so MC >= model minus sampling noise.
    for row in rows:
        assert row["mc"].mean >= row["model"] - 4 * max(row["mc"].std_error, 0.005)


def test_monte_carlo_throughput(benchmark):
    circuit = random_circuit(6, 80, 0.5, seed=9)
    estimate = benchmark.pedantic(
        lambda: estimate_success_rate(
            circuit, SURFACE17_CALIBRATION, trajectories=100, seed=1
        ),
        rounds=3,
        iterations=1,
    )
    assert 0.0 <= estimate.mean <= 1.0

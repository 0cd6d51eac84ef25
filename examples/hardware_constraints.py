"""Hardware constraints end to end: crosstalk and shared control.

Maps a parallel-heavy Ising-grid simulation circuit onto the 17-qubit
surface chip, then explores the bottom layers of the stack:

1. baseline ASAP schedule (maximal parallelism),
2. shared-control constrained schedule (limited simultaneous CZs),
3. crosstalk-free schedule (no adjacent simultaneous CZs),

comparing latency and crosstalk-penalised fidelity for each.

Run:  python examples/hardware_constraints.py
"""

from repro.compiler import asap_schedule, sabre_mapper
from repro.metrics import crosstalk_fidelity, crosstalk_overlaps
from repro.hardware import surface17_device
from repro.workloads import ising_grid


def main() -> None:
    device = surface17_device()
    circuit = ising_grid(3, 3, steps=2)
    print(f"workload: {circuit.name} ({circuit.num_gates} gates)")

    result = sabre_mapper().map(circuit, device)
    print(
        f"mapped with {result.mapper_name}: {result.swap_count} SWAPs, "
        f"{result.mapped.num_gates} gates\n"
    )

    variants = {
        "unconstrained ASAP": asap_schedule(result.mapped, device.calibration),
        "max 2 parallel CZ": asap_schedule(
            result.mapped, device.calibration, max_parallel_2q=2
        ),
        "crosstalk-free": asap_schedule(
            result.mapped,
            device.calibration,
            coupling=device.coupling,
            crosstalk_free=True,
        ),
    }

    print(
        f"{'schedule':22s} {'latency ns':>10s} {'parallel':>9s} "
        f"{'xtalk pairs':>11s} {'fidelity':>9s}"
    )
    for name, schedule in variants.items():
        overlaps = crosstalk_overlaps(schedule, device.coupling)
        fidelity = crosstalk_fidelity(schedule, device.coupling, device.calibration)
        print(
            f"{name:22s} {schedule.latency_ns:10.0f} "
            f"{schedule.parallelism():9.2f} {overlaps:11d} {fidelity:9.4f}"
        )


if __name__ == "__main__":
    main()

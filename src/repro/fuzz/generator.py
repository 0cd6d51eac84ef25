"""Seeded adversarial sample generator for the fuzz harness.

One :class:`FuzzSeed` (a ``(seed, index)`` pair) determines one
:class:`FuzzSample` — a circuit drawn from one of four circuit classes
and a device drawn from one of four topology classes — completely and
reproducibly, so any failure can be replayed from two integers.

The circuit classes mirror the benchmark families of the paper's suite
plus an explicitly *pathological* class (empty circuits, 1q-only
circuits, disconnected / duplicate-edge interaction graphs, directive
spam) that unit-test-driven development never samples but routing and
metric code must survive.  Topologies cover the paper's lattices (ring,
grid, Surface-17 crops) plus random-degree connected graphs, the shape
on which SWAP heuristics of this family are known to be fragile.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Tuple

import numpy as np

from ..circuit import Circuit
from ..hardware import (
    CNOT_GATESET,
    CouplingGraph,
    Device,
    SURFACE17_CALIBRATION,
    SURFACE17_GATESET,
)
from ..hardware.library import grid, ring, surface_code_grid
from ..workloads import qaoa, random_circuits, reversible

__all__ = [
    "CIRCUIT_CLASSES",
    "TOPOLOGY_CLASSES",
    "FuzzSeed",
    "FuzzSample",
    "generate_circuit",
    "generate_topology",
    "generate_sample",
    "minimal_device",
    "sample_block",
]

#: The four circuit classes a seed block cycles through.
CIRCUIT_CLASSES: Tuple[str, ...] = (
    "random", "qaoa", "reversible", "pathological"
)

#: The four topology classes a seed block cycles through.
TOPOLOGY_CLASSES: Tuple[str, ...] = ("ring", "grid", "surface", "random")

#: Width cap for generated circuits: keeps every sample inside the dense
#: simulation oracle's budget, so the semantic invariants stay applicable.
MAX_CIRCUIT_QUBITS = 7

_PATHOLOGICAL_VARIANTS = (
    "empty",
    "one_qubit_only",
    "disconnected",
    "duplicate_edge",
    "directive_spam",
    "long_range_chain",
)


@dataclass(frozen=True)
class FuzzSeed:
    """Replayable coordinates of one fuzz sample.

    ``seed`` names the block, ``index`` the sample within it; the derived
    RNG streams are functions of both (plus a ``salt`` so independent
    consumers — generator, relabeling invariant — never share draws).
    """

    seed: int
    index: int

    def rng(self, salt: int = 0) -> np.random.Generator:
        return np.random.default_rng((self.seed, self.index, salt))


@dataclass(frozen=True)
class FuzzSample:
    """One generated test case: a circuit and a device that fits it."""

    seed: FuzzSeed
    circuit_class: str
    topology_class: str
    circuit: Circuit
    device: Device

    def describe(self) -> str:
        return (
            f"seed={self.seed.seed} index={self.seed.index} "
            f"circuit={self.circuit_class}({self.circuit.num_qubits}q,"
            f"{len(self.circuit)}ops) "
            f"topology={self.topology_class}({self.device.name},"
            f"{self.device.num_qubits}q)"
        )


# ---------------------------------------------------------------------------
# Circuit classes
# ---------------------------------------------------------------------------

def _pathological_circuit(variant: str, rng: np.random.Generator) -> Circuit:
    n = int(rng.integers(2, MAX_CIRCUIT_QUBITS + 1))
    circuit = Circuit(n, name=f"patho_{variant}_{n}q")
    if variant == "empty":
        return circuit
    if variant == "one_qubit_only":
        for _ in range(int(rng.integers(1, 15))):
            q = int(rng.integers(n))
            circuit.add(str(rng.choice(["x", "h", "t", "s", "z"])), q)
        return circuit
    if variant == "disconnected":
        # Two interaction islands with no cross edges (n >= 4).
        n = max(4, n)
        circuit = Circuit(n, name=f"patho_disconnected_{n}q")
        half = n // 2
        for _ in range(int(rng.integers(2, 10))):
            a, b = rng.choice(half, size=2, replace=False)
            circuit.cx(int(a), int(b))
            c, d = rng.choice(n - half, size=2, replace=False)
            circuit.cz(half + int(c), half + int(d))
        return circuit
    if variant == "duplicate_edge":
        # One pair hammered over and over: a maximally weighted edge.
        a, b = (0, 1) if n < 3 else tuple(
            int(q) for q in rng.choice(n, size=2, replace=False)
        )
        for _ in range(int(rng.integers(5, 25))):
            circuit.cx(a, b)
            if rng.random() < 0.3:
                circuit.h(a)
        return circuit
    if variant == "directive_spam":
        circuit.h(0)
        circuit.barrier()
        if n >= 2:
            circuit.cx(0, 1)
        circuit.barrier(0)
        for q in range(n):
            circuit.measure(q)
        return circuit
    if variant == "long_range_chain":
        # Nearest-neighbour chain plus one maximally long-range gate:
        # adversarial for look-ahead scoring on sparse topologies.
        for q in range(n - 1):
            circuit.cx(q, q + 1)
        circuit.cx(0, n - 1) if n > 2 else circuit.cx(0, 1)
        return circuit
    raise ValueError(f"unknown pathological variant {variant!r}")


def generate_circuit(circuit_class: str, rng: np.random.Generator) -> Circuit:
    """Draw one circuit of the given class from ``rng``."""
    if circuit_class == "random":
        num_qubits = int(rng.integers(2, MAX_CIRCUIT_QUBITS + 1))
        num_gates = int(rng.integers(1, 31))
        fraction = float(rng.uniform(0.1, 0.9))
        return random_circuits.random_circuit(
            num_qubits, num_gates, fraction, seed=int(rng.integers(2 ** 31))
        )
    if circuit_class == "qaoa":
        nodes = int(rng.integers(3, MAX_CIRCUIT_QUBITS + 1))
        max_edges = nodes * (nodes - 1) // 2
        edges = int(rng.integers(nodes - 1, max_edges + 1))
        instance = qaoa.random_maxcut_instance(
            nodes, edges, seed=int(rng.integers(2 ** 31))
        )
        return qaoa.qaoa_maxcut(
            nodes,
            instance,
            num_layers=int(rng.integers(1, 3)),
            seed=int(rng.integers(2 ** 31)),
        )
    if circuit_class == "reversible":
        num_qubits = int(rng.integers(3, MAX_CIRCUIT_QUBITS + 1))
        num_gates = int(rng.integers(1, 21))
        return reversible.random_reversible_circuit(
            num_qubits, num_gates, seed=int(rng.integers(2 ** 31))
        )
    if circuit_class == "pathological":
        variant = _PATHOLOGICAL_VARIANTS[
            int(rng.integers(len(_PATHOLOGICAL_VARIANTS)))
        ]
        return _pathological_circuit(variant, rng)
    raise ValueError(f"unknown circuit class {circuit_class!r}")


# ---------------------------------------------------------------------------
# Topology classes
# ---------------------------------------------------------------------------

def _random_connected_graph(
    num_qubits: int, rng: np.random.Generator
) -> CouplingGraph:
    """Random-degree connected simple graph: spanning tree + extra edges."""
    order = list(rng.permutation(num_qubits))
    edges = set()
    for i in range(1, num_qubits):
        j = int(rng.integers(i))
        edges.add(tuple(sorted((int(order[i]), int(order[j])))))
    candidates = [
        (a, b)
        for a in range(num_qubits)
        for b in range(a + 1, num_qubits)
        if (a, b) not in edges
    ]
    rng.shuffle(candidates)
    extra = int(rng.integers(0, len(candidates) + 1)) if candidates else 0
    for edge in candidates[:extra]:
        edges.add(edge)
    return CouplingGraph(
        num_qubits, sorted(edges), name=f"rand-{num_qubits}"
    )


def generate_topology(
    topology_class: str, min_qubits: int, rng: np.random.Generator
) -> Device:
    """Draw one device of the given class that fits ``min_qubits``."""
    width = max(1, min_qubits)
    if topology_class == "ring":
        n = max(3, width) + int(rng.integers(0, 4))
        return Device(ring(n), SURFACE17_CALIBRATION, CNOT_GATESET)
    if topology_class == "grid":
        rows = int(rng.integers(2, 4))
        cols = max(2, -(-width // rows) + int(rng.integers(0, 2)))
        return Device(grid(rows, cols), SURFACE17_CALIBRATION, CNOT_GATESET)
    if topology_class == "surface":
        # Crops of the Surface-17 lattice family (the paper's chips).
        n = max(width, int(rng.integers(7, 18)))
        return Device(
            surface_code_grid(n), SURFACE17_CALIBRATION, SURFACE17_GATESET
        )
    if topology_class == "random":
        n = width + int(rng.integers(0, 5))
        return Device(
            _random_connected_graph(max(2, n), rng),
            SURFACE17_CALIBRATION,
            CNOT_GATESET,
        )
    raise ValueError(f"unknown topology class {topology_class!r}")


def minimal_device(topology_class: str, min_qubits: int) -> Device:
    """The smallest device of a class fitting ``min_qubits`` (for shrinking).

    Deterministic (no RNG): the shrinker swaps a failing sample's device
    for this one and keeps the swap only if the failure survives.
    """
    width = max(1, min_qubits)
    if topology_class == "ring":
        return Device(ring(max(3, width)), SURFACE17_CALIBRATION, CNOT_GATESET)
    if topology_class == "grid":
        return Device(
            grid(2, max(2, -(-width // 2))), SURFACE17_CALIBRATION, CNOT_GATESET
        )
    if topology_class == "surface":
        return Device(
            surface_code_grid(max(2, width)),
            SURFACE17_CALIBRATION,
            SURFACE17_GATESET,
        )
    if topology_class == "random":
        # The minimal connected graph is a path.
        n = max(2, width)
        return Device(
            CouplingGraph(
                n, [(i, i + 1) for i in range(n - 1)], name=f"path-{n}"
            ),
            SURFACE17_CALIBRATION,
            CNOT_GATESET,
        )
    raise ValueError(f"unknown topology class {topology_class!r}")


# ---------------------------------------------------------------------------
# Samples
# ---------------------------------------------------------------------------

def generate_sample(seed: FuzzSeed) -> FuzzSample:
    """The sample at coordinates ``seed`` — pure function of its fields.

    Classes are assigned round-robin over the 16 circuit x topology
    combinations, so any block of >= 16 consecutive indices covers every
    generator-class pairing.
    """
    circuit_class = CIRCUIT_CLASSES[seed.index % len(CIRCUIT_CLASSES)]
    topology_class = TOPOLOGY_CLASSES[
        (seed.index // len(CIRCUIT_CLASSES)) % len(TOPOLOGY_CLASSES)
    ]
    rng = seed.rng()
    circuit = generate_circuit(circuit_class, rng)
    device = generate_topology(topology_class, circuit.num_qubits, rng)
    return FuzzSample(seed, circuit_class, topology_class, circuit, device)


def sample_block(
    seed: int, count: int, start: int = 0
) -> Iterator[FuzzSample]:
    """Yield the ``count`` samples of block ``seed`` from ``start`` on."""
    for index in range(start, start + count):
        yield generate_sample(FuzzSeed(seed, index))

"""The :class:`Circuit` container: an ordered list of gates on a register.

A circuit owns a fixed number of qubits (indexed ``0..num_qubits-1``) and a
sequence of :class:`~repro.circuit.gates.Gate` applications.  It offers the
builder-style methods used by the workload generators (``c.h(0)``,
``c.cx(0, 1)``), structural queries used by the profiler (gate counts,
two-qubit fraction, depth) and the transformations used by the compiler
(remapping, composition, inversion).
"""

from __future__ import annotations

import hashlib
import struct
from collections import Counter
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .gates import _DIRECTIVES, Gate, gate_inverse, resolve_alias

__all__ = ["Circuit", "CircuitError"]


class CircuitError(ValueError):
    """Raised for structurally invalid circuit operations."""


class Circuit:
    """An ordered quantum circuit over ``num_qubits`` qubits.

    Parameters
    ----------
    num_qubits:
        Size of the qubit register.
    gates:
        Optional initial gate sequence (validated against the register).
    name:
        Optional human-readable name, carried through compilation and used
        in experiment reports.
    """

    __slots__ = ("num_qubits", "_gates", "name")

    def __init__(
        self,
        num_qubits: int,
        gates: Optional[Iterable[Gate]] = None,
        name: str = "",
    ) -> None:
        if num_qubits < 0:
            raise CircuitError(f"negative qubit count: {num_qubits}")
        self.num_qubits = int(num_qubits)
        self.name = name
        self._gates: List[Gate] = []
        if gates is not None:
            for gate in gates:
                self.append(gate)

    # ------------------------------------------------------------------
    # Container protocol
    # ------------------------------------------------------------------
    @property
    def gates(self) -> Tuple[Gate, ...]:
        """The gate sequence as an immutable tuple."""
        return tuple(self._gates)

    def __len__(self) -> int:
        return len(self._gates)

    def __iter__(self) -> Iterator[Gate]:
        return iter(self._gates)

    def __getitem__(self, index):
        return self._gates[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Circuit):
            return NotImplemented
        return (
            self.num_qubits == other.num_qubits and self._gates == other._gates
        )

    def __hash__(self):  # circuits are mutable
        raise TypeError("Circuit is unhashable (mutable)")

    def content_hash(self) -> str:
        """Stable hex digest of the circuit's semantic content.

        Covers the register size and the exact gate sequence (names,
        qubits, parameter bit patterns) but *not* the cosmetic ``name``,
        so two structurally identical circuits hash alike across
        processes and sessions.  Used to memoise per-circuit derived data
        (e.g. the Table I graph-metric vectors).
        """
        digest = hashlib.blake2b(digest_size=16)
        digest.update(struct.pack("<q", self.num_qubits))
        for gate in self._gates:
            digest.update(gate.name.encode("utf-8"))
            digest.update(struct.pack(f"<B{len(gate.qubits)}q", 0, *gate.qubits))
            digest.update(struct.pack(f"<B{len(gate.params)}d", 1, *gate.params))
        return digest.hexdigest()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        label = f" {self.name!r}" if self.name else ""
        return (
            f"<Circuit{label}: {self.num_qubits} qubits, "
            f"{len(self._gates)} gates>"
        )

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def append(self, gate: Gate) -> "Circuit":
        """Append a validated gate; returns ``self`` for chaining."""
        for q in gate.qubits:
            if not 0 <= q < self.num_qubits:
                raise CircuitError(
                    f"gate {gate} addresses qubit {q} outside register of "
                    f"size {self.num_qubits}"
                )
        self._gates.append(gate)
        return self

    def extend(self, gates: Iterable[Gate]) -> "Circuit":
        for gate in gates:
            self.append(gate)
        return self

    def add(self, name: str, *qubits: int, params: Sequence[float] = ()) -> "Circuit":
        """Append a gate by name, resolving input aliases (``cnot`` etc.)."""
        canonical, implicit = resolve_alias(name)
        return self.append(Gate(canonical, tuple(qubits), implicit + tuple(params)))

    # Builder shorthands -------------------------------------------------
    def i(self, q: int) -> "Circuit":
        return self.append(Gate("i", (q,)))

    def x(self, q: int) -> "Circuit":
        return self.append(Gate("x", (q,)))

    def y(self, q: int) -> "Circuit":
        return self.append(Gate("y", (q,)))

    def z(self, q: int) -> "Circuit":
        return self.append(Gate("z", (q,)))

    def h(self, q: int) -> "Circuit":
        return self.append(Gate("h", (q,)))

    def s(self, q: int) -> "Circuit":
        return self.append(Gate("s", (q,)))

    def sdg(self, q: int) -> "Circuit":
        return self.append(Gate("sdg", (q,)))

    def t(self, q: int) -> "Circuit":
        return self.append(Gate("t", (q,)))

    def tdg(self, q: int) -> "Circuit":
        return self.append(Gate("tdg", (q,)))

    def sx(self, q: int) -> "Circuit":
        return self.append(Gate("sx", (q,)))

    def rx(self, theta: float, q: int) -> "Circuit":
        return self.append(Gate("rx", (q,), (theta,)))

    def ry(self, theta: float, q: int) -> "Circuit":
        return self.append(Gate("ry", (q,), (theta,)))

    def rz(self, theta: float, q: int) -> "Circuit":
        return self.append(Gate("rz", (q,), (theta,)))

    def p(self, lam: float, q: int) -> "Circuit":
        return self.append(Gate("p", (q,), (lam,)))

    def u2(self, phi: float, lam: float, q: int) -> "Circuit":
        return self.append(Gate("u2", (q,), (phi, lam)))

    def u3(self, theta: float, phi: float, lam: float, q: int) -> "Circuit":
        return self.append(Gate("u3", (q,), (theta, phi, lam)))

    def cx(self, control: int, target: int) -> "Circuit":
        return self.append(Gate("cx", (control, target)))

    def cz(self, a: int, b: int) -> "Circuit":
        return self.append(Gate("cz", (a, b)))

    def swap(self, a: int, b: int) -> "Circuit":
        return self.append(Gate("swap", (a, b)))

    def iswap(self, a: int, b: int) -> "Circuit":
        return self.append(Gate("iswap", (a, b)))

    def cp(self, lam: float, control: int, target: int) -> "Circuit":
        return self.append(Gate("cp", (control, target), (lam,)))

    def crz(self, lam: float, control: int, target: int) -> "Circuit":
        return self.append(Gate("crz", (control, target), (lam,)))

    def rzz(self, theta: float, a: int, b: int) -> "Circuit":
        return self.append(Gate("rzz", (a, b), (theta,)))

    def rxx(self, theta: float, a: int, b: int) -> "Circuit":
        return self.append(Gate("rxx", (a, b), (theta,)))

    def ccx(self, c1: int, c2: int, target: int) -> "Circuit":
        return self.append(Gate("ccx", (c1, c2, target)))

    def ccz(self, a: int, b: int, c: int) -> "Circuit":
        return self.append(Gate("ccz", (a, b, c)))

    def cswap(self, control: int, a: int, b: int) -> "Circuit":
        return self.append(Gate("cswap", (control, a, b)))

    def measure(self, q: int) -> "Circuit":
        return self.append(Gate("measure", (q,)))

    def measure_all(self) -> "Circuit":
        for q in range(self.num_qubits):
            self.measure(q)
        return self

    def reset(self, q: int) -> "Circuit":
        return self.append(Gate("reset", (q,)))

    def barrier(self, *qubits: int) -> "Circuit":
        qs = qubits if qubits else tuple(range(self.num_qubits))
        return self.append(Gate("barrier", qs))

    # ------------------------------------------------------------------
    # Structural queries
    # ------------------------------------------------------------------
    @property
    def num_gates(self) -> int:
        """Number of proper gates, excluding directives."""
        return sum(1 for g in self._gates if not g.is_directive)

    @property
    def num_operations(self) -> int:
        """Number of all operations including measure/reset/barrier."""
        return len(self._gates)

    def count_ops(self) -> Counter:
        """Histogram of operation names."""
        return Counter(g.name for g in self._gates)

    def two_qubit_gates(self) -> List[Gate]:
        """All unitary gates acting on exactly two qubits, in order."""
        return [g for g in self._gates if g.is_two_qubit]

    @property
    def num_two_qubit_gates(self) -> int:
        return sum(1 for g in self._gates if g.is_two_qubit)

    @property
    def two_qubit_fraction(self) -> float:
        """Fraction of proper gates that are two-qubit gates (0 when empty)."""
        total = self.num_gates
        if total == 0:
            return 0.0
        return self.num_two_qubit_gates / total

    def used_qubits(self) -> List[int]:
        """Sorted qubit indices touched by at least one operation."""
        used = set()
        for gate in self._gates:
            used.update(gate.qubits)
        return sorted(used)

    def depth(self, count_directives: bool = False) -> int:
        """Circuit depth: longest qubit-dependency chain.

        Barriers synchronise the qubits they span; with
        ``count_directives=False`` (the default) they and measure/reset do
        not add a level of their own but still order later gates.
        """
        return self.gates_and_depth(count_directives)[1]

    def gates_and_depth(self, count_directives: bool = False) -> Tuple[int, int]:
        """``(num_gates, depth(count_directives))`` from one walk."""
        level = [0] * self.num_qubits
        proper = 0
        for gate in self._gates:
            qubits = gate.qubits
            if len(qubits) == 1:
                start = level[qubits[0]]
            elif len(qubits) == 2:
                start = max(level[qubits[0]], level[qubits[1]])
            else:
                start = max([level[q] for q in qubits], default=0)
            if gate.name in _DIRECTIVES:
                if not count_directives:
                    for q in qubits:
                        level[q] = start
                    continue
            else:
                proper += 1
            start += 1
            for q in qubits:
                level[q] = start
        return proper, max(level, default=0)

    def moments(self) -> List[List[Gate]]:
        """Greedy ASAP layering of the circuit.

        Each moment is a list of operations on pairwise-disjoint qubits.
        Directives occupy their own slot on their qubits, so the number of
        moments equals ``depth(count_directives=True)``.
        """
        level: Dict[int, int] = {}
        layers: List[List[Gate]] = []
        for gate in self._gates:
            start = max((level.get(q, 0) for q in gate.qubits), default=0)
            while len(layers) <= start:
                layers.append([])
            layers[start].append(gate)
            for q in gate.qubits:
                level[q] = start + 1
        return layers

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------
    def copy(self) -> "Circuit":
        clone = Circuit(self.num_qubits, name=self.name)
        clone._gates = list(self._gates)
        return clone

    def inverse(self) -> "Circuit":
        """The adjoint circuit (gates inverted, order reversed).

        Raises
        ------
        ValueError
            If the circuit contains ``measure`` or ``reset``.
        """
        inv = Circuit(self.num_qubits, name=f"{self.name}_dg" if self.name else "")
        for gate in reversed(self._gates):
            if gate.name == "barrier":
                inv.append(gate)
            else:
                inv.append(gate_inverse(gate))
        return inv

    def compose(self, other: "Circuit") -> "Circuit":
        """Return a new circuit running ``self`` then ``other``.

        The register size is the maximum of the two operands'.
        """
        out = Circuit(max(self.num_qubits, other.num_qubits), name=self.name)
        out._gates = list(self._gates) + list(other._gates)
        return out

    def remap_qubits(
        self, mapping: Dict[int, int], num_qubits: Optional[int] = None
    ) -> "Circuit":
        """Relabel qubits through ``mapping``.

        Parameters
        ----------
        mapping:
            Maps every used qubit index to its new index.  Must be
            injective on the used qubits.
        num_qubits:
            Register size of the result; defaults to the current size (or
            the largest mapped index + 1 if that is bigger).
        """
        used = self.used_qubits()
        images = [mapping[q] for q in used]
        if len(set(images)) != len(images):
            raise CircuitError("qubit remapping is not injective on used qubits")
        size = max([self.num_qubits] + [i + 1 for i in images])
        if num_qubits is not None:
            if images and num_qubits < max(images) + 1:
                raise CircuitError(
                    f"register of {num_qubits} too small for remapped indices"
                )
            size = num_qubits
        out = Circuit(size, name=self.name)
        for gate in self._gates:
            out.append(gate.remap(mapping))
        return out

    def without_directives(self) -> "Circuit":
        """A copy with measure/reset/barrier removed (for unitary checks)."""
        out = Circuit(self.num_qubits, name=self.name)
        out._gates = [g for g in self._gates if not g.is_directive]
        return out

    def repeated(self, times: int) -> "Circuit":
        """The circuit concatenated with itself ``times`` times."""
        if times < 0:
            raise CircuitError("repetition count must be non-negative")
        out = Circuit(self.num_qubits, name=self.name)
        out._gates = list(self._gates) * times
        return out

"""Decomposition of circuits into a device's primitive gate set.

Step 1 of the paper's mapping process: "Decomposition of the gates of the
circuit to the primitive gate set".  Multi-qubit gates are rewritten into
CNOT + single-qubit form via the textbook identities; CNOTs convert to CZ
form (and vice versa) depending on the native two-qubit primitive; foreign
single-qubit gates are synthesised from their unitary via ZYZ Euler angles
into whichever rotation basis the device offers.

All rewrite rules preserve the unitary exactly (up to global phase) —
the test-suite checks every rule against the dense simulator.
"""

from __future__ import annotations

import cmath
import math
from typing import Dict, List, Tuple

from ..circuit import Circuit
from ..circuit.gates import Gate, _derived_gate, gate_matrix
from ..hardware.gateset import GateSet

__all__ = ["DecompositionError", "decompose_circuit", "decompose_gate", "zyz_angles"]

_ATOL = 1e-12


class DecompositionError(ValueError):
    """Raised when a gate cannot be expressed in the target gate set."""


# ---------------------------------------------------------------------------
# Single-qubit synthesis
# ---------------------------------------------------------------------------

def zyz_angles(matrix) -> Tuple[float, float, float]:
    """ZYZ Euler angles ``(theta, phi, lam)`` of a 1-qubit unitary.

    Returns angles with ``U = e^{i alpha} Rz(phi) Ry(theta) Rz(lam)`` for
    some global phase ``alpha``.
    """
    import numpy as np

    u = np.asarray(matrix, dtype=complex)
    if u.shape != (2, 2):
        raise ValueError("zyz_angles expects a 2x2 matrix")
    det = u[0, 0] * u[1, 1] - u[0, 1] * u[1, 0]
    su = u / cmath.sqrt(det)
    theta = 2.0 * math.atan2(abs(su[1, 0]), abs(su[0, 0]))
    # su[0,0] = cos(t/2) e^{-i(phi+lam)/2}; su[1,0] = sin(t/2) e^{i(phi-lam)/2}
    if abs(su[0, 0]) > _ATOL:
        plus = -2.0 * cmath.phase(su[0, 0])
    else:
        plus = 0.0
    if abs(su[1, 0]) > _ATOL:
        minus = 2.0 * cmath.phase(su[1, 0])
    else:
        minus = 0.0
    phi = (plus + minus) / 2.0
    lam = (plus - minus) / 2.0
    return theta, phi, lam


def _is_zero_angle(angle: float) -> bool:
    return abs(math.remainder(angle, 2.0 * math.pi)) < 1e-10


def _synthesize_1q(gate: Gate, gate_set: GateSet) -> List[Gate]:
    """Express an arbitrary 1-qubit gate in the available rotation basis."""
    qubit = gate.qubits
    theta, phi, lam = zyz_angles(gate_matrix(gate))
    if not gate_set.supports_name("rz"):
        raise DecompositionError(
            f"gate set {gate_set.name!r} lacks rz; cannot synthesise "
            f"{gate.name!r}"
        )

    def rz(angle: float) -> List[Gate]:
        return [] if _is_zero_angle(angle) else [Gate("rz", qubit, (angle,))]

    if _is_zero_angle(theta):
        return rz(phi + lam)
    if gate_set.supports_name("ry"):
        return rz(lam) + [Gate("ry", qubit, (theta,))] + rz(phi)
    # ZXZXZ form: U3(t, p, l) ~ RZ(p+pi) . SX . RZ(t+pi) . SX . RZ(l)
    if gate_set.supports_name("sx"):
        half_x: List[Gate] = [Gate("sx", qubit)]
    elif gate_set.supports_name("rx"):
        half_x = [Gate("rx", qubit, (math.pi / 2.0,))]
    else:
        raise DecompositionError(
            f"gate set {gate_set.name!r} lacks ry/rx/sx; cannot synthesise "
            f"{gate.name!r}"
        )
    return (
        rz(lam)
        + half_x
        + rz(theta + math.pi)
        + half_x
        + rz(phi + math.pi)
    )


# ---------------------------------------------------------------------------
# Multi-qubit rewrite rules (into CNOT + 1q form)
#
# Every part of a rule's output comes from the already-valid input gate
# (its qubits, its float parameters, halved or negated) or is a constant
# of the right arity, so the rules build through ``_derived_gate`` and
# skip re-validation.
# ---------------------------------------------------------------------------

def _rule_swap(gate: Gate) -> List[Gate]:
    a, b = gate.qubits
    return [_derived_gate("cx", (a, b)), _derived_gate("cx", (b, a)), _derived_gate("cx", (a, b))]


def _rule_cz_to_cx(gate: Gate) -> List[Gate]:
    a, b = gate.qubits
    return [_derived_gate("h", (b,)), _derived_gate("cx", (a, b)), _derived_gate("h", (b,))]


def _rule_cx_to_cz(gate: Gate) -> List[Gate]:
    a, b = gate.qubits
    return [_derived_gate("h", (b,)), _derived_gate("cz", (a, b)), _derived_gate("h", (b,))]


def _rule_iswap(gate: Gate) -> List[Gate]:
    a, b = gate.qubits
    return [
        _derived_gate("s", (a,)),
        _derived_gate("s", (b,)),
        _derived_gate("h", (a,)),
        _derived_gate("cx", (a, b)),
        _derived_gate("cx", (b, a)),
        _derived_gate("h", (b,)),
    ]


def _rule_iswapdg(gate: Gate) -> List[Gate]:
    return [g.inverse() for g in reversed(_rule_iswap(gate))]


def _rule_cp(gate: Gate) -> List[Gate]:
    a, b = gate.qubits
    lam = gate.params[0]
    return [
        _derived_gate("p", (a,), (lam / 2.0,)),
        _derived_gate("cx", (a, b)),
        _derived_gate("p", (b,), (-lam / 2.0,)),
        _derived_gate("cx", (a, b)),
        _derived_gate("p", (b,), (lam / 2.0,)),
    ]


def _rule_crz(gate: Gate) -> List[Gate]:
    a, b = gate.qubits
    lam = gate.params[0]
    return [
        _derived_gate("rz", (b,), (lam / 2.0,)),
        _derived_gate("cx", (a, b)),
        _derived_gate("rz", (b,), (-lam / 2.0,)),
        _derived_gate("cx", (a, b)),
    ]


def _rule_cry(gate: Gate) -> List[Gate]:
    a, b = gate.qubits
    theta = gate.params[0]
    return [
        _derived_gate("ry", (b,), (theta / 2.0,)),
        _derived_gate("cx", (a, b)),
        _derived_gate("ry", (b,), (-theta / 2.0,)),
        _derived_gate("cx", (a, b)),
    ]


def _rule_crx(gate: Gate) -> List[Gate]:
    a, b = gate.qubits
    return (
        [_derived_gate("h", (b,))]
        + _rule_crz(_derived_gate("crz", (a, b), gate.params))
        + [_derived_gate("h", (b,))]
    )


def _rule_ch(gate: Gate) -> List[Gate]:
    a, b = gate.qubits
    return [
        _derived_gate("s", (b,)),
        _derived_gate("h", (b,)),
        _derived_gate("t", (b,)),
        _derived_gate("cx", (a, b)),
        _derived_gate("tdg", (b,)),
        _derived_gate("h", (b,)),
        _derived_gate("sdg", (b,)),
    ]


def _rule_rzz(gate: Gate) -> List[Gate]:
    a, b = gate.qubits
    return [
        _derived_gate("cx", (a, b)),
        _derived_gate("rz", (b,), gate.params),
        _derived_gate("cx", (a, b)),
    ]


def _rule_rxx(gate: Gate) -> List[Gate]:
    a, b = gate.qubits
    return (
        [_derived_gate("h", (a,)), _derived_gate("h", (b,))]
        + _rule_rzz(_derived_gate("rzz", (a, b), gate.params))
        + [_derived_gate("h", (a,)), _derived_gate("h", (b,))]
    )


def _rule_ryy(gate: Gate) -> List[Gate]:
    a, b = gate.qubits
    half = math.pi / 2.0
    return (
        [_derived_gate("rx", (a,), (half,)), _derived_gate("rx", (b,), (half,))]
        + _rule_rzz(_derived_gate("rzz", (a, b), gate.params))
        + [_derived_gate("rx", (a,), (-half,)), _derived_gate("rx", (b,), (-half,))]
    )


def _rule_ccx(gate: Gate) -> List[Gate]:
    a, b, c = gate.qubits
    return [
        _derived_gate("h", (c,)),
        _derived_gate("cx", (b, c)),
        _derived_gate("tdg", (c,)),
        _derived_gate("cx", (a, c)),
        _derived_gate("t", (c,)),
        _derived_gate("cx", (b, c)),
        _derived_gate("tdg", (c,)),
        _derived_gate("cx", (a, c)),
        _derived_gate("t", (b,)),
        _derived_gate("t", (c,)),
        _derived_gate("h", (c,)),
        _derived_gate("cx", (a, b)),
        _derived_gate("t", (a,)),
        _derived_gate("tdg", (b,)),
        _derived_gate("cx", (a, b)),
    ]


def _rule_ccz(gate: Gate) -> List[Gate]:
    a, b, c = gate.qubits
    return [_derived_gate("h", (c,)), _derived_gate("ccx", (a, b, c)), _derived_gate("h", (c,))]


def _rule_cswap(gate: Gate) -> List[Gate]:
    c, a, b = gate.qubits
    return [_derived_gate("cx", (b, a)), _derived_gate("ccx", (c, a, b)), _derived_gate("cx", (b, a))]


_CANONICAL_RULES = {
    "swap": _rule_swap,
    "iswap": _rule_iswap,
    "iswapdg": _rule_iswapdg,
    "cp": _rule_cp,
    "crz": _rule_crz,
    "cry": _rule_cry,
    "crx": _rule_crx,
    "ch": _rule_ch,
    "rzz": _rule_rzz,
    "rxx": _rule_rxx,
    "ryy": _rule_ryy,
    "ccx": _rule_ccx,
    "ccz": _rule_ccz,
    "cswap": _rule_cswap,
}


def _expand(gate: Gate, gate_set: GateSet) -> List[Gate]:
    """One rewrite step for an unsupported gate."""
    if gate.name in _CANONICAL_RULES:
        return _CANONICAL_RULES[gate.name](gate)
    if gate.name == "cx":
        if gate_set.supports_name("cz"):
            return _rule_cx_to_cz(gate)
        raise DecompositionError(
            f"gate set {gate_set.name!r} supports neither cx nor cz"
        )
    if gate.name == "cz":
        if gate_set.supports_name("cx"):
            return _rule_cz_to_cx(gate)
        raise DecompositionError(
            f"gate set {gate_set.name!r} supports neither cz nor cx"
        )
    if gate.num_qubits == 1 and gate.is_unitary:
        return _synthesize_1q(gate, gate_set)
    raise DecompositionError(
        f"no decomposition rule for {gate.name!r} into gate set "
        f"{gate_set.name!r}"
    )


_MAX_DEPTH = 16


def decompose_gate(gate: Gate, gate_set: GateSet) -> List[Gate]:
    """Fully lower one gate into the target set (identity when supported)."""
    if gate_set.supports(gate):
        return [gate]
    result: List[Gate] = []
    stack: List[Tuple[Gate, int]] = [(gate, 0)]
    while stack:
        current, depth = stack.pop()
        if gate_set.supports(current):
            result.append(current)
            continue
        if depth >= _MAX_DEPTH:  # pragma: no cover - defensive
            raise DecompositionError(
                f"decomposition of {gate.name!r} did not terminate"
            )
        expansion = _expand(current, gate_set)
        for sub in reversed(expansion):
            stack.append((sub, depth + 1))
    return result


def decompose_circuit(circuit: Circuit, gate_set: GateSet) -> Circuit:
    """Lower every gate of ``circuit`` into ``gate_set``.

    Directives pass through unchanged; the result is unitarily equivalent
    to the input (up to global phase).

    Each distinct parameter-free gate is lowered once per call and every
    repeat reuses the same (immutable) output gates.  Parametrised gates
    are lowered each time: ``Gate`` equality treats ``-0.0 == 0.0``, but
    the two lower to parameters with different bit patterns.
    """
    out = Circuit(circuit.num_qubits, name=circuit.name)
    # Lowered gates act on a subset of their input gate's qubits, so they
    # stay inside the register without ``Circuit.append``'s check.
    emitted = out._gates
    supports = gate_set.supports
    lowered: Dict[Tuple[str, Tuple[int, ...]], List[Gate]] = {}
    for gate in circuit:
        if supports(gate):
            emitted.append(gate)
        elif gate.params:
            emitted.extend(decompose_gate(gate, gate_set))
        else:
            key = (gate.name, gate.qubits)
            expansion = lowered.get(key)
            if expansion is None:
                expansion = lowered[key] = decompose_gate(gate, gate_set)
            emitted.extend(expansion)
    return out

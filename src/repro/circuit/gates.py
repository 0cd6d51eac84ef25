"""Gate model: definitions, matrices, inverses and commutation rules.

This module defines the immutable :class:`Gate` value type used throughout
the library together with a registry of standard gate definitions.  The
registry records, for every supported gate name, its arity, its parameter
count, a unitary-matrix constructor and an inverse rule.

Matrix convention
-----------------
For a multi-qubit gate acting on ``qubits = (a, b, ...)`` the matrix is
expressed in the computational basis where the *first listed qubit is the
most significant bit*.  For example ``cx`` on ``(control, target)`` is::

    |c t>   00  01  10  11
            1   .   .   .
            .   1   .   .
            .   .   .   1
            .   .   1   .

The state-vector simulator in :mod:`repro.sim` uses the same convention.
"""

from __future__ import annotations

import cmath
import math
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "Gate",
    "GateDefinition",
    "STANDARD_GATES",
    "gate_definition",
    "gate_matrix",
    "gate_inverse",
    "gates_commute",
    "is_directive",
    "SELF_INVERSE_GATES",
    "DIAGONAL_GATES",
    "TWO_QUBIT_GATE_NAMES",
]

_SQ2 = 1.0 / math.sqrt(2.0)


# ---------------------------------------------------------------------------
# Matrix constructors
# ---------------------------------------------------------------------------

def _mat_i(_: Sequence[float]) -> np.ndarray:
    return np.eye(2, dtype=complex)


def _mat_x(_: Sequence[float]) -> np.ndarray:
    return np.array([[0, 1], [1, 0]], dtype=complex)


def _mat_y(_: Sequence[float]) -> np.ndarray:
    return np.array([[0, -1j], [1j, 0]], dtype=complex)


def _mat_z(_: Sequence[float]) -> np.ndarray:
    return np.array([[1, 0], [0, -1]], dtype=complex)


def _mat_h(_: Sequence[float]) -> np.ndarray:
    return np.array([[_SQ2, _SQ2], [_SQ2, -_SQ2]], dtype=complex)


def _mat_s(_: Sequence[float]) -> np.ndarray:
    return np.array([[1, 0], [0, 1j]], dtype=complex)


def _mat_sdg(_: Sequence[float]) -> np.ndarray:
    return np.array([[1, 0], [0, -1j]], dtype=complex)


def _mat_t(_: Sequence[float]) -> np.ndarray:
    return np.array([[1, 0], [0, cmath.exp(1j * math.pi / 4)]], dtype=complex)


def _mat_tdg(_: Sequence[float]) -> np.ndarray:
    return np.array([[1, 0], [0, cmath.exp(-1j * math.pi / 4)]], dtype=complex)


def _mat_rx(params: Sequence[float]) -> np.ndarray:
    theta = params[0]
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)


def _mat_ry(params: Sequence[float]) -> np.ndarray:
    theta = params[0]
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


def _mat_rz(params: Sequence[float]) -> np.ndarray:
    theta = params[0]
    return np.array(
        [[cmath.exp(-1j * theta / 2), 0], [0, cmath.exp(1j * theta / 2)]],
        dtype=complex,
    )


def _mat_p(params: Sequence[float]) -> np.ndarray:
    lam = params[0]
    return np.array([[1, 0], [0, cmath.exp(1j * lam)]], dtype=complex)


def _mat_sx(_: Sequence[float]) -> np.ndarray:
    return 0.5 * np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]], dtype=complex)


def _mat_sxdg(_: Sequence[float]) -> np.ndarray:
    return 0.5 * np.array([[1 - 1j, 1 + 1j], [1 + 1j, 1 - 1j]], dtype=complex)


def _mat_u3(params: Sequence[float]) -> np.ndarray:
    theta, phi, lam = params
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array(
        [
            [c, -cmath.exp(1j * lam) * s],
            [cmath.exp(1j * phi) * s, cmath.exp(1j * (phi + lam)) * c],
        ],
        dtype=complex,
    )


def _mat_u2(params: Sequence[float]) -> np.ndarray:
    phi, lam = params
    return _mat_u3((math.pi / 2, phi, lam))


def _mat_cx(_: Sequence[float]) -> np.ndarray:
    m = np.eye(4, dtype=complex)
    m[[2, 3]] = m[[3, 2]]
    return m


def _mat_cz(_: Sequence[float]) -> np.ndarray:
    return np.diag([1, 1, 1, -1]).astype(complex)


def _mat_swap(_: Sequence[float]) -> np.ndarray:
    m = np.eye(4, dtype=complex)
    m[[1, 2]] = m[[2, 1]]
    return m


def _mat_iswap(_: Sequence[float]) -> np.ndarray:
    return np.array(
        [[1, 0, 0, 0], [0, 0, 1j, 0], [0, 1j, 0, 0], [0, 0, 0, 1]],
        dtype=complex,
    )


def _mat_iswapdg(_: Sequence[float]) -> np.ndarray:
    return _mat_iswap(()).conj().T


def _controlled(mat1q: np.ndarray) -> np.ndarray:
    m = np.eye(4, dtype=complex)
    m[2:, 2:] = mat1q
    return m


def _mat_cp(params: Sequence[float]) -> np.ndarray:
    return _controlled(_mat_p(params))


def _mat_crx(params: Sequence[float]) -> np.ndarray:
    return _controlled(_mat_rx(params))


def _mat_cry(params: Sequence[float]) -> np.ndarray:
    return _controlled(_mat_ry(params))


def _mat_crz(params: Sequence[float]) -> np.ndarray:
    return _controlled(_mat_rz(params))


def _mat_ch(_: Sequence[float]) -> np.ndarray:
    return _controlled(_mat_h(()))


def _mat_rxx(params: Sequence[float]) -> np.ndarray:
    theta = params[0]
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    m = np.diag([c, c, c, c]).astype(complex)
    anti = -1j * s
    m[0, 3] = m[3, 0] = anti
    m[1, 2] = m[2, 1] = anti
    return m


def _mat_ryy(params: Sequence[float]) -> np.ndarray:
    theta = params[0]
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    m = np.diag([c, c, c, c]).astype(complex)
    m[0, 3] = m[3, 0] = 1j * s
    m[1, 2] = m[2, 1] = -1j * s
    return m


def _mat_rzz(params: Sequence[float]) -> np.ndarray:
    theta = params[0]
    e_neg = cmath.exp(-1j * theta / 2)
    e_pos = cmath.exp(1j * theta / 2)
    return np.diag([e_neg, e_pos, e_pos, e_neg]).astype(complex)


def _mat_ccx(_: Sequence[float]) -> np.ndarray:
    m = np.eye(8, dtype=complex)
    m[[6, 7]] = m[[7, 6]]
    return m


def _mat_ccz(_: Sequence[float]) -> np.ndarray:
    return np.diag([1, 1, 1, 1, 1, 1, 1, -1]).astype(complex)


def _mat_cswap(_: Sequence[float]) -> np.ndarray:
    m = np.eye(8, dtype=complex)
    m[[5, 6]] = m[[6, 5]]
    return m


# ---------------------------------------------------------------------------
# Gate definitions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GateDefinition:
    """Static description of a gate kind.

    Attributes
    ----------
    name:
        Canonical lower-case gate name (e.g. ``"cx"``).
    num_qubits:
        Arity of the gate; ``None`` for variable-arity directives
        (``barrier``).
    num_params:
        Number of real parameters.
    matrix_fn:
        Callable mapping the parameter tuple to the unitary matrix, or
        ``None`` for non-unitary directives (``measure``, ``reset``,
        ``barrier``).
    self_inverse:
        ``True`` when the gate is its own inverse.
    inverse_name:
        Name of the inverse gate kind when it differs (``s`` -> ``sdg``).
        Parameterised rotations negate their parameters instead.
    diagonal:
        ``True`` when the unitary is diagonal in the computational basis
        for every parameter value.
    """

    name: str
    num_qubits: Optional[int]
    num_params: int
    matrix_fn: Optional[Callable[[Sequence[float]], np.ndarray]]
    self_inverse: bool = False
    inverse_name: Optional[str] = None
    diagonal: bool = False
    negate_params_for_inverse: bool = False


def _defs() -> Dict[str, GateDefinition]:
    d = {}

    def add(name, nq, npar, fn, **kw):
        d[name] = GateDefinition(name, nq, npar, fn, **kw)

    # Single-qubit, parameter free.
    add("i", 1, 0, _mat_i, self_inverse=True, diagonal=True)
    add("x", 1, 0, _mat_x, self_inverse=True)
    add("y", 1, 0, _mat_y, self_inverse=True)
    add("z", 1, 0, _mat_z, self_inverse=True, diagonal=True)
    add("h", 1, 0, _mat_h, self_inverse=True)
    add("s", 1, 0, _mat_s, inverse_name="sdg", diagonal=True)
    add("sdg", 1, 0, _mat_sdg, inverse_name="s", diagonal=True)
    add("t", 1, 0, _mat_t, inverse_name="tdg", diagonal=True)
    add("tdg", 1, 0, _mat_tdg, inverse_name="t", diagonal=True)
    add("sx", 1, 0, _mat_sx, inverse_name="sxdg")
    add("sxdg", 1, 0, _mat_sxdg, inverse_name="sx")

    # Single-qubit rotations.
    add("rx", 1, 1, _mat_rx, negate_params_for_inverse=True)
    add("ry", 1, 1, _mat_ry, negate_params_for_inverse=True)
    add("rz", 1, 1, _mat_rz, diagonal=True, negate_params_for_inverse=True)
    add("p", 1, 1, _mat_p, diagonal=True, negate_params_for_inverse=True)
    add("u2", 1, 2, _mat_u2)
    add("u3", 1, 3, _mat_u3)

    # Two-qubit gates.
    add("cx", 2, 0, _mat_cx, self_inverse=True)
    add("cz", 2, 0, _mat_cz, self_inverse=True, diagonal=True)
    add("swap", 2, 0, _mat_swap, self_inverse=True)
    add("iswap", 2, 0, _mat_iswap, inverse_name="iswapdg")
    add("iswapdg", 2, 0, _mat_iswapdg, inverse_name="iswap")
    add("cp", 2, 1, _mat_cp, diagonal=True, negate_params_for_inverse=True)
    add("crx", 2, 1, _mat_crx, negate_params_for_inverse=True)
    add("cry", 2, 1, _mat_cry, negate_params_for_inverse=True)
    add("crz", 2, 1, _mat_crz, diagonal=True, negate_params_for_inverse=True)
    add("ch", 2, 0, _mat_ch, self_inverse=True)
    add("rxx", 2, 1, _mat_rxx, negate_params_for_inverse=True)
    add("ryy", 2, 1, _mat_ryy, negate_params_for_inverse=True)
    add("rzz", 2, 1, _mat_rzz, diagonal=True, negate_params_for_inverse=True)

    # Three-qubit gates.
    add("ccx", 3, 0, _mat_ccx, self_inverse=True)
    add("ccz", 3, 0, _mat_ccz, self_inverse=True, diagonal=True)
    add("cswap", 3, 0, _mat_cswap, self_inverse=True)

    # Non-unitary directives.
    add("measure", 1, 0, None)
    add("reset", 1, 0, None)
    add("barrier", None, 0, None, self_inverse=True)
    return d


STANDARD_GATES: Dict[str, GateDefinition] = _defs()

#: Names whose gates act on exactly two qubits (routing cares about these).
TWO_QUBIT_GATE_NAMES = frozenset(
    name for name, d in STANDARD_GATES.items() if d.num_qubits == 2
)

SELF_INVERSE_GATES = frozenset(
    name for name, d in STANDARD_GATES.items() if d.self_inverse
)

DIAGONAL_GATES = frozenset(
    name for name, d in STANDARD_GATES.items() if d.diagonal
)

_DIRECTIVES = frozenset({"measure", "reset", "barrier"})

#: Aliases accepted on input (QuTech / cQASM spellings map onto our kinds).
GATE_ALIASES: Dict[str, Tuple[str, Tuple[float, ...]]] = {
    "id": ("i", ()),
    "cnot": ("cx", ()),
    "toffoli": ("ccx", ()),
    "fredkin": ("cswap", ()),
    "u1": ("p", ()),
    "phase": ("p", ()),
    "cu1": ("cp", ()),
    "cphase": ("cp", ()),
    "prepz": ("reset", ()),
    "prep_z": ("reset", ()),
    "x90": ("rx", (math.pi / 2,)),
    "xm90": ("rx", (-math.pi / 2,)),
    "mx90": ("rx", (-math.pi / 2,)),
    "y90": ("ry", (math.pi / 2,)),
    "ym90": ("ry", (-math.pi / 2,)),
    "my90": ("ry", (-math.pi / 2,)),
}


def gate_definition(name: str) -> GateDefinition:
    """Return the :class:`GateDefinition` for ``name``.

    Raises
    ------
    KeyError
        If the gate kind is unknown (aliases are *not* resolved here; use
        :func:`resolve_alias` first when reading external input).
    """
    try:
        return STANDARD_GATES[name]
    except KeyError:
        raise KeyError(f"unknown gate kind: {name!r}") from None


def resolve_alias(name: str) -> Tuple[str, Tuple[float, ...]]:
    """Map an input gate spelling onto ``(canonical_name, implicit_params)``.

    Unknown names are returned unchanged with no implicit parameters so the
    caller can produce its own error.
    """
    lowered = name.lower()
    if lowered in STANDARD_GATES:
        return lowered, ()
    return GATE_ALIASES.get(lowered, (lowered, ()))


# ---------------------------------------------------------------------------
# The Gate value type
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Gate:
    """A gate application: a kind, target qubits and real parameters.

    ``Gate`` is an immutable value type; circuits store sequences of them.
    Qubits are integer indices into the circuit's qubit register.
    """

    name: str
    qubits: Tuple[int, ...]
    params: Tuple[float, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "qubits", tuple(int(q) for q in self.qubits))
        object.__setattr__(self, "params", tuple(float(p) for p in self.params))
        definition = gate_definition(self.name)
        if definition.num_qubits is not None:
            if len(self.qubits) != definition.num_qubits:
                raise ValueError(
                    f"gate {self.name!r} expects {definition.num_qubits} "
                    f"qubits, got {self.qubits!r}"
                )
        if len(set(self.qubits)) != len(self.qubits):
            raise ValueError(f"gate {self.name!r} has duplicate qubits {self.qubits!r}")
        if len(self.params) != definition.num_params:
            raise ValueError(
                f"gate {self.name!r} expects {definition.num_params} "
                f"parameters, got {self.params!r}"
            )

    # -- structural queries -------------------------------------------------
    @property
    def num_qubits(self) -> int:
        return len(self.qubits)

    @property
    def is_directive(self) -> bool:
        """True for non-unitary pseudo operations (measure/reset/barrier)."""
        return self.name in _DIRECTIVES

    @property
    def is_unitary(self) -> bool:
        return not self.is_directive

    @property
    def is_two_qubit(self) -> bool:
        """True for unitary gates on exactly two qubits.

        Barriers spanning two qubits are *not* two-qubit gates: they carry
        no interaction, so they never contribute to interaction graphs nor
        require routing.
        """
        return self.num_qubits == 2 and not self.is_directive

    @property
    def is_diagonal(self) -> bool:
        return gate_definition(self.name).diagonal

    def acts_on(self, qubit: int) -> bool:
        return qubit in self.qubits

    def overlaps(self, other: "Gate") -> bool:
        """True when the two gates share at least one qubit."""
        mine = set(self.qubits)
        return any(q in mine for q in other.qubits)

    # -- transformations ----------------------------------------------------
    def remap(self, mapping: Dict[int, int]) -> "Gate":
        """Return a copy acting on ``mapping[q]`` for each qubit ``q``."""
        return Gate(self.name, tuple(mapping[q] for q in self.qubits), self.params)

    def matrix(self) -> np.ndarray:
        """Unitary matrix of this gate (see module docstring for ordering)."""
        return gate_matrix(self)

    def inverse(self) -> "Gate":
        """The inverse gate application (same qubits)."""
        return gate_inverse(self)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        args = ", ".join(str(q) for q in self.qubits)
        if self.params:
            pars = ", ".join(f"{p:g}" for p in self.params)
            return f"{self.name}({pars}) {args}"
        return f"{self.name} {args}"


def is_directive(gate: Gate) -> bool:
    return gate.is_directive


#: LRU cache of gate matrices keyed on ``(name, params)``.  Parameter-free
#: gates and the handful of hot rotation angles of a workload stay resident;
#: under parameter churn (e.g. randomised circuits) the least recently used
#: matrices are evicted instead of the cache silently going read-only.
_MATRIX_CACHE: "OrderedDict[Tuple[str, Tuple[float, ...]], np.ndarray]" = (
    OrderedDict()
)
_MATRIX_CACHE_SIZE = 4096


def gate_matrix(gate: Gate) -> np.ndarray:
    """Return the unitary matrix of ``gate`` (cached, read-only).

    Raises
    ------
    ValueError
        For non-unitary directives, which have no matrix.
    """
    definition = gate_definition(gate.name)
    if definition.matrix_fn is None:
        raise ValueError(f"gate {gate.name!r} has no unitary matrix")
    key = (gate.name, gate.params)
    cached = _MATRIX_CACHE.get(key)
    if cached is None:
        cached = definition.matrix_fn(gate.params)
        cached.setflags(write=False)
        _MATRIX_CACHE[key] = cached
        if len(_MATRIX_CACHE) > _MATRIX_CACHE_SIZE:
            _MATRIX_CACHE.popitem(last=False)
    else:
        _MATRIX_CACHE.move_to_end(key)
    return cached


def gate_inverse(gate: Gate) -> Gate:
    """Return the gate whose unitary is the adjoint of ``gate``'s.

    Raises
    ------
    ValueError
        For ``measure``/``reset``, which are not invertible.
    """
    definition = gate_definition(gate.name)
    if definition.self_inverse:
        return gate
    if definition.inverse_name is not None:
        return Gate(definition.inverse_name, gate.qubits, gate.params)
    if definition.negate_params_for_inverse:
        return Gate(gate.name, gate.qubits, tuple(-p for p in gate.params))
    if gate.name == "u3":
        theta, phi, lam = gate.params
        return Gate("u3", gate.qubits, (-theta, -lam, -phi))
    if gate.name == "u2":
        phi, lam = gate.params
        return Gate("u3", gate.qubits, (-math.pi / 2, -lam, -phi))
    raise ValueError(f"gate {gate.name!r} is not invertible")


# ---------------------------------------------------------------------------
# Commutation
# ---------------------------------------------------------------------------

def _shared_qubits(a: Gate, b: Gate) -> Tuple[int, ...]:
    return tuple(q for q in a.qubits if q in b.qubits)


def gates_commute(a: Gate, b: Gate, numeric_fallback: bool = True) -> bool:
    """Decide whether two gate applications commute.

    Fast symbolic rules cover the common cases (disjoint supports, both
    diagonal, CX pairs sharing a control or a target, Z-like rotations on a
    CX control, X-like rotations on a CX target).  When
    ``numeric_fallback`` is true, undecided pairs on a small joint support
    are resolved by comparing the two operator orderings numerically;
    otherwise undecided pairs conservatively return ``False``.

    Directives never commute with gates they overlap (a barrier is a
    scheduling fence, and measurement does not commute with unitaries).
    """
    shared = _shared_qubits(a, b)
    if not shared:
        return True
    if a.is_directive or b.is_directive:
        return False
    if a == b:
        return True
    if a.is_diagonal and b.is_diagonal:
        return True

    # CX / CZ structural rules.
    if a.name == "cx" and b.name == "cx":
        same_control = a.qubits[0] == b.qubits[0]
        same_target = a.qubits[1] == b.qubits[1]
        if same_control and not a.qubits[1] == b.qubits[1]:
            return True
        if same_target and not same_control:
            return True
        return same_control and same_target
    z_like = {"z", "s", "sdg", "t", "tdg", "rz", "p"}
    x_like = {"x", "rx", "sx", "sxdg"}
    for ctrl, other in ((a, b), (b, a)):
        if ctrl.name == "cx":
            control, target = ctrl.qubits
            if other.num_qubits == 1:
                q = other.qubits[0]
                if q == control and other.name in z_like:
                    return True
                if q == target and other.name in x_like:
                    return True
        if ctrl.name in {"cz", "cp", "crz", "rzz"} and other.num_qubits == 1:
            if other.name in z_like:
                return True

    if not numeric_fallback:
        return False
    support = sorted(set(a.qubits) | set(b.qubits))
    if len(support) > 3:
        return False
    return _numeric_commute(a, b, support)


def _embed(gate: Gate, support: Sequence[int]) -> np.ndarray:
    """Matrix of ``gate`` embedded on the ordered qubit list ``support``.

    ``support`` must contain every qubit the gate acts on; the first entry
    of ``support`` is the most significant bit of the returned matrix.
    """
    n = len(support)
    index = {q: i for i, q in enumerate(support)}
    tensor = gate_matrix(gate).reshape((2,) * (2 * gate.num_qubits))
    op = np.eye(2 ** n, dtype=complex).reshape((2,) * (2 * n))
    axes = [index[q] for q in gate.qubits]
    op = _apply_tensor(op, tensor, axes, n)
    return op.reshape(2 ** n, 2 ** n)


def _apply_tensor(
    op: np.ndarray, gate_tensor: np.ndarray, axes: Sequence[int], n: int
) -> np.ndarray:
    """Contract ``gate_tensor`` into the output axes ``axes`` of ``op``.

    ``op`` has ``2n`` axes (outputs then inputs); ``gate_tensor`` has
    ``2k`` axes (outputs then inputs) for a ``k``-qubit gate.
    """
    k = len(axes)
    contracted = np.tensordot(gate_tensor, op, axes=(range(k, 2 * k), axes))
    # tensordot result axes: gate outputs first, then the surviving op axes
    # in their original order.  Build the permutation that restores the
    # original axis layout with gate outputs in place of the contracted axes.
    placement = {axis: i for i, axis in enumerate(axes)}
    remaining = [i for i in range(2 * n) if i not in placement]
    for i, axis in enumerate(remaining):
        placement[axis] = k + i
    perm = [placement[axis] for axis in range(2 * n)]
    return np.transpose(contracted, perm)


def _numeric_commute(a: Gate, b: Gate, support: Sequence[int]) -> bool:
    ma = _embed(a, support)
    mb = _embed(b, support)
    return bool(np.allclose(ma @ mb, mb @ ma, atol=1e-10))

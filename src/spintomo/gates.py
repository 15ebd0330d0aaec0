"""Gate set available in the double-dot device, and circuits built from it.

Every gate is generated by one control knob:

* exchange pulse  exp(i phi P_S), P_S the singlet projector
  (phi = pi is SWAP, phi = pi/2 the entangling square root of SWAP)
* single-qubit z rotations  exp(i theta sigma_{1z}), exp(i theta sigma_{2z})
  and their uniform combination exp(i theta (sigma_{1z} + sigma_{2z}))
* magnetic-field-gradient rotation  exp(i (v/4) (sigma_{1z} - sigma_{2z}))
* resonant x rotation of qubit 1  exp(i theta sigma_{1x})

Circuits list gates in execution order: the leftmost gate acts first.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import Enum
import numpy as np

from .qmath import SINGLET, PureState, is_hermitian, two_qubit_pauli

UNITARY_ATOL = 1e-10


class GateKind(str, Enum):
    EXCHANGE_PULSE = "exchange_pulse"
    Z_ROT_QUBIT1 = "z_rot_qubit1"
    Z_ROT_QUBIT2 = "z_rot_qubit2"
    Z_ROT_BOTH = "z_rot_both"
    GRADIENT_Z = "gradient_z"
    ESR_X_QUBIT1 = "esr_x_qubit1"


_GENERATORS = {
    GateKind.EXCHANGE_PULSE: SINGLET.projector(),
    GateKind.Z_ROT_QUBIT1: two_qubit_pauli(3, 0),
    GateKind.Z_ROT_QUBIT2: two_qubit_pauli(0, 3),
    GateKind.Z_ROT_BOTH: two_qubit_pauli(3, 0) + two_qubit_pauli(0, 3),
    GateKind.GRADIENT_Z: (two_qubit_pauli(3, 0) - two_qubit_pauli(0, 3)) / 4.0,
    GateKind.ESR_X_QUBIT1: two_qubit_pauli(1, 0),
}
for _h in _GENERATORS.values():
    _h.setflags(write=False)


def generator(kind: GateKind) -> np.ndarray:
    """Hermitian H with gate_matrix(kind, angle) = exp(i angle H), read-only."""
    return _GENERATORS[GateKind(kind)]


@functools.cache
def generator_eigh(kind: GateKind) -> tuple:
    """np.linalg.eigh of generator(kind): eigenvalues and eigenvectors,
    read-only, computed on first use (not at import) and kept."""
    pair = np.linalg.eigh(generator(kind))
    for a in pair:
        a.setflags(write=False)
    return pair


@dataclass(frozen=True)
class Gate:
    kind: GateKind
    angle: float

    def __post_init__(self):
        if not isinstance(self.kind, GateKind):
            object.__setattr__(self, "kind", GateKind(self.kind))
        if not np.isfinite(self.angle):
            raise ValueError("gate angle must be finite")

    def to_record(self) -> dict:
        return {"kind": self.kind.value, "angle_radians": float(self.angle)}


def gate_matrix(kind: GateKind, angle: float) -> np.ndarray:
    """exp(i angle H) from its closed form: the z-type generators are diagonal,
    exchange and the resonant rotation have two distinct eigenvalues."""
    kind = GateKind(kind)
    h = _GENERATORS[kind]
    if kind == GateKind.EXCHANGE_PULSE:
        return np.eye(4, dtype=np.complex128) + (np.exp(1j * angle) - 1.0) * h
    if kind == GateKind.ESR_X_QUBIT1:
        return np.cos(angle) * np.eye(4, dtype=np.complex128) + 1j * np.sin(angle) * h
    return np.diag(np.exp(1j * angle * np.diag(h).real))


@dataclass(frozen=True)
class Circuit:
    """Ordered gate sequence; gates[0] acts first."""

    gates: tuple

    def __post_init__(self):
        object.__setattr__(self, "gates", tuple(self.gates))
        for g in self.gates:
            if not isinstance(g, Gate):
                raise TypeError("Circuit gates must be Gate instances")

    def unitary(self) -> np.ndarray:
        """Product of the gate unitaries; the leftmost listed gate acts first."""
        u = np.eye(4, dtype=np.complex128)
        for g in self.gates:
            u = gate_matrix(g.kind, g.angle) @ u
        return u

    def adjoint(self) -> "Circuit":
        """Inverse circuit: reversed order, negated angles."""
        return Circuit(tuple(Gate(g.kind, -g.angle) for g in reversed(self.gates)))

    def esr_gate_count(self) -> int:
        return sum(1 for g in self.gates if g.kind == GateKind.ESR_X_QUBIT1)

    def to_records(self) -> list:
        return [g.to_record() for g in self.gates]


def circuit_apply(circuit: Circuit, state: PureState) -> PureState:
    """Run the circuit on a state; output carries the canonical phase."""
    return PureState.from_amplitudes(circuit.unitary() @ state.amplitudes)


def evolve_projector(u: np.ndarray, projector: np.ndarray) -> np.ndarray:
    """Heisenberg conjugation U P U^dag with a unitarity check on U."""
    u = np.asarray(u, dtype=np.complex128)
    if u.shape != (4, 4):
        raise ValueError("expected a 4x4 unitary")
    dev = np.max(np.abs(u.conj().T @ u - np.eye(4)))
    if dev > UNITARY_ATOL:
        raise ValueError(f"matrix is not unitary (deviation {dev!r})")
    projector = np.asarray(projector, dtype=np.complex128)
    if not is_hermitian(projector):
        raise ValueError("projector must be Hermitian")
    return u @ projector @ u.conj().T

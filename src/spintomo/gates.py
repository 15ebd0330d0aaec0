"""Gate set available in the double-dot device, circuits built from it,
and the one pass that runs circuits on readout operators.

Every gate is generated by one control knob:

* exchange pulse  exp(i phi P_S), P_S the singlet projector
  (phi = pi is SWAP, phi = pi/2 the entangling square root of SWAP)
* single-qubit z rotations  exp(i theta sigma_{1z}), exp(i theta sigma_{2z})
  and their uniform combination exp(i theta (sigma_{1z} + sigma_{2z}))
* magnetic-field-gradient rotation  exp(i (v/4) (sigma_{1z} - sigma_{2z}))
* resonant x rotation of qubit 1  exp(i theta sigma_{1x})

Circuits list gates in execution order: the leftmost gate acts first.
No unitary is ever formed: a circuit acts on a readout operator B as
U^dag B U, gate by gate in the eigenbasis of each gate's generator.
The eigenvalue differences and eigenvectors of the six generators are
built once per process, as one (6, 4, 4) stack each; ``readout_steps``
gathers the gate tables of a stack of circuits from them by kind,
position by position counted from the end of each circuit, and
``average_readouts`` applies them to a stack of readouts, averaged over
Gaussian angle errors (``NoiseModel``).  With no noise that pass is the
exact conjugation, and it is the only way a circuit is run: the quorum
guard, ``spintomo verify`` and every noisy tomography run share it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import Enum
import numpy as np

from .qmath import SINGLET, two_qubit_pauli


class GateKind(str, Enum):
    EXCHANGE_PULSE = "exchange_pulse"
    Z_ROT_QUBIT1 = "z_rot_qubit1"
    Z_ROT_QUBIT2 = "z_rot_qubit2"
    Z_ROT_BOTH = "z_rot_both"
    GRADIENT_Z = "gradient_z"
    ESR_X_QUBIT1 = "esr_x_qubit1"


_GENERATORS = {
    GateKind.EXCHANGE_PULSE: SINGLET,
    GateKind.Z_ROT_QUBIT1: two_qubit_pauli(3, 0),
    GateKind.Z_ROT_QUBIT2: two_qubit_pauli(0, 3),
    GateKind.Z_ROT_BOTH: two_qubit_pauli(3, 0) + two_qubit_pauli(0, 3),
    GateKind.GRADIENT_Z: (two_qubit_pauli(3, 0) - two_qubit_pauli(0, 3)) / 4.0,
    GateKind.ESR_X_QUBIT1: two_qubit_pauli(1, 0),
}
for _h in _GENERATORS.values():
    _h.setflags(write=False)


def generator(kind: GateKind) -> np.ndarray:
    """Hermitian H of the gate exp(i angle H) of this kind, read-only."""
    return _GENERATORS[GateKind(kind)]


@dataclass(frozen=True)
class Gate:
    kind: GateKind
    angle: float

    def __post_init__(self):
        if not isinstance(self.kind, GateKind):
            object.__setattr__(self, "kind", GateKind(self.kind))
        if not np.isfinite(self.angle):
            raise ValueError("gate angle must be finite")


@dataclass(frozen=True)
class Circuit:
    """Ordered gate sequence; gates[0] acts first."""

    gates: tuple

    def __post_init__(self):
        object.__setattr__(self, "gates", tuple(self.gates))
        for g in self.gates:
            if not isinstance(g, Gate):
                raise TypeError("Circuit gates must be Gate instances")

    def adjoint(self) -> "Circuit":
        """Inverse circuit: reversed order, negated angles."""
        return Circuit(tuple(Gate(g.kind, -g.angle) for g in reversed(self.gates)))

    def esr_gate_count(self) -> int:
        return sum(1 for g in self.gates if g.kind == GateKind.ESR_X_QUBIT1)


_KINDS = tuple(GateKind)


@dataclass(frozen=True, eq=False)
class NoiseModel:
    """Additive Gaussian angle error per gate instance: each gate kind's
    mean and std in radians, as read-only (6,) arrays in ``GateKind``
    order, checked once here.  ``NoiseModel()`` is noise-free."""

    means: np.ndarray = (0.0,) * len(_KINDS)
    stds: np.ndarray = (0.0,) * len(_KINDS)

    def __post_init__(self):
        table = np.array([self.means, self.stds], dtype=float)
        if table.shape != (2, len(_KINDS)) or not np.all(np.isfinite(table)):
            raise ValueError("noise parameters must be finite, one mean and std per gate kind")
        if np.any(table[1] < 0):
            raise ValueError("std_rad must be nonnegative")
        table.setflags(write=False)
        object.__setattr__(self, "means", table[0])
        object.__setattr__(self, "stds", table[1])

    @classmethod
    def from_json(cls, data: dict) -> "NoiseModel":
        """The model of a checked noise config block: gate kind name ->
        {"mean_rad", "std_rad"}, where an absent kind or field is 0."""
        table = np.zeros((2, len(_KINDS)))
        for kind, p in data.items():
            table[:, _KINDS.index(GateKind(kind))] = p.get("mean_rad", 0.0), p.get("std_rad", 0.0)
        return cls(*table)


@dataclass(frozen=True)
class ReadoutStep:
    """The gates at one position, counted from the end, of a stack of
    readout circuits: the stack ``rows`` that have a gate there, and per
    row its kind (an index into ``GateKind``), its base angle, the
    eigenvalue differences d_ij = lambda_j - lambda_i of its generator and
    the generator's eigenvectors V and V^dag.  Arrays are read-only."""

    rows: np.ndarray
    kinds: np.ndarray
    angles: np.ndarray
    d: np.ndarray
    vecs: np.ndarray
    vecs_h: np.ndarray


@functools.cache
def _kind_tables() -> tuple:
    """The eigenvalue differences d_ij = lambda_j - lambda_i, eigenvectors
    V and V^dag of the six generators, in ``GateKind`` order: three
    read-only (6, 4, 4) stacks that ``readout_steps`` gathers from, built
    on first use (not at import) and kept."""
    eighs = [np.linalg.eigh(_GENERATORS[kind]) for kind in _KINDS]
    tables = (
        np.stack([lam[None, :] - lam[:, None] for lam, _ in eighs]),
        np.stack([vecs for _, vecs in eighs]),
        np.stack([vecs.conj().T for _, vecs in eighs]),
    )
    for a in tables:
        a.setflags(write=False)
    return tables


def readout_steps(circuits) -> tuple:
    """The circuits of a readout stack as ``ReadoutStep``s, one per gate
    position counted from the end of each circuit: step 0 holds every
    circuit's last gate, which acts on the readout first."""
    circuits = tuple(circuits)
    d, vecs, vecs_h = _kind_tables()
    steps = []
    for pos in range(max((len(c.gates) for c in circuits), default=0)):
        rows = [i for i, c in enumerate(circuits) if len(c.gates) > pos]
        gates = [circuits[i].gates[-1 - pos] for i in rows]
        kinds = np.array([_KINDS.index(g.kind) for g in gates])
        arrays = (np.array(rows), kinds, np.array([g.angle for g in gates], dtype=float),
                  d[kinds], vecs[kinds], vecs_h[kinds])
        for a in arrays:
            a.setflags(write=False)
        steps.append(ReadoutStep(*arrays))
    return tuple(steps)


def average_readouts(steps, bases: np.ndarray, labels, noise: NoiseModel) -> np.ndarray:
    """Exact means of U(alpha)^dag B U(alpha) over Gaussian gate angles,
    for a stack of readouts at once: (n, 4, 4) from the ``readout_steps``
    of the n circuits, their base operators ``bases`` and their labels,
    which serve only the error message.

    Each gate's angle is perturbed by an independent Gaussian error of its
    kind's mean and std in the model, none for a noise-free kind.  In the
    eigenbasis of a gate's generator H, entry (i, j) of the conjugated
    operator picks up
    E[exp(i d a)] = exp(i d (angle + mean) - d^2 std^2 / 2) with
    d = lambda_j - lambda_i.  One step is one batched pass over the rows
    with a gate at that position, so the gates of every circuit are
    applied last first; with no noise each row is the exact conjugation
    U^dag B U by the circuit's unitary U.  The results are made
    Hermitian and unit-trace; they are not otherwise checked.

    Raises ValueError, naming the label of the first readout at fault,
    when an angle is so large that the phases overflow.
    """
    x = np.array(bases, dtype=np.complex128)
    # a huge std damps a coherence to exactly 0; a huge angle overflows
    # the phase to nan, which the check below reports
    with np.errstate(over="ignore", invalid="ignore"):
        for step in steps:
            shift = (step.angles + noise.means[step.kinds])[:, None, None]
            spread = noise.stds[step.kinds][:, None, None]
            factor = np.exp(1j * step.d * shift - 0.5 * (step.d * spread) ** 2)
            x[step.rows] = (step.vecs @ ((step.vecs_h @ x[step.rows] @ step.vecs) * factor)
                            @ step.vecs_h)
    finite = np.all(np.isfinite(x), axis=(-2, -1))
    if not np.all(finite):
        label = labels[int(np.argmin(finite))]
        raise ValueError(f"{label}: averaged readout is not finite (angle too large)")
    sym = 0.5 * (x + x.conj().swapaxes(-2, -1))
    sym /= np.trace(sym, axis1=-2, axis2=-1).real[:, None, None]
    return sym

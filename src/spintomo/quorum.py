"""Measurement quorums for two-qubit state reconstruction.

A quorum is a set of 15 measurement operators whose expectation values
determine a two-qubit density matrix.  ``Quorum`` holds them as one
read-only (15, 4, 4) stack, validated once, which every computation
reads: Born probabilities, the P matrix, the likelihood and the
calibration matrix.  Two concrete quorums are built here:

* ``mub_quorum``  -- five mutually unbiased bases (three product bases
  along z, x, y and two maximally entangled ones), three states per
  basis entering the quorum.  Realized by exchange pulses, z rotations
  and a single pi/2 resonant pulse per circuit.
* ``james_quorum`` -- the standard all-separable 15-projector set.

Each MUB projector is built twice, from a closed-form Pauli
decomposition and from its preparation circuit, and the two routes are
cross-checked at 1e-12.

The structural measures here return bare numbers, which the rows of
``spintomo verify`` record as they are: each row is one record of
``verify.json``.  The Gram-Schmidt lengths are the Cholesky diagonal of
the P rows' Gram matrix, and the random quorums that the strict
determinant bound is checked on come from one stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import qmath
from .gates import Circuit, Gate, GateKind, circuit_apply, generator
from .qmath import (
    DOWN,
    DOWN_Y,
    PAULI_BASIS,
    SINGLET,
    UP,
    UP_DOWN,
    UP_UP,
    UP_X,
    UP_Y,
    PureState,
    kron_state,
    pauli_expand,
    two_qubit_pauli,
)

CROSS_CHECK_ATOL = 1e-12
DET_FLOOR = 1e-9
#: |det P| can never reach (3/4)^(15/2) for any projector quorum
DET_UPPER_BOUND = 0.75 ** 7.5


class QuorumDegenerateError(ValueError):
    """The 15 projectors do not span the traceless operator space."""


@dataclass(frozen=True)
class Projector:
    """One labelled measurement operator: 4x4, Hermitian, unit trace, PSD."""

    matrix: np.ndarray
    label: str

    def __post_init__(self):
        if np.shape(self.matrix) != (4, 4):
            raise ValueError("projector must be 4x4")
        m = qmath.check_density_matrix(self.matrix).copy()
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)


@dataclass(frozen=True)
class Quorum:
    """The 15 measurement operators of a quorum as one stack.

    ``matrices`` is a read-only (15, 4, 4) array of Hermitian, unit-trace,
    PSD operators, checked once at construction; ``labels`` and
    ``basis_index`` (the unbiased basis of each operator, None outside
    one) follow the same order.  ``states`` are the pure states of an
    ideal quorum, when known.
    """

    name: str
    labels: tuple
    matrices: np.ndarray
    basis_index: tuple = (None,) * 15
    states: Optional[tuple] = None

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(self.labels))
        object.__setattr__(self, "basis_index", tuple(self.basis_index))
        counts = (len(self.labels), len(self.basis_index))
        if np.shape(self.matrices) != (15, 4, 4) or counts != (15, 15):
            raise ValueError("a quorum holds exactly 15 operators")
        mats = qmath.check_density_matrix(self.matrices).copy()
        mats.setflags(write=False)
        object.__setattr__(self, "matrices", mats)
        if self.states is not None:
            object.__setattr__(self, "states", tuple(self.states))


# closed-form Pauli terms of the 15 quorum projectors:
# P_j = 1/4 + sum of sign * sigma_{1i} sigma_{2l} / 4 over the listed (i, l, sign)
_MUB_TERMS = {
    1: [(3, 0, +1), (0, 3, +1), (3, 3, +1)],
    2: [(3, 0, +1), (0, 3, -1), (3, 3, -1)],
    3: [(3, 0, -1), (0, 3, +1), (3, 3, -1)],
    4: [(1, 0, +1), (0, 1, +1), (1, 1, +1)],
    5: [(1, 0, -1), (0, 1, +1), (1, 1, -1)],
    6: [(1, 0, +1), (0, 1, -1), (1, 1, -1)],
    7: [(2, 0, +1), (0, 2, +1), (2, 2, +1)],
    8: [(2, 0, -1), (0, 2, +1), (2, 2, -1)],
    9: [(2, 0, +1), (0, 2, -1), (2, 2, -1)],
    10: [(3, 1, -1), (1, 2, -1), (2, 3, -1)],
    11: [(3, 1, -1), (1, 2, +1), (2, 3, +1)],
    12: [(3, 1, +1), (1, 2, +1), (2, 3, -1)],
    13: [(2, 1, +1), (3, 2, -1), (1, 3, +1)],
    14: [(2, 1, -1), (3, 2, -1), (1, 3, -1)],
    15: [(2, 1, -1), (3, 2, +1), (1, 3, +1)],
}

BASE_STATES = {
    "up_up": UP_UP,
    "up_down": UP_DOWN,
    "singlet": SINGLET,
}


@dataclass(frozen=True)
class Preparation:
    """State preparation recipe: a circuit applied to one of the three
    directly initializable states (the same three the spin-to-charge
    readout projects onto when run in reverse)."""

    label: str
    base_label: str
    circuit: Circuit

    @property
    def base_state(self) -> PureState:
        return BASE_STATES[self.base_label]

    def prepared_state(self) -> PureState:
        return circuit_apply(self.circuit, self.base_state)

    def measurement_circuit(self) -> Circuit:
        """Circuit the device applies before the base readout."""
        return self.circuit.adjoint()


def _closed_form_matrix(j: int) -> np.ndarray:
    m = np.eye(4, dtype=np.complex128) / 4.0
    for i, l, sign in _MUB_TERMS[j]:
        m += sign * two_qubit_pauli(i, l) / 4.0
    return m


#: the 15 closed-form quorum projectors, built once at import
_CLOSED_FORMS = np.stack([_closed_form_matrix(j) for j in range(1, 16)])
_CLOSED_FORMS.setflags(write=False)


def mub_preparations() -> tuple:
    """Preparation circuits of the 15 unbiased-bases quorum states."""
    g = Gate
    K = GateKind
    c4 = (g(K.ESR_X_QUBIT1, np.pi / 4), g(K.EXCHANGE_PULSE, np.pi / 2), g(K.Z_ROT_QUBIT2, np.pi / 2))
    c7 = c4 + (g(K.Z_ROT_BOTH, -np.pi / 4),)
    c10 = (g(K.GRADIENT_Z, np.pi / 2), g(K.ESR_X_QUBIT1, np.pi / 4))
    c13 = c10 + (g(K.Z_ROT_BOTH, -np.pi / 4),)

    def flip1(gates):
        return gates + (g(K.Z_ROT_QUBIT1, np.pi / 2),)

    def flip2(gates):
        return gates + (g(K.Z_ROT_QUBIT2, np.pi / 2),)

    table = [
        ("up_up", ()),
        ("up_down", ()),
        ("up_down", (g(K.EXCHANGE_PULSE, np.pi),)),
        ("singlet", c4),
        ("singlet", flip1(c4)),
        ("singlet", flip2(c4)),
        ("singlet", c7),
        ("singlet", flip1(c7)),
        ("singlet", flip2(c7)),
        ("singlet", c10),
        ("singlet", flip1(c10)),
        ("singlet", flip2(c10)),
        ("singlet", c13),
        ("singlet", flip1(c13)),
        ("singlet", flip2(c13)),
    ]
    return tuple(
        Preparation(f"P{j:02d}", base, Circuit(gates)) for j, (base, gates) in enumerate(table, 1)
    )


def esr_budget_excess(preps: Sequence[Preparation]) -> float:
    """How far a preparation table breaks the resonant-pulse budget.

    States 1-3 may use no ESR gate and states 4-15 exactly one, of at
    most pi/2 (|angle| <= pi/4).  Returns the largest miscount or the
    largest angle beyond pi/4; 0.0 when the budget holds.
    """
    worst = 0.0
    for j, prep in enumerate(preps, start=1):
        esr = [g for g in prep.circuit.gates if g.kind == GateKind.ESR_X_QUBIT1]
        worst = max(worst, abs(len(esr) - (0 if j <= 3 else 1)))
        if esr:
            worst = max(worst, max(abs(g.angle) - np.pi / 4 for g in esr))
    return worst


def closed_form_deviation(states: Sequence[PureState]) -> float:
    """Largest entry gap between the projectors of the 15 prepared states
    and the closed-form Pauli terms of the quorum projectors."""
    return max(
        float(np.max(np.abs(s.projector() - c)))
        for s, c in zip(states, _CLOSED_FORMS, strict=True)
    )


def mub_quorum() -> Quorum:
    """The 15-state unbiased-bases quorum, cross-checked two ways.

    Route one assembles each projector from its closed-form Pauli terms;
    route two runs the preparation circuit on the base state.  Raises
    when the circuits break the resonant-pulse budget or the two routes
    disagree beyond 1e-12.
    """
    preps = mub_preparations()
    excess = esr_budget_excess(preps)
    if excess > CROSS_CHECK_ATOL:
        raise RuntimeError(f"preparation circuits break the ESR budget by {excess:.3e}")
    states = tuple(prep.prepared_state() for prep in preps)
    dev = closed_form_deviation(states)
    if dev > CROSS_CHECK_ATOL:
        raise RuntimeError(f"circuit and closed form disagree (max dev {dev:.3e})")
    labels = tuple(prep.label for prep in preps)
    return Quorum("mub", labels, _CLOSED_FORMS, tuple(j // 3 for j in range(15)), states)


def james_quorum() -> Quorum:
    """The separable 15-projector quorum (product states only)."""
    kets = [
        (UP, UP), (UP, DOWN), (DOWN, UP),
        (DOWN_Y, UP), (DOWN_Y, DOWN), (UP_X, DOWN), (UP_X, UP),
        (UP_X, DOWN_Y), (UP_X, UP_X), (DOWN_Y, UP_X),
        (UP, UP_X), (DOWN, UP_X), (DOWN, UP_Y), (UP, UP_Y), (DOWN_Y, UP_Y),
    ]
    states = tuple(kron_state(first, second) for first, second in kets)
    labels = tuple(f"J{j:02d}" for j in range(1, 16))
    return Quorum("james", labels, np.stack([s.projector() for s in states]), states=states)


def mub_bases() -> list:
    """The five unbiased bases as 5 lists of 4 states.

    States 3i+1 .. 3i+3 of the quorum are the first three members of
    basis i; the fourth is the orthogonal complement with canonical phase.
    """
    q = mub_quorum()
    bases = []
    for i in range(5):
        members = list(q.states[3 * i : 3 * i + 3])
        stack = np.array([np.conj(s.amplitudes) for s in members])
        _, _, vh = np.linalg.svd(stack)
        members.append(PureState.from_amplitudes(np.conj(vh[3])))
        bases.append(members)
    return bases


@dataclass(frozen=True)
class PMatrix:
    """Overlap matrix between quorum projectors and the traceless D_k.

    entries[j, k-1] = tr(P_j D_k) for k = 1..15.  Rows follow quorum
    order, columns ascending k = 4*i + l.
    """

    entries: np.ndarray
    det: float
    inverse: np.ndarray


def pmatrix_entries(mats: np.ndarray) -> np.ndarray:
    """P matrices of a stack of quorum matrices, shape (..., 15, 4, 4)."""
    return np.einsum("...jab,kba->...jk", mats, PAULI_BASIS[1:]).real


def pmatrix(q: Quorum) -> PMatrix:
    """Build the overlap matrix, its LU determinant and inverse.

    Raises QuorumDegenerateError when |det| < 1e-9, since reconstruction
    divides by this determinant.
    """
    entries = pmatrix_entries(q.matrices)
    det = float(np.linalg.det(entries))
    if abs(det) < DET_FLOOR:
        raise QuorumDegenerateError(f"quorum {q.name!r}: |det| = {abs(det):.3e}")
    return PMatrix(entries, det, np.linalg.inv(entries))


def accessible_subspace_dimension(esr_allowed: bool) -> int:
    """Dimension of the operator space reachable by evolved readouts.

    Conjugation by exp(i a H) moves an operator X along i[H, X] and its
    repeated commutators, so the readouts that circuits of any depth
    reach span the smallest space that holds the traceless parts of the
    three readout projectors and is closed under X -> i[H, X] for every
    control generator H: exchange and the z rotations, plus the
    resonant x rotation when ``esr_allowed``.  Gram-Schmidt builds that
    space; a residual norm below 1e-10 counts as linearly dependent.
    """
    kinds = [GateKind.EXCHANGE_PULSE, GateKind.Z_ROT_QUBIT1, GateKind.Z_ROT_QUBIT2]
    if esr_allowed:
        kinds.append(GateKind.ESR_X_QUBIT1)
    generators = [generator(k) for k in kinds]
    basis = []

    def add(x: np.ndarray) -> None:
        for b in basis:
            x = x - np.vdot(b, x) * b
        norm = np.linalg.norm(x)
        if norm > 1e-10:
            basis.append(x / norm)

    for state in BASE_STATES.values():
        add(state.projector() - np.eye(4) / 4.0)
    for x in basis:  # the loop also visits every direction it appends
        for h in generators:
            add(1j * (h @ x - x @ h))
    return len(basis)


def orthogonality_witness(states: Sequence[PureState]) -> tuple:
    """Tau-sum diagnostics for a candidate family led by |uu>.

    For states with |<uu|phi>|^2 = 1/4 the tau expansion of the
    projector has m_1 = 0 and splits its remaining weight equally:
    sum(m_2..m_7 squared) = sum(m_8..m_15 squared) = 3/8.  Equality of
    the two partial sums is what rules out any quorum saturating the
    determinant bound while keeping |uu> as a member.

    Returns the two numbers the verify rows record: the largest |m_1| or
    deviation of a partial sum from 3/8, and the largest deviation of the
    ratio of the two partial sums from 1 (both 0.0 for |uu> alone).
    Requires states[0] == |uu> and every other state to have squared
    overlap 1/4 with it (within 1e-10).
    """
    states = list(states)
    if not states or states[0] != UP_UP:
        raise ValueError("witness requires the first state to be |uu>")
    for s in states[1:]:
        ov = abs(s.overlap(UP_UP)) ** 2
        if abs(ov - 0.25) > 1e-10:
            raise ValueError(f"state overlap with |uu> is {ov!r}, expected 1/4")
    if len(states) == 1:
        return 0.0, 0.0
    m = np.array([qmath.tau_expand(s.projector()) for s in states[1:]])
    low = np.sum(m[:, 2:8] ** 2, axis=1)
    high = np.sum(m[:, 8:16] ** 2, axis=1)
    sums = np.abs(np.concatenate([m[:, 1], low - 0.375, high - 0.375]))
    return float(np.max(sums)), float(np.max(np.abs(low / high - 1.0)))


def constrained_random_state(seed: int) -> PureState:
    """Random pure state with squared overlap exactly 1/4 against |uu>.

    Amplitude 1/2 on |uu> with a uniform phase; the remaining weight
    sqrt(3)/2 goes to a Gaussian-random unit vector in the orthogonal
    complement.  These are the inputs of orthogonality_witness.
    """
    rng = qmath.stream("constrained-state", seed)
    phase = np.exp(2j * np.pi * rng.uniform())
    rest = rng.normal(size=3) + 1j * rng.normal(size=3)
    rest = rest / np.linalg.norm(rest)
    amps = np.concatenate(([0.5 * phase], np.sqrt(3.0) / 2.0 * rest))
    return PureState.from_amplitudes(amps)


def gram_schmidt_lengths(q: Quorum) -> np.ndarray:
    """Gram-Schmidt lengths of the P rows, grouped in basis triples, (5, 3).

    Sequential Gram-Schmidt over the rows R leaves, row by row, the
    diagonal of the Cholesky factor L of their Gram matrix R R^T = L L^T,
    so the lengths are that diagonal and their product is |det P|.  For
    a quorum drawn from mutually unbiased bases the rows of different
    triples are orthogonal; within a triple the lengths are sqrt(3/4),
    sqrt(2/3), sqrt(1/2).  Raises ValueError when rows of different
    triples overlap beyond 1e-10, read from the same Gram matrix, and
    LinAlgError when the rows are linearly dependent.
    """
    rows = pmatrix_entries(q.matrices)
    gram = rows @ rows.T
    triple = np.arange(15) // 3
    cross = np.where(triple[:, None] != triple[None, :], np.abs(gram), 0.0)
    i, j = np.unravel_index(np.argmax(cross), cross.shape)
    if cross[i, j] > 1e-10:
        raise ValueError(
            f"rows {i} and {j} belong to different triples but overlap ({cross[i, j]:.3e})"
        )
    return np.diag(np.linalg.cholesky(gram)).reshape(5, 3)


def quorum_records(q: Quorum) -> list:
    """JSON-ready operator records: label, basis index, 16 Pauli coefficients."""
    return [
        {
            "label": label,
            "basis_index": basis,
            "pauli_coefficients": [float(x) for x in pauli_expand(m)],
        }
        for label, basis, m in zip(q.labels, q.basis_index, q.matrices)
    ]

"""Measurement quorums for two-qubit state reconstruction.

A quorum is a set of 15 measurement operators whose expectation values
determine a two-qubit density matrix.  ``Quorum`` holds only them, as one
read-only (15, 4, 4) stack, validated once, which every computation
reads: Born probabilities, the P matrix, the likelihood and the
calibration matrix.  Two concrete quorums are built here:

* ``mub_quorum``  -- five mutually unbiased bases (three product bases
  along z, x, y and two maximally entangled ones), three states per
  basis entering the quorum.  Realized by exchange pulses, z rotations
  and a single pi/2 resonant pulse per circuit.
* ``james_quorum`` -- the standard all-separable 15-projector set.

Each MUB projector is built twice, from a closed-form Pauli
decomposition and as the readout its measurement circuit realizes in
the noise-free pass of ``gates.average_readouts``, the pass noisy runs
average with, and the two routes are cross-checked at 1e-12.  The
preparation table, its readout tables and both quorums are fixed by the
scheme, so each is built, and the MUB quorum guarded, once per process
on first use and then shared: all are frozen, with read-only arrays.

The structural measures here return bare numbers, which the rows of
``spintomo verify`` record as they are: each row is one record of
``verify.json``.  The P matrix of a quorum is one product of its
flattened (15, 16) stack with a constant (16, 15) weight matrix.  The
Gram-Schmidt lengths are the Cholesky diagonal of the P rows' Gram
matrix; the kets of the tau witness are one array drawn from one stream;
the closure rank of the readouts runs on the 15 real traceless D
coordinates, one product with the real 15x15 adjoint tables of the
generators and one SVD per commutator depth.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import _kernels, qmath
from .gates import (
    Circuit,
    Gate,
    GateKind,
    NoiseModel,
    average_readouts,
    generator,
    readout_steps,
)
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
    one) follow the same order.  No states are kept: an averaged or
    degraded quorum holds mixed operators, which no pure state prepares.
    What is a function of the stack alone, the P matrix (``pmatrix``) and
    the likelihood's ``likelihood_forms``, is built on first use and kept
    on the quorum, read-only: the shared MUB quorum builds each once per
    process, an averaged or degraded one once per run.
    """

    name: str
    labels: tuple
    matrices: np.ndarray
    basis_index: tuple = (None,) * 15

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(self.labels))
        object.__setattr__(self, "basis_index", tuple(self.basis_index))
        counts = (len(self.labels), len(self.basis_index))
        if np.shape(self.matrices) != (15, 4, 4) or counts != (15, 15):
            raise ValueError("a quorum holds exactly 15 operators")
        mats = qmath.check_density_matrix(self.matrices).copy()
        mats.setflags(write=False)
        object.__setattr__(self, "matrices", mats)

    @functools.cached_property
    def likelihood_forms(self) -> np.ndarray:
        """The read-only (15, 16, 16) ``_kernels.quadratic_forms`` of the stack."""
        forms = _kernels.quadratic_forms(self.matrices)
        forms.setflags(write=False)
        return forms

    @functools.cached_property
    def _pmatrix(self) -> "PMatrix":
        return _build_pmatrix(self)


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


@functools.cache
def mub_preparations() -> tuple:
    """Preparation circuits of the 15 unbiased-bases quorum states, built
    on first use and shared."""
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
        worst = max(worst, abs(prep.circuit.esr_gate_count() - (0 if j <= 3 else 1)))
        for g in prep.circuit.gates:
            if g.kind == GateKind.ESR_X_QUBIT1:
                worst = max(worst, abs(g.angle) - np.pi / 4)
    return worst


def _readout_inputs(preps: Sequence[Preparation]) -> tuple:
    """The ``readout_steps`` of a preparation table's measurement
    circuits, the (n, 4, 4) stack of their base readouts and their base
    labels: the arguments of ``average_readouts`` but the noise."""
    bases = np.stack([prep.base_state.projector() for prep in preps])
    bases.setflags(write=False)
    steps = readout_steps(prep.measurement_circuit() for prep in preps)
    return steps, bases, tuple(prep.base_label for prep in preps)


@functools.cache
def mub_readouts() -> tuple:
    """``_readout_inputs`` of the shared preparation table, built on first
    use and shared, so a noisy run averages all 15 readouts in one
    batched pass over gate positions and builds no gate table."""
    return _readout_inputs(mub_preparations())


def ideal_readouts(preps: Sequence[Preparation]) -> np.ndarray:
    """The (n, 4, 4) readouts a preparation table's measurement circuits
    realize without noise: ``average_readouts`` under an empty
    ``NoiseModel``, the pass that noisy runs average with."""
    return average_readouts(*_readout_inputs(preps), NoiseModel())


def closed_form_deviation(readouts: np.ndarray) -> float:
    """Largest entry gap between the (15, 4, 4) readouts of the
    measurement circuits and the closed-form Pauli terms of the quorum
    projectors."""
    if np.shape(readouts) != _CLOSED_FORMS.shape:
        raise ValueError(f"expected the (15, 4, 4) quorum readouts, not {np.shape(readouts)}")
    return float(np.max(np.abs(readouts - _CLOSED_FORMS)))


@functools.cache
def mub_quorum() -> Quorum:
    """The 15-state unbiased-bases quorum, cross-checked two ways.

    Route one assembles each projector from its closed-form Pauli terms;
    route two runs each measurement circuit on its base readout through
    the noise-free readout pass (``ideal_readouts``).  Raises when the
    circuits break the resonant-pulse budget or the two routes disagree
    beyond 1e-12.  Built and guarded on first use, then shared (a
    refusal is not kept); ``mub_quorum.__wrapped__`` is the uncached
    build.  The circuit readouts serve the guard and are dropped.
    """
    preps = mub_preparations()
    excess = esr_budget_excess(preps)
    if excess > CROSS_CHECK_ATOL:
        raise RuntimeError(f"preparation circuits break the ESR budget by {excess:.3e}")
    dev = closed_form_deviation(ideal_readouts(preps))
    if dev > CROSS_CHECK_ATOL:
        raise RuntimeError(f"circuit and closed form disagree (max dev {dev:.3e})")
    labels = tuple(prep.label for prep in preps)
    return Quorum("mub", labels, _CLOSED_FORMS, tuple(j // 3 for j in range(15)))


@functools.cache
def james_quorum() -> Quorum:
    """The separable 15-projector quorum, built on first use and shared."""
    kets = [
        (UP, UP), (UP, DOWN), (DOWN, UP),
        (DOWN_Y, UP), (DOWN_Y, DOWN), (UP_X, DOWN), (UP_X, UP),
        (UP_X, DOWN_Y), (UP_X, UP_X), (DOWN_Y, UP_X),
        (UP, UP_X), (DOWN, UP_X), (DOWN, UP_Y), (UP, UP_Y), (DOWN_Y, UP_Y),
    ]
    labels = tuple(f"J{j:02d}" for j in range(1, 16))
    return Quorum("james", labels, np.stack([kron_state(a, b).projector() for a, b in kets]))


@dataclass(frozen=True)
class PMatrix:
    """Overlap matrix between quorum projectors and the traceless D_k.

    entries[j, k-1] = tr(P_j D_k) for k = 1..15.  Rows follow quorum
    order, columns ascending k = 4*i + l.  ``entries`` and ``inverse``
    are read-only: a quorum's P matrix is shared by every run using it.
    """

    entries: np.ndarray
    det: float
    inverse: np.ndarray


#: tr(M D_k) = M.ravel() @ _PMATRIX_WEIGHTS[:, k - 1] for k = 1..15
_PMATRIX_WEIGHTS = np.ascontiguousarray(PAULI_BASIS[1:].transpose(0, 2, 1).reshape(15, 16).T)
_PMATRIX_WEIGHTS.setflags(write=False)


def pmatrix_entries(mats: np.ndarray) -> np.ndarray:
    """P matrix of one quorum's (15, 4, 4) stack: one product of the
    flattened (15, 16) stack with a constant (16, 15) weight matrix."""
    # keep .real a strided view: callers such as covariance_predict multiply
    # these entries, and a contiguous copy takes another matmul path there,
    # moving the last bits of their outputs
    return (mats.reshape(15, 16) @ _PMATRIX_WEIGHTS).real


def pmatrix(q: Quorum) -> PMatrix:
    """The overlap matrix of a quorum, its LU determinant and inverse,
    built on the quorum's first call and kept on it.

    Raises QuorumDegenerateError when |det| < 1e-9, since reconstruction
    divides by this determinant.
    """
    return q._pmatrix


def _build_pmatrix(q: Quorum) -> PMatrix:
    entries = pmatrix_entries(q.matrices)
    det = float(np.linalg.det(entries))
    if abs(det) < DET_FLOOR:
        raise QuorumDegenerateError(f"quorum {q.name!r}: |det| = {abs(det):.3e}")
    inverse = np.linalg.inv(entries)
    entries.setflags(write=False)
    inverse.setflags(write=False)
    return PMatrix(entries, det, inverse)


@functools.cache
def adjoint_table(kind: GateKind) -> np.ndarray:
    """The map X -> i[H, X] of one control generator H on the 15 traceless
    D coordinates, as a real, antisymmetric, read-only 15x15 table T:
    x @ T holds the coordinates of i[H, X] for X = sum_k x_k D_k.  Built
    on first use (not at import) and kept."""
    h = generator(kind)
    d = PAULI_BASIS[1:]
    table = pauli_expand(1j * (h @ d - d @ h))[:, 1:]
    table.setflags(write=False)
    return table


def accessible_subspace_dimension(esr_allowed: bool) -> int:
    """Dimension of the operator space reachable by evolved readouts.

    Conjugation by exp(i a H) moves an operator X along i[H, X] and its
    repeated commutators, so the readouts that circuits of any depth
    reach span the smallest space that holds the traceless parts of the
    three readout projectors and is closed under X -> i[H, X] for every
    control generator H: exchange and the z rotations, plus the
    resonant x rotation when ``esr_allowed``.  The span lives in the 15
    real traceless D coordinates, where each commutator map is one
    ``adjoint_table``.  Each pass stacks the orthonormal span with its
    images, one real product with the stacked tables, and keeps, from
    one SVD of that real (n, 15) stack, the directions of singular value
    above 1e-10, until the rank stops growing.
    """
    kinds = [GateKind.EXCHANGE_PULSE, GateKind.Z_ROT_QUBIT1, GateKind.Z_ROT_QUBIT2]
    if esr_allowed:
        kinds.append(GateKind.ESR_X_QUBIT1)
    tables = np.stack([adjoint_table(k) for k in kinds])
    span = pauli_expand(np.stack([s.projector() for s in BASE_STATES.values()]))[:, 1:]
    rank = 0
    while True:
        stack = np.concatenate([span, (span @ tables).reshape(-1, 15)])
        _, sv, vh = np.linalg.svd(stack, full_matrices=False)
        span = vh[sv > 1e-10]
        if len(span) == rank:
            return rank
        rank = len(span)


def orthogonality_witness(kets: np.ndarray) -> tuple:
    """Tau-sum diagnostics for the (n, 4) kets of a family led by |uu>.

    For states with |<uu|phi>|^2 = 1/4 the tau expansion of the
    projector has m_1 = 0 and splits its remaining weight equally:
    sum(m_2..m_7 squared) = sum(m_8..m_15 squared) = 3/8.  Equality of
    the two partial sums is what rules out any quorum saturating the
    determinant bound while keeping |uu> as a member.  The n projectors
    are one outer product, expanded by one tau_expand call.

    Returns the two numbers the verify rows record: the largest |m_1| or
    deviation of a partial sum from 3/8, and the largest deviation of the
    ratio of the two partial sums from 1 (both 0.0 for an empty family).
    Raises ValueError unless every ket has unit norm (within 1e-12) and
    squared overlap 1/4 with |uu> (within 1e-10).
    """
    kets = np.asarray(kets, dtype=np.complex128)
    if kets.ndim != 2 or kets.shape[1] != 4:
        raise ValueError(f"witness expects an (n, 4) array of kets, not {kets.shape}")
    if len(kets) == 0:
        return 0.0, 0.0
    norm_dev = np.max(np.abs(np.linalg.norm(kets, axis=1) - 1.0))
    overlap_dev = np.max(np.abs(np.abs(kets[:, 0]) ** 2 - 0.25))  # <uu|phi> = phi[0]
    if not (norm_dev <= qmath.NORM_ATOL and overlap_dev <= 1e-10):  # NaN fails
        raise ValueError(f"kets miss unit norm by {norm_dev:.3e}, overlap 1/4 by {overlap_dev:.3e}")
    m = qmath.tau_expand(np.einsum("na,nb->nab", kets, kets.conj()))
    low = np.sum(m[:, 2:8] ** 2, axis=1)
    high = np.sum(m[:, 8:16] ** 2, axis=1)
    sums = np.abs(np.concatenate([m[:, 1], low - 0.375, high - 0.375]))
    return float(np.max(sums)), float(np.max(np.abs(low / high - 1.0)))


def constrained_random_kets(n: int) -> np.ndarray:
    """n random unit kets, shape (n, 4), each with squared overlap
    exactly 1/4 against |uu>: the inputs of orthogonality_witness.

    Amplitude 1/2 on |uu> with a uniform phase; the remaining weight
    sqrt(3)/2 goes to a Gaussian-random unit vector in the orthogonal
    complement.  All n come from one stream, the same on every call.
    """
    rng = qmath.stream("constrained-states")
    phase = np.exp(2j * np.pi * rng.uniform(size=n))
    rest = rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3))
    rest /= np.linalg.norm(rest, axis=1, keepdims=True)
    return np.column_stack([0.5 * phase, np.sqrt(3.0) / 2.0 * rest])


def gram_schmidt_lengths(q: Quorum) -> np.ndarray:
    """Gram-Schmidt lengths of the P rows, grouped in basis triples, (5, 3).

    Sequential Gram-Schmidt over the rows R leaves, row by row, the
    diagonal of the Cholesky factor L of their Gram matrix R R^T = L L^T,
    so the lengths are that diagonal and their product is |det P|.  For
    a quorum drawn from mutually unbiased bases the rows of different
    triples are orthogonal; within a triple the lengths are sqrt(3/4),
    sqrt(2/3), sqrt(1/2).  The rows are the quorum's kept P matrix, so a
    quorum whose rows are linearly dependent raises QuorumDegenerateError,
    as ``pmatrix`` does.  Raises ValueError when rows of different
    triples overlap beyond 1e-10, read from the same Gram matrix.
    """
    rows = pmatrix(q).entries
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
        {"label": label, "basis_index": basis, "pauli_coefficients": coeffs.tolist()}
        for label, basis, coeffs in zip(q.labels, q.basis_index, pauli_expand(q.matrices))
    ]

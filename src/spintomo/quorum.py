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
matrix; the tau identities are checked as tensors, for every ket at once;
the closure ranks of the readouts, without and with the resonant pulse,
are one chain on the 15 real traceless D coordinates: one product with
the real 15x15 adjoint tables of the generators and one SVD per
commutator depth, the closure with the pulse growing from the closed
span without it.
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
    ket_projector,
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
        # keep .real a strided view: callers such as covariance_predict
        # multiply these entries, and a contiguous copy takes another matmul
        # path there, moving the last bits of their outputs
        entries = (self.matrices.reshape(15, 16) @ _PMATRIX_WEIGHTS).real
        det = float(np.linalg.det(entries))
        if abs(det) < DET_FLOOR:
            raise QuorumDegenerateError(f"quorum {self.name!r}: |det| = {abs(det):.3e}")
        inverse = np.linalg.inv(entries)
        entries.setflags(write=False)
        inverse.setflags(write=False)
        return PMatrix(entries, det, inverse)


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
#: the projectors of the base states, in that order: the three base readouts
_BASE_READOUTS = np.stack(list(BASE_STATES.values()))
_BASE_READOUTS.setflags(write=False)


@dataclass(frozen=True)
class Preparation:
    """State preparation recipe: a circuit applied to one of the three
    directly initializable states (the same three the spin-to-charge
    readout projects onto when run in reverse)."""

    label: str
    base_label: str
    circuit: Circuit

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
    circuits, the (n, 4, 4) stack of their base readouts and the
    preparations' labels: the arguments of ``average_readouts`` but the
    noise, so an angle that overflows is reported with its projector."""
    bases = _BASE_READOUTS[[tuple(BASE_STATES).index(prep.base_label) for prep in preps]]
    bases.setflags(write=False)
    steps = readout_steps(prep.measurement_circuit() for prep in preps)
    return steps, bases, tuple(prep.label for prep in preps)


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
    return Quorum("james", labels, np.stack([ket_projector(np.kron(a, b)) for a, b in kets]))


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


def pmatrix(q: Quorum) -> PMatrix:
    """The overlap matrix of a quorum, its LU determinant and inverse,
    built on the quorum's first call and kept on it.

    Raises QuorumDegenerateError when |det| < 1e-9, since reconstruction
    divides by this determinant.
    """
    return q._pmatrix


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


def accessible_subspace_dimension() -> tuple:
    """Dimensions of the operator space reachable by evolved readouts,
    without and with the resonant pulse.

    Conjugation by exp(i a H) moves an operator X along i[H, X] and its
    repeated commutators, so the readouts that circuits of any depth
    reach span the smallest space that holds the traceless parts of the
    three readout projectors and is closed under X -> i[H, X] for every
    control generator H: exchange and the z rotations, plus, for the
    second rank, the resonant x rotation.  The span lives in the 15 real
    traceless D coordinates, where each commutator map is one
    ``adjoint_table``.  Each pass stacks the orthonormal span with its
    images, one real product with the stacked tables, and keeps, from
    one SVD of that real (n, 15) stack, the directions of singular value
    above 1e-10, until the rank stops growing.  One chain serves both
    ranks: the closure with the resonant pulse grows from the closed
    span without it.
    """
    controls = (GateKind.EXCHANGE_PULSE, GateKind.Z_ROT_QUBIT1, GateKind.Z_ROT_QUBIT2)
    span = pauli_expand(_BASE_READOUTS)[:, 1:]
    rank, ranks = 0, []
    for kinds in (controls, controls + (GateKind.ESR_X_QUBIT1,)):
        tables = np.stack([adjoint_table(k) for k in kinds])
        while True:
            stack = np.concatenate([span, (span @ tables).reshape(-1, 15)])
            _, sv, vh = np.linalg.svd(stack, full_matrices=False)
            span = vh[sv > 1e-10]
            if len(span) == rank:
                break
            rank = len(span)
        ranks.append(rank)
    return tuple(ranks)


def tau_identity_gaps() -> tuple:
    """Gaps of the paper's tau identities, which hold for every ket phi.

    With a = |<uu|phi>|^2, N = <phi|phi> and m_k = <phi|tau_k|phi>:
    m_1 = (4a - N)/(2 sqrt 3), m_2^2 + ... + m_7^2 = 2a(N - a) and
    m_8^2 + ... + m_15^2 = (2/3)(N - a)^2, so the two sums differ by
    (2/3)(N - a)(4a - N), which vanishes exactly when m_1 does.  A unit
    ket with overlap 1/4 thus has both sums 3/8, which rules out any
    quorum holding |uu> that saturates the determinant bound.  m_1 is
    one 4x4 matrix; a sum of squares is a quartic form, compared as its
    tensor t[i, j, l, m] of phi*_i phi_j phi*_l phi_m, symmetrised over
    i <-> l and j <-> m so that it is unique.  Returns the largest gap
    of m_1 and the two sums, and the gap of their difference.
    """
    tau, up, rest = qmath.TAU_BASIS, UP_UP, np.eye(4) - UP_UP

    def gap(form, closed_form):
        t = form - closed_form
        t = t + t.transpose(2, 1, 0, 3)
        return float(np.max(np.abs(t + t.transpose(0, 3, 2, 1)))) / 4.0

    low = np.einsum("kij,klm->ijlm", tau[2:8], tau[2:8])
    high = np.einsum("kij,klm->ijlm", tau[8:16], tau[8:16])
    m1 = float(np.max(np.abs(tau[1] - (4.0 * up - np.eye(4)) / (2.0 * np.sqrt(3.0)))))
    sums = max(m1, gap(low, 2.0 * np.multiply.outer(up, rest)),
               gap(high, 2.0 / 3.0 * np.multiply.outer(rest, rest)))
    return sums, gap(low - high, 2.0 / 3.0 * np.multiply.outer(rest, 4.0 * up - np.eye(4)))


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

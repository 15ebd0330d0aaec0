"""Measurement quorums for two-qubit state reconstruction.

A quorum is a set of 15 projectors whose expectation values determine a
two-qubit density matrix.  Two concrete quorums are built here:

* ``mub_quorum``  -- five mutually unbiased bases (three product bases
  along z, x, y and two maximally entangled ones), three states per
  basis entering the quorum.  Realized by exchange pulses, z rotations
  and a single pi/2 resonant pulse per circuit.
* ``james_quorum`` -- the standard all-separable 15-projector set.

Each quorum projector is built twice, from a closed-form Pauli
decomposition and from its preparation circuit, and the two routes are
cross-checked at 1e-12.
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
    """Measurement operator tagged by how it was produced.

    kind is "ideal-pure" for rank-1 projectors, "degraded" for the
    readout-fidelity-contracted form, "averaged" for exact means over
    Gaussian gate-angle errors.  Only ideal-pure operators are required to
    be idempotent; all kinds are Hermitian, unit-trace and PSD.
    """

    matrix: np.ndarray
    label: str
    basis_index: Optional[int] = None
    kind: str = "ideal-pure"

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=np.complex128)
        if m.shape != (4, 4):
            raise ValueError("projector must be 4x4")
        if not qmath.is_hermitian(m):
            raise ValueError(f"projector {self.label}: not Hermitian")
        tr = np.trace(m).real
        if abs(tr - 1.0) > qmath.TRACE_ATOL:
            raise ValueError(f"projector {self.label}: trace {tr!r} != 1")
        if np.linalg.eigvalsh(m)[0] < -qmath.PSD_SLACK:
            raise ValueError(f"projector {self.label}: not PSD")
        if self.kind == "ideal-pure":
            purity = np.sum(np.abs(m) ** 2).real
            if abs(purity - 1.0) > 1e-10:
                raise ValueError(f"projector {self.label}: not rank-1")
        elif self.kind not in ("degraded", "averaged"):
            raise ValueError(f"unknown projector kind {self.kind!r}")
        mm = m.copy()
        mm.setflags(write=False)
        object.__setattr__(self, "matrix", mm)

    @property
    def pauli_coeffs(self) -> np.ndarray:
        return pauli_expand(self.matrix)


@dataclass(frozen=True)
class Quorum:
    name: str
    projectors: tuple
    states: Optional[tuple] = None

    def __post_init__(self):
        object.__setattr__(self, "projectors", tuple(self.projectors))
        if len(self.projectors) != 15:
            raise ValueError("a quorum holds exactly 15 projectors")
        if self.states is not None:
            object.__setattr__(self, "states", tuple(self.states))

    def matrices(self) -> np.ndarray:
        return np.stack([p.matrix for p in self.projectors])


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
    preps = []
    for j, (base, gates) in enumerate(table, start=1):
        label = f"P{j:02d}"
        preps.append(Preparation(label, base, Circuit(gates, label=label)))
    return tuple(preps)


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
    projectors = tuple(
        Projector(c, prep.label, basis_index=j // 3)
        for j, (prep, c) in enumerate(zip(preps, _CLOSED_FORMS, strict=True))
    )
    return Quorum("mub", projectors, states)


def james_quorum() -> Quorum:
    """The separable 15-projector quorum (product states only)."""
    kets = [
        (UP, UP), (UP, DOWN), (DOWN, UP),
        (DOWN_Y, UP), (DOWN_Y, DOWN), (UP_X, DOWN), (UP_X, UP),
        (UP_X, DOWN_Y), (UP_X, UP_X), (DOWN_Y, UP_X),
        (UP, UP_X), (DOWN, UP_X), (DOWN, UP_Y), (UP, UP_Y), (DOWN_Y, UP_Y),
    ]
    projectors = []
    states = []
    for j, (first, second) in enumerate(kets, start=1):
        state = kron_state(first, second)
        states.append(state)
        projectors.append(Projector(state.projector(), f"J{j:02d}"))
    return Quorum("james", tuple(projectors), tuple(states))


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
    entries = pmatrix_entries(q.matrices())
    det = float(np.linalg.det(entries))
    if abs(det) < DET_FLOOR:
        raise QuorumDegenerateError(f"quorum {q.name!r}: |det| = {abs(det):.3e}")
    return PMatrix(entries, det, np.linalg.inv(entries))


def projector_coefficients(state: PureState) -> np.ndarray:
    """Pauli coefficients of |phi><phi| from the amplitudes directly.

    Closed forms in the amplitudes (a, b, c, d); independent of
    pauli_expand, which is the point: the two routes are compared in
    the tests and must agree to 1e-13.
    """
    a, b, c, d = state.amplitudes
    ab, cd = np.conj(a) * b, np.conj(c) * d
    ac, bd = np.conj(a) * c, np.conj(b) * d
    ad, bc = np.conj(a) * d, np.conj(b) * c
    aa, bb, cc, dd = abs(a) ** 2, abs(b) ** 2, abs(c) ** 2, abs(d) ** 2
    n = np.empty(16, dtype=np.float64)
    n[0] = (aa + bb + cc + dd) / 2.0
    n[1] = (ab + cd).real
    n[2] = (ab + cd).imag
    n[3] = (aa - bb + cc - dd) / 2.0
    n[4] = (ac + bd).real
    n[5] = (ad + bc).real
    n[6] = ad.imag - bc.imag
    n[7] = ac.real - bd.real
    n[8] = (ac + bd).imag
    n[9] = ad.imag + bc.imag
    n[10] = bc.real - ad.real
    n[11] = ac.imag - bd.imag
    n[12] = (aa + bb - cc - dd) / 2.0
    n[13] = ab.real - cd.real
    n[14] = ab.imag - cd.imag
    n[15] = (aa - bb - cc + dd) / 2.0
    return n


_BASE_PROJECTOR_STATES = (UP_UP, UP_DOWN, SINGLET)


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

    for state in _BASE_PROJECTOR_STATES:
        add(state.projector() - np.eye(4) / 4.0)
    for x in basis:  # the loop also visits every direction it appends
        for h in generators:
            add(1j * (h @ x - x @ h))
    return len(basis)


@dataclass(frozen=True)
class WitnessReport:
    """Per-state tau-basis diagnostics for quorum candidates.

    For states with |<uu|phi>|^2 = 1/4 the tau expansion of the
    projector has m_1 = 0 and splits its remaining weight equally:
    sum(m_2..m_7 squared) = sum(m_8..m_15 squared) = 3/8.  Equality of
    the two partial sums is what rules out any quorum saturating the
    determinant bound while keeping |uu> as a member.
    """

    m1: np.ndarray
    low_sum: np.ndarray
    high_sum: np.ndarray

    @property
    def max_m1(self) -> float:
        return float(np.max(np.abs(self.m1))) if self.m1.size else 0.0

    @property
    def max_sum_deviation(self) -> float:
        if not self.low_sum.size:
            return 0.0
        return float(
            max(np.max(np.abs(self.low_sum - 0.375)), np.max(np.abs(self.high_sum - 0.375)))
        )

    @property
    def max_ratio_deviation(self) -> float:
        if not self.low_sum.size:
            return 0.0
        return float(np.max(np.abs(self.low_sum / self.high_sum - 1.0)))


def orthogonality_witness(states: Sequence[PureState]) -> WitnessReport:
    """Tau-sum diagnostics for a candidate family led by |uu>.

    Requires states[0] == |uu> and every other state to have squared
    overlap 1/4 with it (within 1e-10).
    """
    states = list(states)
    if not states or states[0] != UP_UP:
        raise ValueError("witness requires the first state to be |uu>")
    m1, lows, highs = [], [], []
    for s in states[1:]:
        ov = abs(s.overlap(UP_UP)) ** 2
        if abs(ov - 0.25) > 1e-10:
            raise ValueError(f"state overlap with |uu> is {ov!r}, expected 1/4")
        m = qmath.tau_expand(s.projector())
        m1.append(m[1])
        lows.append(float(np.sum(m[2:8] ** 2)))
        highs.append(float(np.sum(m[8:16] ** 2)))
    return WitnessReport(np.array(m1), np.array(lows), np.array(highs))


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


@dataclass(frozen=True)
class GramSchmidtReport:
    lengths: np.ndarray  # (5, 3)
    det_product: float


def gram_schmidt_det_check(q: Quorum) -> GramSchmidtReport:
    """Sequential Gram-Schmidt over the P rows, grouped in basis triples.

    For a quorum drawn from mutually unbiased bases the rows of
    different triples are already orthogonal; within a triple the
    surviving lengths are sqrt(3/4), sqrt(2/3), sqrt(1/2).  The product
    of all 15 lengths equals |det P|.  Raises when rows of different
    triples fail orthogonality at 1e-10.
    """
    rows = pmatrix_entries(q.matrices())
    for i in range(15):
        for j in range(i + 1, 15):
            if i // 3 != j // 3:
                dot = abs(float(rows[i] @ rows[j]))
                if dot > 1e-10:
                    raise ValueError(
                        f"rows {i} and {j} belong to different triples but overlap ({dot:.3e})"
                    )
    basis = []
    lengths = []
    for r in rows:
        v = r.astype(np.float64).copy()
        for b in basis:
            v -= (v @ b) * b
        ln = float(np.linalg.norm(v))
        lengths.append(ln)
        if ln > 0:
            basis.append(v / ln)
    lengths = np.array(lengths).reshape(5, 3)
    return GramSchmidtReport(lengths, float(np.prod(lengths)))


def quorum_records(q: Quorum) -> list:
    """JSON-ready projector records: label, basis index, 16 Pauli coefficients."""
    out = []
    for p in q.projectors:
        out.append(
            {
                "label": p.label,
                "basis_index": p.basis_index,
                "pauli_coefficients": [float(x) for x in p.pauli_coeffs],
            }
        )
    return out

"""Quorum construction, P matrix, witnesses and subspace ranks."""

import numpy as np
import pytest

from spintomo.gates import Circuit, Gate, GateKind
from spintomo.measure import degrade_readout
from spintomo.qmath import (
    DOWN_UP,
    PAULI_BASIS,
    SINGLET,
    UP_DOWN,
    UP_UP,
    PureState,
    pauli_expand,
    random_pure,
)
from spintomo.quorum import (
    DET_UPPER_BOUND,
    Preparation,
    Projector,
    Quorum,
    QuorumDegenerateError,
    accessible_subspace_dimension,
    constrained_random_state,
    esr_budget_excess,
    gram_schmidt_lengths,
    james_quorum,
    mub_bases,
    mub_preparations,
    mub_quorum,
    orthogonality_witness,
    pmatrix,
    pmatrix_entries,
    quorum_records,
)

LABELS = tuple(f"X{j:02d}" for j in range(1, 16))


def projector_coefficients(state: PureState) -> np.ndarray:
    """Pauli coefficients of |phi><phi| from the amplitudes directly.

    Closed forms in the amplitudes (a, b, c, d); independent of
    pauli_expand, which is the point: the two routes are compared below
    and must agree to 1e-13.
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


def test_projector_validation():
    with pytest.raises(ValueError):
        Projector(np.eye(4), "bad-trace")
    with pytest.raises(ValueError):
        Projector(np.eye(2) / 2.0, "not-4x4")
    Projector(np.eye(4) / 4.0, "mixed-ok")
    p = Projector(UP_UP.projector(), "uu")
    with pytest.raises(ValueError):
        p.matrix[0, 0] = 2.0  # write-locked
    # the quorum checks its whole stack once: one bad entry is enough
    good = mub_quorum().matrices
    not_hermitian = good.copy()
    not_hermitian[7, 0, 1] += 1e-6
    bad_trace = good.copy()
    bad_trace[3] *= 1.01
    negative = good.copy()
    negative[12] = np.diag([1.2, -0.2, 0.0, 0.0])
    for stack in (not_hermitian, bad_trace, negative):
        with pytest.raises(ValueError):
            Quorum("bad", LABELS, stack)
    q = Quorum("ok", LABELS, good)
    with pytest.raises(ValueError):
        q.matrices[0, 0, 0] = 2.0  # write-locked


def test_quorum_needs_15():
    stack = np.stack([UP_UP.projector()] * 16)
    for n in (3, 14, 16):
        labels = tuple(f"x{j}" for j in range(n))
        with pytest.raises(ValueError):
            Quorum("wrong-count", labels, stack[:n], basis_index=(None,) * n)
    stack = stack[:15]
    with pytest.raises(ValueError):
        Quorum("short-labels", LABELS[:14], stack)
    with pytest.raises(ValueError):
        Quorum("short-bases", LABELS, stack, basis_index=(0,) * 14)
    with pytest.raises(ValueError):
        Quorum("nested", LABELS, stack[:, None])


def test_mub_quorum_cross_check_and_labels():
    q = mub_quorum()
    assert q.matrices.shape == (15, 4, 4)
    assert q.labels == tuple(f"P{j:02d}" for j in range(1, 16))
    assert q.states is not None and len(q.states) == 15
    for j, (m, s) in enumerate(zip(q.matrices, q.states), start=1):
        np.testing.assert_allclose(m, s.projector(), atol=1e-13)
        assert q.basis_index[j - 1] == (j - 1) // 3  # five bases, zero-indexed
    james = james_quorum()
    assert james.labels == tuple(f"J{j:02d}" for j in range(1, 16))
    assert james.basis_index == (None,) * 15
    for m, s in zip(james.matrices, james.states):
        np.testing.assert_allclose(m, s.projector(), atol=1e-13)


def test_mub_preparations_structure():
    preps = mub_preparations()
    assert len(preps) == 15
    # base states: uu, ud, then gate-prepared ones
    assert preps[0].base_label == "up_up" and preps[0].circuit.gates == ()
    assert preps[1].base_label == "up_down" and preps[1].circuit.gates == ()
    for j, prep in enumerate(preps, start=1):
        esr = [g for g in prep.circuit.gates if g.kind == GateKind.ESR_X_QUBIT1]
        if j <= 3:
            assert not esr
        else:
            assert len(esr) == 1
            assert abs(esr[0].angle) == np.pi / 4  # exactly one pi/2 pulse


def test_measurement_circuit_inverts_preparation():
    for prep in mub_preparations():
        u = prep.circuit.unitary()
        v = prep.measurement_circuit().unitary()
        np.testing.assert_allclose(v @ u, np.eye(4), atol=1e-13)


def test_first_three_states():
    q = mub_quorum()
    assert q.states[0] == UP_UP
    assert q.states[1] == UP_DOWN
    assert q.states[2] == DOWN_UP  # pi exchange pulse swaps |ud>


def test_mub_condition_all_bases():
    bases = mub_bases()
    assert len(bases) == 5
    for bi in range(5):
        for si in range(4):
            for bj in range(5):
                for sj in range(4):
                    ov = abs(bases[bi][si].overlap(bases[bj][sj])) ** 2
                    target = (1.0 if si == sj else 0.0) if bi == bj else 0.25
                    assert abs(ov - target) < 1e-12


def test_pmatrix_entries_against_manual_traces():
    q = mub_quorum()
    entries = pmatrix_entries(q.matrices)
    assert entries.shape == (15, 15)
    for j in range(15):
        for k in range(15):
            manual = np.trace(q.matrices[j] @ PAULI_BASIS[k + 1]).real
            assert abs(entries[j, k] - manual) < 1e-14


def test_determinants_frozen_values():
    assert abs(abs(pmatrix(mub_quorum()).det) - 1.0 / 32.0) < 1e-12
    assert abs(abs(pmatrix(james_quorum()).det) - 1.0 / 512.0) < 1e-12


def test_pmatrix_inverse():
    pm = pmatrix(mub_quorum())
    np.testing.assert_allclose(pm.entries @ pm.inverse, np.eye(15), atol=1e-12)


def test_degenerate_quorum_raises():
    with pytest.raises(QuorumDegenerateError):
        pmatrix(Quorum("degenerate", LABELS, np.stack([UP_UP.projector()] * 15)))


def test_james_quorum_is_separable_products():
    q = james_quorum()
    for s in q.states:
        # product state <=> reduced state pure <=> concurrence-like det = 0
        amp = s.amplitudes.reshape(2, 2)
        assert abs(np.linalg.det(amp)) < 1e-12


def test_projector_coefficients_match_general_expansion():
    # closed-form coefficient table vs the generic Pauli expansion
    states = [random_pure(seed) for seed in range(25)]
    states += list(mub_quorum().states)
    for s in states:
        got = projector_coefficients(s)
        expected = pauli_expand(s.projector())
        np.testing.assert_allclose(got, expected, atol=1e-13)


def test_quorum_records_schema():
    recs = quorum_records(mub_quorum())
    assert len(recs) == 15
    for rec in recs:
        assert set(rec) == {"label", "basis_index", "pauli_coefficients"}
        assert len(rec["pauli_coefficients"]) == 16
        assert abs(rec["pauli_coefficients"][0] - 0.5) < 1e-14


def test_det_upper_bound_strict_everywhere():
    dets = [abs(pmatrix(mub_quorum()).det), abs(pmatrix(james_quorum()).det)]
    for trial in range(30):
        stack = np.stack([random_pure(5000 + 31 * trial + i).projector() for i in range(15)])
        dets.append(abs(np.linalg.det(pmatrix_entries(Quorum("rand", LABELS, stack).matrices))))
    assert max(dets) < DET_UPPER_BOUND


def test_constrained_random_state_overlap():
    for seed in range(50):
        s = constrained_random_state(seed)
        assert abs(abs(s.overlap(UP_UP)) ** 2 - 0.25) < 1e-13


def test_orthogonality_witness_sums():
    family = [UP_UP] + [constrained_random_state(s) for s in range(64)]
    sums_dev, ratio_dev = orthogonality_witness(family)
    assert sums_dev < 1e-12  # |m1| and both partial sums against 3/8, every state
    assert ratio_dev < 1e-10
    assert orthogonality_witness([UP_UP]) == (0.0, 0.0)


def test_orthogonality_witness_preconditions():
    with pytest.raises(ValueError):
        orthogonality_witness([SINGLET])  # must start with |uu>
    with pytest.raises(ValueError):
        orthogonality_witness([UP_UP, UP_DOWN])  # overlap 0, not 1/4


def sequential_gram_schmidt(q: Quorum) -> np.ndarray:
    """Oracle: Gram-Schmidt over the P rows one by one, lengths as (5, 3)."""
    basis, lengths = [], []
    for r in pmatrix_entries(q.matrices):
        v = r.copy()
        for b in basis:
            v -= (v @ b) * b
        ln = float(np.linalg.norm(v))
        lengths.append(ln)
        if ln > 0:
            basis.append(v / ln)
    return np.array(lengths).reshape(5, 3)


def test_gram_schmidt_lengths_and_product():
    lengths = gram_schmidt_lengths(mub_quorum())
    expected = np.sqrt(np.array([3.0 / 4.0, 2.0 / 3.0, 1.0 / 2.0]))
    np.testing.assert_allclose(lengths, np.tile(expected, (5, 1)), atol=1e-12)
    assert abs(np.prod(lengths) - 1.0 / 32.0) < 1e-12


def test_gram_schmidt_lengths_match_sequential_oracle():
    mub = mub_quorum()
    # readout fidelity 0.9 shrinks every row by (4f^2 - 1)/3; triples stay orthogonal
    degraded = Quorum("degraded", LABELS, degrade_readout(mub.matrices, 0.9), mub.basis_index)
    for q in (mub, degraded):
        np.testing.assert_allclose(gram_schmidt_lengths(q), sequential_gram_schmidt(q),
                                   rtol=0, atol=1e-12)
    shrink = (4 * 0.9**2 - 1) / 3
    np.testing.assert_allclose(gram_schmidt_lengths(degraded),
                               shrink * gram_schmidt_lengths(mub), rtol=0, atol=1e-12)


def test_gram_schmidt_rejects_cross_triple_overlap():
    with pytest.raises(ValueError, match="different triples"):
        gram_schmidt_lengths(james_quorum())  # product quorum rows overlap


def test_accessible_subspace_ranks():
    assert accessible_subspace_dimension(esr_allowed=False) == 5
    assert accessible_subspace_dimension(esr_allowed=True) == 15


def test_quorum_frozen_states_tuple():
    q = mub_quorum()
    assert isinstance(q.labels, tuple) and isinstance(q.states, tuple)
    assert isinstance(q.basis_index, tuple) and not q.matrices.flags.writeable


def test_esr_budget_enforced_at_construction(monkeypatch):
    # a pi pulse overshoots the budget by pi/4, a second resonant pulse
    # breaks it by one gate, and mub_quorum refuses to build from either
    preps = list(mub_preparations())
    assert esr_budget_excess(preps) == 0.0
    doubled = tuple(Gate(g.kind, 2 * g.angle) for g in preps[9].circuit.gates)
    wide = preps[:9] + [Preparation("wide", "singlet", Circuit(doubled))] + preps[10:]
    assert esr_budget_excess(wide) == pytest.approx(np.pi / 4)
    extra = Gate(GateKind.ESR_X_QUBIT1, np.pi / 4)
    preps[3] = Preparation("bad", "up_up", Circuit(preps[3].circuit.gates + (extra,)))
    assert esr_budget_excess(preps) == 1.0
    for table in (wide, preps):
        monkeypatch.setattr("spintomo.quorum.mub_preparations", lambda: tuple(table))
        with pytest.raises(RuntimeError, match="ESR budget"):
            mub_quorum()

"""Quorum construction, P matrix, witnesses and subspace ranks."""

import numpy as np
import pytest

from spintomo.gates import Circuit, Gate, GateKind
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
    gram_schmidt_det_check,
    james_quorum,
    mub_bases,
    mub_preparations,
    mub_quorum,
    orthogonality_witness,
    pmatrix,
    pmatrix_entries,
    projector_coefficients,
    quorum_records,
)


def test_projector_validation():
    with pytest.raises(ValueError):
        Projector(np.eye(4), "bad-trace")
    with pytest.raises(ValueError):
        Projector(np.eye(4) / 4.0, "not-rank1")  # ideal-pure must be rank 1
    Projector(np.eye(4) / 4.0, "mixed-ok", kind="degraded")
    with pytest.raises(ValueError):
        Projector(UP_UP.projector(), "bad-kind", kind="nonsense")
    p = Projector(UP_UP.projector(), "uu")
    with pytest.raises(ValueError):
        p.matrix[0, 0] = 2.0  # write-locked


def test_quorum_needs_15():
    p = Projector(UP_UP.projector(), "x")
    with pytest.raises(ValueError):
        Quorum("short", (p,) * 3)


def test_mub_quorum_cross_check_and_labels():
    q = mub_quorum()
    assert len(q.projectors) == 15
    assert q.states is not None and len(q.states) == 15
    for j, (p, s) in enumerate(zip(q.projectors, q.states), start=1):
        np.testing.assert_allclose(p.matrix, s.projector(), atol=1e-13)
        assert p.basis_index == (j - 1) // 3  # five bases, zero-indexed


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
    entries = pmatrix_entries(q.matrices())
    assert entries.shape == (15, 15)
    for j in range(15):
        for k in range(15):
            manual = np.trace(q.projectors[j].matrix @ PAULI_BASIS[k + 1]).real
            assert abs(entries[j, k] - manual) < 1e-14


def test_determinants_frozen_values():
    assert abs(abs(pmatrix(mub_quorum()).det) - 1.0 / 32.0) < 1e-12
    assert abs(abs(pmatrix(james_quorum()).det) - 1.0 / 512.0) < 1e-12


def test_pmatrix_inverse():
    pm = pmatrix(mub_quorum())
    np.testing.assert_allclose(pm.entries @ pm.inverse, np.eye(15), atol=1e-12)


def test_degenerate_quorum_raises():
    p = Projector(UP_UP.projector(), "dup")
    with pytest.raises(QuorumDegenerateError):
        pmatrix(Quorum("degenerate", (p,) * 15))


def test_james_quorum_is_separable_products():
    q = james_quorum()
    for p, s in zip(q.projectors, q.states):
        np.testing.assert_allclose(p.matrix, s.projector(), atol=1e-13)
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
        projs = tuple(
            Projector(random_pure(5000 + 31 * trial + i).projector(), f"r{i}")
            for i in range(15)
        )
        dets.append(abs(np.linalg.det(pmatrix_entries(Quorum("rand", projs).matrices()))))
    assert max(dets) < DET_UPPER_BOUND


def test_constrained_random_state_overlap():
    for seed in range(50):
        s = constrained_random_state(seed)
        assert abs(abs(s.overlap(UP_UP)) ** 2 - 0.25) < 1e-13


def test_orthogonality_witness_sums():
    family = [UP_UP] + [constrained_random_state(s) for s in range(64)]
    report = orthogonality_witness(family)
    assert report.max_m1 < 1e-10
    assert report.max_sum_deviation < 1e-10
    assert report.max_ratio_deviation < 1e-10
    np.testing.assert_allclose(report.low_sum, 0.375, atol=1e-12)
    np.testing.assert_allclose(report.high_sum, 0.375, atol=1e-12)


def test_orthogonality_witness_preconditions():
    with pytest.raises(ValueError):
        orthogonality_witness([SINGLET])  # must start with |uu>
    with pytest.raises(ValueError):
        orthogonality_witness([UP_UP, UP_DOWN])  # overlap 0, not 1/4


def test_gram_schmidt_lengths_and_product():
    report = gram_schmidt_det_check(mub_quorum())
    expected = np.sqrt(np.array([3.0 / 4.0, 2.0 / 3.0, 1.0 / 2.0]))
    np.testing.assert_allclose(report.lengths, np.tile(expected, (5, 1)), atol=1e-12)
    assert abs(report.det_product - 1.0 / 32.0) < 1e-12


def test_gram_schmidt_rejects_cross_triple_overlap():
    with pytest.raises(ValueError):
        gram_schmidt_det_check(james_quorum())  # product quorum rows overlap


def test_accessible_subspace_ranks():
    assert accessible_subspace_dimension(esr_allowed=False) == 5
    assert accessible_subspace_dimension(esr_allowed=True) == 15


def test_quorum_frozen_states_tuple():
    q = mub_quorum()
    assert isinstance(q.projectors, tuple) and isinstance(q.states, tuple)


def test_esr_budget_enforced_at_construction(monkeypatch):
    # a pi pulse overshoots the budget by pi/4, a second resonant pulse
    # breaks it by one gate, and mub_quorum refuses to build from either
    preps = list(mub_preparations())
    assert esr_budget_excess(preps) == 0.0
    doubled = tuple(Gate(g.kind, 2 * g.angle) for g in preps[9].circuit.gates)
    wide = preps[:9] + [Preparation("wide", "singlet", Circuit(doubled))] + preps[10:]
    assert esr_budget_excess(wide) == pytest.approx(np.pi / 4)
    extra = Gate(GateKind.ESR_X_QUBIT1, np.pi / 4)
    preps[3] = Preparation("bad", "up_up", preps[3].circuit.extended([extra]))
    assert esr_budget_excess(preps) == 1.0
    for table in (wide, preps):
        monkeypatch.setattr("spintomo.quorum.mub_preparations", lambda: tuple(table))
        with pytest.raises(RuntimeError, match="ESR budget"):
            mub_quorum()

"""Quorum construction, P matrix, witnesses and subspace ranks."""

import dataclasses

import numpy as np
import pytest

from spintomo.gates import (
    Circuit,
    Gate,
    GateKind,
    NoiseModel,
    average_readouts,
    generator,
    readout_steps,
)
from spintomo.measure import degrade_readout
from spintomo.qmath import (
    DOWN,
    DOWN_UP,
    DOWN_Y,
    PAULI_BASIS,
    UP,
    UP_DOWN,
    UP_UP,
    UP_X,
    UP_Y,
    SINGLET,
    PureState,
    kron_state,
    pauli_assemble,
    pauli_expand,
    stream,
    tau_expand,
)
from spintomo.quorum import (
    Preparation,
    Projector,
    Quorum,
    QuorumDegenerateError,
    accessible_subspace_dimension,
    adjoint_table,
    closed_form_deviation,
    constrained_random_kets,
    esr_budget_excess,
    gram_schmidt_lengths,
    ideal_readouts,
    james_quorum,
    mub_preparations,
    mub_quorum,
    orthogonality_witness,
    pmatrix,
    pmatrix_entries,
    quorum_records,
)

from support import random_pure, unitary

LABELS = tuple(f"X{j:02d}" for j in range(1, 16))
#: the product kets of the separable quorum, in its order
JAMES_KETS = [
    (UP, UP), (UP, DOWN), (DOWN, UP),
    (DOWN_Y, UP), (DOWN_Y, DOWN), (UP_X, DOWN), (UP_X, UP),
    (UP_X, DOWN_Y), (UP_X, UP_X), (DOWN_Y, UP_X),
    (UP, UP_X), (DOWN, UP_X), (DOWN, UP_Y), (UP, UP_Y), (DOWN_Y, UP_Y),
]


def prepared_states() -> list:
    """The 15 states the MUB preparation circuits prepare, by the forward
    oracle: each circuit's gate matrices applied to its base state."""
    states = []
    for prep in mub_preparations():
        u = np.eye(4)
        for g in prep.circuit.gates:
            u = unitary(g.kind, g.angle) @ u
        states.append(PureState.from_amplitudes(u @ prep.base_state.amplitudes))
    return states


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
    states = prepared_states()
    for j, (m, s) in enumerate(zip(q.matrices, states, strict=True), start=1):
        np.testing.assert_allclose(m, s.projector(), atol=1e-13)
        assert q.basis_index[j - 1] == (j - 1) // 3  # five bases, zero-indexed
    readouts = ideal_readouts(mub_preparations())
    assert closed_form_deviation(readouts) < 1e-13
    for count in (14, 16):  # the comparison takes exactly the 15 readouts
        with pytest.raises(ValueError, match=r"\(15, 4, 4\) quorum readouts"):
            closed_form_deviation(np.concatenate([readouts, readouts])[:count])
    james = james_quorum()
    assert james.labels == tuple(f"J{j:02d}" for j in range(1, 16))
    assert james.basis_index == (None,) * 15
    for m, (a, b) in zip(james.matrices, JAMES_KETS, strict=True):
        np.testing.assert_allclose(m, kron_state(a, b).projector(), atol=1e-13)


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
    # the readout of each measurement circuit is the projector of the state
    # its preparation circuit prepares, and running the preparation circuit
    # on that readout returns the base readout
    preps = mub_preparations()
    readouts = ideal_readouts(preps)
    np.testing.assert_allclose(readouts, [s.projector() for s in prepared_states()], atol=1e-13)
    steps = readout_steps(p.circuit for p in preps)
    back = average_readouts(steps, readouts, [p.label for p in preps], NoiseModel())
    np.testing.assert_allclose(back, [p.base_state.projector() for p in preps], atol=1e-13)


def test_first_three_states():
    readouts = ideal_readouts(mub_preparations())
    np.testing.assert_allclose(readouts[0], UP_UP.projector(), atol=1e-15)
    np.testing.assert_allclose(readouts[1], UP_DOWN.projector(), atol=1e-15)
    # the pi exchange pulse swaps |ud>
    np.testing.assert_allclose(readouts[2], DOWN_UP.projector(), atol=1e-14)


def test_mub_condition_all_bases():
    # readouts 3i+1 .. 3i+3 lead basis i and I minus their sum completes it:
    # 20 rank-one projectors, orthogonal within a basis, overlap 1/4 across
    led = ideal_readouts(mub_preparations()).reshape(5, 3, 4, 4)
    bases = np.concatenate([led, (np.eye(4) - led.sum(axis=1))[:, None]], axis=1)
    for bi in range(5):
        for si in range(4):
            p = bases[bi, si]
            np.testing.assert_allclose(p @ p, p, atol=1e-12)
            for bj in range(5):
                for sj in range(4):
                    ov = np.trace(p @ bases[bj, sj]).real
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
    # a strided .real view, as its callers' outputs were recorded with
    assert not entries.flags.c_contiguous


def test_determinants_frozen_values():
    assert abs(abs(pmatrix(mub_quorum()).det) - 1.0 / 32.0) < 1e-12
    assert abs(abs(pmatrix(james_quorum()).det) - 1.0 / 512.0) < 1e-12


def test_pmatrix_inverse():
    pm = pmatrix(mub_quorum())
    np.testing.assert_allclose(pm.entries @ pm.inverse, np.eye(15), atol=1e-12)


def test_quorum_constants_are_built_once_and_read_only():
    q = mub_quorum()
    pm, forms = pmatrix(q), q.likelihood_forms
    assert pmatrix(q) is pm and q.likelihood_forms is forms
    for arr in (pm.entries, pm.inverse, forms):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0, 0] = 0.0
    # still the strided .real view that pmatrix_entries documents
    assert not pm.entries.flags.c_contiguous


def test_degenerate_quorum_raises():
    with pytest.raises(QuorumDegenerateError):
        pmatrix(Quorum("degenerate", LABELS, np.stack([UP_UP.projector()] * 15)))


def test_james_quorum_is_separable_products():
    for m, (a, b) in zip(james_quorum().matrices, JAMES_KETS, strict=True):
        s = kron_state(a, b)
        # product state <=> reduced state pure <=> concurrence-like det = 0
        amp = s.amplitudes.reshape(2, 2)
        assert abs(np.linalg.det(amp)) < 1e-12
        np.testing.assert_allclose(m, s.projector(), atol=1e-13)


def test_projector_coefficients_match_general_expansion():
    # closed-form coefficient table vs the generic Pauli expansion
    states = [random_pure(seed) for seed in range(25)]
    states += prepared_states()
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
    # every P row of a pure projector has squared norm 3/4, the identity
    # verify's det_upper_bound row checks on the mub and james rows, so
    # Hadamard's inequality bounds |det P| by (3/4)^(15/2)
    dets = [abs(pmatrix(mub_quorum()).det), abs(pmatrix(james_quorum()).det)]
    for trial in range(30):
        stack = np.stack([random_pure(5000 + 31 * trial + i).projector() for i in range(15)])
        rows = pmatrix_entries(Quorum("rand", LABELS, stack).matrices)
        assert np.max(np.abs(np.sum(rows**2, axis=1) - 0.75)) <= 1e-15
        dets.append(abs(np.linalg.det(rows)))
    assert max(dets) < 0.75 ** 7.5


def test_constrained_random_kets_overlap():
    kets = constrained_random_kets(1000)
    assert kets.shape == (1000, 4)
    assert np.max(np.abs(np.abs(kets[:, 0]) ** 2 - 0.25)) < 1e-13
    assert np.max(np.abs(np.linalg.norm(kets, axis=1) - 1.0)) < 1e-13
    # one stream, so every call draws the same family
    np.testing.assert_array_equal(constrained_random_kets(1000), kets)


def test_orthogonality_witness_sums():
    sums_dev, ratio_dev = orthogonality_witness(constrained_random_kets(64))
    assert sums_dev < 1e-12  # |m1| and both partial sums against 3/8, every state
    assert ratio_dev < 1e-10
    assert orthogonality_witness(np.zeros((0, 4))) == (0.0, 0.0)  # |uu> alone


def _quadratic_features(kets):
    """Every tau coefficient m_a of each ket's projector, then every m_a m_b, a <= b."""
    m = tau_expand(np.einsum("na,nb->nab", kets, kets.conj()))
    a, b = np.triu_indices(16)
    return np.column_stack([m, m[:, a] * m[:, b]])


def test_tau_witness_kets_determine_every_quadratic_function():
    # On kets with |<uu|phi>|^2 = 1/4 the functions of degree <= 2 in the tau
    # coefficients span 84 dimensions, and the 200 witness kets of verify
    # evaluate all 84 well apart from zero: a quadratic function constant on
    # them, such as the tau rows' partial sums, is constant on the family.
    witness = _quadratic_features(constrained_random_kets(200))
    sv = np.linalg.svd(witness, compute_uv=False)
    assert sv[83] / sv[0] > 1e-2
    assert sv[84] / sv[0] < 1e-12
    # 1000 kets of the same family from another stream add no dimension
    rng = stream("tau-rank", 0)
    rest = rng.standard_normal((1000, 3)) + 1j * rng.standard_normal((1000, 3))
    rest *= np.sqrt(0.75) / np.linalg.norm(rest, axis=1, keepdims=True)
    fresh = np.column_stack([0.5 * np.exp(2j * np.pi * rng.uniform(size=1000)), rest])
    sv = np.linalg.svd(np.vstack([witness, _quadratic_features(fresh)]), compute_uv=False)
    assert sv[84] / sv[0] < 1e-12


def test_orthogonality_witness_preconditions():
    kets = constrained_random_kets(8)
    long = kets[0].copy()
    long[1:] *= 1.01  # overlap still 1/4, norm sqrt(1.015075)
    with pytest.raises(ValueError, match=r"norm by 7\.509e-03"):
        orthogonality_witness(np.concatenate([kets, [long]]))
    with pytest.raises(ValueError, match=r"overlap 1/4 by 2\.500e-01"):
        orthogonality_witness(np.concatenate([kets, [UP_DOWN.amplitudes]]))  # overlap 0
    with pytest.raises(ValueError, match="nan"):
        orthogonality_witness(np.concatenate([kets, [np.full(4, np.nan)]]))
    for shape in [(8,), (8, 3), (2, 8, 4)]:
        with pytest.raises(ValueError, match=r"an \(n, 4\) array"):
            orthogonality_witness(np.resize(kets, shape))


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


@pytest.mark.parametrize("kind", list(GateKind))
def test_adjoint_table_is_real_and_antisymmetric(kind):
    # i[H, .] is skew-adjoint under the Hilbert-Schmidt product
    table = adjoint_table(kind)
    assert table.shape == (15, 15) and table.dtype == np.float64
    assert not table.flags.writeable
    np.testing.assert_allclose(table, -table.T, rtol=0, atol=1e-15)
    assert adjoint_table(kind) is table  # built once


@pytest.mark.parametrize("kind", list(GateKind))
def test_adjoint_table_moves_coordinates_like_the_commutator(kind):
    h = generator(kind)
    rng = np.random.default_rng(4096)
    for _ in range(20):
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        x = a + a.conj().T
        moved = np.concatenate([[0.0], pauli_expand(x)[1:] @ adjoint_table(kind)])
        np.testing.assert_allclose(pauli_assemble(moved), 1j * (h @ x - x @ h),
                                   rtol=0, atol=1e-12)


def test_accessible_subspace_ranks():
    assert accessible_subspace_dimension(esr_allowed=False) == 5
    assert accessible_subspace_dimension(esr_allowed=True) == 15


@pytest.mark.parametrize("esr, rank", [(False, 5), (True, 15)])
def test_accessible_subspace_matches_random_circuits(esr, rank):
    # oracle without commutators: conjugate the three readouts by seeded
    # random circuits over every allowed gate kind and take the rank of
    # the span of their traceless parts
    kinds = [k for k in GateKind if esr or k != GateKind.ESR_X_QUBIT1]
    rng = np.random.default_rng(20130411)
    readouts = [s.projector() - np.eye(4) / 4.0 for s in (UP_UP, UP_DOWN, SINGLET)]
    evolved = []
    for _ in range(60):
        u = np.eye(4, dtype=np.complex128)
        for j in rng.integers(len(kinds), size=8):
            u = unitary(kinds[j], rng.uniform(-np.pi, np.pi)) @ u
        evolved += [u @ x @ u.conj().T for x in readouts]
    oracle = np.linalg.matrix_rank(np.reshape(evolved, (-1, 16)), tol=1e-8)
    assert oracle == accessible_subspace_dimension(esr_allowed=esr) == rank


def test_quorum_frozen_tuples():
    q = mub_quorum()
    assert isinstance(q.labels, tuple) and isinstance(q.basis_index, tuple)
    assert not q.matrices.flags.writeable
    # the operators are all a quorum holds: no states beside them
    assert [f.name for f in dataclasses.fields(Quorum)] == ["name", "labels", "matrices",
                                                            "basis_index"]


def test_mub_quorum_is_built_once_and_shared():
    assert mub_preparations() is mub_preparations()
    q = mub_quorum()
    assert q is mub_quorum()
    assert not q.matrices.flags.writeable
    assert james_quorum() is james_quorum()
    assert not james_quorum().matrices.flags.writeable


def test_esr_budget_enforced_at_construction(monkeypatch):
    # a pi pulse overshoots the budget by pi/4, a second resonant pulse
    # breaks it by one gate, and mub_quorum refuses to build from either
    good = mub_quorum()
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
            mub_quorum.__wrapped__()  # the uncached build, which runs the guard
    assert mub_quorum() is good  # a refused table does not reach the shared quorum

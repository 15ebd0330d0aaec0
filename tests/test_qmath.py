"""Operator-basis algebra, states, metrics and RNG streams."""

import numpy as np
import pytest

from spintomo import qmath
from spintomo.qmath import (
    DOWN_DOWN,
    PAULI_BASIS,
    SIGMA,
    SINGLET,
    TAU_BASIS,
    TRIPLET_ZERO,
    UP_DOWN,
    UP_UP,
    DensityMatrix,
    PureState,
    check_density_matrix,
    kron_state,
    pauli_assemble,
    pauli_expand,
    random_density,
    state_fidelity,
    stream,
    tau_expand,
    trace_distance,
    two_qubit_pauli,
)
from spintomo.quorum import constrained_random_kets

from support import random_pure


def test_sigma_algebra():
    # sigma_i sigma_j = delta_ij I + i eps_ijk sigma_k, checked explicitly
    x, y, z = SIGMA[1], SIGMA[2], SIGMA[3]
    np.testing.assert_allclose(x @ x, np.eye(2), atol=1e-15)
    np.testing.assert_allclose(x @ y, 1j * z, atol=1e-15)
    np.testing.assert_allclose(y @ z, 1j * x, atol=1e-15)
    np.testing.assert_allclose(z @ x, 1j * y, atol=1e-15)


def test_pauli_basis_orthonormal():
    gram = np.array(
        [[np.vdot(a, b) for b in PAULI_BASIS] for a in PAULI_BASIS]
    )
    np.testing.assert_allclose(gram, np.eye(16), atol=1e-14)


def test_pauli_basis_indexing():
    # k = 4*i + j indexes sigma_{1i} sigma_{2j} / 2
    for i in range(4):
        for j in range(4):
            np.testing.assert_allclose(
                PAULI_BASIS[4 * i + j], two_qubit_pauli(i, j) / 2.0, atol=0
            )


def test_tau_basis_orthonormal_and_hermitian():
    gram = np.array([[np.vdot(a, b) for b in TAU_BASIS] for a in TAU_BASIS])
    np.testing.assert_allclose(gram, np.eye(16), atol=1e-14)
    for t in TAU_BASIS:
        assert qmath.is_hermitian(t)
    # the first tau element is the normalized identity component
    np.testing.assert_allclose(TAU_BASIS[0], np.eye(4) / 2.0, atol=1e-15)


def test_expand_assemble_round_trip():
    for seed in range(10):
        rho = random_density(seed).matrix
        coeffs = pauli_expand(rho)
        np.testing.assert_allclose(pauli_assemble(coeffs), rho, atol=1e-14)
        m = tau_expand(rho)
        rebuilt = np.einsum("k,kij->ij", m, TAU_BASIS)
        np.testing.assert_allclose(rebuilt, rho, atol=1e-14)
        # Parseval: both expansions preserve the Frobenius norm
        fro2 = float(np.sum(np.abs(rho) ** 2))
        np.testing.assert_allclose(np.sum(coeffs**2), fro2, atol=1e-13)
        np.testing.assert_allclose(np.sum(m**2), fro2, atol=1e-13)


def test_expand_rejects_non_hermitian():
    bad = np.zeros((4, 4), dtype=complex)
    bad[0, 1] = 1.0
    with pytest.raises(ValueError):
        pauli_expand(bad)
    with pytest.raises(ValueError):
        tau_expand(bad)


@pytest.mark.parametrize("expand", [tau_expand, pauli_expand], ids=lambda f: f.__name__)
def test_expansion_of_a_stack_is_the_expansion_of_each_matrix(expand):
    kets = constrained_random_kets(1000)
    stack = np.einsum("na,nb->nab", kets, kets.conj())
    each = np.array([expand(m) for m in stack])
    np.testing.assert_array_equal(expand(stack), each)  # bit for bit
    np.testing.assert_array_equal(expand(stack.reshape(10, 100, 4, 4)), each.reshape(10, 100, 16))
    with pytest.raises(ValueError, match="not Hermitian"):
        expand(np.concatenate([stack, [np.triu(np.ones((4, 4)))]]))
    with pytest.raises(ValueError, match="4x4"):
        expand(np.ones((4, 3)))
    assert expand(np.zeros((0, 4, 4))).shape == (0, 16)  # an empty stack is Hermitian


def test_density_trace_is_first_pauli_coefficient():
    # tr(rho) = 2 * c_0 because D_0 = I/2
    rho = random_density(3).matrix
    assert abs(pauli_expand(rho)[0] - 0.5) < 1e-14


def test_pure_state_canonical_phase_and_eq():
    a = PureState.from_amplitudes([0.0, 1.0, -1.0, 0.0])
    b = PureState.from_amplitudes(np.exp(1j * 0.7) * np.array([0.0, 1.0, -1.0, 0.0]))
    assert a == b
    np.testing.assert_allclose(a.amplitudes, b.amplitudes, atol=1e-15)
    assert a != UP_UP


def test_pure_state_norm_validation():
    with pytest.raises(ValueError):
        PureState(np.array([1.0, 1.0, 0.0, 0.0]))
    with pytest.raises(ValueError):
        PureState.from_amplitudes([0.0, 0.0, 0.0, 0.0])


def test_projector_and_overlap():
    p = SINGLET.projector()
    np.testing.assert_allclose(p @ p, p, atol=1e-15)
    np.testing.assert_allclose(np.trace(p), 1.0, atol=1e-15)
    assert abs(np.vdot(SINGLET.amplitudes, TRIPLET_ZERO.amplitudes)) < 1e-15
    assert abs(abs(np.vdot(UP_DOWN.amplitudes, SINGLET.amplitudes)) ** 2 - 0.5) < 1e-15


def test_kron_state():
    s = kron_state([1.0, 0.0], [0.0, 1.0])
    assert s == UP_DOWN


def test_check_density_matrix_rejections():
    with pytest.raises(ValueError):
        check_density_matrix(np.eye(4))  # trace 4
    with pytest.raises(ValueError):
        check_density_matrix(np.diag([1.5, -0.5, 0.0, 0.0]))  # not PSD
    bad = np.eye(4, dtype=complex) / 4
    bad[0, 1] = 0.3
    with pytest.raises(ValueError):
        check_density_matrix(bad)  # not Hermitian


def test_density_matrix_frozen():
    dm = DensityMatrix(np.eye(4) / 4.0)
    with pytest.raises(ValueError):
        dm.matrix[0, 0] = 1.0  # write-locked


def test_fidelity_oracles():
    # orthogonal pure states: 0; identical: 1; pure vs maximally mixed: 1/2
    assert state_fidelity(UP_UP.projector(), DOWN_DOWN.projector()) < 1e-12
    assert abs(state_fidelity(SINGLET.projector(), SINGLET.projector()) - 1.0) < 1e-12
    f = state_fidelity(SINGLET.projector(), np.eye(4) / 4.0)
    np.testing.assert_allclose(f, 0.5, atol=1e-12)
    # pure-pure fidelity equals |overlap|
    for seed in range(5):
        a, b = random_pure(2 * seed), random_pure(2 * seed + 1)
        f = state_fidelity(a.projector(), b.projector())
        np.testing.assert_allclose(f, abs(np.vdot(a.amplitudes, b.amplitudes)), atol=1e-9)


def test_trace_distance_oracles():
    assert trace_distance(UP_UP.projector(), UP_UP.projector()) < 1e-15
    np.testing.assert_allclose(
        trace_distance(UP_UP.projector(), DOWN_DOWN.projector()), 1.0, atol=1e-14
    )
    # Fuchs-van de Graaf: 1 - F <= T <= sqrt(1 - F^2)
    for seed in range(5):
        a = random_density(seed + 50)
        b = random_density(seed + 90)
        t = trace_distance(a, b)
        f = state_fidelity(a, b)
        assert 1.0 - f <= t + 1e-10
        assert t <= np.sqrt(1.0 - f * f) + 1e-10


def test_stream_determinism_and_independence():
    a1 = stream("shots", 1, 2, 3).random(8)
    a2 = stream("shots", 1, 2, 3).random(8)
    np.testing.assert_array_equal(a1, a2)
    b = stream("shots", 1, 2, 4).random(8)
    assert np.max(np.abs(a1 - b)) > 1e-6
    # creation order does not matter
    g1 = stream("a", 0)
    g2 = stream("b", 0)
    x = g2.random()
    y = stream("b", 0).random()
    assert x == y
    del g1


def test_stream_is_philox_keyed_by_the_path_hash_without_os_entropy(monkeypatch):
    import hashlib

    import numpy.random.bit_generator as bit_generator

    key = np.frombuffer(hashlib.sha256(b"shots/1/2").digest()[:16], dtype=np.uint64)
    expected = np.random.Philox(key=key)
    # Philox(key=...) seeds a throwaway SeedSequence from OS entropy; stream does not
    monkeypatch.setattr(bit_generator, "randbits", lambda *args: pytest.fail("OS entropy"))
    rng = stream("shots", 1, 2)
    assert repr(rng.bit_generator.state) == repr(expected.state)  # key, counter 0
    np.testing.assert_array_equal(rng.random(16), np.random.Generator(expected).random(16))


def test_random_density_ranks():
    for rank in (1, 2, 3, 4):
        dm = random_density(7, rank)
        vals = np.linalg.eigvalsh(dm.matrix)
        assert np.sum(vals > 1e-10) == rank
    with pytest.raises(ValueError):
        random_density(0, 5)


def test_random_pure_uniform_phase_convention():
    for seed in range(5):
        s = random_pure(seed)
        np.testing.assert_allclose(np.linalg.norm(s.amplitudes), 1.0, atol=1e-12)

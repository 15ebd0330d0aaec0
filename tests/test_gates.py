"""Native gate set: closed forms vs matrix-exponential oracles."""

import numpy as np
import pytest

from spintomo.gates import (
    Circuit,
    Gate,
    GateKind,
    circuit_apply,
    evolve_projector,
    gate_matrix,
    generator,
)
from spintomo.qmath import (
    SINGLET,
    TRIPLET_ZERO,
    UP_DOWN,
    DOWN_UP,
    UP_UP,
    pauli_assemble,
    two_qubit_pauli,
)

ANGLES = [0.0, 0.3, np.pi / 4, np.pi / 2, 1.0, np.pi, -2.2, 7.0]


def _generator(kind: GateKind) -> np.ndarray:
    """Hermitian G with gate = exp(i * angle * G), built independently."""
    if kind == GateKind.EXCHANGE_PULSE:
        return SINGLET.projector()
    if kind == GateKind.Z_ROT_QUBIT1:
        return two_qubit_pauli(3, 0)
    if kind == GateKind.Z_ROT_QUBIT2:
        return two_qubit_pauli(0, 3)
    if kind == GateKind.Z_ROT_BOTH:
        return two_qubit_pauli(3, 0) + two_qubit_pauli(0, 3)
    if kind == GateKind.GRADIENT_Z:
        return (two_qubit_pauli(3, 0) - two_qubit_pauli(0, 3)) / 4.0
    if kind == GateKind.ESR_X_QUBIT1:
        return two_qubit_pauli(1, 0)
    raise AssertionError(kind)


def _expm_i(angle: float, h: np.ndarray) -> np.ndarray:
    """exp(i angle H) for Hermitian H from its spectral decomposition."""
    vals, vecs = np.linalg.eigh(h)
    return (vecs * np.exp(1j * angle * vals)) @ vecs.conj().T


@pytest.mark.parametrize("kind", list(GateKind))
def test_gate_matches_matrix_exponential(kind):
    for angle in ANGLES:
        expected = _expm_i(angle, _generator(kind))
        np.testing.assert_allclose(gate_matrix(kind, angle), expected, atol=1e-13)


@pytest.mark.parametrize("kind", list(GateKind))
def test_gate_unitarity(kind):
    for angle in ANGLES:
        u = gate_matrix(kind, angle)
        np.testing.assert_allclose(u.conj().T @ u, np.eye(4), atol=1e-13)


@pytest.mark.parametrize("kind", list(GateKind))
def test_generator_table_matches_independent_oracle(kind):
    h = generator(kind)
    np.testing.assert_array_equal(h, _generator(kind))
    assert not h.flags.writeable


def test_exchange_special_points():
    # pi pulse area: SWAP; 2 pi: identity up to the singlet phase e^{2 pi i} = 1
    swap = gate_matrix(GateKind.EXCHANGE_PULSE, np.pi)
    assert circuit_apply(Circuit((Gate(GateKind.EXCHANGE_PULSE, np.pi),)), UP_DOWN) == DOWN_UP
    np.testing.assert_allclose(swap @ swap, np.eye(4), atol=1e-14)
    np.testing.assert_allclose(
        gate_matrix(GateKind.EXCHANGE_PULSE, 2 * np.pi), np.eye(4), atol=1e-14
    )
    # half pulse squares to SWAP (entangling square root)
    half = gate_matrix(GateKind.EXCHANGE_PULSE, np.pi / 2)
    np.testing.assert_allclose(half @ half, swap, atol=1e-14)


def test_exchange_eigenstructure():
    # singlet picks up e^{i phi}; triplet sector untouched
    phi = 0.77
    u = gate_matrix(GateKind.EXCHANGE_PULSE, phi)
    np.testing.assert_allclose(
        u @ SINGLET.amplitudes, np.exp(1j * phi) * SINGLET.amplitudes, atol=1e-14
    )
    np.testing.assert_allclose(u @ TRIPLET_ZERO.amplitudes, TRIPLET_ZERO.amplitudes, atol=1e-14)
    np.testing.assert_allclose(u @ UP_UP.amplitudes, UP_UP.amplitudes, atol=1e-15)


def test_esr_rotates_first_qubit_only():
    u = gate_matrix(GateKind.ESR_X_QUBIT1, np.pi / 2)
    # angle pi/2 in exp(i theta sigma_x) maps |u> -> i|d> on qubit 1
    out = u @ UP_UP.amplitudes
    np.testing.assert_allclose(out, 1j * DOWN_UP.amplitudes, atol=1e-14)


def test_gate_angle_validation_and_records():
    with pytest.raises(ValueError):
        Gate(GateKind.EXCHANGE_PULSE, np.nan)
    g = Gate(GateKind.GRADIENT_Z, 0.25)
    rec = g.to_record()
    assert rec == {"kind": "gradient_z", "angle_radians": 0.25}
    # string kinds are coerced
    assert Gate("exchange_pulse", 1.0).kind is GateKind.EXCHANGE_PULSE


def test_circuit_order_and_adjoint():
    a = Gate(GateKind.ESR_X_QUBIT1, np.pi / 4)
    b = Gate(GateKind.EXCHANGE_PULSE, np.pi / 2)
    c = Circuit((a, b))
    # leftmost acts first: U = U_b U_a
    u = c.unitary()
    np.testing.assert_allclose(
        u, gate_matrix(b.kind, b.angle) @ gate_matrix(a.kind, a.angle), atol=1e-15
    )
    np.testing.assert_allclose(c.adjoint().unitary(), u.conj().T, atol=1e-13)
    np.testing.assert_allclose(c.adjoint().unitary() @ u, np.eye(4), atol=1e-13)


def test_circuit_records_round_trip_and_esr_count():
    c = Circuit(
        (
            Gate(GateKind.GRADIENT_Z, np.pi / 2),
            Gate(GateKind.ESR_X_QUBIT1, np.pi / 4),
            Gate(GateKind.Z_ROT_BOTH, -np.pi / 4),
        )
    )
    assert c.esr_gate_count() == 1
    records = c.to_records()
    assert [r["kind"] for r in records] == ["gradient_z", "esr_x_qubit1", "z_rot_both"]
    again = Circuit(tuple(Gate(r["kind"], r["angle_radians"]) for r in records))
    assert again == c


def test_circuit_rejects_non_gate_entries():
    with pytest.raises(TypeError):
        Circuit((1, 2))


def test_evolve_projector_checks_and_action():
    u = gate_matrix(GateKind.EXCHANGE_PULSE, np.pi)
    p = evolve_projector(u, UP_DOWN.projector())
    np.testing.assert_allclose(p, DOWN_UP.projector(), atol=1e-14)
    with pytest.raises(ValueError):
        evolve_projector(np.eye(4) * 2.0, UP_DOWN.projector())
    half = gate_matrix(GateKind.EXCHANGE_PULSE, np.pi / 2)
    with pytest.raises(ValueError):
        evolve_projector(u, half)  # the pi/2 pulse unitary is not Hermitian


def test_exchange_conjugation_closed_form():
    # e^{i phi P_S} P_ud e^{-i phi P_S} in the Pauli basis
    for phi in (0.0, np.pi / 4, np.pi / 2, np.pi, 1.3):
        u = gate_matrix(GateKind.EXCHANGE_PULSE, phi)
        got = evolve_projector(u, UP_DOWN.projector())
        coeffs = np.zeros(16)
        coeffs[0] = 0.5  # I / 4
        coeffs[15] = -0.5  # - z z / 4
        coeffs[12] = 0.5 * np.cos(phi)  # + cos * z1 / 4
        coeffs[3] = -0.5 * np.cos(phi)  # - cos * z2 / 4
        coeffs[6] = 0.5 * np.sin(phi)  # + sin * x y / 4
        coeffs[9] = -0.5 * np.sin(phi)  # - sin * y x / 4
        np.testing.assert_allclose(got, pauli_assemble(coeffs), atol=1e-14)


def test_gradient_conjugation_closed_form():
    # e^{i v/4 (z1 - z2)} P_S e^{-i v/4 (z1 - z2)} in the Pauli basis
    for v in (0.0, np.pi / 4, np.pi / 2, np.pi, -0.9):
        u = gate_matrix(GateKind.GRADIENT_Z, v)
        got = evolve_projector(u, SINGLET.projector())
        coeffs = np.zeros(16)
        coeffs[0] = 0.5
        coeffs[15] = -0.5
        coeffs[5] = -0.5 * np.cos(v)  # - cos * x x / 4
        coeffs[10] = -0.5 * np.cos(v)  # - cos * y y / 4
        coeffs[6] = -0.5 * np.sin(v)  # - sin * x y / 4
        coeffs[9] = 0.5 * np.sin(v)  # + sin * y x / 4
        np.testing.assert_allclose(got, pauli_assemble(coeffs), atol=1e-14)


def test_gradient_half_period_turns_singlet_into_triplet0():
    u = gate_matrix(GateKind.GRADIENT_Z, np.pi)
    got = evolve_projector(u, SINGLET.projector())
    np.testing.assert_allclose(got, TRIPLET_ZERO.projector(), atol=1e-14)

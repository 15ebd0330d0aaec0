"""Native gate set: the readout pass against forward-unitary oracles.

The package runs a circuit only as the readout conjugation U^dag B U of
``average_readouts``; with no noise that is exact, and these tests check
it against the gate matrices exp(i angle H) of ``support.unitary``.
"""

import dataclasses
import json

import numpy as np
import pytest

from spintomo.cli import cmd_quorum
from spintomo.gates import (
    Circuit,
    Gate,
    GateKind,
    NoiseModel,
    _kind_tables,
    average_readouts,
    generator,
    readout_steps,
)
from spintomo.qmath import (
    SINGLET,
    TRIPLET_ZERO,
    UP_DOWN,
    DOWN_UP,
    UP_UP,
    pauli_assemble,
    random_density,
    two_qubit_pauli,
)
from spintomo.quorum import mub_preparations

from support import oracle_generator, unitary

ANGLES = [0.0, 0.3, np.pi / 4, np.pi / 2, 1.0, np.pi, -2.2, 7.0]
#: unit-trace Hermitian readouts to conjugate, of ranks 1 to 4
BASES = np.stack([random_density(40 + r, r).matrix for r in (1, 2, 3, 4)])


def readout(gates, bases) -> np.ndarray:
    """The zero-noise readout U^dag B U of the circuit of ``gates`` (leftmost
    first) on each operator of a stack, or on one operator."""
    bases = np.asarray(bases, dtype=np.complex128)
    stack = bases.reshape(-1, 4, 4)
    circuits = [Circuit(tuple(gates))] * len(stack)
    out = average_readouts(readout_steps(circuits), stack, ["b"] * len(stack), NoiseModel())
    return out.reshape(bases.shape)


def conjugated(u, bases) -> np.ndarray:
    """U^dag B U for each operator of a stack."""
    return u.conj().T @ bases @ u


@pytest.mark.parametrize("kind", list(GateKind))
def test_gate_matches_matrix_exponential(kind):
    # one gate: the readout pass equals conjugation by the oracle's exp(i a H)
    for angle in ANGLES:
        got = readout([Gate(kind, angle)], BASES)
        np.testing.assert_allclose(got, conjugated(unitary(kind, angle), BASES), atol=1e-13)


@pytest.mark.parametrize("kind", list(GateKind))
def test_gate_unitarity(kind):
    # a unitary conjugation keeps every Hilbert-Schmidt product tr(A B)
    gram = np.einsum("iab,jba->ij", BASES, BASES)
    for angle in ANGLES:
        got = readout([Gate(kind, angle)], BASES)
        np.testing.assert_allclose(np.einsum("iab,jba->ij", got, got), gram, atol=1e-13)


@pytest.mark.parametrize("kind", list(GateKind))
def test_generator_table_matches_independent_oracle(kind):
    h = generator(kind)
    np.testing.assert_array_equal(h, oracle_generator(kind))
    assert not h.flags.writeable
    # the kind tables hold eigh of the same read-only constant
    lam, vecs = np.linalg.eigh(h)
    tables = [table[list(GateKind).index(kind)] for table in _kind_tables()]
    for got, fresh in zip(tables, (lam[None, :] - lam[:, None], vecs, vecs.conj().T), strict=True):
        np.testing.assert_array_equal(got, fresh)
        assert not got.flags.writeable


@pytest.mark.parametrize("circuits", [
    [Circuit((Gate(kind, 0.3 * (i + 1)),)) for i, kind in enumerate(GateKind)],
    [prep.measurement_circuit() for prep in mub_preparations()],
], ids=["one_gate_of_each_kind", "mub_readouts"])
def test_readout_steps_gather_each_gates_own_tables(circuits):
    # the tables gathered by kind equal, bit for bit, the ones a gate by
    # gate eigh of each generator makes, and every array is read-only
    steps = readout_steps(circuits)
    assert len(steps) == max(len(c.gates) for c in circuits)
    for pos, step in enumerate(steps):
        rows = [i for i, c in enumerate(circuits) if len(c.gates) > pos]
        gates = [circuits[i].gates[-1 - pos] for i in rows]
        eighs = [np.linalg.eigh(generator(g.kind)) for g in gates]
        expected = (
            rows,
            [list(GateKind).index(g.kind) for g in gates],
            [g.angle for g in gates],
            np.stack([lam[None, :] - lam[:, None] for lam, _ in eighs]),
            np.stack([vecs for _, vecs in eighs]),
            np.stack([vecs.conj().T for _, vecs in eighs]),
        )
        arrays = [getattr(step, f.name) for f in dataclasses.fields(step)]
        for got, want in zip(arrays, expected, strict=True):
            assert np.array_equal(got, want)
            assert not got.flags.writeable


def test_exchange_special_points():
    # pi pulse area: SWAP, which exchanges |ud> and |du>; 2 pi: identity
    swap = Gate(GateKind.EXCHANGE_PULSE, np.pi)
    np.testing.assert_allclose(readout([swap], UP_DOWN), DOWN_UP,
                               atol=1e-14)
    np.testing.assert_allclose(readout([swap, swap], BASES), BASES, atol=1e-14)
    np.testing.assert_allclose(readout([Gate(GateKind.EXCHANGE_PULSE, 2 * np.pi)], BASES),
                               BASES, atol=1e-14)
    # two half pulses make SWAP (the entangling square root)
    half = Gate(GateKind.EXCHANGE_PULSE, np.pi / 2)
    np.testing.assert_allclose(readout([half, half], BASES), readout([swap], BASES), atol=1e-14)


def test_exchange_eigenstructure():
    # the singlet and the triplets are eigenstates: their readouts stay put
    for base in (SINGLET, TRIPLET_ZERO, UP_UP):
        got = readout([Gate(GateKind.EXCHANGE_PULSE, 0.77)], base)
        np.testing.assert_allclose(got, base, atol=1e-14)


def test_esr_rotates_first_qubit_only():
    # angle pi/2 in exp(i theta sigma_x) flips qubit 1: |u> -> i|d>, so the
    # readout of |du> becomes that of |uu>
    flip = Gate(GateKind.ESR_X_QUBIT1, np.pi / 2)
    np.testing.assert_allclose(readout([flip], DOWN_UP), UP_UP,
                               atol=1e-14)
    # every readout of qubit 2 alone is untouched, at any angle
    for i in range(4):
        local = (np.eye(4) + two_qubit_pauli(0, i)) / 4.0 if i else np.eye(4) / 4.0
        for angle in ANGLES:
            got = readout([Gate(GateKind.ESR_X_QUBIT1, angle)], local)
            np.testing.assert_allclose(got, local, atol=1e-14)


def _circuit_records() -> list:
    """The circuits.json records that ``spintomo quorum`` writes for the MUB."""
    return json.loads(cmd_quorum({"name": "mub"})["circuits.json"])["circuits"]


def test_gate_angle_validation_and_records(capsys):
    with pytest.raises(ValueError):
        Gate(GateKind.EXCHANGE_PULSE, np.nan)
    # string kinds are coerced
    assert Gate("exchange_pulse", 1.0).kind is GateKind.EXCHANGE_PULSE
    # a gate's record is its kind's name and its angle as a float
    assert _circuit_records()[9]["gates"] == [
        {"kind": "gradient_z", "angle_radians": np.pi / 2},
        {"kind": "esr_x_qubit1", "angle_radians": np.pi / 4},
    ]


def test_circuit_order_and_adjoint():
    a = Gate(GateKind.ESR_X_QUBIT1, np.pi / 4)
    b = Gate(GateKind.EXCHANGE_PULSE, np.pi / 2)
    c = Circuit((a, b))
    # leftmost acts first: U = U_b U_a
    u = unitary(b.kind, b.angle) @ unitary(a.kind, a.angle)
    got = readout(c.gates, BASES)
    np.testing.assert_allclose(got, conjugated(u, BASES), atol=1e-14)
    assert np.max(np.abs(got - readout((b, a), BASES))) > 0.1  # the order matters
    # the adjoint circuit undoes the circuit, and its unitary is U^dag
    np.testing.assert_allclose(readout(c.adjoint().gates, got), BASES, atol=1e-14)
    np.testing.assert_allclose(readout(c.adjoint().gates, BASES), conjugated(u.conj().T, BASES),
                               atol=1e-14)


def test_circuit_records_round_trip_and_esr_count(capsys):
    c = Circuit(
        (
            Gate(GateKind.GRADIENT_Z, np.pi / 2),
            Gate(GateKind.ESR_X_QUBIT1, np.pi / 4),
            Gate(GateKind.Z_ROT_BOTH, -np.pi / 4),
        )
    )
    assert c.esr_gate_count() == 1
    # every circuit record rebuilds its preparation circuit exactly
    records = _circuit_records()
    for rec, prep in zip(records, mub_preparations(), strict=True):
        again = Circuit(tuple(Gate(r["kind"], r["angle_radians"]) for r in rec["gates"]))
        assert again == prep.circuit
        assert rec["esr_gate_count"] == prep.circuit.esr_gate_count()
    assert mub_preparations()[12].circuit == c  # P13, whose record the loop rebuilt


def test_circuit_rejects_non_gate_entries():
    with pytest.raises(TypeError):
        Circuit((1, 2))


def test_exchange_conjugation_closed_form():
    # e^{i phi P_S} P_ud e^{-i phi P_S} in the Pauli basis: the readout of
    # the one-gate circuit of angle -phi
    for phi in (0.0, np.pi / 4, np.pi / 2, np.pi, 1.3):
        got = readout([Gate(GateKind.EXCHANGE_PULSE, -phi)], UP_DOWN)
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
        got = readout([Gate(GateKind.GRADIENT_Z, -v)], SINGLET)
        coeffs = np.zeros(16)
        coeffs[0] = 0.5
        coeffs[15] = -0.5
        coeffs[5] = -0.5 * np.cos(v)  # - cos * x x / 4
        coeffs[10] = -0.5 * np.cos(v)  # - cos * y y / 4
        coeffs[6] = -0.5 * np.sin(v)  # - sin * x y / 4
        coeffs[9] = 0.5 * np.sin(v)  # + sin * y x / 4
        np.testing.assert_allclose(got, pauli_assemble(coeffs), atol=1e-14)


def test_gradient_half_period_turns_singlet_into_triplet0():
    got = readout([Gate(GateKind.GRADIENT_Z, np.pi)], SINGLET)
    np.testing.assert_allclose(got, TRIPLET_ZERO, atol=1e-14)

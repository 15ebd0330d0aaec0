"""Fixtures that several test modules share.

``random_pure`` draws test states; ``unitary`` is the gate exp(i a H)
as a matrix, the forward oracle that the readout pass is checked
against; ``mle_seed`` and ``singlet_levels`` reach into the shipping
code the way its callers do, so that a test can check a closed form
against the path the CLI runs.
"""

import numpy as np

from spintomo.dotmodel import hamiltonian6
from spintomo.gates import GateKind
from spintomo.qmath import SINGLET, PureState, stream, two_qubit_pauli
from spintomo.reconstruct import (
    _SEED_EIGENVALUE_FLOOR,
    _clip_renormalize,
    _hermitian_eigh,
    _lower_square_root,
)

#: S(1,1), S(2,0) and S(0,2) as columns, in the basis order of hamiltonian6
SINGLET_SECTOR = np.zeros((6, 3))
SINGLET_SECTOR[[1, 2], 0] = np.array([1.0, -1.0]) / np.sqrt(2.0)
SINGLET_SECTOR[4, 1] = SINGLET_SECTOR[5, 2] = 1.0

#: the (1,1) triplet T0, in the same basis
TRIPLET_ZERO_6 = np.array([0.0, 1.0, 1.0, 0.0, 0.0, 0.0]) / np.sqrt(2.0)


def random_pure(seed: int) -> PureState:
    """Haar-random two-qubit pure state."""
    rng = stream("random-pure", seed)
    g = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    return PureState.from_amplitudes(g)


def oracle_generator(kind: GateKind) -> np.ndarray:
    """Hermitian H with gate = exp(i * angle * H), built apart from the
    package's generator table."""
    z1, z2 = two_qubit_pauli(3, 0), two_qubit_pauli(0, 3)
    return {
        GateKind.EXCHANGE_PULSE: SINGLET.projector(),
        GateKind.Z_ROT_QUBIT1: z1,
        GateKind.Z_ROT_QUBIT2: z2,
        GateKind.Z_ROT_BOTH: z1 + z2,
        GateKind.GRADIENT_Z: (z1 - z2) / 4.0,
        GateKind.ESR_X_QUBIT1: two_qubit_pauli(1, 0),
    }[GateKind(kind)]


def unitary(kind: GateKind, angle: float) -> np.ndarray:
    """The gate exp(i angle H) as a matrix, from the spectral decomposition
    of ``oracle_generator``: a forward oracle for the readout pass."""
    vals, vecs = np.linalg.eigh(oracle_generator(kind))
    return (vecs * np.exp(1j * angle * vals)) @ vecs.conj().T


def mle_seed(rho_linear: np.ndarray) -> np.ndarray:
    """The ascent's starting T for a linear estimate, built as
    ``mle_from_frequencies`` builds it."""
    vals, vecs = _hermitian_eigh(rho_linear)
    return _lower_square_root(_clip_renormalize(vals, vecs, _SEED_EIGENVALUE_FLOOR))


def singlet_levels(p) -> np.ndarray:
    """Ascending eigenvalues of hamiltonian6 compressed onto the singlet sector."""
    return np.linalg.eigvalsh(SINGLET_SECTOR.T @ hamiltonian6(p) @ SINGLET_SECTOR)


def exchange_splitting(p) -> float:
    """E(T0) - E(S): T0 and the singlet sector by compression of hamiltonian6,
    not by eigenvector weight, which mixes near-degenerate levels."""
    e_t0 = float((TRIPLET_ZERO_6 @ hamiltonian6(p) @ TRIPLET_ZERO_6).real)
    return e_t0 - float(singlet_levels(p)[0])

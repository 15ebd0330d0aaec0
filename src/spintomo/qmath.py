"""Operator algebra on the two-qubit Hilbert space.

Matrices live in the product basis (uu, ud, du, dd).  Two orthonormal
Hermitian operator bases are provided: the normalized two-qubit Pauli
products D_k = sigma_{1i} sigma_{2j} / 2 with k = 4*i + j, and an
alternative basis (tau) adapted to states whose overlap with |uu> is
exactly 1/4, on which ``spintomo verify`` checks the paper's tau
identities.  Both are orthonormal under the Frobenius scalar product
tr(A^dag B).

States are complex (4, 4) arrays, checked by ``check_density_matrix``
where they enter; the named states are read-only projectors.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass

import numpy as np

HERMITIAN_ATOL = 1e-12
TRACE_ATOL = 1e-12
PSD_SLACK = 1e-10

#: single-qubit Pauli matrices, index order (1, x, y, z)
SIGMA = np.array(
    [
        [[1, 0], [0, 1]],
        [[0, 1], [1, 0]],
        [[0, -1j], [1j, 0]],
        [[1, 0], [0, -1]],
    ],
    dtype=np.complex128,
)


def two_qubit_pauli(i: int, j: int) -> np.ndarray:
    """Unnormalized product sigma_{1i} sigma_{2j} as a 4x4 matrix."""
    return np.kron(SIGMA[i], SIGMA[j])


def _build_pauli_basis() -> np.ndarray:
    basis = np.empty((16, 4, 4), dtype=np.complex128)
    for i in range(4):
        for j in range(4):
            basis[4 * i + j] = two_qubit_pauli(i, j) / 2.0
    return basis


#: orthonormal basis D_k = sigma_{1i} sigma_{2j} / 2, k = 4*i + j
PAULI_BASIS = _build_pauli_basis()
PAULI_BASIS.setflags(write=False)

# tau basis expressed as sparse combinations of D_k: (normalizer, {k: weight})
_TAU_TABLE = [
    (1.0, {0: 1}),
    (np.sqrt(3.0), {3: 1, 12: 1, 15: 1}),
    (np.sqrt(2.0), {4: 1, 7: 1}),
    (np.sqrt(2.0), {1: 1, 13: 1}),
    (np.sqrt(2.0), {8: 1, 11: 1}),
    (np.sqrt(2.0), {2: 1, 14: 1}),
    (np.sqrt(2.0), {5: 1, 10: -1}),
    (np.sqrt(2.0), {6: 1, 9: 1}),
    (np.sqrt(2.0), {4: 1, 7: -1}),
    (np.sqrt(2.0), {1: 1, 13: -1}),
    (np.sqrt(2.0), {8: 1, 11: -1}),
    (np.sqrt(2.0), {2: 1, 14: -1}),
    (np.sqrt(2.0), {5: 1, 10: 1}),
    (np.sqrt(2.0), {6: 1, 9: -1}),
    (np.sqrt(2.0), {12: 1, 3: -1}),
    (np.sqrt(6.0), {12: 1, 3: 1, 15: -2}),
]


def _build_tau_basis() -> np.ndarray:
    basis = np.zeros((16, 4, 4), dtype=np.complex128)
    for row, (norm, terms) in enumerate(_TAU_TABLE):
        for k, weight in terms.items():
            basis[row] += weight * PAULI_BASIS[k]
        basis[row] /= norm
    return basis


#: orthonormal basis adapted to the |uu>-overlap-1/4 family of projectors
TAU_BASIS = _build_tau_basis()
TAU_BASIS.setflags(write=False)


def is_hermitian(m: np.ndarray) -> bool:
    """Whether a matrix, or each of a stack (..., n, n), is Hermitian within HERMITIAN_ATOL."""
    m = np.asarray(m)
    return bool(np.max(np.abs(m - np.swapaxes(m.conj(), -1, -2)), initial=0.0) <= HERMITIAN_ATOL)


def pauli_expand(m: np.ndarray) -> np.ndarray:
    """D coefficients of a Hermitian matrix (16 reals) or of a stack (..., 4, 4) at once;
    ValueError unless Hermitian within HERMITIAN_ATOL, else there are none."""
    m = np.asarray(m, dtype=np.complex128)
    if m.ndim < 2 or m.shape[-2:] != (4, 4):
        raise ValueError("expected a 4x4 matrix or a stack of them")
    if not is_hermitian(m):
        raise ValueError("matrix is not Hermitian within tolerance")
    return np.einsum("kij,...ji->...k", PAULI_BASIS, m).real.copy()


def pauli_assemble(coeffs: np.ndarray) -> np.ndarray:
    """Matrix sum_k coeffs[k] D_k from 16 real coefficients."""
    coeffs = np.asarray(coeffs, dtype=np.float64)
    if coeffs.shape != (16,):
        raise ValueError("expected 16 coefficients")
    return np.einsum("k,kij->ij", coeffs, PAULI_BASIS)


def ket_projector(amplitudes) -> np.ndarray:
    """Read-only projector |a><a| of a nonzero 4-amplitude ket, normalised."""
    amps = np.asarray(amplitudes, dtype=np.complex128)
    # normalised twice, as the pinned outputs were recorded: a single pass
    # leaves the last bits of the singlet and T0 projectors different
    for _ in range(2):
        amps = amps / np.linalg.norm(amps)
    out = np.outer(amps, np.conj(amps))
    out.setflags(write=False)
    return out


UP = np.array([1.0, 0.0])
DOWN = np.array([0.0, 1.0])
UP_X = np.array([1.0, 1.0]) / np.sqrt(2.0)
UP_Y = np.array([1.0, 1.0j]) / np.sqrt(2.0)
DOWN_Y = np.array([1.0, -1.0j]) / np.sqrt(2.0)

#: projectors of the named two-qubit states
UP_UP = ket_projector(np.kron(UP, UP))
UP_DOWN = ket_projector(np.kron(UP, DOWN))
DOWN_UP = ket_projector(np.kron(DOWN, UP))
DOWN_DOWN = ket_projector(np.kron(DOWN, DOWN))
SINGLET = ket_projector([0.0, 1.0, -1.0, 0.0])
TRIPLET_ZERO = ket_projector([0.0, 1.0, 1.0, 0.0])


def check_density_matrix(m: np.ndarray) -> np.ndarray:
    """Validate a 4x4 density matrix, or a stack of them of shape
    (..., 4, 4), returning it as complex128.

    Requires of every matrix Hermiticity within 1e-12, unit trace within
    1e-12 and eigenvalues above -PSD_SLACK.
    """
    m = np.asarray(m, dtype=np.complex128)
    if m.ndim < 2 or m.shape[-2:] != (4, 4):
        raise ValueError("expected a 4x4 matrix or a stack of them")
    if not is_hermitian(m):
        raise ValueError("density matrix is not Hermitian")
    dev = np.max(np.abs(np.trace(m, axis1=-2, axis2=-1).real - 1.0))
    if dev > TRACE_ATOL:
        raise ValueError(f"density matrix trace differs from 1 by {dev!r}")
    lo = np.min(np.linalg.eigvalsh(m))
    if lo < -PSD_SLACK:
        raise ValueError(f"density matrix has eigenvalue {lo!r} below -{PSD_SLACK}")
    return m


@dataclass(frozen=True)
class DensityMatrix:
    """Validated, read-only 4x4 density matrix, as ``random_density`` returns it."""

    matrix: np.ndarray

    def __post_init__(self):
        m = check_density_matrix(self.matrix).copy()
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)


def _psd_sqrt(m: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(m)
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.conj().T


def state_fidelity(rho, sigma) -> float:
    """Uhlmann fidelity tr sqrt(sqrt(rho) sigma sqrt(rho)), in [0, 1].

    Each argument is checked as a density matrix first."""
    rho = check_density_matrix(rho)
    sigma = check_density_matrix(sigma)
    r = _psd_sqrt(rho)
    vals = np.linalg.eigvalsh(r @ sigma @ r)
    f = float(np.sum(np.sqrt(np.clip(vals, 0.0, None))))
    return min(max(f, 0.0), 1.0)


def trace_distance(rho, sigma) -> float:
    """Half the trace norm of the difference of two Hermitian operators."""
    diff = np.subtract(rho, sigma, dtype=np.complex128)
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(diff))))


def stream(*path) -> np.random.Generator:
    """Counter-based generator keyed by a hash of the given path.

    Distinct paths give statistically independent Philox streams, and a
    given path always yields the same stream: what a stream draws does
    not depend on which other streams were created before it, or in
    what order.
    """
    text = "/".join(str(p) for p in path)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    _register_philox_key()
    return np.random.Generator(np.random.Philox(_PhiloxKey(digest[:16])))


class _PhiloxKey:
    """A seed that is only a Philox key, the 16 bytes given.

    ``Philox(_PhiloxKey(b))`` has the state of ``Philox(key=k)`` for the
    two 64-bit words k of b, counter 0, and so the same draws, without
    the SeedSequence that ``Philox(key=...)`` first seeds from OS entropy
    and then discards.
    """

    __slots__ = ("key",)

    def __init__(self, key: bytes):
        self.key = np.frombuffer(key, dtype=np.uint64)

    def generate_state(self, n_words, dtype=np.uint32):
        # Philox asks for its key: two uint64 words
        return self.key


@functools.cache
def _register_philox_key() -> None:
    # on the first stream, so that importing the package loads no numpy.random
    from numpy.random.bit_generator import ISeedSequence

    ISeedSequence.register(_PhiloxKey)


def random_density(seed: int, rank: int = 4) -> DensityMatrix:
    """Random density matrix of the given rank, induced from a Ginibre block.

    rho = G G^dag / tr(G G^dag) with G a 4 x rank matrix of iid complex
    standard normals.  rank=1 gives Haar-random pure states.
    """
    if rank not in (1, 2, 3, 4):
        raise ValueError("rank must be 1..4")
    rng = stream("random-density", seed, rank)
    g = rng.standard_normal((4, rank)) + 1j * rng.standard_normal((4, rank))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    return DensityMatrix(rho)

"""Operator algebra on the two-qubit Hilbert space.

Matrices live in the product basis (uu, ud, du, dd).  Two orthonormal
Hermitian operator bases are provided: the normalized two-qubit Pauli
products D_k = sigma_{1i} sigma_{2j} / 2 with k = 4*i + j, and an
alternative basis (tau) adapted to states whose overlap with |uu> is
exactly 1/4.  Both are orthonormal under the Frobenius scalar product
tr(A^dag B).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

HERMITIAN_ATOL = 1e-12
TRACE_ATOL = 1e-12
PSD_SLACK = 1e-10
NORM_ATOL = 1e-12

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


def mat_inner(a: np.ndarray, b: np.ndarray) -> complex:
    """Frobenius scalar product tr(a^dag b)."""
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    if a.shape != (4, 4) or b.shape != (4, 4):
        raise ValueError("mat_inner expects 4x4 operands")
    return complex(np.sum(np.conj(a) * b))


def is_hermitian(m: np.ndarray, atol: float = HERMITIAN_ATOL) -> bool:
    m = np.asarray(m)
    return bool(np.max(np.abs(m - m.conj().T)) <= atol)


def pauli_expand(m: np.ndarray, atol: float = HERMITIAN_ATOL) -> np.ndarray:
    """Coefficients of a Hermitian matrix in the D basis (16 reals).

    Raises ValueError if m is not Hermitian within atol, since the
    expansion of a non-Hermitian matrix has no real coefficient vector.
    """
    m = np.asarray(m, dtype=np.complex128)
    if m.shape != (4, 4):
        raise ValueError("expected a 4x4 matrix")
    if not is_hermitian(m, atol):
        raise ValueError("matrix is not Hermitian within tolerance")
    return np.einsum("kij,ji->k", PAULI_BASIS, m).real.copy()


def pauli_assemble(coeffs: np.ndarray) -> np.ndarray:
    """Matrix sum_k coeffs[k] D_k from 16 real coefficients."""
    coeffs = np.asarray(coeffs, dtype=np.float64)
    if coeffs.shape != (16,):
        raise ValueError("expected 16 coefficients")
    return np.einsum("k,kij->ij", coeffs, PAULI_BASIS)


def tau_expand(m: np.ndarray, atol: float = HERMITIAN_ATOL) -> np.ndarray:
    """Coefficients of a Hermitian matrix in the tau basis (16 reals)."""
    m = np.asarray(m, dtype=np.complex128)
    if m.shape != (4, 4):
        raise ValueError("expected a 4x4 matrix")
    if not is_hermitian(m, atol):
        raise ValueError("matrix is not Hermitian within tolerance")
    return np.einsum("kij,ji->k", TAU_BASIS, m).real.copy()


def _frozen_copy(arr: np.ndarray, dtype=np.complex128) -> np.ndarray:
    out = np.array(arr, dtype=dtype, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class PureState:
    """Normalized two-qubit state vector with a canonical global phase.

    The first amplitude of modulus > 1e-12 is rotated to the positive
    real axis, so states equal up to a global phase compare equal.
    """

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=np.complex128).reshape(-1)
        if amps.shape != (4,):
            raise ValueError("expected 4 amplitudes")
        norm = np.linalg.norm(amps)
        if abs(norm - 1.0) > NORM_ATOL:
            raise ValueError(f"state norm {norm!r} differs from 1 beyond {NORM_ATOL}")
        amps = amps / norm
        for a in amps:
            if abs(a) > 1e-12:
                amps = amps * (np.conj(a) / abs(a))
                break
        object.__setattr__(self, "amplitudes", _frozen_copy(amps))

    @classmethod
    def from_amplitudes(cls, amps) -> "PureState":
        """Build from any nonzero amplitude vector, normalizing it."""
        amps = np.asarray(amps, dtype=np.complex128).reshape(-1)
        norm = np.linalg.norm(amps)
        if norm < 1e-12:
            raise ValueError("zero state vector")
        return cls(amps / norm)

    def projector(self) -> np.ndarray:
        return np.outer(self.amplitudes, np.conj(self.amplitudes))

    def overlap(self, other: "PureState") -> complex:
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def __eq__(self, other):
        if not isinstance(other, PureState):
            return NotImplemented
        return bool(np.max(np.abs(self.amplitudes - other.amplitudes)) <= 1e-12)


def kron_state(first, second) -> PureState:
    """Product state of two single-qubit amplitude pairs."""
    return PureState.from_amplitudes(np.kron(np.asarray(first), np.asarray(second)))


UP = np.array([1.0, 0.0])
DOWN = np.array([0.0, 1.0])
UP_X = np.array([1.0, 1.0]) / np.sqrt(2.0)
UP_Y = np.array([1.0, 1.0j]) / np.sqrt(2.0)
DOWN_Y = np.array([1.0, -1.0j]) / np.sqrt(2.0)

UP_UP = kron_state(UP, UP)
UP_DOWN = kron_state(UP, DOWN)
DOWN_UP = kron_state(DOWN, UP)
DOWN_DOWN = kron_state(DOWN, DOWN)
SINGLET = PureState.from_amplitudes([0.0, 1.0, -1.0, 0.0])
TRIPLET_ZERO = PureState.from_amplitudes([0.0, 1.0, 1.0, 0.0])


def check_density_matrix(m: np.ndarray, psd_slack: float = PSD_SLACK) -> np.ndarray:
    """Validate a 4x4 density matrix, returning it as complex128.

    Requires Hermiticity within 1e-12, unit trace within 1e-12 and
    eigenvalues above -psd_slack.
    """
    m = np.asarray(m, dtype=np.complex128)
    if m.shape != (4, 4):
        raise ValueError("expected a 4x4 matrix")
    if not is_hermitian(m):
        raise ValueError("density matrix is not Hermitian")
    tr = np.trace(m).real
    if abs(tr - 1.0) > TRACE_ATOL:
        raise ValueError(f"density matrix trace {tr!r} differs from 1")
    lo = np.linalg.eigvalsh(m)[0]
    if lo < -psd_slack:
        raise ValueError(f"density matrix has eigenvalue {lo!r} below -{psd_slack}")
    return m


@dataclass(frozen=True)
class DensityMatrix:
    """Validated 4x4 density matrix (Hermitian, unit trace, PSD)."""

    matrix: np.ndarray

    def __post_init__(self):
        m = check_density_matrix(self.matrix)
        object.__setattr__(self, "matrix", _frozen_copy(m))

    @property
    def pauli_coeffs(self) -> np.ndarray:
        return pauli_expand(self.matrix)

    def purity(self) -> float:
        return float(np.sum(np.abs(self.matrix) ** 2))


def _psd_sqrt(m: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(m)
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.conj().T


def state_fidelity(rho, sigma) -> float:
    """Uhlmann fidelity tr sqrt(sqrt(rho) sigma sqrt(rho)), in [0, 1]."""
    rho = check_density_matrix(as_operator(rho))
    sigma = check_density_matrix(as_operator(sigma))
    r = _psd_sqrt(rho)
    vals = np.linalg.eigvalsh(r @ sigma @ r)
    f = float(np.sum(np.sqrt(np.clip(vals, 0.0, None))))
    return min(max(f, 0.0), 1.0)


def as_operator(obj) -> np.ndarray:
    """Matrix of a DensityMatrix, a PureState (its projector) or a bare array."""
    if isinstance(obj, DensityMatrix):
        return obj.matrix
    if isinstance(obj, PureState):
        return obj.projector()
    return np.asarray(obj, dtype=np.complex128)


def trace_distance(rho, sigma) -> float:
    """Half the trace norm of the difference of two Hermitian operators."""
    diff = as_operator(rho) - as_operator(sigma)
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(diff))))


def stream(*path) -> np.random.Generator:
    """Counter-based generator keyed by a hash of the given path.

    Distinct paths give statistically independent Philox streams, and a
    given path always yields the same stream, independent of the order
    in which streams are created.  This is what makes per-projector shot
    sampling reproducible under parallel execution.
    """
    text = "/".join(str(p) for p in path)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    key = np.frombuffer(digest[:16], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


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


def random_pure(seed: int) -> PureState:
    """Haar-random two-qubit pure state."""
    rng = stream("random-pure", seed)
    g = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    return PureState.from_amplitudes(g)

"""State reconstruction from quorum frequencies.

``mle_from_frequencies`` returns both estimators with the quorum's P
matrix, which the quorum builds once and keeps.  Linear inversion,
P^-1 (m - 1/4), is exact on exact probabilities and runs on whole
stacks of repetitions, but its output can have (slightly) negative
eigenvalues at finite shot counts.  The
likelihood route reparametrizes rho = T^dag T / tr(T^dag T), which is
PSD by construction, and ascends the binomial log-likelihood; it is
seeded from the PSD-projected linear estimate, so on clean data it
starts essentially converged.  One eigendecomposition of the linear
estimate gives both that seed and the reported PSD projection.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .qmath import PSD_SLACK, DensityMatrix, pauli_assemble, pauli_expand
from .quorum import PMatrix, Quorum, pmatrix

_SEED_EIGENVALUE_FLOOR = 1e-9
_REVERSAL = np.fliplr(np.eye(4))


def linear_coefficients(m, pm: PMatrix) -> np.ndarray:
    """Pauli coefficients rho_1..rho_15 = P^-1 (m - 1/4) of the frequencies
    along the last axis of m, one row per repetition."""
    return (np.asarray(m, dtype=np.float64) - 0.25) @ pm.inverse.T


def linear_from_frequencies(m: np.ndarray, pm: PMatrix) -> np.ndarray:
    """Invert tr(P_j rho) = 1/4 + sum_k P_jk rho_k for the 15 coefficients.

    The unit-trace coefficient is fixed at 1/2; the output is Hermitian
    with exact unit trace but not necessarily PSD.
    """
    m = np.asarray(m, dtype=np.float64)
    if m.shape != (15,):
        raise ValueError("expected 15 frequencies")
    return pauli_assemble(np.concatenate(([0.5], linear_coefficients(m, pm))))


def covariance_predict(rho, pm: PMatrix, shots) -> np.ndarray:
    """Covariance of the linearly reconstructed coefficients.

    Independent binomial frequencies have variance p(1-p)/N, so
    C = Pinv diag(p_j (1 - p_j) / N_j) Pinv^T.
    """
    shots = np.broadcast_to(np.asarray(shots, dtype=np.float64), (15,))
    mat = rho.matrix if isinstance(rho, DensityMatrix) else np.asarray(rho, dtype=np.complex128)
    probs = 0.25 + pm.entries @ pauli_expand(mat)[1:]
    b = np.diag(probs * (1.0 - probs) / shots)
    return pm.inverse @ b @ pm.inverse.T


def _hermitian_eigh(matrix: np.ndarray) -> tuple:
    sym = 0.5 * (np.asarray(matrix, dtype=np.complex128) + np.asarray(matrix).conj().T)
    return np.linalg.eigh(sym)


def _clip_renormalize(vals: np.ndarray, vecs: np.ndarray, floor: float) -> np.ndarray:
    vals = np.clip(vals, floor, None)
    rho = (vecs * vals) @ vecs.conj().T
    return rho / np.trace(rho).real


def _lower_square_root(rho: np.ndarray) -> np.ndarray:
    """Lower-triangular T with T^dag T = rho (rather than T T^dag).

    The upper factor U of A = U^dag U is the transpose of the lower
    factor of A^T: that reads the upper triangle of A, which is Hermitian
    only up to rounding, just as an upper-triangular LAPACK Cholesky does.
    The seed's eigenvalue floor keeps rho positive definite.
    """
    upper = np.linalg.cholesky((_REVERSAL @ rho @ _REVERSAL).T).T
    return _REVERSAL @ upper @ _REVERSAL


@dataclass(frozen=True)
class ReconstructionResult:
    """Both estimators of one run, with the P matrix they were built from.

    ``psd_projection`` is the linear estimate with its eigenvalues
    clipped at 0 and renormalised to unit trace: a physical state, but
    not in general the nearest one in Frobenius norm.  ``stop_reason``
    says why the ascent stopped (see ``_kernels.mle_ascend``).
    """

    rho_linear: np.ndarray
    psd_projection: np.ndarray
    rho_mle: DensityMatrix
    covariance_predicted: np.ndarray
    loglik: float
    linear_loglik: float
    iterations: int
    converged: bool
    stop_reason: str
    linear_psd: bool
    pm: PMatrix


def mle_from_frequencies(
    m: np.ndarray,
    shots,
    quorum: Quorum,
) -> ReconstructionResult:
    """Linear and likelihood-ascent reconstructions from frequency estimates.

    Accepts fractional frequencies, so exact Born probabilities can be
    fed through the same path as counted data.  Non-convergence within
    _kernels.MAX_ITER steps returns the best iterate, flagged.
    """
    m = np.asarray(m, dtype=np.float64)
    shots = np.broadcast_to(np.asarray(shots, dtype=np.float64), m.shape).copy()
    if np.any(shots < 1):
        raise ValueError("every frequency needs a positive trial count")
    pm = pmatrix(quorum)
    rho_linear = linear_from_frequencies(m, pm)
    vals, vecs = _hermitian_eigh(rho_linear)
    t0 = _lower_square_root(_clip_renormalize(vals, vecs, _SEED_EIGENVALUE_FLOOR))
    projs = quorum.matrices
    weights = shots / shots.sum()
    t_mat, lik_scaled, iters, converged, reason = _kernels.mle_ascend(
        quorum.likelihood_forms, m, weights, t0
    )
    rho = t_mat.conj().T @ t_mat
    rho = rho / np.trace(rho).real
    rho = 0.5 * (rho + rho.conj().T)
    result_rho = DensityMatrix(rho)
    cov = covariance_predict(result_rho, pm, shots)
    return ReconstructionResult(
        rho_linear=rho_linear,
        psd_projection=_clip_renormalize(vals, vecs, 0.0),
        rho_mle=result_rho,
        covariance_predicted=cov,
        loglik=float(lik_scaled * shots.sum()),
        linear_loglik=_kernels.loglik(np.einsum("jab,ba->j", projs, rho_linear).real, m, shots),
        iterations=int(iters),
        converged=bool(converged),
        stop_reason=reason,
        linear_psd=bool(vals[0] >= -PSD_SLACK),
        pm=pm,
    )

"""The likelihood-ascent kernel on its own."""

import numpy as np
import pytest

from spintomo import _kernels
from spintomo.measure import born_probabilities, simulate_counts
from spintomo.qmath import SINGLET, ket_projector
from spintomo.quorum import mub_quorum, pmatrix
from spintomo.reconstruct import linear_from_frequencies

from support import mle_seed, random_pure


def test_numpy_mle_converges_on_exact_input():
    q = mub_quorum()
    psi = random_pure(6)
    m = born_probabilities(ket_projector(psi), q.matrices)
    pm = pmatrix(q)
    t0 = mle_seed(linear_from_frequencies(m, pm))
    nw = np.full(15, 1.0 / 15.0)
    t_mat, lik, its, reason = _kernels.mle_ascend(q.likelihood_forms, m, nw, t0)
    assert reason != "max_iter"
    rho = t_mat.conj().T @ t_mat
    rho /= np.trace(rho).real
    overlap = (psi.conj() @ rho @ psi).real
    assert overlap > 1.0 - 1e-6


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_mle_ascend_reaches_rank_deficient_optimum(seed):
    # sampled singlet counts put the optimum on the rank-1 boundary, where
    # a gradient ascent used to stop at the 10000-step cap
    q = mub_quorum()
    projs = q.matrices
    truth = SINGLET
    m = simulate_counts(truth, q.matrices, 10000, seed)[0] / 10000
    nw = np.full(15, 1.0 / 15.0)
    t0 = mle_seed(linear_from_frequencies(m, pmatrix(q)))
    t_mat, lik, its, reason = _kernels.mle_ascend(q.likelihood_forms, m, nw, t0)
    assert reason != "max_iter" and its <= 50
    rho = t_mat.conj().T @ t_mat
    rho /= np.trace(rho).real
    # optimality of the concave problem: no density matrix sigma has a
    # larger directional derivative tr(G sigma) than rho itself
    p = np.einsum("jab,ba->j", projs, rho).real
    grad = np.einsum("j,jab->ab", nw * (m / p - (1.0 - m) / (1.0 - p)), projs)
    assert np.linalg.eigvalsh(grad)[-1] - np.trace(grad @ rho).real < 1e-10


def _qr_tangent_step(neg_hess, grad, x, damping):
    """The former route, kept as the oracle: an orthonormal tangent basis
    from the QR of [x, I_15], then a 15x15 eigh in that basis."""
    tangent = np.linalg.qr(np.column_stack([x, np.eye(16)[:, :15]]))[0][:, 1:]
    curv, vecs = np.linalg.eigh(tangent.T @ neg_hess @ tangent)
    basis = tangent @ vecs
    return curv, basis @ (basis.T @ grad / (curv + damping))


@pytest.mark.parametrize("seed", range(6))
def test_tangent_eigh_matches_the_qr_basis(seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((16, 16)) * 10.0 ** rng.uniform(-3, 6)
    neg_hess = a + a.T
    x = rng.standard_normal(16)
    x /= np.linalg.norm(x)
    grad = rng.standard_normal(16)
    grad -= (x @ grad) * x  # the likelihood gradient is tangent
    curv_qr = _qr_tangent_step(neg_hess, grad, x, 0.0)[0]
    scale = np.max(np.abs(curv_qr))
    damping = scale - curv_qr[0]  # every damped curvature at least scale
    step_qr = _qr_tangent_step(neg_hess, grad, x, damping)[1]
    curv, basis = _kernels.tangent_eigh(neg_hess, x)
    np.testing.assert_allclose(curv, curv_qr, rtol=0.0, atol=1e-12 * scale)
    step = basis @ (basis.T @ grad / (curv + damping))
    np.testing.assert_allclose(step, step_qr, rtol=0.0, atol=1e-12 * np.linalg.norm(step_qr))
    np.testing.assert_allclose(basis.T @ x, 0.0, atol=1e-12)

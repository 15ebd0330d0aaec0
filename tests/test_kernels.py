"""The likelihood-ascent kernel on its own."""

import numpy as np
import pytest

from spintomo import _kernels
from spintomo.measure import born_probabilities, simulate_counts
from spintomo.qmath import SINGLET, DensityMatrix, random_pure
from spintomo.quorum import mub_quorum, pmatrix
from spintomo.reconstruct import linear_from_frequencies, seed_square_root


def test_numpy_mle_converges_on_exact_input():
    q = mub_quorum()
    psi = random_pure(6)
    m = born_probabilities(psi, q.matrices)
    pm = pmatrix(q)
    t0 = seed_square_root(linear_from_frequencies(m, pm))
    projs = q.matrices
    nw = np.full(15, 1.0 / 15.0)
    t_mat, lik, its, conv = _kernels.mle_ascend(projs, m, nw, t0)
    assert conv
    rho = t_mat.conj().T @ t_mat
    rho /= np.trace(rho).real
    overlap = (psi.amplitudes.conj() @ rho @ psi.amplitudes).real
    assert overlap > 1.0 - 1e-6


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_mle_ascend_reaches_rank_deficient_optimum(seed):
    # sampled singlet counts put the optimum on the rank-1 boundary, where
    # a gradient ascent used to stop at the 10000-step cap
    q = mub_quorum()
    projs = q.matrices
    truth = DensityMatrix(SINGLET.projector())
    m = simulate_counts(truth, q.matrices, 10000, seed)[0] / 10000
    nw = np.full(15, 1.0 / 15.0)
    t0 = seed_square_root(linear_from_frequencies(m, pmatrix(q)))
    t_mat, lik, its, conv = _kernels.mle_ascend(projs, m, nw, t0)
    assert conv and its <= 50
    rho = t_mat.conj().T @ t_mat
    rho /= np.trace(rho).real
    # optimality of the concave problem: no density matrix sigma has a
    # larger directional derivative tr(G sigma) than rho itself
    p = np.einsum("jab,ba->j", projs, rho).real
    grad = np.einsum("j,jab->ab", nw * (m / p - (1.0 - m) / (1.0 - p)), projs)
    assert np.linalg.eigvalsh(grad)[-1] - np.trace(grad @ rho).real < 1e-10

"""Linear inversion, covariance prediction, and likelihood-ascent tests."""

import numpy as np
import pytest

from spintomo import _kernels
from spintomo.measure import born_probabilities, degrade_readout, simulate_counts
from spintomo.qmath import (
    DensityMatrix,
    pauli_expand,
    random_density,
    state_fidelity,
    trace_distance,
)
from spintomo.quorum import Quorum, mub_quorum, pmatrix
from spintomo.reconstruct import (
    ReconstructionResult,
    covariance_predict,
    linear_coefficients,
    linear_from_frequencies,
    mle_from_frequencies,
)

from support import mle_seed, random_pure


def _pm():
    return pmatrix(mub_quorum())


def test_linear_round_trip_exact():
    q = mub_quorum()
    pm = pmatrix(q)
    for seed in range(20):
        rho = random_density(seed)
        m = born_probabilities(rho, q.matrices)
        rec = linear_from_frequencies(m, pm)
        np.testing.assert_allclose(rec, rho.matrix, atol=1e-12)


def test_linear_uniform_frequencies_give_maximally_mixed():
    rec = linear_from_frequencies(np.full(15, 0.25), _pm())
    np.testing.assert_allclose(rec, np.eye(4) / 4.0, atol=1e-14)


def test_linear_output_unit_trace_hermitian_always():
    pm = _pm()
    rng = np.random.default_rng(3)
    for _ in range(10):
        m = rng.uniform(0.0, 1.0, size=15)
        rec = linear_from_frequencies(m, pm)
        np.testing.assert_allclose(np.trace(rec).real, 1.0, atol=1e-13)
        np.testing.assert_allclose(rec, rec.conj().T, atol=1e-13)


def test_linear_inversion_of_one_run_is_a_row_of_the_stack():
    q = mub_quorum()
    pm = pmatrix(q)
    freqs = simulate_counts(random_density(4), q.matrices, 2000, seed=7, reps=5) / 2000
    rows = linear_coefficients(freqs, pm)
    for r in range(5):
        rec = linear_from_frequencies(freqs[r], pm)
        np.testing.assert_allclose(pauli_expand(rec)[1:], rows[r], atol=1e-15)
        np.testing.assert_allclose(rows[r], pm.inverse @ (freqs[r] - 0.25), atol=1e-15)
    with pytest.raises(ValueError):
        linear_from_frequencies(np.full(10, 0.25), pm)


def test_degraded_marginal_rho4_oracles():
    # coefficient k = 4 of the linear inversion through a degraded quorum
    # is the two-projector marginal 3 (2 (p4 + p6) - 1) / (2 (4 f^2 - 1))
    q = mub_quorum()
    rho = random_density(11)
    truth = pauli_expand(rho.matrix)[4]
    for f in (1.0, 0.8):
        dq = Quorum("mub-degraded", q.labels, degrade_readout(q.matrices, f), q.basis_index)
        probs = born_probabilities(rho, dq.matrices)
        rho4 = linear_coefficients(probs, pmatrix(dq))[3]
        closed = 3.0 * (2.0 * (probs[3] + probs[5]) - 1.0) / (2.0 * (4.0 * f * f - 1.0))
        assert abs(rho4 - closed) < 1e-12
        assert abs(rho4 - truth) < 1e-12
        # maximally mixed input has no signal
        assert abs(linear_coefficients(np.full(15, 0.25), pmatrix(dq))[3]) < 1e-15


def test_covariance_predict_maximally_mixed_analytic():
    pm = _pm()
    n = 1000.0
    cov = covariance_predict(np.eye(4) / 4.0, pm, n)
    expected = (3.0 / 16.0 / n) * pm.inverse @ pm.inverse.T
    np.testing.assert_allclose(cov, expected, atol=1e-16)


def test_covariance_predict_scales_inversely_with_shots():
    pm = _pm()
    rho = random_density(2)
    c1 = covariance_predict(rho, pm, 100)
    c2 = covariance_predict(rho, pm, 400)
    np.testing.assert_allclose(c1, 4.0 * c2, atol=1e-18)
    # per-projector shot counts are honored
    shots = np.arange(1, 16) * 100
    c3 = covariance_predict(rho, pm, shots)
    probs = 0.25 + pm.entries @ pauli_expand(rho.matrix)[1:]
    b = np.diag(probs * (1 - probs) / shots)
    np.testing.assert_allclose(c3, pm.inverse @ b @ pm.inverse.T, atol=1e-18)


def test_covariance_matches_empirical_moments():
    q = mub_quorum()
    pm = pmatrix(q)
    rho = random_density(6)
    n, reps = 800, 3000
    freqs = simulate_counts(rho, q.matrices, n, seed=13, reps=reps) / n
    coeffs = (freqs - 0.25) @ pm.inverse.T
    emp = np.cov(coeffs.T)
    pred = covariance_predict(rho, pm, n)
    rel = np.abs(np.diag(emp) - np.diag(pred)) / np.diag(pred)
    assert np.max(rel) < 0.15


def test_covariance_bound_dominates_entries():
    # the adjugate route bounds every entry by 15 (3/4)^14 / (4 N det^2)
    pm = _pm()
    n = 500.0
    bound = 15.0 * 0.75**14 / (4.0 * n * pm.det**2)
    for seed in range(12):
        cov = covariance_predict(random_density(seed), pm, n)
        assert np.max(np.abs(cov)) <= bound


def _clipped(matrix, floor):
    """Eigenvalues of a Hermitian matrix clipped at the floor, trace renormalised."""
    vals, vecs = np.linalg.eigh(matrix)
    vals = np.clip(vals, floor, None)
    return (vecs * (vals / vals.sum())) @ vecs.conj().T


def test_psd_project_properties():
    # the reported projection of sampled pure states, whose linear estimates
    # have negative eigenvalues
    q = mub_quorum()
    non_psd = 0
    for seed in range(10):
        truth = DensityMatrix(random_pure(seed).projector())
        m = simulate_counts(truth, q.matrices, 200, seed=seed)[0] / 200
        res = mle_from_frequencies(m, 200, q)
        non_psd += not res.linear_psd
        out = res.psd_projection
        assert np.linalg.eigvalsh(out)[0] >= -1e-14
        np.testing.assert_allclose(np.trace(out).real, 1.0, atol=1e-13)
        np.testing.assert_allclose(out, out.conj().T, atol=1e-13)
        np.testing.assert_allclose(out, _clipped(res.rho_linear, 0.0), atol=1e-13)
    assert non_psd == 10
    # a state is a fixed point
    rho = random_density(1)
    res = mle_from_frequencies(born_probabilities(rho, q.matrices), 10**5, q)
    np.testing.assert_allclose(res.psd_projection, rho.matrix, atol=1e-13)


def test_seed_square_root_shape_and_factorization():
    # the ascent's seed: the lower-triangular square root of the linear
    # estimate with its eigenvalues floored at 1e-9
    for seed in (0, 5, 9):
        rho = random_density(seed, rank=2)
        t = mle_seed(rho.matrix)
        np.testing.assert_allclose(np.triu(t, 1), 0.0, atol=0.0)
        np.testing.assert_allclose(np.imag(np.diag(t)), 0.0, atol=1e-14)
        rebuilt = t.conj().T @ t
        np.testing.assert_allclose(rebuilt, _clipped(rho.matrix, 1e-9), atol=1e-12)
        assert np.linalg.eigvalsh(rebuilt)[0] > 0.5e-9


def test_mle_exact_probabilities_recover_pure_state():
    q = mub_quorum()
    for seed in (0, 3, 7):
        psi = random_pure(seed)
        m = born_probabilities(psi, q.matrices)
        res = mle_from_frequencies(m, 10**6, q)
        assert res.converged
        fid = state_fidelity(res.rho_mle, DensityMatrix(psi.projector()))
        assert fid > 1.0 - 1e-6


def test_mle_exact_probabilities_recover_mixed_state():
    q = mub_quorum()
    rho = random_density(12)
    m = born_probabilities(rho, q.matrices)
    res = mle_from_frequencies(m, 10**5, q)
    assert res.converged
    assert trace_distance(res.rho_mle, rho) < 1e-7
    assert res.linear_psd


def test_mle_sampled_maximally_mixed():
    q = mub_quorum()
    rho = DensityMatrix(np.eye(4) / 4.0)
    counts = simulate_counts(rho, q.matrices, 100000, seed=17)
    res = mle_from_frequencies(counts[0] / 100000, 100000, q)
    assert trace_distance(res.rho_mle, rho) < 0.02
    assert isinstance(res, ReconstructionResult)


def _binomial_loglik(rho_mat, m, shots, q):
    probs = np.einsum("jab,ba->j", q.matrices, rho_mat).real
    probs = np.clip(probs, 1e-12, 1.0 - 1e-12)
    return float(np.sum(shots * (m * np.log(probs) + (1 - m) * np.log(1 - probs))))


def test_mle_beats_projected_linear_likelihood():
    q = mub_quorum()
    rho = random_density(9, rank=1)
    n = 400
    m = simulate_counts(rho, q.matrices, n, seed=23)[0] / n
    res = mle_from_frequencies(m, n, q)
    shots = np.full(15, float(n))
    ll_mle = _binomial_loglik(res.rho_mle.matrix, m, shots, q)
    ll_lin = _binomial_loglik(res.psd_projection, m, shots, q)
    assert ll_mle >= ll_lin - 1e-9
    np.testing.assert_allclose(res.loglik, ll_mle, rtol=1e-9)
    np.testing.assert_allclose(
        res.linear_loglik, _binomial_loglik(res.rho_linear, m, shots, q), rtol=1e-12
    )


def test_mle_extreme_counts_stay_physical():
    q = mub_quorum()
    for successes in (0, 50):
        res = mle_from_frequencies(np.full(15, successes / 50), 50, q)
        mat = res.rho_mle.matrix  # DensityMatrix construction validates PSD
        np.testing.assert_allclose(np.trace(mat).real, 1.0, atol=1e-12)
        assert np.linalg.eigvalsh(mat)[0] >= -1e-12


def test_mle_noisy_pure_state_close_to_truth():
    q = mub_quorum()
    psi = random_pure(21)
    truth = DensityMatrix(psi.projector())
    counts = simulate_counts(truth, q.matrices, 20000, seed=31)
    res = mle_from_frequencies(counts[0] / 20000, 20000, q)
    assert state_fidelity(res.rho_mle, truth) > 0.995
    # the likelihood route is never worse in trace distance than clipping
    d_mle = trace_distance(res.rho_mle, truth)
    assert d_mle < 0.05


def _sampled_run():
    q = mub_quorum()
    counts = simulate_counts(random_density(0, rank=4), q.matrices, 500, seed=0)
    return mle_from_frequencies(counts[0] / 500, 500, q)


def test_mle_reports_why_the_ascent_stopped():
    q = mub_quorum()
    # exact probabilities: the seed is the optimum
    res = mle_from_frequencies(born_probabilities(random_density(12), q.matrices), 10**5, q)
    assert (res.stop_reason, res.iterations, res.converged) == ("gradient", 0, True)
    res = _sampled_run()
    assert (res.stop_reason, res.iterations, res.converged) == ("stall", 4, True)


def test_mle_stops_where_no_damped_step_ascends(monkeypatch):
    # no tested input reaches this exit on its own: it needs a gradient above
    # GTOL where no step gains an ulp.  With the gradient and stall exits
    # off, every accepted step still gains an ulp of a bounded loglik, so
    # the ascent must reach it
    monkeypatch.setattr(_kernels, "GTOL", 0.0)
    monkeypatch.setattr(_kernels, "_FTOL", -np.inf)
    res = _sampled_run()
    assert (res.stop_reason, res.converged) == ("no_ascent", True)
    assert 4 < res.iterations < _kernels.MAX_ITER


def test_mle_stopped_by_the_step_cap_is_not_converged(monkeypatch):
    # no input reaches MAX_ITER = 10000 steps: the sampled run stalls
    # after 4, so a cap of 2 stops it first
    monkeypatch.setattr(_kernels, "MAX_ITER", 2)
    res = _sampled_run()
    assert (res.stop_reason, res.iterations, res.converged) == ("max_iter", 2, False)


def test_mle_validates_inputs():
    q = mub_quorum()
    with pytest.raises(ValueError):
        mle_from_frequencies(np.full(15, 0.25), 0, q)
    with pytest.raises(ValueError):
        mle_from_frequencies([], 100, q)


def test_degraded_quorum_round_trip():
    # reconstructing through the effective (degraded) projectors undoes
    # a readout-fidelity error exactly at the probability level
    q = mub_quorum()
    f = 0.85
    dq = Quorum("mub-degraded", q.labels, degrade_readout(q.matrices, f), q.basis_index)
    pm = pmatrix(dq)
    expected_det = (1.0 / 32.0) * ((4 * f * f - 1) / 3.0) ** 15
    assert abs(abs(pm.det) - expected_det) < 1e-15
    rho = random_density(14)
    m = born_probabilities(rho, dq.matrices)
    rec = linear_from_frequencies(m, pm)
    np.testing.assert_allclose(rec, rho.matrix, atol=1e-12)
    assert mle_from_frequencies(m, 1000, dq).linear_psd

"""The reference computations reproduce the paper's values; the smoke run passes.

    python3 -m pytest perfbench
"""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import reference as ref

G = ref.GENERATORS
CONTROLS = [G["exchange_pulse"], G["z_rot_qubit1"], G["z_rot_qubit2"]]


def _random_state(rng, rank=4):
    g = rng.standard_normal((4, rank)) + 1j * rng.standard_normal((4, rank))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def test_mub_quorum_determinant_is_one_over_32():
    assert abs(np.linalg.det(ref.pmatrix(ref.mub_projectors()))) == pytest.approx(1 / 32, abs=1e-14)


def test_separable_quorum_determinant_is_one_over_512():
    det = np.linalg.det(ref.pmatrix(ref.separable_projectors()))
    assert abs(det) == pytest.approx(1 / 512, abs=1e-14)


def test_mub_projectors_are_five_unbiased_bases():
    p = ref.mub_projectors()
    overlaps = np.einsum("iab,jba->ij", p, p).real
    for i in range(15):
        for j in range(15):
            expected = 1.0 if i == j else (0.0 if i // 3 == j // 3 else 0.25)
            assert overlaps[i, j] == pytest.approx(expected, abs=1e-14)


def test_closure_rank_is_5_without_esr_and_15_with_it():
    assert ref.closure_rank(ref.READOUT_PROJECTORS, CONTROLS) == 5
    assert ref.closure_rank(ref.READOUT_PROJECTORS, CONTROLS + [G["esr_x_qubit1"]]) == 15


def test_readout_contraction_limits():
    p = ref.mub_projectors()
    np.testing.assert_allclose(ref.degrade(p, 1.0), p, atol=1e-15)
    np.testing.assert_allclose(ref.degrade(p, 0.5), np.broadcast_to(ref.EYE / 4, p.shape), atol=1e-15)


def test_linear_inversion_round_trip_with_degraded_readout():
    rho = _random_state(np.random.default_rng(1))
    projs = ref.degrade(ref.mub_projectors(), 0.9)
    np.testing.assert_allclose(ref.linear_inversion(ref.probabilities(rho, projs), projs), rho,
                               atol=1e-13)


def test_loglik_is_largest_at_the_state_that_produced_exact_frequencies():
    rng = np.random.default_rng(2)
    rho = _random_state(rng)
    projs = ref.mub_projectors()
    freqs = ref.probabilities(rho, projs)
    best = ref.binomial_loglik(freqs, np.full(15, 1000), projs, rho)
    for _ in range(20):
        other = _random_state(rng)
        assert ref.binomial_loglik(freqs, np.full(15, 1000), projs, other) < best


def test_gaussian_average_matches_sampled_angles():
    rng = np.random.default_rng(3)
    gates = [(G["esr_x_qubit1"], -np.pi / 4, 0.3), (G["exchange_pulse"], -np.pi / 2, 0.2),
             (G["gradient_z"], 0.4, 0.5)]
    exact = ref.gaussian_average(gates, ref.SINGLET)
    n = 20000
    acc = np.zeros((4, 4), dtype=np.complex128)
    for _ in range(n):
        u = ref.EYE
        for h, angle, std in gates:
            lam, v = np.linalg.eigh(h)
            u = (v * np.exp(1j * (angle + std * rng.standard_normal()) * lam)) @ v.conj().T @ u
        acc += u.conj().T @ ref.SINGLET @ u
    np.testing.assert_allclose(acc / n, exact, atol=0.02)


def test_gaussian_average_without_noise_is_plain_conjugation():
    h = G["exchange_pulse"]
    lam, v = np.linalg.eigh(h)
    u = (v * np.exp(1j * 0.7 * lam)) @ v.conj().T
    base = ref.NAMED_STATES["up_down"]
    np.testing.assert_allclose(ref.gaussian_average([(h, 0.7, 0.0)], base),
                               u.conj().T @ base @ u, atol=1e-14)


def test_smoke_run_passes():
    run = Path(__file__).resolve().parent / "run.py"
    proc = subprocess.run([sys.executable, str(run), "--smoke"], capture_output=True,
                          text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.count("PASS") == 4

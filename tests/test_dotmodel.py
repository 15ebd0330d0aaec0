"""Six-level double-dot model: spectrum, exchange splitting, anticrossing gap.

The exchange and gap closed forms are checked on ``hamiltonian6``, the
Hamiltonian that ``spintomo spectrum`` diagonalises.
"""

import dataclasses

import numpy as np
import pytest

from spintomo.dotmodel import DotParams, hamiltonian6, spectrum_sweep, zeeman_block

from support import exchange_splitting, singlet_levels

ZERO_FIELD = ((0.0, 0.0, 0.0), (0.0, 0.0, 0.0))


def _params(epsilon=0.0, U=1.0, t=0.02, h1=(0, 0, 0), h2=(0, 0, 0)):
    return DotParams(epsilon=epsilon, U=U, t=t, h1=h1, h2=h2)


def test_params_validation():
    with pytest.raises(ValueError):
        _params(U=-1.0)
    with pytest.raises(ValueError):
        _params(t=np.nan)
    with pytest.raises(ValueError):
        DotParams(0.0, 1.0, 0.1, (0, 0), (0, 0, 0))


def test_hamiltonian_hermitian():
    for seed in range(5):
        rng = np.random.default_rng(seed)
        p = _params(
            epsilon=rng.uniform(-2, 2),
            t=rng.uniform(-0.3, 0.3),
            h1=tuple(rng.uniform(-0.2, 0.2, 3)),
            h2=tuple(rng.uniform(-0.2, 0.2, 3)),
        )
        h = hamiltonian6(p)
        assert h.shape == (6, 6)
        np.testing.assert_allclose(h, h.conj().T, atol=1e-14)


def test_decoupled_limit_diagonal():
    p = _params(epsilon=0.4, t=0.0)
    h = hamiltonian6(p)
    np.testing.assert_allclose(h, np.diag(np.diag(h)), atol=1e-15)
    np.testing.assert_allclose(np.diag(h)[:4].real, 0.0, atol=1e-15)
    # doubly occupied singlets at U +- eps
    assert abs(h[4, 4] - (1.0 + 0.4)) < 1e-15
    assert abs(h[5, 5] - (1.0 - 0.4)) < 1e-15


def test_zeeman_energies():
    hz = 0.07
    p = _params(t=0.0, h1=(0, 0, hz), h2=(0, 0, hz))
    h = hamiltonian6(p)
    # |uu>, |dd> at +-2 h_z; |ud>, |du> at zero
    np.testing.assert_allclose(np.diag(h)[:4].real, [2 * hz, 0.0, 0.0, -2 * hz], atol=1e-15)
    # doubly occupied singlets take no Zeeman shift
    assert abs(h[4, 4] - p.U - p.epsilon) < 1e-15


def test_zeeman_block_general_field():
    # against an independent kron construction
    from spintomo.qmath import SIGMA

    h1 = (0.02, -0.05, 0.11)
    h2 = (-0.04, 0.06, 0.03)
    p = _params(t=0.0, h1=h1, h2=h2)
    expected = np.kron(
        h1[0] * SIGMA[1] + h1[1] * SIGMA[2] + h1[2] * SIGMA[3], np.eye(2)
    ) + np.kron(np.eye(2), h2[0] * SIGMA[1] + h2[1] * SIGMA[2] + h2[2] * SIGMA[3])
    np.testing.assert_allclose(zeeman_block(p), expected, atol=1e-15)


def test_hopping_couples_only_singlet_combination():
    p = _params(t=0.03)
    h = hamiltonian6(p)
    # the (1,1) singlet couples with sqrt(2) t; the triplet combination decouples
    singlet_11 = np.array([0, 1, -1, 0, 0, 0]) / np.sqrt(2)
    triplet_11 = np.array([0, 1, 1, 0, 0, 0]) / np.sqrt(2)
    s20 = np.zeros(6)
    s20[4] = 1.0
    assert abs(singlet_11 @ h @ s20 - np.sqrt(2) * p.t) < 1e-14
    assert abs(triplet_11 @ h @ s20) < 1e-15


def test_exchange_against_exact_splitting():
    # relative error of the perturbative J is O((t/U)^2); the constant was
    # fitted once on this grid: about 4.0 at eps = 0, 8.9 at eps = 0.5
    U, eps = 1.0, 0.5
    ratio_constant = 12.0
    for t in np.logspace(-4, -1.5, 8):
        p = _params(epsilon=eps, U=U, t=t)
        exact = exchange_splitting(p)
        rel = abs(4.0 * t * t * U / (U * U - eps * eps) - exact) / exact
        assert rel <= ratio_constant * (t / U) ** 2


def test_singlet_block_matches_six_level_at_zero_field():
    p = _params(epsilon=0.3, t=0.04)
    full_vals = np.linalg.eigvalsh(hamiltonian6(p))
    # the singlet sector is invariant: its three levels are in the spectrum
    for v in singlet_levels(p):
        assert np.min(np.abs(full_vals - v)) < 1e-12


def test_anticrossing_gap():
    # at eps = U the S(1,1)-S(0,2) gap is 2 sqrt(2) |t| up to O(t^2 / U)
    levels = singlet_levels(_params(epsilon=1.0, t=1e-3, U=1.0))
    assert abs(levels[1] - levels[0] - 2.0 * np.sqrt(2.0) * 1e-3) < 1e-8


def test_crossing_without_tunneling():
    levels = singlet_levels(_params(epsilon=1.0, t=0.0))
    assert levels[1] - levels[0] < 1e-12


def test_triplets_flat_in_t_at_zero_field():
    # triplet levels independent of hopping: only the singlet couples out
    base = np.linalg.eigvalsh(hamiltonian6(_params(t=0.0)))
    for t in (0.01, 0.05, 0.2):
        vals = np.linalg.eigvalsh(hamiltonian6(_params(t=t)))
        # three of the six levels stay frozen at exactly 0 (T+, T0, T-)
        frozen = np.sort(np.abs(vals))[:3]
        np.testing.assert_allclose(frozen, 0.0, atol=1e-12)
    np.testing.assert_allclose(np.sort(np.abs(base))[:4][:3], 0.0, atol=1e-15)


def test_spectrum_sweep_tracking_continuity():
    p = _params(t=0.02, h1=(0, 0, 0.05), h2=(0, 0.002, 0.045))
    grid = np.linspace(0.0, 1.2, 241)
    levels = spectrum_sweep(p, grid)
    assert levels.shape == (241, 6)
    # no grid, a grid that is not 1-d, and a detuning that is not finite
    for bad in ([], [grid], [0.0, np.nan]):
        with pytest.raises(ValueError, match="non-empty 1-d"):
            spectrum_sweep(p, bad)
    # Weyl: adjacent-level jumps bounded by the Hamiltonian difference norm
    for row in range(1, 241):
        h_prev = hamiltonian6(dataclasses.replace(p, epsilon=grid[row - 1]))
        h_next = hamiltonian6(dataclasses.replace(p, epsilon=grid[row]))
        bound = np.linalg.norm(h_next - h_prev, 2) + 1e-12
        assert np.max(np.abs(levels[row] - levels[row - 1])) <= bound


def test_spectrum_sweep_tracks_through_crossing():
    # with t = 0 and a z field, branches cross; tracked columns stay linear
    p = _params(t=0.0, h1=(0, 0, 0.05), h2=(0, 0, 0.05))
    grid = np.linspace(0.8, 1.2, 81)
    levels = spectrum_sweep(p, grid)
    # each column is an affine function of eps in this limit: second
    # differences vanish (plain sorting would kink at the crossing)
    second = np.diff(levels, n=2, axis=0)
    assert np.max(np.abs(second)) < 1e-10


def test_noncollinear_fields_open_gap():
    collinear = _params(t=0.02, h1=(0, 0, 0.05), h2=(0, 0, 0.05))
    tilted = _params(t=0.02, h1=(0, 0, 0.05), h2=(0.004, 0, 0.05))
    grid = np.linspace(0.95, 1.05, 201)

    def min_gap_12(p):
        levels = np.sort(spectrum_sweep(p, grid), axis=1)
        return np.min(levels[:, 1] - levels[:, 0])

    assert min_gap_12(tilted) > min_gap_12(collinear) + 1e-6

"""End-to-end acceptance checks, one summary line per criterion.

Each test checks one contracted property at its stated tolerance,
prints a single PASS/FAIL line (visible with ``pytest -s``), and then
asserts.  Criteria 01-06 read the structural claims from the rows of
``spintomo verify``, which computes each of them once, and add only
what reaches further.  Runtime-capped criteria time themselves and
fail on overrun.
"""

import time

import numpy as np
import pytest

from spintomo.cli import run_verification
from spintomo.dotmodel import (
    DotParams,
    exact_exchange_splitting,
    exchange_J,
    hamiltonian6,
    min_singlet_gap,
)
from spintomo.measure import born_probabilities, degrade_readout, plan_shots, simulate_counts
from spintomo.qmath import (
    UP_UP,
    DensityMatrix,
    pauli_expand,
    random_density,
    random_pure,
    state_fidelity,
    stream,
)
from spintomo.quorum import (
    constrained_random_state,
    james_quorum,
    mub_quorum,
    orthogonality_witness,
    pmatrix,
)
from spintomo.reconstruct import (
    covariance_bound,
    covariance_predict,
    degraded_marginal_rho4,
    linear_from_frequencies,
    mle_from_frequencies,
)


def _report(num: int, passed: bool, detail: str) -> None:
    print(f"{'PASS' if passed else 'FAIL'} criterion {num:02d}: {detail}")
    assert passed, f"criterion {num:02d}: {detail}"


@pytest.fixture(scope="module")
def verification():
    """The rows of ``spintomo verify``, where the structural claims are computed."""
    return {r["check_id"]: r for r in run_verification()}


def _rows(verification, *check_ids: str) -> tuple:
    """Whether the named rows passed, and their one-line summary."""
    rows = [verification[cid] for cid in check_ids]
    return all(r["passed"] for r in rows), "; ".join(
        f"{r['detail']}: {r['measured']:.2e} (tol {r['threshold']:.3g})" for r in rows)


def test_criterion_01_quorum_determinants(verification):
    t0 = time.perf_counter()
    pmatrix(mub_quorum())
    pmatrix(james_quorum())
    elapsed = time.perf_counter() - t0
    ok, detail = _rows(verification, "det_mub", "det_james")
    _report(1, ok and elapsed < 1.0, f"{detail}; both built in {elapsed:.2f} s (cap 1 s)")


def test_criterion_02_circuit_projector_cross_check(verification):
    _report(2, *_rows(verification, "quorum_cross_check", "esr_budget"))


def test_criterion_03_unbiased_basis_overlaps(verification):
    _report(3, *_rows(verification, "mub_condition"))


def test_criterion_04_tau_witness_and_strict_det_bound(verification):
    family = [UP_UP] + [constrained_random_state(s) for s in range(1000)]
    sums_dev, _ = orthogonality_witness(family)  # bounds |m1| as well
    ok, detail = _rows(verification, "tau_partial_sums", "tau_ratio", "det_upper_bound_strict")
    # the largest |det P| of the stack is the MUB quorum's 1/32
    top_dev = abs(verification["det_upper_bound_strict"]["measured"] - 1.0 / 32.0)
    _report(4, ok and sums_dev <= 1e-10 and top_dev <= 1e-12,
            f"{detail}; largest |det P| vs 1/32: dev {top_dev:.2e} (tol 1e-12); |m1| and tau "
            f"partial sums vs 3/8 over 1000 constrained states: max dev {sums_dev:.2e} "
            f"(tol 1e-10)")


def test_criterion_05_accessible_subspace_dimensions(verification):
    _report(5, *_rows(verification, "subspace_no_esr", "subspace_with_esr"))


def test_criterion_06_evolution_closed_forms(verification):
    _report(6, *_rows(verification, "evolution_exchange", "evolution_gradient"))


def test_criterion_07_round_trip_and_rms_slope():
    t0 = time.perf_counter()
    q = mub_quorum()
    pm = pmatrix(q)
    worst = 0.0
    for seed in range(100):
        rho = random_density(seed)
        m = born_probabilities(rho, q.matrices)
        worst = max(
            worst,
            float(np.max(np.abs(linear_from_frequencies(m, pm) - rho.matrix))),
        )
    rho = random_density(42)
    true_c = pauli_expand(rho.matrix)[1:]
    shot_grid = (10**3, 10**4, 10**5)
    rms = []
    for n in shot_grid:
        freqs = simulate_counts(rho, q.matrices, n, seed=7, reps=60) / n
        coeffs = (freqs - 0.25) @ pm.inverse.T
        rms.append(float(np.sqrt(np.mean((coeffs - true_c[None, :]) ** 2))))
    slope = float(np.polyfit(np.log10(shot_grid), np.log10(rms), 1)[0])
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and abs(slope + 0.5) <= 0.1 and elapsed < 60.0
    _report(
        7,
        ok,
        f"100 exact round trips: max entry error {worst:.2e} (tol 1e-10); "
        f"RMS error slope vs shots {slope:.3f} (want -0.5 +/- 0.1); "
        f"{elapsed:.1f} s (cap 60 s)",
    )


def test_criterion_08_covariance_prediction():
    t0 = time.perf_counter()
    q = mub_quorum()
    pm = pmatrix(q)
    rho = random_density(5)
    n, reps = 1000, 10000
    freqs = simulate_counts(rho, q.matrices, n, seed=3, reps=reps) / n
    coeffs = (freqs - 0.25) @ pm.inverse.T
    emp = np.cov(coeffs, rowvar=False, ddof=1)
    pred = covariance_predict(rho, pm, n)
    rel = float(np.max(np.abs(np.diag(emp) - np.diag(pred)) / np.diag(pred)))
    bound = covariance_bound(pm, n)
    max_entry = max(float(np.max(np.abs(emp))), float(np.max(np.abs(pred))))
    elapsed = time.perf_counter() - t0
    ok = rel <= 0.10 and max_entry <= bound and elapsed < 120.0
    _report(
        8,
        ok,
        f"empirical vs predicted covariance diagonal ({reps} reps, {n} shots): "
        f"max rel dev {rel:.3f} (tol 0.10); max |entry| {max_entry:.2e} <= "
        f"bound {bound:.2e}; {elapsed:.1f} s (cap 120 s)",
    )


def test_criterion_09_degradation_and_planning():
    q = mub_quorum()
    erase_dev = float(np.max(np.abs(degrade_readout(q.matrices, 0.5) - np.eye(4) / 4.0)))

    rho = random_density(7)
    truth = pauli_expand(rho.matrix)[4]
    f = 0.8
    pa = float(np.trace(degrade_readout(q.matrices[3], f) @ rho.matrix).real)
    pb = float(np.trace(degrade_readout(q.matrices[5], f) @ rho.matrix).real)
    n, reps = 1000, 1000
    rng = stream("acceptance-marginal", 0)
    sa = rng.binomial(n, pa, size=reps) / n
    sb = rng.binomial(n, pb, size=reps) / n
    ests = np.array([degraded_marginal_rho4(a, b, f) for a, b in zip(sa, sb)])
    bias = abs(float(np.mean(ests)) - truth)
    se = float(np.std(ests, ddof=1)) / np.sqrt(reps)

    planned = plan_shots(0.05, 0.05, 1.0)
    ok = erase_dev == 0.0 and bias <= 3.0 * se and planned == 1476
    _report(
        9,
        ok,
        f"half-fidelity readout erases exactly (dev {erase_dev:.1e}); "
        f"marginal coefficient bias {bias:.2e} <= 3 se = {3 * se:.2e} "
        f"({reps} reps); planned runs {planned} (want 1476)",
    )


def test_criterion_10_dot_model_physics():
    gap_probe = DotParams(0.0, 1.0, 1e-3, (0, 0, 0), (0, 0, 0))
    gap = min_singlet_gap(gap_probe, (0.9, 1.1))
    gap_dev = abs(gap - 2.0 * np.sqrt(2.0) * 1e-3)

    # relative error of the perturbative exchange scales as (t/U)^2;
    # 12 bounds the measured ratio constant at this detuning (about 8.9)
    ratios = []
    for t in np.logspace(-4, -1.5, 8):
        p = DotParams(0.5, 1.0, float(t), (0, 0, 0), (0, 0, 0))
        rel = abs(exchange_J(p) - exact_exchange_splitting(p)) / exact_exchange_splitting(p)
        ratios.append(rel / (t / p.U) ** 2)
    max_ratio = float(np.max(ratios))

    triplet_dev = 0.0
    for t in (0.01, 0.05, 0.2):
        p = DotParams(0.0, 1.0, float(t), (0, 0, 0), (0, 0, 0))
        vals = np.sort(np.abs(np.linalg.eigvalsh(hamiltonian6(p))))
        triplet_dev = max(triplet_dev, float(vals[2]))

    ok = gap_dev <= 1e-8 and max_ratio <= 12.0 and triplet_dev <= 1e-12
    _report(
        10,
        ok,
        f"anticrossing gap dev {gap_dev:.2e} (tol 1e-8); "
        f"exchange rel error / (t/U)^2 max {max_ratio:.2f} (bound 12); "
        f"triplet drift with hopping {triplet_dev:.2e} (tol 1e-12)",
    )


def test_criterion_11_mle_physicality_and_fidelity():
    q = mub_quorum()
    worst_eig = 0.0
    worst_trace = 0.0
    for successes in (0, 50):
        res = mle_from_frequencies(np.full(15, successes / 50), 50, q)
        mat = res.rho_mle.matrix  # DensityMatrix construction validates
        worst_eig = min(worst_eig, float(np.linalg.eigvalsh(mat)[0]))
        worst_trace = max(worst_trace, abs(float(np.trace(mat).real) - 1.0))

    worst_fid = 1.0
    for truth in (
        DensityMatrix(random_pure(0).projector()),
        DensityMatrix(random_pure(3).projector()),
        random_density(12),
    ):
        m = born_probabilities(truth, q.matrices)
        res = mle_from_frequencies(m, 10**6, q)
        worst_fid = min(worst_fid, state_fidelity(res.rho_mle, truth))

    ok = worst_eig >= -1e-12 and worst_trace <= 1e-12 and worst_fid > 1.0 - 1e-6
    _report(
        11,
        ok,
        f"degenerate all-zero/all-success records stay physical "
        f"(min eig {worst_eig:.1e}, trace dev {worst_trace:.1e}); "
        f"exact-input fidelity {worst_fid:.9f} > 1 - 1e-6",
    )

"""Shot sampling, readout degradation, noisy-angle averaging, planning."""

import numpy as np
import pytest

from spintomo.gates import (
    Circuit,
    Gate,
    GateKind,
    NoiseModel,
    average_readouts,
    readout_steps,
)
from spintomo.measure import (
    AveragedProjector,
    average_projector,
    born_probabilities,
    calibration_matrix,
    degrade_readout,
    plan_shots,
    simulate_counts,
)
from spintomo.qmath import (
    SINGLET,
    UP_DOWN,
    UP_UP,
    pauli_expand,
    random_density,
    stream,
)
from spintomo.quorum import BASE_STATES, Projector, mub_preparations, mub_quorum, pmatrix

from support import unitary


def test_simulate_counts_shots_broadcast_and_validation():
    q = mub_quorum().matrices
    rho = random_density(1).matrix
    counts = simulate_counts(rho, q, 500, seed=0)
    assert counts.shape == (1, 15) and counts.dtype == np.int64
    assert np.all((0 <= counts) & (counts <= 500))
    explicit = simulate_counts(rho, q, np.arange(1, 16), seed=0, reps=3)
    assert explicit.shape == (3, 15)
    assert np.all((0 <= explicit) & (explicit <= np.arange(1, 16)))
    with pytest.raises(ValueError):
        simulate_counts(rho, q, (10, 20), seed=0)
    with pytest.raises(ValueError):
        simulate_counts(rho, q, 0, seed=0)
    with pytest.raises(ValueError):
        simulate_counts(rho, q, 10, seed=0, reps=-1)


def test_born_probabilities_known_values():
    q = mub_quorum()
    probs = born_probabilities(np.eye(4) / 4.0, q.matrices)
    np.testing.assert_allclose(probs, 0.25, atol=1e-14)
    probs = born_probabilities(UP_UP, q.matrices)
    np.testing.assert_allclose(probs[0], 1.0, atol=1e-14)  # P1 = |uu><uu|
    np.testing.assert_allclose(probs[1], 0.0, atol=1e-14)
    np.testing.assert_allclose(probs[3:], 0.25, atol=1e-13)  # unbiased bases


def test_born_probabilities_reject_unphysical():
    bad = np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex)
    with pytest.raises(ValueError):
        born_probabilities(bad, mub_quorum().matrices)


def test_simulate_counts_deterministic():
    rho = random_density(1).matrix
    q = mub_quorum().matrices
    a = simulate_counts(rho, q, 1000, seed=42, reps=2)
    np.testing.assert_array_equal(a, simulate_counts(rho, q, 1000, seed=42, reps=2))
    assert not np.array_equal(a, simulate_counts(rho, q, 1000, seed=43, reps=2))
    assert not np.array_equal(a[0], a[1])


def test_simulate_counts_statistics():
    # frequencies concentrate around Born probabilities (Hoeffding envelope)
    rho = random_density(5).matrix
    probs = born_probabilities(rho, mub_quorum().matrices)
    n = 4000
    freqs = simulate_counts(rho, mub_quorum().matrices, n, seed=11, reps=50) / n
    dev = np.max(np.abs(freqs.mean(axis=0) - probs))
    # se of the mean of 50 reps at n = 4000: sqrt(p q / (n * 50)) <= 1.2e-3
    assert dev < 6e-3


@pytest.mark.parametrize(
    "rho, shots",
    [(random_density(4, rank=3).matrix, tuple(range(40, 640, 40))), (UP_UP, 25)],
    ids=["shots_list", "up_up"],
)
def test_rows_are_successive_draws_of_one_stream_per_projector(rho, shots):
    matrices = mub_quorum().matrices
    shots_arr = np.broadcast_to(shots, (15,))
    full = simulate_counts(rho, matrices, shots, seed=5, reps=9)
    # a longer study extends a shorter one: its first r rows do not move,
    # and a single run is row 0
    for r in (1, 4, 9):
        np.testing.assert_array_equal(
            full[:r], simulate_counts(rho, matrices, shots, seed=5, reps=r)
        )
    # column j is projector j's one stream, keyed as repetition 0 was in
    # 0.2.0 and drawn one count at a time
    probs = born_probabilities(rho, matrices)
    for j, n in enumerate(shots_arr):
        rng = stream("shots", 5, j, 0)
        np.testing.assert_array_equal(full[:, j], [rng.binomial(n, probs[j]) for _ in range(9)])
    certain = (probs == 0.0) | (probs == 1.0)  # up_up: two zeros and a one
    assert np.all(full[:, certain] == (probs * shots_arr)[certain])


def test_degrade_readout_limits():
    p = SINGLET
    erased = degrade_readout(p, 0.5)
    np.testing.assert_allclose(erased, np.eye(4) / 4.0, atol=0.0)  # exact
    ident = degrade_readout(p, 1.0)
    np.testing.assert_allclose(ident, p, atol=0.0)
    with pytest.raises(ValueError):
        degrade_readout(p, 0.4)
    with pytest.raises(ValueError):
        degrade_readout(p, 1.1)
    # a stack maps operator by operator
    stack = mub_quorum().matrices
    degraded = degrade_readout(stack, 0.9)
    assert degraded.shape == (15, 4, 4)
    for m, d in zip(stack, degraded):
        np.testing.assert_array_equal(d, degrade_readout(m, 0.9))


def test_degrade_readout_affine_in_operator():
    # degradation acts entrywise-affine: commutes with unitary conjugation
    f = 0.8
    u = unitary(GateKind.ESR_X_QUBIT1, np.pi / 4)
    p = UP_DOWN
    lhs = degrade_readout(u @ p @ u.conj().T, f)
    rhs = u @ degrade_readout(p, f) @ u.conj().T
    np.testing.assert_allclose(lhs, rhs, atol=1e-14)


def _noise(**kinds) -> NoiseModel:
    """The model of a noise block: gate kind name -> (mean_rad, std_rad)."""
    return NoiseModel.from_json({kind: {"mean_rad": mean, "std_rad": std}
                                 for kind, (mean, std) in kinds.items()})


def test_noise_model_json_round_trip():
    # the CLI rejects malformed noise blocks before from_json sees them; an
    # absent kind or field is 0, in GateKind order, read-only
    nm = NoiseModel.from_json({"exchange_pulse": {"mean_rad": 0.01, "std_rad": 0.05},
                               "esr_x_qubit1": {"std_rad": 0.2}, "z_rot_both": {}})
    np.testing.assert_array_equal(nm.means, [0.01, 0, 0, 0, 0, 0])
    np.testing.assert_array_equal(nm.stds, [0.05, 0, 0, 0, 0, 0.2])
    assert not nm.means.flags.writeable and not nm.stds.flags.writeable
    data = {k.value: {"mean_rad": m, "std_rad": s} for k, m, s in zip(GateKind, nm.means, nm.stds)}
    again = NoiseModel.from_json(data)
    np.testing.assert_array_equal(again.means, nm.means)
    np.testing.assert_array_equal(again.stds, nm.stds)
    for empty in (NoiseModel(), NoiseModel.from_json({})):
        np.testing.assert_array_equal([empty.means, empty.stds], np.zeros((2, 6)))
    # the checks run once, where the model is built
    with pytest.raises(ValueError, match="nonnegative"):
        _noise(z_rot_both=(0.0, -0.1))
    for bad in ((np.nan, 0.1), (0.0, np.nan), (np.inf, 0.0)):
        with pytest.raises(ValueError, match="finite"):
            _noise(z_rot_both=bad)
    with pytest.raises(ValueError, match="one mean and std per gate kind"):
        NoiseModel(np.zeros(5), np.zeros(5))
    with pytest.raises(ValueError, match="bogus"):
        NoiseModel.from_json({"bogus": {}})
    # a kind absent from the block is noise-free: a gradient gate averages
    # to its exact conjugation under this model
    circuit = Circuit((Gate(GateKind.GRADIENT_Z, 0.7),))
    base = Projector(SINGLET, "P_S")
    np.testing.assert_array_equal(average_projector(circuit, base, nm).projector.matrix,
                                  average_projector(circuit, base, NoiseModel()).projector.matrix)


def test_average_projector_zero_noise_is_exact():
    # with all stds zero the average is the deterministic conjugation by
    # the adjoint circuit
    noise = NoiseModel()
    for prep in mub_preparations()[3:6]:
        base = Projector(BASE_STATES[prep.base_label], prep.base_label)
        meas = prep.measurement_circuit()
        avg = average_projector(meas, base, noise, seed=1)
        u = np.eye(4)
        for g in meas.gates:
            u = unitary(g.kind, g.angle) @ u
        expected = u.conj().T @ base.matrix @ u
        np.testing.assert_allclose(avg.projector.matrix, expected, atol=1e-12)
        assert avg.max_standard_error == 0.0


def test_average_projector_gaussian_characteristic_oracle():
    # one gradient gate with Gaussian angle noise: coherences shrink by
    # exp(-std^2/2), an exact characteristic-function identity
    mu, std = np.pi / 3, 0.4
    shrink = np.exp(-(std**2) / 2.0)
    circuit = Circuit((Gate(GateKind.GRADIENT_Z, mu),))
    base = Projector(SINGLET, "P_S")
    noise = _noise(gradient_z=(0.0, std))
    avg = average_projector(circuit, base, noise, seed=3)
    coeffs = pauli_expand(avg.projector.matrix)
    expected = np.zeros(16)
    expected[0] = 0.5
    expected[15] = -0.5
    expected[5] = -0.5 * shrink * np.cos(mu)
    expected[10] = -0.5 * shrink * np.cos(mu)
    expected[6] = 0.5 * shrink * np.sin(mu)
    expected[9] = -0.5 * shrink * np.sin(mu)
    np.testing.assert_allclose(coeffs, expected, atol=1e-12)


def _monte_carlo_average(circuit, base, noise, samples, rng):
    """Sampled mean of U^dag B U over the noisy angles, with the
    entrywise standard error of that mean."""
    effs = np.empty((samples, 4, 4), dtype=complex)
    for s in range(samples):
        u = np.eye(4, dtype=complex)
        for g in circuit.gates:
            k = list(GateKind).index(g.kind)
            angle = g.angle + noise.means[k] + noise.stds[k] * rng.standard_normal()
            u = unitary(g.kind, angle) @ u
        effs[s] = u.conj().T @ base @ u
    se = np.sqrt(effs.real.var(axis=0, ddof=1) + effs.imag.var(axis=0, ddof=1))
    return effs.mean(axis=0), se / np.sqrt(samples)


def test_average_projector_matches_monte_carlo_oracle():
    # a MUB readout circuit with exchange, z and ESR gates, all noisy
    noise = _noise(exchange_pulse=(0.02, 0.3), z_rot_qubit2=(-0.01, 0.2),
                   z_rot_both=(0.0, 0.25), esr_x_qubit1=(0.03, 0.15))
    prep = mub_preparations()[6]
    circuit = prep.measurement_circuit()
    kinds = {list(GateKind).index(g.kind) for g in circuit.gates}
    assert kinds == set(np.flatnonzero(noise.stds))
    base = Projector(BASE_STATES[prep.base_label], prep.base_label)
    exact = average_projector(circuit, base, noise).projector.matrix
    mean, se = _monte_carlo_average(circuit, base.matrix, noise, 4000,
                                    np.random.default_rng(17))
    assert np.all(np.abs(exact - mean) <= 5.0 * se + 1e-12)
    # the noise is strong enough to move the readout off its ideal form
    ideal = average_projector(circuit, base, NoiseModel()).projector.matrix
    assert np.max(np.abs(exact - ideal)) > 20.0 * np.max(se)


def test_average_projector_deterministic_in_seed():
    # nothing is sampled: the average does not depend on the seed at all
    noise = _noise(exchange_pulse=(0.0, 0.1))
    circuit = Circuit((Gate(GateKind.EXCHANGE_PULSE, np.pi / 2),))
    base = Projector(UP_DOWN, "P_ud")
    a = average_projector(circuit, base, noise, seed=5).projector.matrix
    b = average_projector(circuit, base, noise, seed=5).projector.matrix
    np.testing.assert_array_equal(a, b)
    c = average_projector(circuit, base, noise, seed=6).projector.matrix
    np.testing.assert_array_equal(a, c)


def test_averaged_projector_is_valid_operator():
    noise = _noise(exchange_pulse=(0.0, 0.2), esr_x_qubit1=(0.01, 0.1))
    prep = mub_preparations()[9]
    base = Projector(BASE_STATES[prep.base_label], prep.base_label)
    avg = average_projector(prep.measurement_circuit(), base, noise, seed=2)
    m = avg.projector.matrix
    np.testing.assert_allclose(m, m.conj().T, atol=1e-14)
    np.testing.assert_allclose(np.trace(m).real, 1.0, atol=1e-12)
    assert np.linalg.eigvalsh(m)[0] > -1e-12
    assert isinstance(avg, AveragedProjector)
    # an angle so large that the phases overflow is reported, not averaged
    huge = _noise(esr_x_qubit1=(1e308, 0.0))
    with pytest.raises(ValueError, match="not finite"):
        average_projector(prep.measurement_circuit(), base, huge)


def test_stacked_average_rows_are_each_circuits_own_average():
    # the 15 MUB readouts hold 0 to 5 gates, so each gate position from the
    # end reaches a different set of rows; under noise on all six kinds,
    # each row of the one batched pass is its circuit's average alone
    noise = _noise(**{kind.value: (0.01 * (i + 1), 0.05 + 0.02 * i)
                      for i, kind in enumerate(GateKind)})
    preps = mub_preparations()
    circuits = [prep.measurement_circuit() for prep in preps]
    assert sorted({len(c.gates) for c in circuits}) == [0, 1, 2, 3, 4, 5]
    bases = np.stack([BASE_STATES[prep.base_label] for prep in preps])
    labels = [prep.base_label for prep in preps]
    stacked = average_readouts(readout_steps(circuits), bases, labels, noise)
    for row, circuit, base, label in zip(stacked, circuits, bases, labels):
        own = average_projector(circuit, Projector(base, label), noise).projector.matrix
        np.testing.assert_array_equal(row, own)
    np.testing.assert_array_equal(stacked[:2], bases[:2])  # P01, P02: no gate
    # an overflowing phase names the label of the first readout it
    # reaches: P04 holds the first resonant pulse
    huge = _noise(esr_x_qubit1=(1e308, 0.0))
    with pytest.raises(ValueError, match="^P04: averaged readout is not finite"):
        average_readouts(readout_steps(circuits), bases, [p.label for p in preps], huge)


def test_calibration_matrix_gram():
    q = mub_quorum()
    gram = calibration_matrix(q.matrices)
    assert gram.shape == (15, 15)
    np.testing.assert_allclose(np.diag(gram), 1.0, atol=1e-13)  # pure projectors
    # unbiased cross-basis entries equal 1/4
    assert abs(gram[0, 3] - 0.25) < 1e-13
    np.testing.assert_allclose(gram, gram.T, atol=1e-14)


def test_plan_shots_frozen_values():
    assert plan_shots(0.05, 0.05, 1.0) == 1476
    assert plan_shots(0.05, 0.05, 0.8) == 5457


def test_plan_shots_guarantee_holds():
    # the two promises of the planner, on simulated runs: each coefficient
    # on its own misses delta at most p_limit of the time at
    # plan_shots(delta, p_limit), and all 15 at once do at
    # plan_shots(delta, p_limit / 15), the union bound
    delta, p_limit = 0.1, 0.2
    q = mub_quorum()
    pm = pmatrix(q)
    for seed in range(8):
        rho = random_density(seed).matrix
        true_coeffs = pauli_expand(rho)[1:]

        def misses(n):
            freqs = simulate_counts(rho, q.matrices, n, seed=21, reps=400) / n
            return np.abs((freqs - 0.25) @ pm.inverse.T - true_coeffs) > delta  # (400, 15)

        each = np.max(np.mean(misses(plan_shots(delta, p_limit)), axis=0))
        every = np.mean(np.any(misses(plan_shots(delta, p_limit / 15)), axis=1))
        assert each <= p_limit and every <= p_limit, (seed, each, every)


def test_mub_inverse_rows_hold_two_unit_entries():
    # the structure plan_shots' 3 sqrt(2) rests on: each coefficient is a
    # signed sum of exactly two frequencies, so Hoeffding bounds it alone
    inv = pmatrix(mub_quorum()).inverse
    assert np.all(np.abs(inv - np.round(inv)) < 1e-12)
    assert set(np.round(inv).ravel()) <= {-1.0, 0.0, 1.0}
    assert np.all(np.sum(np.abs(inv) > 0.5, axis=1) == 2)


def test_plan_shots_validation_and_divergence():
    with pytest.raises(ValueError):
        plan_shots(0.0, 0.05)
    with pytest.raises(ValueError):
        plan_shots(0.05, 1.5)
    with pytest.raises(ValueError):
        plan_shots(0.05, 0.05, 0.3)
    with pytest.raises(ValueError):
        plan_shots(0.05, 0.05, 0.5)  # zero contrast: unplannable
    # delta'^2 underflows to 0 at 1e-200; at 1e-160 the run count overflows a float
    for tiny in (1e-200, 1e-160):
        with pytest.raises(ValueError, match="too small"):
            plan_shots(tiny, 0.05)


def test_plan_shots_monotone_in_fidelity():
    values = [plan_shots(0.05, 0.05, f) for f in (0.6, 0.7, 0.8, 0.9, 1.0)]
    assert values == sorted(values, reverse=True)

"""Measurement simulation: shot noise, readout degradation, gate noise.

Born probabilities, shot sampling, readout degradation and the
calibration matrix take the measurement operators as one stack of shape
(n, 4, 4), as ``Quorum.matrices`` holds them.  Counts are binomial
draws of the Born probabilities, one sampler for a single run and a
repeated study alike.  Each projector has one counter-based shot stream
keyed by (seed, projector index), and row r of the counts is the r-th
draw of that stream (a single run is row 0), so simulated experiments
are reproducible and do not depend on the order in which projectors or
rows are computed.

Readout infidelity is one affine map that contracts every operator of a
stack toward the maximally mixed operator.  Coherent gate-angle errors
replace the circuit-conjugated readout operator by its exact mean over
Gaussian angle errors: ``gates.average_readouts`` averages a stack of
readouts in one batched pass, and ``average_projector`` here is that
pass on a stack of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gates import Circuit, NoiseModel, average_readouts, readout_steps
from .qmath import stream
from .quorum import Projector

PROBABILITY_SLACK = 1e-10


def born_probabilities(rho, matrices: np.ndarray) -> np.ndarray:
    """tr(P_j rho) of a (4, 4) state rho for each operator of the stack,
    validated against [0, 1] and clipped."""
    probs = np.einsum("jab,ba->j", matrices, np.asarray(rho, dtype=np.complex128)).real
    if np.any(probs < -PROBABILITY_SLACK) or np.any(probs > 1.0 + PROBABILITY_SLACK):
        raise ValueError(f"Born probability outside [0, 1]: {probs}")
    return np.clip(probs, 0.0, 1.0)


def simulate_counts(rho, matrices: np.ndarray, shots, seed: int, reps: int = 1) -> np.ndarray:
    """Simulated success counts of a stack of operators, int64 of shape
    (reps, n_operators).

    ``shots`` is one trial count for every projector or one per
    projector.  Column j holds the first ``reps`` Binomial(n_j, p_j)
    draws of projector j's shot stream, keyed ("shots", seed, j, 0), so
    row r does not depend on ``reps``: a single run is row 0, and a
    longer study extends a shorter one.
    """
    probs = born_probabilities(rho, matrices)
    shots = np.broadcast_to(np.asarray(shots, dtype=np.int64), probs.shape)
    if np.any(shots < 1):
        raise ValueError("every projector needs at least one shot")
    draws = [
        stream("shots", seed, j, 0).binomial(n, p, size=reps)
        for j, (n, p) in enumerate(zip(shots, probs))
    ]
    return np.stack(draws, axis=1)


def degrade_readout(matrices: np.ndarray, fidelity: float) -> np.ndarray:
    """Readout-infidelity contraction toward the maximally mixed operator.

    P' = (1 - f^2)/3 * I + (4 f^2 - 1)/3 * P for f in [1/2, 1], applied to
    one operator or to every operator of a stack (..., 4, 4); f = 1
    returns P unchanged, f = 1/2 erases all information (P' = I/4).
    """
    if not 0.5 <= fidelity <= 1.0:
        raise ValueError("readout fidelity must lie in [1/2, 1]")
    f2 = fidelity * fidelity
    return ((1.0 - f2) / 3.0) * np.eye(4) + ((4.0 * f2 - 1.0) / 3.0) * matrices


@dataclass(frozen=True)
class AveragedProjector:
    """An averaged readout operator.  The average is exact, so
    ``max_standard_error`` is always 0.0; it stays for callers that
    size a tolerance from it."""

    projector: Projector
    max_standard_error: float = 0.0


def average_projector(
    circuit: Circuit, base: Projector, noise: NoiseModel, seed: int = 0
) -> AveragedProjector:
    """Exact mean of U(alpha)^dag P_base U(alpha) over Gaussian gate angles,
    for one readout: ``average_readouts`` on a stack of one.

    ``circuit`` is the gate sequence the device applies before the base
    readout.  ``seed`` is accepted and ignored: nothing is sampled.

    Raises ValueError when an angle is so large that the phases overflow.
    """
    m = average_readouts(readout_steps([circuit]), base.matrix[None], (base.label,), noise)
    return AveragedProjector(Projector(m[0], f"{base.label}~avg"))


def calibration_matrix(matrices: np.ndarray) -> np.ndarray:
    """Gram matrix M_ij = tr(P_i P_j) of a stack of (possibly imperfect) operators."""
    return np.einsum("iab,jba->ij", matrices, matrices).real


def plan_shots(delta: float, p_limit: float, fidelity: float = 1.0) -> int:
    """Sufficient (Hoeffding) run count that puts each Pauli coefficient,
    on its own, within delta of the truth with failure probability below
    p_limit.  It is not the smallest such count: the exact tail of the two
    binomials behind each coefficient needs 1.5-2.6 times fewer runs at f = 1.

    Every row of the MUB quorum's P^-1 holds exactly two entries of +-1,
    so a frequency error delta' propagates to a reconstructed-coefficient
    error of 3 sqrt(2) delta' / (4 f^2 - 1), and the frequency must be
    pinned to delta' = (4 f^2 - 1) delta / (3 sqrt(2)); Hoeffding then
    bounds the failure probability by 2 exp(-2 N delta'^2).  Returns
    the smallest integer N with that bound strictly below p_limit.  The
    bound is per coefficient: to hold all 15 within delta at once, plan
    with p_limit / 15 (a union bound).  Raises ValueError outside those
    ranges, and for a delta so small that the run count overflows a float.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    if not 0.0 < p_limit < 1.0:
        raise ValueError("p_limit must lie in (0, 1)")
    if not 0.5 <= fidelity <= 1.0:
        raise ValueError("readout fidelity must lie in [1/2, 1]")
    contrast = 4.0 * fidelity * fidelity - 1.0
    if contrast <= 0.0:
        raise ValueError("no sensitivity at fidelity 1/2: cannot plan")
    delta_prime = contrast * delta / (3.0 * math.sqrt(2.0))
    square = delta_prime * delta_prime
    bound = math.log(2.0 / p_limit) / (2.0 * square) if square > 0.0 else math.inf
    if not math.isfinite(bound):
        raise ValueError("delta is too small to plan: the run count overflows")
    return int(math.floor(bound)) + 1

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
Gaussian angle errors, from the characteristic function of the Gaussian.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .gates import Circuit, GateKind, generator_eigh
from .qmath import as_operator, stream
from .quorum import Projector

PROBABILITY_SLACK = 1e-10


def born_probabilities(rho, matrices: np.ndarray) -> np.ndarray:
    """tr(P_j rho) for each operator of the stack, validated against [0, 1]
    and clipped."""
    probs = np.einsum("jab,ba->j", matrices, as_operator(rho)).real
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
class AngleNoise:
    mean_rad: float
    std_rad: float

    def __post_init__(self):
        if not (np.isfinite(self.mean_rad) and np.isfinite(self.std_rad)):
            raise ValueError("noise parameters must be finite")
        if self.std_rad < 0:
            raise ValueError("std_rad must be nonnegative")


@dataclass(frozen=True)
class NoiseModel:
    """Additive Gaussian angle error per gate instance, by gate kind.

    Kinds absent from the table are noise-free.
    """

    gates: dict = field(default_factory=dict)

    @classmethod
    def from_json(cls, data: dict) -> "NoiseModel":
        """The model of a checked noise config block: gate kind name ->
        {"mean_rad", "std_rad"}, where an absent field is 0."""
        return cls({
            GateKind(kind): AngleNoise(float(p.get("mean_rad", 0.0)), float(p.get("std_rad", 0.0)))
            for kind, p in data.items()
        })

    def for_kind(self, kind: GateKind) -> AngleNoise:
        return self.gates.get(kind, AngleNoise(0.0, 0.0))


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
    """Exact mean of U(alpha)^dag P_base U(alpha) over Gaussian gate angles.

    ``circuit`` is the gate sequence the device applies before the base
    readout; each gate's angle is perturbed by an independent Gaussian
    error of its kind's mean and std.  In the eigenbasis of a gate's
    generator H, entry (i, j) of the conjugated operator picks up
    E[exp(i d a)] = exp(i d (angle + mean) - d^2 std^2 / 2) with
    d = lambda_j - lambda_i; the gates are applied last first.  With all
    stds at zero this is evolve_projector(circuit.unitary()^dag, base).
    ``seed`` is accepted and ignored: nothing is sampled.

    Raises ValueError when an angle is so large that the phases overflow.
    """
    x = base.matrix
    for g in reversed(circuit.gates):
        an = noise.for_kind(g.kind)
        lam, vecs = generator_eigh(g.kind)
        d = lam[None, :] - lam[:, None]
        # a huge std damps a coherence to exactly 0; a huge angle overflows
        # the phase to nan, which the check below reports
        with np.errstate(over="ignore", invalid="ignore"):
            factor = np.exp(1j * d * (g.angle + an.mean_rad) - 0.5 * (d * an.std_rad) ** 2)
        x = vecs @ ((vecs.conj().T @ x @ vecs) * factor) @ vecs.conj().T
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{base.label}: averaged readout is not finite (angle too large)")
    sym = 0.5 * (x + x.conj().T)
    sym /= np.trace(sym).real
    return AveragedProjector(Projector(sym, f"{base.label}~avg"))


def calibration_matrix(matrices: np.ndarray) -> np.ndarray:
    """Gram matrix M_ij = tr(P_i P_j) of a stack of (possibly imperfect) operators."""
    return np.einsum("iab,jba->ij", matrices, matrices).real


def tail_bound(n_runs: int, delta: float) -> float:
    """Two-sided Hoeffding bound 2 exp(-2 n delta^2) on |m - p| > delta."""
    return 2.0 * math.exp(-2.0 * n_runs * delta * delta)


def plan_shots(delta: float, p_limit: float, fidelity: float = 1.0) -> int:
    """Smallest run count guaranteeing coefficient error below delta.

    A frequency error delta' propagates to a reconstructed-coefficient
    error of 3 sqrt(2) delta' / (4 f^2 - 1), so the frequency must be
    pinned to delta' = (4 f^2 - 1) delta / (3 sqrt(2)); Hoeffding then
    bounds the failure probability by 2 exp(-2 N delta'^2).  Returns
    the smallest integer N with the bound strictly below p_limit.
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
    bound = math.log(2.0 / p_limit) / (2.0 * delta_prime * delta_prime)
    return int(math.floor(bound)) + 1

"""Two-electron double-dot model in the six-state charge-spin basis.

Basis order: (uu, ud, du, dd) in the (1,1) charge sector, then the
doubly occupied singlets S(2,0) and S(0,2).  Detuning eps raises the
(2,0) singlet to U + eps and lowers the (0,2) singlet to U - eps;
interdot tunneling t couples the (1,1) singlet to both with amplitude
sqrt(2) t; local Zeeman fields h1, h2 act on the (1,1) block only.

In the perturbative regime |t| << |U -+ eps| the low-energy physics is
a Heisenberg exchange J = 4 t^2 U / (U^2 - eps^2) acting on the (1,1)
spins.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .qmath import SIGMA, SINGLET, UP_DOWN, UP_UP
from .quorum import Projector

BASIS_LABELS = ("up_up", "up_down", "down_up", "down_down", "S20", "S02")

#: occupation asymmetry is checked against this fraction of the gap scale
PERTURBATIVE_RATIO = 0.1

#: all 720 orderings of the six levels, for the level-tracking assignment
_PERMUTATIONS = np.array(list(itertools.permutations(range(6))))
_INV_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class DotParams:
    """Device parameters: detuning, charging energy, tunneling, local fields."""

    epsilon: float
    U: float
    t: float
    h1: tuple
    h2: tuple

    def __post_init__(self):
        object.__setattr__(self, "h1", tuple(float(x) for x in self.h1))
        object.__setattr__(self, "h2", tuple(float(x) for x in self.h2))
        vals = (self.epsilon, self.U, self.t) + self.h1 + self.h2
        if len(self.h1) != 3 or len(self.h2) != 3:
            raise ValueError("h1 and h2 must be 3-vectors")
        if not all(np.isfinite(v) for v in vals):
            raise ValueError("DotParams fields must be finite")
        if self.U <= 0:
            raise ValueError("charging energy U must be positive")

    @classmethod
    def from_json(cls, data: dict) -> "DotParams":
        extra = set(data) - {"epsilon", "U", "t", "h1", "h2"}
        if extra:
            raise ValueError(f"unknown DotParams fields: {sorted(extra)}")
        try:
            fields = [data["epsilon"], data["U"], data["t"], *data["h1"], *data["h2"]]
            if any(isinstance(x, bool) for x in fields):
                raise ValueError("DotParams fields must be numbers, not true/false")
            return cls(
                epsilon=float(data["epsilon"]),
                U=float(data["U"]),
                t=float(data["t"]),
                h1=tuple(data["h1"]),
                h2=tuple(data["h2"]),
            )
        except KeyError as exc:
            raise ValueError(f"missing DotParams field: {exc.args[0]}") from exc
        except TypeError as exc:
            raise ValueError(f"malformed DotParams field: {exc}") from exc

    def to_json(self) -> dict:
        return {
            "epsilon": self.epsilon,
            "U": self.U,
            "t": self.t,
            "h1": list(self.h1),
            "h2": list(self.h2),
        }

    def replace_epsilon(self, epsilon: float) -> "DotParams":
        return DotParams(epsilon, self.U, self.t, self.h1, self.h2)


def zeeman_block(p: DotParams) -> np.ndarray:
    """h1.sigma_1 + h2.sigma_2 on the (1,1) product basis."""
    h1 = sum(p.h1[i] * SIGMA[i + 1] for i in range(3))
    h2 = sum(p.h2[i] * SIGMA[i + 1] for i in range(3))
    return np.kron(h1, SIGMA[0]) + np.kron(SIGMA[0], h2)


def hamiltonian6(p: DotParams) -> np.ndarray:
    """Six-level Hamiltonian in the BASIS_LABELS ordering."""
    h = np.zeros((6, 6), dtype=np.complex128)
    h[:4, :4] = zeeman_block(p)
    h[4, 4] = p.U + p.epsilon
    h[5, 5] = p.U - p.epsilon
    # sqrt(2) t coupling of the (1,1) singlet to each doubly occupied singlet,
    # written out on the product basis: <ud|H|S(2,0)> = t, <du|H|S(2,0)> = -t
    for col in (4, 5):
        h[1, col] = p.t
        h[2, col] = -p.t
        h[col, 1] = p.t
        h[col, 2] = -p.t
    return h


def singlet_block(p: DotParams) -> np.ndarray:
    """3x3 Hamiltonian on (S(1,1), S(2,0), S(0,2)); exact when h1 = h2 = 0."""
    s2t = np.sqrt(2.0) * p.t
    return np.array(
        [
            [0.0, s2t, s2t],
            [s2t, p.U + p.epsilon, 0.0],
            [s2t, 0.0, p.U - p.epsilon],
        ]
    )


def schrieffer_wolff_valid(p: DotParams) -> bool:
    """True when |t| is below PERTURBATIVE_RATIO of both charge gaps."""
    gap = min(abs(p.U - p.epsilon), abs(p.U + p.epsilon))
    return abs(p.t) <= PERTURBATIVE_RATIO * gap


def exchange_J(p: DotParams) -> float:
    """Second-order exchange splitting 4 t^2 U / (U^2 - eps^2).

    Raises at the charge degeneracy eps = +-U; warns when the
    perturbative condition |t| << |U -+ eps| is not met.
    """
    denom = p.U * p.U - p.epsilon * p.epsilon
    if abs(denom) < 1e-12 * p.U * p.U:
        raise ValueError("exchange has a pole at eps = +-U")
    if not schrieffer_wolff_valid(p):
        warnings.warn(
            "exchange_J outside its perturbative regime: |t| is not small "
            "against |U -+ eps|",
            stacklevel=2,
        )
    return 4.0 * p.t * p.t * p.U / denom


def exact_exchange_splitting(p: DotParams) -> float:
    """Singlet-triplet splitting E(T0) - E(S) from the six-level model at h = 0.

    The triplets stay at zero energy; the splitting is minus the lowest
    eigenvalue of the singlet block.
    """
    if any(p.h1) or any(p.h2):
        raise ValueError("exact splitting oracle is defined at zero field")
    return -float(np.linalg.eigvalsh(singlet_block(p))[0])


def spectrum_sweep(p: DotParams, eps_values: np.ndarray) -> np.ndarray:
    """Eigenvalues along a detuning sweep, continuity-tracked.

    Columns follow individual levels through crossings by maximizing
    the total eigenvector overlap with the previous step over all 720
    level orderings, so the returned curves are smooth even where
    plain ascending order would swap branches.
    """
    eps_values = np.asarray(eps_values, dtype=np.float64)
    if eps_values.ndim != 1 or eps_values.size < 1:
        raise ValueError("eps_values must be a non-empty 1-d array")
    out = np.empty((eps_values.size, 6))
    prev_vecs = None
    for row, eps in enumerate(eps_values):
        vals, vecs = np.linalg.eigh(hamiltonian6(p.replace_epsilon(eps)))
        if prev_vecs is not None:
            overlap = np.abs(prev_vecs.conj().T @ vecs) ** 2
            cols = _PERMUTATIONS[np.argmax(overlap[range(6), _PERMUTATIONS].sum(axis=1))]
            vals = vals[cols]
            vecs = vecs[:, cols]
        out[row] = vals
        prev_vecs = vecs
    return out


def min_singlet_gap(p: DotParams, eps_window: tuple) -> float:
    """Smallest gap between the two lowest singlet levels over a window.

    Near eps = U this is the S-(0,2) anticrossing, whose gap is
    2 sqrt(2) |t| up to O(t^2/U) corrections from the far-detuned
    (2,0) singlet.  A golden-section search narrows the window to a
    width of 1e-12 (or a few ulps, for windows far from zero).
    """
    lo, hi = float(eps_window[0]), float(eps_window[1])
    if not (np.isfinite(lo) and np.isfinite(hi) and lo <= hi):
        raise ValueError("eps_window must be a finite ordered pair (lo, hi)")

    def gap(eps):
        vals = np.linalg.eigvalsh(singlet_block(p.replace_epsilon(eps)))
        return vals[1] - vals[0]

    tol = 1e-12 + 4.0 * np.spacing(max(abs(lo), abs(hi)))
    while hi - lo > tol:
        a, b = hi - _INV_GOLDEN * (hi - lo), lo + _INV_GOLDEN * (hi - lo)
        if gap(a) < gap(b):
            hi = b
        else:
            lo = a
    return float(gap(0.5 * (lo + hi)))


class SweepProtocol(str, Enum):
    SLOW_ADIABATIC = "slow_adiabatic"
    SLOW_THEN_FAST = "slow_then_fast"
    FAST = "fast"


def sweep_projector(protocol: SweepProtocol) -> Projector:
    """Readout projector realized by a detuning sweep protocol.

    A fully adiabatic sweep maps the lowest polarized triplet, a sweep
    that is adiabatic only through the nuclear-gradient region maps
    |ud>, and a sudden sweep preserves the singlet; the corresponding
    measurement operators are P_uu, P_ud and P_S.
    """
    protocol = SweepProtocol(protocol)
    if protocol == SweepProtocol.SLOW_ADIABATIC:
        return Projector(UP_UP.projector(), "P_up_up")
    if protocol == SweepProtocol.SLOW_THEN_FAST:
        return Projector(UP_DOWN.projector(), "P_up_down")
    return Projector(SINGLET.projector(), "P_singlet")

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
from dataclasses import dataclass

import numpy as np

from .qmath import SIGMA

#: all 720 orderings of the six levels, for the level-tracking assignment
_PERMUTATIONS = np.array(list(itertools.permutations(range(6))))


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

    def replace_epsilon(self, epsilon: float) -> "DotParams":
        return DotParams(epsilon, self.U, self.t, self.h1, self.h2)


def zeeman_block(p: DotParams) -> np.ndarray:
    """h1.sigma_1 + h2.sigma_2 on the (1,1) product basis."""
    h1 = sum(p.h1[i] * SIGMA[i + 1] for i in range(3))
    h2 = sum(p.h2[i] * SIGMA[i + 1] for i in range(3))
    return np.kron(h1, SIGMA[0]) + np.kron(SIGMA[0], h2)


def hamiltonian6(p: DotParams) -> np.ndarray:
    """Six-level Hamiltonian in the basis order of the module docstring."""
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

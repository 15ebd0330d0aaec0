"""Reference computations for the benchmark's output checks.

Written from the paper's formulas with numpy alone, apart from the
``spintomo`` package, so that a fault in the package cannot hide behind
the same fault in its checker.

Operators are 4x4 matrices in the product basis (uu, ud, du, dd); the
traceless operator basis is D_k = sigma_i sigma_l / 2 with k = 4 i + l.
"""

from __future__ import annotations

import numpy as np

SIGMA = np.array(
    [[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]],
    dtype=np.complex128,
)
EYE = np.eye(4, dtype=np.complex128)


def pauli2(i: int, l: int) -> np.ndarray:
    """sigma_{1i} sigma_{2l} as a 4x4 matrix, unnormalised."""
    return np.kron(SIGMA[i], SIGMA[l])


#: D_1 .. D_15, the traceless half of the orthonormal Pauli basis
TRACELESS = np.stack([pauli2(k // 4, k % 4) / 2.0 for k in range(1, 16)])

# The paper's closed form of the 15 unbiased-basis projectors:
# P_j = (1 + sum of sign * sigma_{1i} sigma_{2l}) / 4 over the (i, l, sign) listed.
MUB_TERMS = (
    ((3, 0, +1), (0, 3, +1), (3, 3, +1)),
    ((3, 0, +1), (0, 3, -1), (3, 3, -1)),
    ((3, 0, -1), (0, 3, +1), (3, 3, -1)),
    ((1, 0, +1), (0, 1, +1), (1, 1, +1)),
    ((1, 0, -1), (0, 1, +1), (1, 1, -1)),
    ((1, 0, +1), (0, 1, -1), (1, 1, -1)),
    ((2, 0, +1), (0, 2, +1), (2, 2, +1)),
    ((2, 0, -1), (0, 2, +1), (2, 2, -1)),
    ((2, 0, +1), (0, 2, -1), (2, 2, -1)),
    ((3, 1, -1), (1, 2, -1), (2, 3, -1)),
    ((3, 1, -1), (1, 2, +1), (2, 3, +1)),
    ((3, 1, +1), (1, 2, +1), (2, 3, -1)),
    ((2, 1, +1), (3, 2, -1), (1, 3, +1)),
    ((2, 1, -1), (3, 2, -1), (1, 3, -1)),
    ((2, 1, -1), (3, 2, +1), (1, 3, +1)),
)

_KETS = {
    "u": np.array([1.0, 0.0]),
    "d": np.array([0.0, 1.0]),
    "+x": np.array([1.0, 1.0]) / np.sqrt(2.0),
    "+y": np.array([1.0, 1.0j]) / np.sqrt(2.0),
    "-y": np.array([1.0, -1.0j]) / np.sqrt(2.0),
}

#: the all-separable quorum: 15 product states (first qubit, second qubit)
SEPARABLE_KETS = (
    ("u", "u"), ("u", "d"), ("d", "u"), ("-y", "u"), ("-y", "d"),
    ("+x", "d"), ("+x", "u"), ("+x", "-y"), ("+x", "+x"), ("-y", "+x"),
    ("u", "+x"), ("d", "+x"), ("d", "+y"), ("u", "+y"), ("-y", "+y"),
)


def _ket_projector(ket: np.ndarray) -> np.ndarray:
    ket = np.asarray(ket, dtype=np.complex128)
    ket = ket / np.linalg.norm(ket)
    return np.outer(ket, ket.conj())


SINGLET = _ket_projector([0, 1, -1, 0])
NAMED_STATES = {
    "singlet": SINGLET,
    "triplet_zero": _ket_projector([0, 1, 1, 0]),
    "up_up": _ket_projector([1, 0, 0, 0]),
    "up_down": _ket_projector([0, 1, 0, 0]),
    "down_up": _ket_projector([0, 0, 1, 0]),
    "down_down": _ket_projector([0, 0, 0, 1]),
    "maximally_mixed": EYE / 4.0,
}

#: the three states the spin-to-charge readout projects onto
READOUT_PROJECTORS = (NAMED_STATES["up_up"], NAMED_STATES["up_down"], SINGLET)

#: control generators G of the gates exp(i angle G), by gate-kind name
GENERATORS = {
    "exchange_pulse": SINGLET,
    "z_rot_qubit1": pauli2(3, 0),
    "z_rot_qubit2": pauli2(0, 3),
    "z_rot_both": pauli2(3, 0) + pauli2(0, 3),
    "gradient_z": (pauli2(3, 0) - pauli2(0, 3)) / 4.0,
    "esr_x_qubit1": pauli2(1, 0),
}


def mub_projectors() -> np.ndarray:
    """The 15 unbiased-basis projectors, shape (15, 4, 4)."""
    out = np.empty((15, 4, 4), dtype=np.complex128)
    for j, terms in enumerate(MUB_TERMS):
        out[j] = EYE + sum(sign * pauli2(i, l) for i, l, sign in terms)
    return out / 4.0


def separable_projectors() -> np.ndarray:
    return np.stack([_ket_projector(np.kron(_KETS[a], _KETS[b])) for a, b in SEPARABLE_KETS])


def degrade(projectors: np.ndarray, fidelity: float) -> np.ndarray:
    """Readout contraction (1 - f^2)/3 I + (4 f^2 - 1)/3 P."""
    f2 = fidelity * fidelity
    return (1.0 - f2) / 3.0 * EYE + (4.0 * f2 - 1.0) / 3.0 * np.asarray(projectors)


def pmatrix(projectors: np.ndarray) -> np.ndarray:
    """P_jk = tr(P_j D_k), k = 1..15."""
    return np.einsum("jab,kba->jk", projectors, TRACELESS).real


def assemble(coeffs: np.ndarray) -> np.ndarray:
    """I/4 + sum_k c_k D_k: the unit-trace operator with traceless part c."""
    return EYE / 4.0 + np.einsum("k,kab->ab", coeffs, TRACELESS)


def probabilities(rho: np.ndarray, projectors: np.ndarray) -> np.ndarray:
    return np.einsum("jab,ba->j", projectors, rho).real


def linear_inversion(freqs: np.ndarray, projectors: np.ndarray) -> np.ndarray:
    """Solve tr(P_j rho) = m_j for the unit-trace Hermitian rho."""
    return assemble(np.linalg.solve(pmatrix(projectors), np.asarray(freqs) - 0.25))


def binomial_loglik(freqs, shots, projectors, rho) -> float:
    """sum_j N_j (m_j log q_j + (1 - m_j) log(1 - q_j)), with 0 log 0 = 0."""
    q = probabilities(rho, projectors)
    m = np.asarray(freqs, dtype=np.float64)
    n = np.asarray(shots, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        hit = np.where(m > 0, m * np.log(q), 0.0)
        miss = np.where(m < 1, (1.0 - m) * np.log1p(-q), 0.0)
    return float(np.sum(n * (hit + miss)))


def covariance(rho, projectors, shots) -> np.ndarray:
    """P^-1 diag(p (1 - p) / N) P^-T, the linear estimate's coefficient covariance."""
    p = probabilities(rho, projectors)
    pinv = np.linalg.inv(pmatrix(projectors))
    return pinv @ np.diag(p * (1.0 - p) / np.asarray(shots, dtype=np.float64)) @ pinv.T


def _psd_sqrt(m: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(m)
    return (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.conj().T


def fidelity(rho, sigma) -> float:
    """Uhlmann fidelity as the trace norm of sqrt(rho) sqrt(sigma)."""
    return float(np.sum(np.linalg.svd(_psd_sqrt(rho) @ _psd_sqrt(sigma), compute_uv=False)))


def trace_distance(rho, sigma) -> float:
    return 0.5 * float(np.sum(np.linalg.svd(rho - sigma, compute_uv=False)))


def gaussian_average(gates, base: np.ndarray) -> np.ndarray:
    """Exact mean of U^dag B U over Gaussian gate angles.

    ``gates`` lists (generator, angle, std) in execution order, so
    U = G_n ... G_1 with G_k = exp(i a_k H_k), a_k ~ N(angle, std^2),
    independent per gate.  In the eigenbasis of H, entry (i, j) of the
    conjugated operator picks up E[exp(i a d)] = exp(i d angle - d^2 std^2 / 2)
    with d = lambda_j - lambda_i.
    """
    x = np.asarray(base, dtype=np.complex128)
    for generator, angle, std in reversed(list(gates)):
        lam, vecs = np.linalg.eigh(generator)
        d = lam[None, :] - lam[:, None]
        factor = np.exp(1j * d * angle - 0.5 * (d * std) ** 2)
        x = vecs @ ((vecs.conj().T @ x @ vecs) * factor) @ vecs.conj().T
    return x


def closure_rank(projectors, generators, tol: float = 1e-10) -> int:
    """Dimension of the smallest operator space that holds the traceless
    parts of the projectors and is closed under X -> i[H, X] for every
    control generator H: the span that circuits of any depth reach."""
    basis = []

    def add(x):
        for b in basis:
            x = x - np.vdot(b, x) * b
        norm = np.linalg.norm(x)
        if norm > tol:
            basis.append(x / norm)
            return True
        return False

    for p in projectors:
        add(p - np.trace(p) / 4.0 * EYE)
    done = 0
    while done < len(basis):
        x = basis[done]
        done += 1
        for h in generators:
            add(1j * (h @ x - x @ h))
    return len(basis)


def is_density_matrix(rho: np.ndarray, atol: float = 1e-10) -> bool:
    """Hermitian, unit trace and positive semidefinite within atol."""
    if np.max(np.abs(rho - rho.conj().T)) > atol:
        return False
    if abs(np.trace(rho).real - 1.0) > atol:
        return False
    return bool(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))[0] >= -atol)

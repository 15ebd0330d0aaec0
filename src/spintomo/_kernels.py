"""The binomial likelihood and its ascent, the inner loop of the MLE.

Kept apart from ``reconstruct`` so that the ascent, ``mle_ascend``, can
be timed and traced on its own.  The likelihood reads a quorum only
through its ``quadratic_forms``, which a ``Quorum`` builds once and
keeps.  Each step of the ascent costs one (15, 256) product for the
curvature of the forms and one 16x16 eigh for the tangent Newton step
(``tangent_eigh``): no QR basis of the tangent space is formed.
"""

from __future__ import annotations

import numpy as np

_Q_FLOOR = 1e-12
_MAX_DAMPINGS = 60
# an accepted step with relative objective gain below _FTOL ends the
# ascent: the iterate is a maximum to working precision
_FTOL = 1e-14
# the ascent ends below this gradient norm, or after MAX_ITER steps
GTOL = 1e-8
MAX_ITER = 10000

# the 16 real coordinates x of a lower-triangular T with real diagonal:
# coordinate k is the real (unit 1) or imaginary (unit 1j) part of
# T[_ROW[k], _COL[k]]
_TRIL_ROW, _TRIL_COL = np.tril_indices(4)
_OFF_DIAGONAL = _TRIL_ROW != _TRIL_COL
_ROW = np.concatenate([_TRIL_ROW, _TRIL_ROW[_OFF_DIAGONAL]])
_COL = np.concatenate([_TRIL_COL, _TRIL_COL[_OFF_DIAGONAL]])
_UNIT = np.concatenate([np.ones(10), np.full(6, 1j)])
_IDENTITY = np.eye(16)


def _to_coordinates(t_mat):
    entries = t_mat[_ROW, _COL]
    return np.where(_UNIT == 1, entries.real, entries.imag)


def _to_matrix(x):
    t_mat = np.zeros((4, 4), dtype=np.complex128)
    np.add.at(t_mat, (_ROW, _COL), x * _UNIT)
    return t_mat


def quadratic_forms(projs):
    """Real symmetric A_j with tr(P_j T^dag T) = x^T A_j x, shape (15, 16, 16),
    for the (15, 4, 4) quorum stack projs; tr(T^dag T) = x^T x."""
    same_row = _ROW[:, None] == _ROW[None, :]
    entries = projs[:, _COL[None, :], _COL[:, None]]  # [j, k, l] -> P_j[col_l, col_k]
    return (np.conj(_UNIT)[:, None] * _UNIT[None, :] * same_row * entries).real


def loglik(q, m, nw):
    """Binomial log-likelihood of frequencies m, weights nw, probabilities q
    clamped into (0, 1) (an unphysical linear estimate may leave them)."""
    qc = np.clip(q, _Q_FLOOR, 1.0 - _Q_FLOOR)
    return float(np.sum(nw * (m * np.log(qc) + (1.0 - m) * np.log1p(-qc))))


def tangent_eigh(neg_hess, x):
    """Eigenvalues (ascending) and eigenvectors, as columns, of a symmetric
    16x16 matrix restricted to the tangent space of the unit sphere at x.

    With P = I - x x^T, P neg_hess P plus s x x^T is one rank-2 update
    of neg_hess.  The shift s = -(1 + 2 sum |neg_hess_ij|) lies below the
    whole tangent spectrum, which |neg_hess|_2 bounds, so x is eigenvector
    0 of one 16x16 eigh and dropping it leaves the 15 tangent pairs.
    """
    h = neg_hess @ x
    shift = -(1.0 + 2.0 * np.abs(neg_hess).sum())
    u = h - 0.5 * (x @ h + shift) * x
    vals, vecs = np.linalg.eigh(neg_hess - np.outer(x, u) - np.outer(u, x))
    return vals[1:], vecs[:, 1:]


def mle_ascend(forms, m, nw, t0):
    """Likelihood ascent over the triangular square-root parametrization.

    Maximizes the weighted binomial log-likelihood of rho(T) = T^dag T /
    tr(T^dag T) over the 16 real coordinates x of a lower-triangular T
    with real diagonal, where tr(P_j rho) = x^T A_j x / x^T x for the
    ``quadratic_forms`` A_j of the quorum.  The objective depends on x
    only through x / |x|, so the iterate stays on the unit sphere and
    each step is a damped Newton step in its tangent space: the damping
    is the least that makes the negated Hessian positive definite,
    raised fourfold until the step ascends and lowered fourfold after
    each accepted step.  Rank-deficient optima, where plain gradient
    ascent crawls, are reached in a few steps.

    Returns (T, scaled loglik, iterations, converged, reason), where T is
    t0 itself when no step was taken and reason says why the ascent
    stopped: "gradient" (the gradient norm fell below GTOL), "stall" (a
    step gained less than a relative 1e-14), "no_ascent" (no damped step
    ascends) or "max_iter" (MAX_ITER steps, the one exit that is not
    converged).
    """
    x = _to_coordinates(np.asarray(t0, dtype=np.complex128))
    x = x / np.linalg.norm(x)

    def evaluate(x):
        ax = forms @ x
        q = ax @ x
        return ax, q, loglik(q, m, nw)

    def stop(iterations, reason):
        t_mat = np.array(t0, dtype=np.complex128) if iterations == 0 else _to_matrix(x)
        return t_mat, lik, iterations, reason != "max_iter", reason

    ax, q, lik = evaluate(x)
    damping = 0.0
    for it in range(MAX_ITER):
        qc = np.clip(q, _Q_FLOOR, 1.0 - _Q_FLOOR)
        d1 = nw * (m / qc - (1.0 - m) / (1.0 - qc))
        d2 = nw * (m / qc**2 + (1.0 - m) / (1.0 - qc) ** 2)
        dq = 2.0 * (ax - q[:, None] * x)  # gradients of q_j on the unit sphere
        grad = d1 @ dq
        if np.linalg.norm(grad) < GTOL:
            return stop(it, "gradient")
        # minus the Hessian; its terms along x drop out in the tangent space
        neg_hess = (dq.T * d2) @ dq - 2.0 * (d1 @ forms.reshape(15, 256)).reshape(16, 16)
        neg_hess += 2.0 * np.dot(d1, q) * _IDENTITY
        curv, basis = tangent_eigh(neg_hess, x)
        grad_b = basis.T @ grad
        scale = max(1.0, abs(curv[-1]))
        damping = max(damping, 1e-12 * scale - curv[0])
        for _ in range(_MAX_DAMPINGS):
            x_new = x + basis @ (grad_b / (curv + damping))
            x_new /= np.linalg.norm(x_new)
            ax_new, q_new, lik_new = evaluate(x_new)
            if lik_new > lik:
                break
            damping = max(4.0 * damping, 1e-12 * scale)
        else:
            # no step of any damping ascends: a maximum to working precision
            return stop(it, "no_ascent")
        gain = lik_new - lik
        x, ax, q, lik = x_new, ax_new, q_new, lik_new
        damping *= 0.25
        if gain <= _FTOL * (1.0 + abs(lik)):
            return stop(it + 1, "stall")
    return stop(MAX_ITER, "max_iter")

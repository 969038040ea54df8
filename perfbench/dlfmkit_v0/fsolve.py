"""Factor problem: optimize the relaxed assignment matrix with losses fixed.

Without a chain regularizer the problem is a linear program over a product
of simplices whose optimum is the row-wise argmin vertex. With a KL chain
term it is solved by entropic mirror descent on all rows jointly.
"""

from __future__ import annotations

import numpy as np

from . import model


def solve_f_plain(R: np.ndarray) -> np.ndarray:
    """One-hot rows at the row-wise loss argmin; ties take the smallest index."""
    R = np.asarray(R, dtype=float)
    m, K = R.shape
    Z = np.zeros((m, K))
    Z[np.arange(m), np.argmin(R, axis=1)] = 1.0
    return Z


_FLOOR = 1e-12


def _kl_objective(Z, R, lam):
    linear = float((Z * R).sum())
    if lam == 0.0:
        return linear
    U, V = Z[:-1], Z[1:]
    return linear + lam * float((U * np.log(U / V) - U + V).sum())


def _kl_gradient(Z, R, lam):
    G = R.copy()
    if lam != 0.0:
        ratio = Z[:-1] / Z[1:]
        G[:-1] += lam * np.log(ratio)
        G[1:] += lam * (1.0 - ratio)
    return G


def _renorm(Z):
    Z = np.maximum(Z, _FLOOR)
    return Z / Z.sum(axis=1, keepdims=True)


def solve_f_kl(
    R: np.ndarray,
    lam: float,
    Z_init: np.ndarray,
    tol: float = 1e-9,
    max_iter: int = 50000,
) -> tuple[np.ndarray, bool]:
    """Minimize sum_i z_i . r_i + lam * KL chain over row-stochastic Z.

    Entropic mirror descent: multiplicative update by exp(-step * grad) and
    row renormalization, with the step halved from 1 until the objective
    decreases. Iterates stay strictly positive (floored at 1e-12). Stops on
    relative objective decrease <= tol; hitting max_iter returns the best
    iterate with converged=False.
    """
    R = np.asarray(R, dtype=float)
    Z = _renorm(np.asarray(Z_init, dtype=float).copy())
    val = _kl_objective(Z, R, lam)
    step = 1.0
    converged = False
    for _ in range(max_iter):
        G = _kl_gradient(Z, R, lam)
        G = G - G.min(axis=1, keepdims=True)  # row shifts cancel after renorm
        accepted = False
        while step > 1e-18:
            cand = _renorm(Z * np.exp(-step * G))
            cand_val = _kl_objective(cand, R, lam)
            if cand_val <= val:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            converged = True
            break
        drop = val - cand_val
        Z, val = cand, cand_val
        if drop <= tol * max(1.0, abs(val)):
            converged = True
            break
        step = min(step * 2.0, 1.0)
    return Z, converged


def harden(Z: np.ndarray) -> np.ndarray:
    """1-based labels at the row-wise argmax; ties take the smallest index."""
    Z = np.asarray(Z, dtype=float)
    return np.argmax(Z, axis=1) + 1

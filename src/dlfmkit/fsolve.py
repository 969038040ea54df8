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


def _kl_objective(ZT, RT, lam):
    """(value, ratio, log ratio) on the (K, m) layout; no ratio when lam is 0."""
    linear = float((ZT * RT).sum())
    if lam == 0.0:
        return linear, None, None
    kl, ratio, log_ratio = model.kl_chain_terms(ZT[:, :-1], ZT[:, 1:])
    return linear + lam * kl, ratio, log_ratio


def _renorm(ZT):
    ZT = np.maximum(ZT, _FLOOR)
    return ZT / ZT.sum(axis=0)


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

    The iteration runs on the (K, m) transposes of Z and R, so that the
    per-sample reductions over the K factors run along contiguous rows; the
    chain ratio and its log are kept from the accepted candidate's objective
    for the next gradient. Z is returned C-contiguous in the (m, K) layout.
    """
    RT = np.ascontiguousarray(np.asarray(R, dtype=float).T)
    ZT = _renorm(np.ascontiguousarray(np.asarray(Z_init, dtype=float).T))
    val, ratio, log_ratio = _kl_objective(ZT, RT, lam)
    step = 1.0
    converged = False
    for _ in range(max_iter):
        G = RT.copy()
        if lam != 0.0:
            G[:, :-1] += lam * log_ratio
            G[:, 1:] += lam * (1.0 - ratio)
        G -= G.min(axis=0)  # per-sample shifts cancel after renorm
        accepted = False
        while step > 1e-18:
            cand = _renorm(ZT * np.exp(-step * G))
            cand_val, cand_ratio, cand_log = _kl_objective(cand, RT, lam)
            if cand_val <= val:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            converged = True
            break
        drop = val - cand_val
        ZT, val, ratio, log_ratio = cand, cand_val, cand_ratio, cand_log
        if drop <= tol * max(1.0, abs(val)):
            converged = True
            break
        step = min(step * 2.0, 1.0)
    return np.ascontiguousarray(ZT.T), converged


def harden(Z: np.ndarray) -> np.ndarray:
    """1-based labels at the row-wise argmax; ties take the smallest index."""
    Z = np.asarray(Z, dtype=float)
    return np.argmax(Z, axis=1) + 1

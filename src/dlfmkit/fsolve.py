"""Factor problem: optimize the relaxed assignment matrix with losses fixed.

Without a chain regularizer the problem is a linear program over a product
of simplices whose optimum is the row-wise argmin vertex. With a KL chain
term it is solved by entropic mirror descent on all rows jointly (Beck &
Teboulle, Oper. Res. Lett. 2003), as one kernel on a flat factor-major
buffer that keeps log z next to z. Its objective is evaluated in the log
domain, where the chain's value is a dot product of z with the flat log
differences, cut to 0 on the pairs that cross from one factor into the next.
"""

from __future__ import annotations

import math

import numpy as np


def _first_extremes(Rt: np.ndarray, extreme, arg) -> np.ndarray:
    """(K, m) bool with one True per column of Rt (K, m), at arg(Rt, axis=0).

    extreme is np.minimum with arg np.argmin, or np.maximum with np.argmax.
    K vector ops over the factor axis: mark where each factor attains the
    column's extreme, then keep the first mark of each column, so ties take
    the smallest index. A column with a NaN attains nothing, and takes arg's
    answer, its first NaN.
    """
    hit = np.equal(Rt, extreme.reduce(Rt, axis=0), order="C")
    taken = hit[0].copy()
    for row in hit[1:]:
        np.greater(row, taken, out=row)  # row and not taken
        taken |= row
    if not taken.all():
        miss = np.flatnonzero(~taken)
        hit[arg(Rt[:, miss], axis=0), miss] = True
    return hit


def solve_f_plain(R: np.ndarray) -> np.ndarray:
    """One-hot rows at the row-wise loss argmin; ties take the smallest index.

    Z is returned in Fortran order, as loss_matrix returns R: each factor's
    column is contiguous.
    """
    return _first_extremes(np.asarray(R, dtype=float).T, np.minimum, np.argmin).T.astype(float)


_FLOOR = 1e-12
_LOG_FLOOR = math.log(_FLOOR)


def solve_f_kl(
    R: np.ndarray,
    lam: float,
    Z_init: np.ndarray,
    tol: float = 1e-9,
    max_iter: int = 50000,
) -> tuple[np.ndarray, bool]:
    """Minimize sum_i z_i . r_i + lam * KL chain over row-stochastic Z.

    Entropic mirror descent: multiplicative update by exp(-step * grad) and
    row renormalization, with the step halved from min(2 * step, 1) until
    the objective does not rise. Iterates stay strictly positive (floored at
    1e-12 before renormalization). Stops on relative objective decrease
    <= tol; hitting max_iter returns the last iterate with converged=False.

    One kernel on flat (K*m,) buffers, factor-major (the (K, m) transpose of
    Z, raveled), that keeps log z next to z. A candidate is
    W = max(log z - step * G, log 1e-12); z = exp(W) / s with s the
    per-sample sums, so log z = W - log s. On stochastic rows the chain's
    sum(v - u) is 0 and its value is z[:-1] . D + log s_{m-1} - log s_0,
    with D the flat differences W[:-1] - W[1:] cut to 0 on the K-1 pairs
    that cross from one factor into the next. The gradient's log ratio is
    the same cut difference of log z, and its ratio the exp of that. R and
    Z_init in Fortran order, as loss_matrix and the engine keep them, make
    the (K, m) views free, and Z is returned in that order: the (m, K)
    transpose of the final buffer.
    """
    R = np.asarray(R, dtype=float)
    m, K = R.shape
    r = R.T.ravel()
    n = r.size
    # buffers: the iterate and the candidate (log z is kept for the
    # iterate only), exp(W), the differences, the gradient
    W = np.log(np.maximum(np.asarray(Z_init, dtype=float).T.ravel(), _FLOOR))
    W_cand, z, z_cand, L = np.empty(n), np.empty(n), np.empty(n), np.empty(n)
    E, D, G, s = np.empty(n), np.empty(n - 1), np.empty(n), np.empty(m)

    def evaluate(W, z):
        # z = exp(W) renormalized; returns (objective, log s)
        np.exp(W, out=E)
        np.add.reduce(E.reshape(K, m), axis=0, out=s)
        np.divide(E.reshape(K, m), s, out=z.reshape(K, m))
        log_s = np.log(s)
        np.subtract(W[:-1], W[1:], out=D)
        D[m - 1::m] = 0.0  # pairs (k, m-1) -> (k+1, 0)
        chain = float(z[:-1] @ D) - (log_s[0] - log_s[-1])
        return float(r @ z) + lam * chain, log_s

    val, log_s = evaluate(W, z)
    step = 1.0
    converged = False
    for _ in range(max_iter):
        np.subtract(W.reshape(K, m), log_s, out=L.reshape(K, m))
        np.subtract(L[:-1], L[1:], out=D)
        D[m - 1::m] = 0.0
        np.multiply(D, lam, out=G[:-1])
        G[-1] = 0.0
        G[1:] += lam * (1.0 - np.exp(D))
        G += r
        Gs = G.reshape(K, m)
        Gs -= Gs.min(axis=0)  # per-sample shifts cancel after renorm
        accepted = False
        while step > 1e-18:
            np.multiply(G, -step, out=W_cand)
            W_cand += L
            np.maximum(W_cand, _LOG_FLOOR, out=W_cand)
            cand_val, cand_log_s = evaluate(W_cand, z_cand)
            if cand_val <= val:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            converged = True
            break
        drop = val - cand_val
        W, W_cand, z, z_cand = W_cand, W, z_cand, z
        val, log_s = cand_val, cand_log_s
        if drop <= tol * max(1.0, abs(val)):
            converged = True
            break
        step = min(step * 2.0, 1.0)
    return z.reshape(K, m).T, converged


def harden(Z: np.ndarray) -> np.ndarray:
    """1-based labels at the row-wise argmax; ties take the smallest index."""
    hit = _first_extremes(np.asarray(Z, dtype=float).T, np.maximum, np.argmax)
    return np.arange(1, hit.shape[0] + 1) @ hit

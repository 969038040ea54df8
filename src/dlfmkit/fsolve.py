"""Factor problem: optimize the relaxed assignment matrix with losses fixed.

Without a chain regularizer the problem is a linear program over a product
of simplices whose optimum is the row-wise argmin vertex. With a KL chain
term it is solved by entropic mirror descent on all rows jointly (Beck &
Teboulle, Oper. Res. Lett. 2003), as one kernel on flat factor-major
buffers that keep log z next to z. Its objective is evaluated in the log
domain, where the chain's value is a dot product of z with the flat log
differences, cut to 0 on the pairs that cross from one factor into the next.
The kernel allocates its buffers and their views once per call and writes
every step through them: z has two slots, the iterate's and the
candidate's, swapped by index, and a rejected candidate takes the log of
only the two end sums that the chain's value reads.
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

    Every buffer and view is made once per call. W is one buffer: each
    candidate is written over the iterate's, which the step reads only
    through log z. z has two slots, the iterate's and the candidate's,
    swapped by index. A candidate's objective needs only log s_0 and
    log s_{m-1}; the full log s is taken in place, once the candidate is
    accepted, for the next log z.
    """
    R = np.asarray(R, dtype=float)
    m, K = R.shape
    r = R.T.ravel()
    n = r.size
    # the candidate's W, log z, the gradient, the differences, the sums
    W, L, G, D, s = np.empty(n), np.empty(n), np.empty(n), np.empty(n - 1), np.empty(m)
    W_km, W_head, W_tail = W.reshape(K, m), W[:-1], W[1:]
    L_km, L_head, L_tail = L.reshape(K, m), L[:-1], L[1:]
    G_km, G_head, G_tail = G.reshape(K, m), G[:-1], G[1:]
    D_cut = D[m - 1::m]  # pairs (k, m-1) -> (k+1, 0)
    s_min, s_ends = np.empty(m), np.empty(2)
    z = (np.empty(n), np.empty(n))
    z_km = tuple(v.reshape(K, m) for v in z)
    z_head = tuple(v[:-1] for v in z)

    def evaluate(i):
        # z[i] = exp(W) renormalized, with its sums in s; returns the objective
        np.exp(W, out=z[i])
        np.add.reduce(z_km[i], axis=0, out=s)
        np.divide(z_km[i], s, out=z_km[i])
        s_ends[0], s_ends[1] = s[0], s[-1]
        np.log(s_ends, out=s_ends)
        np.subtract(W_head, W_tail, out=D)
        D_cut.fill(0.0)
        chain = float(z_head[i] @ D) - (s_ends[0] - s_ends[1])
        return float(r @ z[i]) + lam * chain

    np.log(np.maximum(np.asarray(Z_init, dtype=float).T.ravel(), _FLOOR), out=W)
    cur = 0
    val = evaluate(cur)
    step = 1.0
    converged = False
    for _ in range(max_iter):
        # s holds the sums of the iterate, the last point evaluated
        np.log(s, out=s)
        np.subtract(W_km, s, out=L_km)
        np.subtract(L_head, L_tail, out=D)
        D_cut.fill(0.0)
        np.multiply(D, lam, out=G_head)
        G[-1] = 0.0
        np.exp(D, out=D)
        np.subtract(1.0, D, out=D)
        np.multiply(D, lam, out=D)
        G_tail += D
        G += r
        np.minimum.reduce(G_km, axis=0, out=s_min)
        G_km -= s_min  # per-sample shifts cancel after renorm
        accepted = False
        while step > 1e-18:
            np.multiply(G, -step, out=W)
            W += L
            np.maximum(W, _LOG_FLOOR, out=W)
            cand_val = evaluate(1 - cur)
            if cand_val <= val:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            converged = True
            break
        drop = val - cand_val
        cur, val = 1 - cur, cand_val
        if drop <= tol * max(1.0, abs(val)):
            converged = True
            break
        step = min(step * 2.0, 1.0)
    return z_km[cur].T, converged


def harden(Z: np.ndarray) -> np.ndarray:
    """1-based labels at the row-wise argmax; ties take the smallest index."""
    hit = _first_extremes(np.asarray(Z, dtype=float).T, np.maximum, np.argmax)
    return np.arange(1, hit.shape[0] + 1) @ hit

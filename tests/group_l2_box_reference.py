"""The exact solver of the group-l2 Newton model over a sign box that
dlfmkit.psolve used before the model went through kernels.regularized_qp,
kept verbatim as a reference: its minimizer is the one the face loop of
kernels._norm_qp must return, byte for byte, on such models.

minimize x.H x / 2 + c.x + lam ||x|| over the sign box lo <= x <= hi.
"""

import math

import numpy as np

# eigenvalues of H at most this share of the largest span its null space
_NULL_EIGENVALUE = 1e-12
# Newton iterations on the secular equation, at most; from s = 0 they rise
# monotonically and converge quadratically, in a handful
_SECULAR_MAX_ITER = 100
# relative slack of the sign tests of the group-l2 model's KKT check
_KKT_TOL = 1e-10


def _secular_solve(evals, evecs, c, lam):
    """argmin_x x.H x / 2 + c.x + lam ||x|| on R^n, H = evecs diag(evals) evecs'.

    The minimizer is 0 where ||c|| <= lam, and otherwise
    x = -(H + mu I)^-1 c with mu ||x|| = lam: the trust-region secular
    equation (More & Sorensen, 1983). In s = 1 / mu and beta = evecs' c it
    reads q(s) = sum_i beta_i^2 / (1 + evals_i s)^2 = lam^2, and Newton's
    method on the concave increasing 1 / sqrt(q(s)) rises from s = 0
    monotonically to the root. Returns None where the model is unbounded:
    the part of c in the null space of H is at least lam.
    """
    beta = evecs.T @ c
    b2 = beta * beta
    lam2 = lam * lam
    if b2.sum() <= lam2:
        return np.zeros_like(c)
    w = np.maximum(evals, 0.0)
    if b2[w <= _NULL_EIGENVALUE * w[-1]].sum() >= lam2:
        return None
    # n is small, so the iterations run on Python floats: NumPy's per-call
    # cost would be most of their work
    terms = list(zip(b2.tolist(), w.tolist()))
    s = 0.0
    for _ in range(_SECULAR_MAX_ITER):
        q = dq = 0.0  # q(s) and -q'(s) / 2
        for b2_i, w_i in terms:
            den = 1.0 + w_i * s
            t = b2_i / (den * den)
            q += t
            dq += t * w_i / den
        # the Newton step of 1 / sqrt(q) - 1 / lam
        s_next = s + q * (math.sqrt(q) / lam - 1.0) / dq
        if s_next <= s:  # rounding stops the rise at the root
            return -s * (evecs @ (beta / (1.0 + w * s)))
        s = s_next
    return None


def _group_l2_box_model(H, c, lam, lo, hi, free, evals, evecs):
    """argmin of x.H x / 2 + c.x + lam ||x|| over the sign box lo <= x <= hi.

    Every coordinate interval is one of (-inf, 0], [0, inf), (-inf, inf)
    and {0}; evals, evecs are np.linalg.eigh(H), and free guesses the
    coordinates of the minimizer off 0. x = 0 is the minimizer exactly when
    ||clip(-c, lo, hi)||, the distance of -c to the box's polar cone, is at
    most lam (Moreau). Otherwise x solves the unconstrained problem on the
    free coordinates with the others pinned at 0 (`_secular_solve`), and is
    accepted once every free coordinate keeps its sign and every pinned one
    has a multiplier (H x + c)_i of the sign that holds it at 0. Where the
    check fails, only the least-index coordinate that breaks it swaps sides,
    at most 2n times in all: swapping every such coordinate at once can
    cycle. Returns None where no exact minimizer is found: the model is
    unbounded on the free coordinates or the swaps ran out.
    """
    u = np.clip(-c, lo, hi)
    if math.sqrt(u @ u) <= lam:
        return np.zeros_like(c)
    n = c.size
    both = (lo < 0.0) & (hi > 0.0)
    lower, upper = (lo == 0.0) & (hi > 0.0), (hi == 0.0) & (lo < 0.0)  # x >= 0, x <= 0
    free = (free & (lower | upper)) | both
    slack = _KKT_TOL * (lam + math.sqrt(c @ c))
    for _ in range(2 * n + 1):  # the guess, then at most 2n swaps
        eig = (evals, evecs) if free.all() else np.linalg.eigh(H[np.ix_(free, free)])
        x_free = _secular_solve(*eig, c[free], lam)
        if x_free is None:
            return None
        x = np.zeros(n)
        x[free] = x_free
        r = H @ x + c
        tol = _KKT_TOL * math.sqrt(x @ x)
        bad = np.where(
            free,
            (lower & (x < -tol)) | (upper & (x > tol)),
            (lower & (r < -slack)) | (upper & (r > slack)),
        )
        if not bad.any():
            return np.clip(x, lo, hi)
        i = int(bad.argmax())
        free[i] = not free[i]
    return None

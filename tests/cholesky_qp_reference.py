"""The Newton model QP solver that dlfmkit.kernels used before every model
matrix came with its one eigendecomposition, kept verbatim as a reference:
the Cholesky pivot test, which judged a QP's P definite, and `qp_solve` in
the coordinates of P's Cholesky factor.

`qp_solve(prob)` takes a kernels.QpProblem and returns a kernels.QpSolution;
it raises kernels.SingularQp where P fails the pivot test.
"""

import numpy as np

from dlfmkit.kernels import _PROJECT_TOL, SOLVED, QpProblem, QpSolution, SingularQp, _active_set_project

# a QP's P is definite where every pivot of its Cholesky factor keeps
# L_jj^2 > this share of P_jj, as in psolve's collinearity test
_QP_MIN_PIVOT = 1e-12




def _pivot_test(P):
    """(scale, L) with P / scale = L L^T, scale = max diag(P): the Cholesky
    pivot test of qp_solve and `_norm_qp`. Raises SingularQp unless every
    L_jj^2 exceeds _QP_MIN_PIVOT times (P / scale)_jj."""
    diag = P.diagonal().tolist()  # n is small: the tests run on Python floats
    scale = max(diag, default=0.0)
    if not scale > 0.0:  # P = 0 fails the pivot test at any scale
        scale = 1.0
    try:
        L = np.linalg.cholesky(P / scale)
    except np.linalg.LinAlgError:
        L = None  # P is not numerically positive definite
    if L is None or not all(l * l > _QP_MIN_PIVOT * (p / scale) for l, p in zip(L.diagonal().tolist(), diag)):
        raise SingularQp("QP matrix is not numerically positive definite")
    return scale, L


def qp_solve(prob: QpProblem) -> QpSolution:
    """Solve a dense strictly convex QP exactly, in one pass of the active-set loop.

    The rows A x <= b are used as given. P must pass the Cholesky pivot
    test, every L_jj^2 above _QP_MIN_PIVOT times P_jj for P = L L^T; any
    other P raises SingularQp. In u = L^T x the objective is
    |u + L^-1 q|^2 / 2 up to a constant, so the minimizer is x = L^-T u for
    u the Euclidean projection of -L^-1 q onto the rows (A L^-T) u <= b,
    found by `_active_set_project`: the coordinates in which Goldfarb &
    Idnani state their method. Returns SOLVED, with iterations 1, and the
    multipliers y of the rows. Raises ProjectionError on an empty set or a
    breakdown of the loop.
    """
    # P and q scaled to max diag(P) = 1, which leaves the minimizer as it is
    # and keeps u and the rows of A L^-T near the scale of x and A, on which
    # the stop tests of the active-set loop are set
    scale, L = _pivot_test(prob.P)
    u = -np.linalg.solve(L, prob.q / scale)
    y = np.zeros(prob.b.size)  # the multipliers of the rows of P / scale and q / scale
    if prob.b.size:
        u, face, lam = _active_set_project(u, np.linalg.solve(L, prob.A.T).T, prob.b, _PROJECT_TOL)
        if face is not None:
            y[face.rows] = lam
    return QpSolution(np.linalg.solve(L.T, u), SOLVED, 1, scale * y)


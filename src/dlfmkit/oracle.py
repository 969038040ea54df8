"""Ground-truth machinery kept independent of the iterative solvers.

Exhaustive assignment enumeration for the exact mixed-integer problem, a
central-difference gradient, constant-step proximal gradient run to its
fixed point, and an active-set QP solver. All four exist to check the fast
paths, so they trade speed for transparency.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import kernels, model


class InstanceTooLarge(ValueError):
    """Enumeration would exceed the configured budget."""


@dataclass(eq=False)
class OracleResult:
    optimum: float
    best_assignment: np.ndarray  # 1-based labels, length m
    thetas_at_optimum: list


_EXACT_LOSSES = (model.SQUARE_REGRESSION, model.SQUARED_DISTANCE)


def _exact_factor_solve(atom, atoms, feats, obs, n):
    """Exact minimizer of an unweighted loss sum over one factor's subset."""
    if feats.shape[0] == 0:
        # empty factor: zero loss for any feasible point
        return kernels.project(atoms, np.zeros(n))
    if atom.kind == model.SQUARED_DISTANCE:
        # the square distance minimizer over a convex set is the projection
        # of the centroid
        return kernels.project(atoms, (feats + obs[:, None]).mean(axis=0))
    if atom.kind == model.SQUARE_REGRESSION:
        A, lo, hi = kernels.stack_rows(atoms, n)
        if not A.shape[0]:
            theta, *_ = np.linalg.lstsq(feats, obs, rcond=None)
            return theta
        P = 2.0 * feats.T @ feats
        q = -2.0 * feats.T @ obs
        sol = kernels.qp_solve(kernels.qp_problem(P, q, A, lo, hi), tol=1e-10)
        if sol.status != kernels.SOLVED:
            raise RuntimeError(f"oracle inner QP ended with status {sol.status}")
        return sol.x
    raise ValueError(f"brute force needs an exactly solvable loss; got {atom.kind!r}")


def brute_force_fit(spec: model.ModelSpec, data: model.Dataset, budget: float = 1e6) -> OracleResult:
    """Global optimum of the one-hot assignment problem by full enumeration.

    Every one of the K^m assignments is solved exactly per factor (least
    squares, centroids, or a tightly-toleranced QP). Regularized specs are
    rejected; empty factors are allowed and contribute zero loss.
    """
    if spec.p_regularizers or spec.f_regularizers:
        raise ValueError("brute force handles unregularized specs only")
    for atom in spec.loss_per_factor:
        if atom.kind not in _EXACT_LOSSES:
            raise ValueError(f"brute force needs an exactly solvable loss; got {atom.kind!r}")
    m, K = data.m, spec.K
    if K**m > budget:
        raise InstanceTooLarge(f"K^m = {K}^{m} exceeds budget {budget:g}")

    feats = data.features
    obs = data.observations
    best = None
    for assign in itertools.product(range(K), repeat=m):
        labels = np.asarray(assign)
        thetas = []
        total = 0.0
        for k in range(K):
            mask = labels == k
            theta = _exact_factor_solve(
                spec.loss_per_factor[k],
                spec.constraints_per_factor[k],
                feats[mask],
                obs[mask],
                spec.n,
            )
            thetas.append(theta)
            if mask.any():
                total += float(
                    model.batch_losses(spec.loss_per_factor[k], feats[mask], obs[mask], theta).sum()
                )
        if best is None or total < best[0]:
            best = (total, labels + 1, thetas)
    return OracleResult(optimum=best[0], best_assignment=best[1], thetas_at_optimum=best[2])


def fd_gradient(fun, point, step: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of a scalar function."""
    point = np.asarray(point, dtype=float)
    g = np.empty_like(point)
    for i in range(point.size):
        e = np.zeros_like(point)
        e[i] = step
        g[i] = (fun(point + e) - fun(point - e)) / (2.0 * step)
    return g


def prox_gradient_fixed_point(grad, prox, x0, lipschitz: float, max_iter: int = 100000) -> np.ndarray:
    """Fixed point of constant-step proximal gradient, x <- prox(x - grad(x) / L, 1 / L).

    prox(v, t) is the prox of t times the nonsmooth part of the objective,
    and L a Lipschitz constant of the gradient of its smooth part. Then
    every iteration lowers the objective, and the iterates converge to a
    minimizer (Beck & Teboulle, SIAM J. Imaging Sci. 2009). Iterates from x0
    until one repeats its predecessor exactly, or for max_iter iterations.
    """
    step = 1.0 / lipschitz
    x = np.asarray(x0, dtype=float)
    for _ in range(max_iter):
        nxt = prox(x - step * grad(x), step)
        if np.array_equal(nxt, x):
            break
        x = nxt
    return x


def distinct_rows(A, lo, hi):
    """Merge the constraint rows whose (A_i, lo_i, hi_i) are identical.

    Returns None when all rows differ, else (keep, inverse): keep holds the
    first row of each group of identical rows, and row i is row
    keep[inverse[i]].
    """
    R = np.column_stack([A, lo, hi])
    if R.shape[0] < 2:
        return None
    order = np.lexsort(R.T)  # stable: equal rows keep their order
    ordered = R[order]
    starts = np.concatenate([[True], np.any(ordered[1:] != ordered[:-1], axis=1)])
    if starts.all():
        return None
    inverse = np.empty(order.size, dtype=int)
    inverse[order] = np.cumsum(starts) - 1
    return order[starts], inverse


def qp_active_set_oracle(prob: kernels.QpProblem, tol: float = 1e-9) -> np.ndarray:
    """Exact QP solution by enumerating active sets of lo <= Ax <= hi.

    Requires positive definite P and at most 8 constraint rows. Of rows
    with identical (A_i, lo_i, hi_i) only the first is kept, as copies
    would make every KKT system that pins them singular. Each candidate
    pins a subset of rows at a bound, solves the equality-constrained KKT
    system, and keeps KKT points (primal feasible, correctly signed
    multipliers); the best objective wins.
    """
    P, q, A, lo, hi = prob.P, prob.q, prob.A, prob.lo, prob.hi
    if A.shape[0] > 8:
        raise InstanceTooLarge("active-set enumeration supports at most 8 rows")
    groups = distinct_rows(A, lo, hi)
    if groups is not None:
        keep = np.sort(groups[0])
        A, lo, hi = A[keep], lo[keep], hi[keep]
    n, m = q.shape[0], A.shape[0]

    options = []
    for i in range(m):
        if lo[i] >= hi[i]:
            options.append(("eq",))  # equality row is always active
            continue
        opts: list = [None]
        if lo[i] > -kernels.INF:
            opts.append("lo")
        if hi[i] < kernels.INF:
            opts.append("hi")
        options.append(tuple(opts))

    def objective(x):
        return 0.5 * x @ P @ x + q @ x

    best_x, best_val = None, np.inf
    for combo in itertools.product(*options):
        rows = [i for i, c in enumerate(combo) if c is not None]
        targets = np.array(
            [hi[i] if combo[i] in ("hi", "eq") else lo[i] for i in rows], dtype=float
        )
        Aact = A[rows]
        k = len(rows)
        KKT = np.zeros((n + k, n + k))
        KKT[:n, :n] = P
        KKT[:n, n:] = Aact.T
        KKT[n:, :n] = Aact
        rhs = np.concatenate([-q, targets])
        try:
            sol = np.linalg.solve(KKT, rhs)
        except np.linalg.LinAlgError:
            continue
        x, nu = sol[:n], sol[n:]
        ax = A @ x
        if np.any(ax < lo - tol) or np.any(ax > hi + tol):
            continue
        ok = True
        for j, i in enumerate(rows):
            if combo[i] == "hi" and nu[j] < -tol:
                ok = False
                break
            if combo[i] == "lo" and nu[j] > tol:
                ok = False
                break
        if not ok:
            continue
        val = objective(x)
        if val < best_val - 1e-15:
            best_x, best_val = x, val
    if best_x is None:
        raise RuntimeError("no KKT point found; problem may be infeasible")
    return best_x

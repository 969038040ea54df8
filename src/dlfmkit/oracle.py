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
        C, d = kernels.halfspaces(atoms, n)
        if not d.size:
            theta, *_ = np.linalg.lstsq(feats, obs, rcond=None)
            return theta
        # the Gram matrix is singular on subsets of fewer than n rows
        P = 2.0 * feats.T @ feats
        q = -2.0 * feats.T @ obs
        return qp_active_set_oracle(kernels.qp_problem(P, q, C, d))
    raise ValueError(f"brute force needs an exactly solvable loss; got {atom.kind!r}")


def brute_force_fit(spec: model.ModelSpec, data: model.Dataset, budget: float = 1e6) -> OracleResult:
    """Global optimum of the one-hot assignment problem by full enumeration.

    Every one of the K^m assignments is solved exactly per factor (least
    squares, centroids, or the enumerated active sets of its QP, with
    qp_active_set_oracle). Regularized specs are rejected; empty factors
    are allowed and contribute zero loss.
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


def qp_active_set_oracle(prob: kernels.QpProblem, tol: float = 1e-9) -> np.ndarray:
    """Exact QP solution by enumerating the active sets of A x <= b.

    Requires positive semidefinite P and at most 16 rows. At the
    minimizer, the negative gradient lies in the cone of the active rows, so
    by Caratheodory's theorem it is carried by at most n linearly independent
    ones. Every subset of at most n rows is pinned: its KKT system, with P
    and q scaled to a unit max diagonal of P so that the multipliers do not
    grow with P, gives x and the multipliers. x is a candidate where it
    meets every row and every multiplier is nonnegative, both up to tol
    times the size of the terms they are formed from; the candidate with
    the least objective wins, the first of equals. A subset whose system is
    numerically singular (rank below n + k at the SVD rank tolerance) is
    skipped: one that pins a row twice or both sides of an equality, or pins
    too few rows to fix x where P is singular. The systems of one subset
    size are solved as one stack.
    """
    P, q, A, b = prob.P, prob.q, prob.A, prob.b
    n, m = q.shape[0], b.shape[0]
    if m > 16:
        raise InstanceTooLarge("active-set enumeration supports at most 16 rows")
    scale = float(np.diag(P).max(initial=0.0))
    if not scale > 0.0:  # P = 0: any scale serves
        scale = 1.0
    Ps, qs = P / scale, q / scale
    best_x, best_val = None, np.inf
    for k in range(min(n, m) + 1):
        subsets = np.array(list(itertools.combinations(range(m), k)), dtype=int)
        KKT = np.zeros((len(subsets), n + k, n + k))
        KKT[:, :n, :n] = Ps
        KKT[:, :n, n:] = A[subsets].transpose(0, 2, 1)
        KKT[:, n:, :n] = A[subsets]
        rhs = np.concatenate([np.broadcast_to(-qs, (len(subsets), n)), b[subsets]], axis=1)
        regular = np.linalg.matrix_rank(KKT) == n + k
        subsets = subsets[regular]
        sol = np.linalg.solve(KKT[regular], rhs[regular][:, :, None])[:, :, 0]
        x, nu = sol[:, :n], sol[:, n:]
        feasible = x @ A.T - b <= tol * (1.0 + np.abs(x) @ np.abs(A).T + np.abs(b))
        # nu_j A_j balances the terms of the scaled gradient Ps x + qs
        grad = (np.abs(x) @ np.abs(Ps).T + np.abs(qs)).max(axis=1)
        signed = nu >= -tol * (1.0 + grad[:, None] / np.abs(A[subsets]).max(axis=2))
        x = x[feasible.all(axis=1) & signed.all(axis=1)]
        if len(x):
            vals = 0.5 * np.einsum("si,ij,sj->s", x, P, x) + x @ q
            i = int(vals.argmin())
            if vals[i] < best_val:
                best_x, best_val = x[i], vals[i]
    if best_x is None:
        raise RuntimeError("no KKT point found; problem may be infeasible")
    return best_x

"""Parameter problem: minimize the factor-weighted losses with factors fixed.

The problem separates across factors. An unregularized squared-distance
factor is the projection of its weighted centroid onto its constraint set,
whatever that set is. Unregularized square regression builds the n x n
weighted Gram matrix over the rows with nonzero weight once; unconstrained,
it solves the normal equations by Cholesky, with an lstsq fallback when the
Gram matrix is singular or ill-conditioned, and over polyhedral constraints
it is a QP for the QP kernel. Every other combination runs projected
proximal gradient with a backtracking line search.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels, model

P_CONVERGED = "converged"
P_MAX_ITER = "max_iter"
P_SKIPPED = "skipped"  # zero-weight factor, parameters left alone


class SubsolverFailure(RuntimeError):
    """An inner solve broke down; .factor names the offending block."""

    def __init__(self, factor: int, message: str):
        super().__init__(f"factor {factor}: {message}")
        self.factor = factor
        self.message = message

    def __reduce__(self):
        # restarts run in pool workers send their failures back pickled
        return type(self), (self.factor, self.message)


@dataclass(eq=False)
class PSolveOutcome:
    thetas: list
    objective: float  # weighted losses plus parameter regularizers at exit
    R: np.ndarray  # (m, K) loss matrix at the exit thetas
    inner_iterations: list
    statuses: list


@dataclass
class PWorkspace:
    """Per-factor caches reused across block-descent iterations."""

    qp: kernels.QpWorkspace
    proj: kernels.QpWorkspace
    step: float | None = None


def make_workspaces(K: int) -> list[PWorkspace]:
    return [PWorkspace(qp=kernels.QpWorkspace(), proj=kernels.QpWorkspace()) for _ in range(K)]


# smallest accepted L_jj^2 / G_jj, the share of column j's weighted energy
# not explained by the columns before it (a scale-free collinearity test)
_CHOLESKY_MIN_PIVOT = 1e-8


def _weighted_gram(feats, obs, w):
    """Weighted Gram G = X' diag(w) X and b = X' diag(w) y over the rows with
    w_i > 0 (the others add nothing), returned as (G, b, X, y, w) of those rows."""
    idx = np.flatnonzero(w)
    X, y, wi = feats[idx], obs[idx], w[idx]
    Xw = X.T * wi
    return Xw @ X, Xw @ y, X, y, wi


def _weighted_lstsq(feats, obs, w):
    """argmin_theta sum_i w_i (x_i . theta - y_i)^2 over the rows with w_i > 0.

    A rank-deficient or ill-conditioned Gram matrix takes the minimum-norm
    lstsq solution of the same rows instead.
    """
    G, b, X, y, wi = _weighted_gram(feats, obs, w)
    try:
        L = np.linalg.cholesky(G)
        if np.all(np.diag(L) ** 2 > _CHOLESKY_MIN_PIVOT * np.diag(G)):
            return np.linalg.solve(L.T, np.linalg.solve(L, b))
    except np.linalg.LinAlgError:
        pass  # G is not numerically positive definite
    rw = np.sqrt(wi)
    theta, *_ = np.linalg.lstsq(X * rw[:, None], y * rw, rcond=None)
    return theta


def _polyhedral_lstsq(k, atoms, feats, obs, w, warm, ws, controls):
    """Weighted least squares over polyhedral atoms: the QP with P = 2G, q = -2b.

    A QP stopped at its iteration cap never leaves the factor infeasible or
    worse than its warm value. Returns (theta, QP iterations, status).
    """
    G, b, *_ = _weighted_gram(feats, obs, w)
    P, q = 2.0 * G, -2.0 * b
    A, lo, hi = kernels.stack_rows(atoms, G.shape[0])
    sol = kernels.qp_solve(
        kernels.qp_problem(P, q, A, lo, hi),
        tol=controls.qp_tol,
        max_iter=controls.qp_max_iter,
        workspace=ws.qp,
    )
    if sol.status == kernels.PRIMAL_INFEASIBLE:
        raise SubsolverFailure(k, "constraint set reported infeasible")
    if not np.all(np.isfinite(sol.x)):
        raise SubsolverFailure(k, "QP produced non-finite parameters")
    if sol.status == kernels.SOLVED:
        return sol.x, sol.iterations, P_CONVERGED
    # a capped solve may end infeasible or above its start; keep the warm
    # point then, so the block step never ascends
    theta = sol.x
    if warm is None:
        theta = kernels.project(atoms, theta, workspace=ws.proj)
    elif kernels.max_violation(atoms, theta) > 1e-9 or (
        0.5 * theta @ P @ theta + q @ theta > 0.5 * warm @ P @ warm + q @ warm
    ):
        theta = warm
    return theta, sol.iterations, P_MAX_ITER


def _power_lambda_max(M, iters: int = 60):
    n = M.shape[0]
    v = np.full(n, 1.0 / np.sqrt(n))
    lam = 0.0
    for _ in range(iters):
        Mv = M @ v
        nrm = float(np.linalg.norm(Mv))
        if nrm <= 1e-30:
            return 0.0
        v = Mv / nrm
        lam = nrm
    return lam


def _prox_gradient_factor(atom, atoms, regs, feats, obs, w, theta0, ws, tol, max_iter):
    """Projected proximal gradient with halving line search from 1/L-hat."""
    theta = kernels.project(atoms, np.array(theta0, dtype=float), workspace=ws.proj)
    prox = kernels.prox_plan(regs, atoms, theta.size, workspace=ws.proj)

    lam = _power_lambda_max(model.curvature_matrix(atom, feats, obs, w))
    step0 = 1.0 / lam if lam > 1e-12 else 1e3
    step = ws.step if ws.step is not None else step0
    step = min(step * 2.0, step0) if step > 0 else step0

    def smooth(th):
        return float(w @ model.batch_losses(atom, feats, obs, th))

    g_val = smooth(theta)
    total = g_val + model.p_regularizer_value(regs, [theta])
    status = P_MAX_ITER
    it = 0
    for it in range(1, max_iter + 1):
        grad = model.weighted_loss_grad(atom, feats, obs, theta, w)
        accepted = False
        while step > 1e-18:
            cand = prox(theta - step * grad, step)
            diff = cand - theta
            sq = float(diff @ diff)
            if sq <= 1e-32:
                accepted = True
                status = P_CONVERGED  # proximal fixed point
                break
            g_cand = smooth(cand)
            # quadratic upper bound check, then a hard monotonicity guard
            if g_cand <= g_val + float(grad @ diff) + sq / (2.0 * step):
                t_cand = g_cand + model.p_regularizer_value(regs, [cand])
                if t_cand <= total + 1e-12:
                    theta, g_val = cand, g_cand
                    drop = total - t_cand
                    total = t_cand
                    accepted = True
                    if drop <= tol * max(1.0, abs(total)):
                        status = P_CONVERGED
                    break
            step *= 0.5
        if not accepted or status == P_CONVERGED:
            if not accepted:
                status = P_CONVERGED  # no descent step exists at this scale
            break
        step = min(step * 2.0, step0)
    ws.step = step
    return theta, total, it, status


def solve_p(
    spec: model.ModelSpec,
    data: model.Dataset,
    Z: np.ndarray,
    warm=None,
    workspaces=None,
) -> PSolveOutcome:
    """Minimize sum_i ztilde_i . r_i(theta) + parameter regularizers.

    Z supplies the fixed factor weights (its rows need not be one-hot). Warm
    parameter blocks and workspaces from the previous iteration are reused;
    the first call may pass None for both. A factor whose weight column is
    all zero keeps its warm value when unregularized and is driven to the
    regularizer minimizer otherwise. An unregularized squared-distance
    factor is the projection of its weighted centroid onto its constraints
    (none, polyhedral or a norm ball), with no QP of its own. An
    unregularized square regression factor builds its weighted Gram matrix
    over the rows with nonzero weight (one-hot Z after the first F-step
    leaves about m/K of them): unconstrained, it solves the normal equations,
    with a minimum-norm lstsq fallback for singular or ill-conditioned
    systems; over polyhedral constraints it is a QP with P = 2G, and a QP
    stopped at its iteration cap never leaves the factor infeasible or worse
    than its warm value. Everything else runs projected proximal gradient.
    """
    Z = np.asarray(Z, dtype=float)
    K, n, c = spec.K, spec.n, spec.controls
    feats, obs = data.features, data.observations
    regs = [r for r in spec.p_regularizers if r.weight > 0.0]
    if workspaces is None:
        workspaces = make_workspaces(K)

    thetas: list = []
    iters: list = []
    statuses: list = []
    for k in range(K):
        w = Z[:, k]
        atom = spec.loss_per_factor[k]
        atoms = [a for a in spec.constraints_per_factor[k] if a.kind != model.FREE]
        ws = workspaces[k]
        warm_k = None if warm is None else np.asarray(warm[k], dtype=float)
        theta0 = warm_k if warm_k is not None else np.zeros(n)

        if not np.any(w):
            status = P_SKIPPED
            if regs:
                theta, _, it, _ = _prox_gradient_factor(
                    atom, atoms, regs, feats[:0], obs[:0], w[:0], theta0, ws, c.p_tol, c.p_max_iter
                )
            else:
                theta, it = (warm_k if warm_k is not None else kernels.project(atoms, theta0)), 0
        elif atom.kind == model.SQUARED_DISTANCE and not regs:
            # sum_i w_i ||theta - c_i||^2 = W ||theta - c||^2 + const for the
            # weighted centroid c, so its minimizer is the projection of c
            centroid = (w @ (feats + obs[:, None])) / w.sum()
            theta, it, status = kernels.project(atoms, centroid, workspace=ws.proj), 1, P_CONVERGED
        elif atom.kind == model.SQUARE_REGRESSION and not regs and not atoms:
            theta, it, status = _weighted_lstsq(feats, obs, w), 1, P_CONVERGED
        elif (
            atom.kind == model.SQUARE_REGRESSION
            and not regs
            and all(a.kind in kernels.POLYHEDRAL_KINDS for a in atoms)
        ):
            theta, it, status = _polyhedral_lstsq(k, atoms, feats, obs, w, warm_k, ws, c)
        else:
            theta, _, it, status = _prox_gradient_factor(
                atom, atoms, regs, feats, obs, w, theta0, ws, c.p_tol, c.p_max_iter
            )
            if not np.all(np.isfinite(theta)):
                raise SubsolverFailure(k, "gradient step produced non-finite parameters")
        thetas.append(theta)
        iters.append(it)
        statuses.append(status)

    R = model.loss_matrix(spec, data, thetas)
    obj = float((Z * R).sum()) + model.p_regularizer_value(regs, thetas)
    return PSolveOutcome(thetas=thetas, objective=obj, R=R, inner_iterations=iters, statuses=statuses)

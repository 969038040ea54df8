"""Parameter problem: minimize the factor-weighted losses with factors fixed.

The problem separates across factors. Quadratic losses over polyhedral sets
go to a closed form or the QP kernel; every other combination runs projected
proximal gradient with a backtracking line search. Unconstrained weighted
least squares solves the n x n normal equations over the rows with nonzero
weight by Cholesky, and falls back to lstsq on those rows when the Gram
matrix is singular or ill-conditioned.
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


_QUADRATIC = (model.SQUARE_REGRESSION, model.SQUARED_DISTANCE)


def _quadratic_terms(atom, feats, obs, w):
    """(P, q) with weighted loss = 0.5 th' P th + q' th + const."""
    if atom.kind == model.SQUARE_REGRESSION:
        Xw = feats * w[:, None]
        return 2.0 * Xw.T @ feats, -2.0 * Xw.T @ obs
    centers = feats + obs[:, None]
    n = feats.shape[1]
    return 2.0 * w.sum() * np.eye(n), -2.0 * w @ centers


# smallest accepted L_jj^2 / G_jj, the share of column j's weighted energy
# not explained by the columns before it (a scale-free collinearity test)
_CHOLESKY_MIN_PIVOT = 1e-8


def _weighted_lstsq(feats, obs, w):
    """argmin_theta sum_i w_i (x_i . theta - y_i)^2 over the rows with w_i > 0.

    Rows of zero weight add nothing to the system, so only the weighted rows
    are gathered. A rank-deficient or ill-conditioned Gram matrix takes the
    minimum-norm lstsq solution of the same rows instead.
    """
    idx = np.flatnonzero(w)
    X, y, wi = feats[idx], obs[idx], w[idx]
    Xw = X.T * wi
    G = Xw @ X
    b = Xw @ y
    try:
        L = np.linalg.cholesky(G)
        if np.all(np.diag(L) ** 2 > _CHOLESKY_MIN_PIVOT * np.diag(G)):
            return np.linalg.solve(L.T, np.linalg.solve(L, b))
    except np.linalg.LinAlgError:
        pass  # G is not numerically positive definite
    rw = np.sqrt(wi)
    theta, *_ = np.linalg.lstsq(X * rw[:, None], y * rw, rcond=None)
    return theta


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


def _factor_objective(atom, feats, obs, w, regs, theta):
    val = float(w @ model.batch_losses(atom, feats, obs, theta))
    return val + model.p_regularizer_value(regs, [theta])


def _prox_gradient_factor(atom, atoms, regs, feats, obs, w, theta0, ws, tol, max_iter):
    """Projected proximal gradient with halving line search from 1/L-hat."""
    theta = np.asarray(theta0, dtype=float).copy()
    if kernels.max_violation(atoms, theta) > 1e-9:
        theta = kernels.project(atoms, theta, workspace=ws.proj)
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
    regularizer minimizer otherwise. An unconstrained, unregularized square
    regression factor solves its normal equations over the rows with nonzero
    weight (one-hot Z after the first F-step leaves about m/K of them), with
    a minimum-norm lstsq fallback for singular or ill-conditioned systems.
    A QP stopped at its iteration cap never leaves a factor infeasible or
    worse than its warm value.
    """
    Z = np.asarray(Z, dtype=float)
    K, n = spec.K, spec.n
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

        if not np.any(w):
            if regs:
                theta0 = warm_k if warm_k is not None else np.zeros(n)
                theta, _, it, _ = _prox_gradient_factor(
                    atom, atoms, regs, feats[:0], obs[:0], w[:0], theta0, ws,
                    spec.controls.p_tol, spec.controls.p_max_iter,
                )
                thetas.append(theta)
                iters.append(it)
            else:
                theta = warm_k if warm_k is not None else kernels.project(atoms, np.zeros(n))
                thetas.append(theta)
                iters.append(0)
            statuses.append(P_SKIPPED)
            continue

        quadratic = atom.kind in _QUADRATIC and not regs
        polyhedral = all(a.kind in kernels.POLYHEDRAL_KINDS for a in atoms)
        if quadratic and polyhedral:
            if not atoms:
                if atom.kind == model.SQUARED_DISTANCE:
                    theta = (w @ (feats + obs[:, None])) / w.sum()
                else:
                    theta = _weighted_lstsq(feats, obs, w)
                thetas.append(theta)
                iters.append(1)
                statuses.append(P_CONVERGED)
                continue
            P, q = _quadratic_terms(atom, feats, obs, w)
            A, lo, hi = kernels.stack_rows(atoms, n)
            sol = kernels.qp_solve(
                kernels.qp_problem(P, q, A, lo, hi),
                tol=spec.controls.qp_tol,
                max_iter=spec.controls.qp_max_iter,
                workspace=ws.qp,
            )
            if sol.status == kernels.PRIMAL_INFEASIBLE:
                raise SubsolverFailure(k, "constraint set reported infeasible")
            if not np.all(np.isfinite(sol.x)):
                raise SubsolverFailure(k, "QP produced non-finite parameters")
            theta = sol.x
            if sol.status != kernels.SOLVED:
                # a capped solve may end infeasible or above its start; keep
                # the warm point then, so the block step never ascends
                if warm_k is None:
                    theta = kernels.project(atoms, theta, workspace=ws.proj)
                elif kernels.max_violation(atoms, theta) > 1e-9 or (
                    0.5 * theta @ P @ theta + q @ theta > 0.5 * warm_k @ P @ warm_k + q @ warm_k
                ):
                    theta = warm_k
            thetas.append(theta)
            iters.append(sol.iterations)
            statuses.append(P_CONVERGED if sol.status == kernels.SOLVED else P_MAX_ITER)
            continue

        theta0 = warm_k if warm_k is not None else np.zeros(n)
        theta, _, it, status = _prox_gradient_factor(
            atom, atoms, regs, feats, obs, w, theta0, ws,
            spec.controls.p_tol, spec.controls.p_max_iter,
        )
        if not np.all(np.isfinite(theta)):
            raise SubsolverFailure(k, "gradient step produced non-finite parameters")
        thetas.append(theta)
        iters.append(it)
        statuses.append(status)

    R = model.loss_matrix(spec, data, thetas)
    obj = float((Z * R).sum()) + model.p_regularizer_value(regs, thetas)
    return PSolveOutcome(thetas=thetas, objective=obj, R=R, inner_iterations=iters, statuses=statuses)

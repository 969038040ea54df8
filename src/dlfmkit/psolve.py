"""Parameter problem: minimize the factor-weighted losses with factors fixed.

The problem separates across factors. `plan_factors` chooses each factor's
step once per restart, from its loss, its constraint atoms and the parameter
regularizers, and `solve_p` runs the chosen steps on each iteration's factor
weights.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

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


@dataclass(eq=False)
class FactorPlan:
    """One factor's P-step, chosen by plan_factors, and its state across iterations."""

    k: int
    solve: Callable  # solve(plan, feats, obs, w, warm, controls) -> (theta, iterations, status)
    loss: model.LossAtom
    atoms: list  # the factor's constraint atoms, in canonical form
    regs: list  # the parameter regularizers
    project: Callable  # Euclidean projection onto the atoms
    prox: Callable | None = None  # joint prox of regs and atoms, prox-gradient only
    qp: kernels.QpWorkspace = field(default_factory=kernels.QpWorkspace)
    step: float | None = None  # last accepted prox-gradient step
    rows: tuple | None = None  # stacked (A, lo, hi) of the atoms, polyhedral QP only


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


def _projected_centroid(plan, feats, obs, w, warm, controls):
    # sum_i w_i ||theta - c_i||^2 = W ||theta - c||^2 + const for the
    # weighted centroid c, so its minimizer is the projection of c
    centroid = (w @ (feats + obs[:, None])) / w.sum()
    return plan.project(centroid), 1, P_CONVERGED


def _weighted_lstsq(plan, feats, obs, w, warm, controls):
    """argmin_theta sum_i w_i (x_i . theta - y_i)^2 over the rows with w_i > 0.

    A rank-deficient or ill-conditioned Gram matrix takes the minimum-norm
    lstsq solution of the same rows instead.
    """
    G, b, X, y, wi = _weighted_gram(feats, obs, w)
    try:
        L = np.linalg.cholesky(G)
        if np.all(np.diag(L) ** 2 > _CHOLESKY_MIN_PIVOT * np.diag(G)):
            return np.linalg.solve(L.T, np.linalg.solve(L, b)), 1, P_CONVERGED
    except np.linalg.LinAlgError:
        pass  # G is not numerically positive definite
    rw = np.sqrt(wi)
    theta, *_ = np.linalg.lstsq(X * rw[:, None], y * rw, rcond=None)
    return theta, 1, P_CONVERGED


def _polyhedral_lstsq(plan, feats, obs, w, warm, controls):
    """Weighted least squares over polyhedral atoms: the QP with P = 2G, q = -2b.

    A QP stopped at its iteration cap never leaves the factor infeasible or
    worse than its warm value. Reports the QP's iterations.
    """
    G, b, *_ = _weighted_gram(feats, obs, w)
    P, q = 2.0 * G, -2.0 * b
    sol = kernels.qp_solve(
        kernels.qp_problem(P, q, *plan.rows),
        tol=controls.qp_tol,
        max_iter=controls.qp_max_iter,
        workspace=plan.qp,
    )
    if sol.status == kernels.PRIMAL_INFEASIBLE:
        raise SubsolverFailure(plan.k, "constraint set reported infeasible")
    if sol.status == kernels.SOLVED:
        return sol.x, sol.iterations, P_CONVERGED
    # a capped solve may end infeasible or above its start; keep the warm
    # point then, so the block step never ascends
    theta = sol.x
    if warm is None:
        theta = plan.project(theta)
    elif kernels.max_violation(plan.atoms, theta) > 1e-9 or (
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


def _prox_gradient_factor(plan, feats, obs, w, warm, controls):
    """Projected proximal gradient with halving line search from 1/L-hat."""
    atom, regs, prox = plan.loss, plan.regs, plan.prox
    theta = plan.project(np.zeros(feats.shape[-1]) if warm is None else np.array(warm, dtype=float))

    lam = _power_lambda_max(model.curvature_matrix(atom, feats, obs, w))
    step0 = 1.0 / lam if lam > 1e-12 else 1e3
    step = plan.step if plan.step is not None else step0
    step = min(step * 2.0, step0) if step > 0 else step0

    def smooth(th):
        return float(w @ model.batch_losses(atom, feats, obs, th))

    g_val = smooth(theta)
    total = g_val + model.p_regularizer_value(regs, [theta])
    status = P_MAX_ITER
    it = 0
    for it in range(1, controls.p_max_iter + 1):
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
                    if drop <= controls.p_tol * max(1.0, abs(total)):
                        status = P_CONVERGED
                    break
            step *= 0.5
        if not accepted or status == P_CONVERGED:
            if not accepted:
                status = P_CONVERGED  # no descent step exists at this scale
            break
        step = min(step * 2.0, step0)
    plan.step = step
    return theta, it, status


def plan_factors(spec: model.ModelSpec) -> list[FactorPlan]:
    """Choose each factor's P-step once, for all the iterations of a restart.

    Each factor keeps kernels.canonical_atoms of its atoms, one projector
    onto them with its own QP workspace, and one step. Unregularized, a
    squared-distance factor projects its weighted centroid onto its atoms,
    whatever they are; square regression solves the normal equations of its
    weighted Gram matrix when unconstrained (`_weighted_lstsq`), and the QP
    with P = 2G over polyhedral atoms (`_polyhedral_lstsq`), on constraint
    rows stacked here. Everything else runs projected proximal gradient,
    with the joint prox planned on the factor's projector. Plans hold
    closures, which do not pickle: build them in the process that runs the
    restart.
    """
    regs = list(spec.p_regularizers)
    plans = []
    for k in range(spec.K):
        loss = spec.loss_per_factor[k]
        atoms = kernels.canonical_atoms(spec.constraints_per_factor[k], spec.n)
        project = kernels.projector(atoms, spec.n, kernels.QpWorkspace())
        if regs:
            solve = _prox_gradient_factor
        elif loss.kind == model.SQUARED_DISTANCE:
            solve = _projected_centroid
        elif loss.kind == model.SQUARE_REGRESSION and not atoms:
            solve = _weighted_lstsq
        elif loss.kind == model.SQUARE_REGRESSION and atoms[-1].kind != model.NORM_BALL2:
            # the canonical form keeps its one ball, if any, last
            solve = _polyhedral_lstsq
        else:
            solve = _prox_gradient_factor
        plan = FactorPlan(k, solve, loss, atoms, regs, project)
        if solve is _prox_gradient_factor:
            plan.prox = kernels.prox_plan(regs, atoms, spec.n, project)
        elif solve is _polyhedral_lstsq:
            plan.rows = kernels.stack_rows(atoms, spec.n)
        plans.append(plan)
    return plans


def solve_p(
    spec: model.ModelSpec,
    data: model.Dataset,
    Z: np.ndarray,
    warm=None,
    plans=None,
) -> PSolveOutcome:
    """Minimize sum_i ztilde_i . r_i(theta) + parameter regularizers.

    Z supplies the fixed factor weights (its rows need not be one-hot), and
    each factor runs its plan's step from its warm block (None on the first
    call). plans default to plan_factors(spec). A factor whose weight column
    is all zero keeps its warm value when unregularized and is driven to the
    regularizer minimizer otherwise. Raises SubsolverFailure when a step
    breaks down or ends on non-finite parameters.
    """
    Z = np.asarray(Z, dtype=float)
    c = spec.controls
    feats, obs = data.features, data.observations
    if plans is None:
        plans = plan_factors(spec)

    thetas, iters, statuses = [], [], []
    for plan in plans:
        w = Z[:, plan.k]
        warm_k = None if warm is None else np.asarray(warm[plan.k], dtype=float)
        if np.any(w):
            theta, it, status = plan.solve(plan, feats, obs, w, warm_k, c)
        elif plan.regs:
            # the step is prox-gradient; with no rows only the regularizers act
            theta, it, _ = plan.solve(plan, feats[:0], obs[:0], w[:0], warm_k, c)
            status = P_SKIPPED
        else:
            theta = warm_k if warm_k is not None else plan.project(np.zeros(spec.n))
            it, status = 0, P_SKIPPED
        if not np.all(np.isfinite(theta)):
            raise SubsolverFailure(plan.k, "step produced non-finite parameters")
        thetas.append(theta)
        iters.append(it)
        statuses.append(status)

    R = model.loss_matrix(spec, data, thetas)
    obj = float((Z * R).sum()) + model.p_regularizer_value(spec.p_regularizers, thetas)
    return PSolveOutcome(thetas=thetas, objective=obj, R=R, inner_iterations=iters, statuses=statuses)

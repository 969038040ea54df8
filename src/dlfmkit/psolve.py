"""Parameter problem: minimize the factor-weighted losses with factors fixed.

The problem separates across factors. `plan_factors` chooses each factor's
step once per restart, from its loss, its constraint atoms and the parameter
regularizers, and `solve_p` runs the chosen steps on each iteration's factor
weights. The three steps are two closed forms (a projected centroid, the
normal equations) and proximal Newton for every factor that has none. Its
quadratic model is solved exactly by kernels.regularized_qp: the QP of the
polyhedral atoms, with an orthant loop for l1, and a face-by-face
active-set loop, each face solved by its secular equation, for group l2
and the ball. A model whose matrix is not definite is damped first.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    p_reg: float  # the parameter regularizers' value at the exit thetas
    inner_iterations: list
    statuses: list


@dataclass(eq=False)
class FactorPlan:
    """One factor's P-step, chosen by plan_factors, and its state across iterations."""

    k: int
    solve: Callable  # solve(plan, feats, obs, w, warm, controls) -> (theta, iterations, status)
    loss: model.LossAtom
    form: kernels.ConstraintForm  # the factor's constraint atoms, compiled
    regs: list  # the parameter regularizers
    project: Callable  # Euclidean projection onto the atoms
    prox: Callable | None = None  # joint prox of regs and atoms, Newton only
    qp_args: tuple | None = None  # (C, d, l1, l2, radius) of the model's regularized_qp, Newton only
    exact_model: bool = False  # the exact model is the factor's own problem (a quadratic loss)


# smallest accepted L_jj^2 / G_jj, the share of column j's weighted energy
# not explained by the columns before it (a scale-free collinearity test)
_CHOLESKY_MIN_PIVOT = 1e-8


def _nonzero_rows(w):
    # indices of the rows with w_i != 0; np.nonzero on the boolean mask is
    # several times faster than np.flatnonzero on w, contiguous or not
    return np.nonzero(w != 0)[0]


def _weighted_gram(feats, obs, w):
    """Weighted Gram G = X' diag(w) X and b = X' diag(w) y over the rows with
    w_i != 0 (the others add nothing), returned as (G, b, X, y, w) of those rows.

    Rows are gathered, by `take`, only where some weight is 0. Where every
    weight is nonzero, as in the first P-step of a restart from Dirichlet
    draws, feats, obs and w are used as they are, with no copy. Fractional
    weights are applied once, into a C-contiguous (n, m) buffer X' diag(w),
    whose rows are contiguous whatever the layout of X, and G and b are its
    products with X and y. Where every weight is 1, as on the one-hot rows of
    a plain F-step, the rows are not scaled at all, and X' X takes NumPy's
    symmetric product.
    """
    idx = _nonzero_rows(w)
    if idx.size == w.size:
        X, y, wi = feats, obs, w
    else:
        X, y, wi = feats.take(idx, axis=0), obs.take(idx, axis=0), w.take(idx)
    if np.all(wi == 1.0):
        return X.T @ X, X.T @ y, X, y, wi
    XwT = np.multiply(X.T, wi, out=np.empty(X.shape[::-1]))
    return XwT @ X, XwT @ y, X, y, wi


def _projected_centroid(plan, feats, obs, w, warm, controls):
    # sum_i w_i ||theta - c_i||^2 = W ||theta - c||^2 + const for the
    # weighted centroid c of the points c_i = x_i + y_i, so its minimizer is
    # the projection of c; w @ x + w @ y builds no (m, n) points
    centroid = (w @ feats + w @ obs) / w.sum()
    return plan.project(centroid), 1, P_CONVERGED


def _weighted_lstsq(plan, feats, obs, w, warm, controls):
    """argmin_theta sum_i w_i (x_i . theta - y_i)^2 over the rows with w_i != 0.

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


# curvature assumed where the Hessian has less (no weighted rows, saturated
# margins), so that the model's steps stay finite
_MIN_CURVATURE = 1e-12
# sufficient decrease, as a share of the decrease the model predicts
_ARMIJO = 1e-4
# halvings of the Newton step before no descent is taken to exist
_MAX_HALVINGS = 60
# the proximal term of a model QP whose Hessian is not definite is this
# share of the largest H_jj
_PROX_SHARE = 1e-8


def _model_step(plan, theta, g, H):
    """Argmin over the atoms of the model g.d + d.H d / 2 + regs(theta + d).

    Returns the prox-gradient step at theta, with step 1 / lambda_max(H), a
    closer point, and whether that point minimizes the factor's own problem.
    H is decomposed once (kernels.metric), which gives lambda_max(H), its
    definiteness and its damping. The point is kernels.regularized_qp
    with M = H, q = g - H theta and the plan's qp_args, started from the
    prox-gradient step; where H is not definite, with M = H + rho I and
    q = g - M theta for rho = _PROX_SHARE times the largest H_jj: a proximal
    Newton step centred at theta, whose metric need only be positive
    definite (Lee, Sun & Saunders, SIAM J. Optim. 2014). The point is
    projected, onto atoms it meets up to rounding. The undamped model of an
    exact model (plan.exact_model) is the minimizer. Where H has no
    curvature, or the orthant loop hits its cap, it is the prox-gradient step.
    """
    met = kernels.metric(H)
    step = 1.0 / max(float(met.w[-1]), _MIN_CURVATURE)
    first = plan.prox(theta - step * g, step)
    if met.w[-1] <= _MIN_CURVATURE:
        return first, first, False
    exact = plan.exact_model and met.definite
    if not met.definite:
        met = met.damped(_PROX_SHARE * float(np.diag(H).max()))
    x = kernels.regularized_qp(met, g - met.M @ theta, *plan.qp_args, first)
    return (first, first, False) if x is None else (first, plan.project(x), exact)


def _newton_factor(plan, feats, obs, w, warm, controls):
    """Proximal Newton step (Lee, Sun & Saunders, 2014).

    Each iteration takes the value, gradient and model matrix at theta from
    one model.value_grad_hessian (the method needs the matrix positive
    semidefinite, not the exact Hessian), minimizes the quadratic model plus
    the regularizers over the atoms (`_model_step`: exactly, unless H has
    no curvature or the orthant loop hits its cap), and backtracks along
    d = v - theta until the Armijo rule on the model's predicted decrease
    holds. theta + a d stays feasible by convexity, and the rule never
    accepts a step that raises the objective. A full step to the minimizer
    of an exact model ends the solve, and so does an accepted step whose
    drop is at most p_tol times |objective|, floored at min(1, |objective at
    the projected warm start|) so that the test stays relative on objectives
    below 1. p_tol and p_max_iter count Newton iterations; P_MAX_ITER is
    reported only after an accepted step lowered the objective by more than
    that, so never with theta at its projected warm start. Rows with
    w_i = 0 add nothing and are dropped.
    """
    atom, regs = plan.loss, plan.regs
    idx = _nonzero_rows(w)
    if idx.size < w.size:
        feats, obs, w = feats.take(idx, axis=0), obs.take(idx, axis=0), w.take(idx)
    theta = plan.project(np.zeros(feats.shape[-1]) if warm is None else np.array(warm, dtype=float))

    def evaluate(th):
        value, grad, hess = model.value_grad_hessian(atom, feats, obs, th, w)
        reg = model.p_regularizer_value(regs, [th])
        return value + reg, reg, grad, hess

    total, reg, g, H = evaluate(theta)
    # the drop test is relative to the objective, down to the scale it starts at
    floor = min(1.0, abs(total))
    status = P_MAX_ITER
    it = 0
    for it in range(1, controls.p_max_iter + 1):
        # a damped or projected model point, or rounding, may predict no
        # decrease; the prox-gradient step always predicts one unless theta
        # is a fixed point
        first, closer, exact = _model_step(plan, theta, g, H)
        for v in (closer, first):
            d = v - theta
            delta = float(g @ d) + model.p_regularizer_value(regs, [v]) - reg
            if delta < 0.0:
                break
        else:
            status = P_CONVERGED  # proximal fixed point
            break
        a = 1.0
        for _ in range(_MAX_HALVINGS):
            cand = theta + a * d
            t_cand, r_cand, g_cand, H_cand = evaluate(cand)
            if t_cand <= total + _ARMIJO * a * delta:  # delta < 0: a strict decrease
                break
            a *= 0.5
        else:
            status = P_CONVERGED  # no descent step exists at this scale
            break
        drop = total - t_cand
        theta, total, reg, g, H = cand, t_cand, r_cand, g_cand, H_cand
        if drop <= controls.p_tol * max(floor, abs(total)) or (exact and v is closer and a == 1.0):
            status = P_CONVERGED
            break
    return theta, it, status


def plan_factors(spec: model.ModelSpec) -> list[FactorPlan]:
    """Choose each factor's P-step once, for all the iterations of a restart.

    Each distinct constraint list is compiled once (kernels.constraint_form:
    canonical atoms and halfspace rows), keyed by identity as validate keys
    its feasibility probes: shared_spec hands every factor the same tuple.
    Each factor keeps that form, its own projector onto it, whose warm start
    is the factor's own, and one of three steps.
    Unregularized, a squared-distance factor projects its weighted centroid
    onto its atoms, whatever they are (`_projected_centroid`), and an
    unconstrained square regression solves the normal equations of its
    weighted Gram matrix (`_weighted_lstsq`). Every other factor runs
    proximal Newton (`_newton_factor`) on the joint prox planned on its
    projector. The plan keeps qp_args, kernels.regularized_qp_terms of the
    regularizers and form, on which its quadratic model is solved exactly.
    Plans hold closures, which do not pickle: build them in the process
    that runs the restart.
    """
    regs = list(spec.p_regularizers)
    forms: dict = {}
    plans = []
    for k in range(spec.K):
        loss, atoms = spec.loss_per_factor[k], spec.constraints_per_factor[k]
        if id(atoms) not in forms:
            forms[id(atoms)] = kernels.constraint_form(atoms, spec.n)
        form = forms[id(atoms)]
        project = kernels.projector(form)
        if regs:
            solve = _newton_factor
        elif loss.kind == model.SQUARED_DISTANCE:
            solve = _projected_centroid
        elif loss.kind == model.SQUARE_REGRESSION and not form.atoms:
            solve = _weighted_lstsq
        else:
            solve = _newton_factor
        plan = FactorPlan(k, solve, loss, form, regs, project)
        if solve is _newton_factor:
            plan.prox = kernels.prox_plan(regs, form, project)
            plan.qp_args = kernels.regularized_qp_terms(regs, form)
            plan.exact_model = loss.kind == model.SQUARE_REGRESSION
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
    breaks down, finds its constraint set empty (a kernels.ProjectionError
    raised inside it) or ends on non-finite parameters.
    """
    Z = np.asarray(Z, dtype=float)
    c = spec.controls
    feats, obs = data.features, data.observations
    if plans is None:
        plans = plan_factors(spec)

    thetas, iters, statuses = [], [], []
    for plan in plans:
        # contiguous as the engine keeps Z; a copy otherwise, so that the
        # sums over rows, and the thetas, do not depend on Z's layout
        w = np.ascontiguousarray(Z[:, plan.k])
        warm_k = None if warm is None else np.asarray(warm[plan.k], dtype=float)
        try:
            if w.any():
                theta, it, status = plan.solve(plan, feats, obs, w, warm_k, c)
            elif plan.regs:
                # the step is Newton; with no rows only the regularizers act
                theta, it, _ = plan.solve(plan, feats[:0], obs[:0], w[:0], warm_k, c)
                status = P_SKIPPED
            else:
                theta = warm_k if warm_k is not None else plan.project(np.zeros(spec.n))
                it, status = 0, P_SKIPPED
        except kernels.ProjectionError as exc:
            raise SubsolverFailure(plan.k, str(exc)) from exc
        if not np.isfinite(theta).all():
            raise SubsolverFailure(plan.k, "step produced non-finite parameters")
        thetas.append(theta)
        iters.append(it)
        statuses.append(status)

    R = model.loss_matrix(spec, data, thetas)
    p_reg = model.p_regularizer_value(spec.p_regularizers, thetas)
    obj = float((Z * R).sum()) + p_reg
    return PSolveOutcome(thetas=thetas, objective=obj, R=R, p_reg=p_reg,
                         inner_iterations=iters, statuses=statuses)

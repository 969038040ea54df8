"""Declarative problem model: loss, constraint, and regularizer atoms.

A fitting problem is a ModelSpec (K factors, each with a convex loss and a
feasible set built from constraint atoms, plus optional regularizers) paired
with a Dataset. This module evaluates losses and gradients, assembles
objectives, and validates spec/data pairs before any solver runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# loss kinds
SQUARE_REGRESSION = "square_regression"
LP_REGRESSION = "lp_regression"
HUBER = "huber"
SQUARED_DISTANCE = "squared_distance"
MULTINOMIAL_LOGIT = "multinomial_logit"
BINARY_LOGIT = "binary_logit"

LOSS_KINDS = frozenset(
    {
        SQUARE_REGRESSION,
        LP_REGRESSION,
        HUBER,
        SQUARED_DISTANCE,
        MULTINOMIAL_LOGIT,
        BINARY_LOGIT,
    }
)

# losses whose feature is a matrix (one row per class) instead of a vector
MATRIX_FEATURE_KINDS = frozenset({MULTINOMIAL_LOGIT})

# constraint kinds
FREE = "free"
NONNEG = "nonneg"
NONPOS = "nonpos"
BOX = "box"
POLYHEDRON = "polyhedron"
MONOTONE_NONINCREASING = "monotone_nonincreasing"
MONOTONE_NONDECREASING = "monotone_nondecreasing"
NORM_BALL2 = "norm_ball2"
SUM_EQUALS = "sum_equals"

CONSTRAINT_KINDS = frozenset(
    {
        FREE,
        NONNEG,
        NONPOS,
        BOX,
        POLYHEDRON,
        MONOTONE_NONINCREASING,
        MONOTONE_NONDECREASING,
        NORM_BALL2,
        SUM_EQUALS,
    }
)

# regularizer kinds; L1/GROUP_L2 attach to the parameter problem, KL_CHAIN to
# the factor problem
L1 = "l1"
GROUP_L2 = "group_l2"
KL_CHAIN = "kl_chain"

P_REGULARIZER_KINDS = frozenset({L1, GROUP_L2})
F_REGULARIZER_KINDS = frozenset({KL_CHAIN})


@dataclass(frozen=True)
class LossAtom:
    """One factor's per-sample convex loss."""

    kind: str
    order: float | None = None  # lp_regression only
    delta: float | None = None  # huber only


def square_regression() -> LossAtom:
    """Squared residual (x . theta - y)^2."""
    return LossAtom(SQUARE_REGRESSION)


def lp_regression(order: float) -> LossAtom:
    """lp norm of the residual; for scalar observations this is |x . theta - y|.

    Observations are scalar for every regression loss, so the loss is the
    absolute residual whatever the order: order is validated (>= 1, inf
    allowed) and kept in the spec and the CLI config, but never changes a fit.
    """
    return LossAtom(LP_REGRESSION, order=float(order))


def huber(delta: float) -> LossAtom:
    """u^2 inside |u| <= delta, 2*delta*|u| - delta^2 outside."""
    return LossAtom(HUBER, delta=float(delta))


def squared_distance() -> LossAtom:
    """||theta - x - y||^2 with scalar y broadcast; y = 0 gives k-means."""
    return LossAtom(SQUARED_DISTANCE)


def multinomial_logit() -> LossAtom:
    """-(y . u - logsumexp(u)) with u = X theta, y one-hot."""
    return LossAtom(MULTINOMIAL_LOGIT)


def binary_logit() -> LossAtom:
    """log(1 + exp(x . theta)) - y * (x . theta) with y in {0, 1}."""
    return LossAtom(BINARY_LOGIT)


@dataclass(frozen=True, eq=False)
class ConstraintAtom:
    """One convex constraint on a factor's parameter vector.

    Atoms on the same factor compose by intersection. Array payloads are
    normalized to float ndarrays at construction.
    """

    kind: str
    lo: np.ndarray | None = None
    hi: np.ndarray | None = None
    A: np.ndarray | None = None
    b: np.ndarray | None = None
    radius: float | None = None
    value: float | None = None


def free() -> ConstraintAtom:
    return ConstraintAtom(FREE)


def nonneg() -> ConstraintAtom:
    return ConstraintAtom(NONNEG)


def nonpos() -> ConstraintAtom:
    return ConstraintAtom(NONPOS)


def box(lo, hi) -> ConstraintAtom:
    """Per-coordinate bounds; scalars broadcast, +-inf allowed."""
    return ConstraintAtom(
        BOX,
        lo=np.atleast_1d(np.asarray(lo, dtype=float)),
        hi=np.atleast_1d(np.asarray(hi, dtype=float)),
    )


def polyhedron(A, b) -> ConstraintAtom:
    """Halfspace intersection A theta <= b."""
    return ConstraintAtom(
        POLYHEDRON,
        A=np.atleast_2d(np.asarray(A, dtype=float)),
        b=np.atleast_1d(np.asarray(b, dtype=float)),
    )


def monotone_nonincreasing() -> ConstraintAtom:
    return ConstraintAtom(MONOTONE_NONINCREASING)


def monotone_nondecreasing() -> ConstraintAtom:
    return ConstraintAtom(MONOTONE_NONDECREASING)


def norm_ball2(radius: float) -> ConstraintAtom:
    return ConstraintAtom(NORM_BALL2, radius=float(radius))


def sum_equals(value: float) -> ConstraintAtom:
    return ConstraintAtom(SUM_EQUALS, value=float(value))


@dataclass(frozen=True)
class RegularizerAtom:
    kind: str
    weight: float


def l1(weight: float) -> RegularizerAtom:
    """weight * sum_k ||theta_k||_1, parameter side."""
    return RegularizerAtom(L1, float(weight))


def group_l2(weight: float) -> RegularizerAtom:
    """weight * sum_k ||theta_k||_2 (unsquared), parameter side."""
    return RegularizerAtom(GROUP_L2, float(weight))


def kl_chain(weight: float) -> RegularizerAtom:
    """weight * sum_t KL(z_t, z_{t+1}) over consecutive rows, factor side."""
    return RegularizerAtom(KL_CHAIN, float(weight))


@dataclass(frozen=True)
class SolverControls:
    """Termination and subsolver knobs shared by the whole fit.

    qp_tol and qp_max_iter are validated, but no solver reads them: every
    quadratic model of proximal Newton that is solved as a QP is solved
    exactly in one pass, and projections (including the projected centroid
    of a squared-distance factor) solve to a fixed tolerance. The two
    fields stay until config schema version 2: version 1 takes them, and
    the benchmark checks that its frozen copy of the package builds the
    same controls, field for field. p_tol and
    p_max_iter govern the one iterative P-step: they count its proximal
    Newton iterations, for every factor that runs it, and the step stops
    once an accepted iteration lowers the factor's objective by at most
    p_tol times |objective|, floored at min(1, |objective at the warm
    start|).
    """

    eps: float = 1e-6
    max_iter: int = 500
    restarts: int = 1
    seed: int = 0
    qp_tol: float = 1e-8
    qp_max_iter: int = 20000
    p_tol: float = 1e-8
    p_max_iter: int = 5000
    f_tol: float = 1e-9
    f_max_iter: int = 50000


@dataclass(frozen=True, eq=False)
class ModelSpec:
    K: int
    n: int
    loss_per_factor: tuple[LossAtom, ...]
    constraints_per_factor: tuple[tuple[ConstraintAtom, ...], ...]
    p_regularizers: tuple[RegularizerAtom, ...] = ()
    f_regularizers: tuple[RegularizerAtom, ...] = ()
    controls: SolverControls = field(default_factory=SolverControls)

    def __post_init__(self):
        if len(self.loss_per_factor) != self.K:
            raise ValueError(f"loss_per_factor needs K={self.K} entries")
        if len(self.constraints_per_factor) != self.K:
            raise ValueError(f"constraints_per_factor needs K={self.K} entries")


def shared_spec(
    K: int,
    n: int,
    loss: LossAtom,
    constraints=(),
    p_regularizers=(),
    f_regularizers=(),
    controls: SolverControls | None = None,
) -> ModelSpec:
    """ModelSpec with one loss and one constraint list shared by all factors."""
    return ModelSpec(
        K=K,
        n=n,
        loss_per_factor=tuple([loss] * K),
        constraints_per_factor=tuple([tuple(constraints)] * K),
        p_regularizers=tuple(p_regularizers),
        f_regularizers=tuple(f_regularizers),
        controls=controls if controls is not None else SolverControls(),
    )


@dataclass(frozen=True, eq=False)
class Dataset:
    """Sample features and observations.

    features: (m, n) for vector-feature losses, (m, p, n) for matrix-feature
    losses. observations: (m,) scalars or binary labels, (m, p) one-hot rows
    for multinomial losses. ordered marks the rows as a time sequence, which
    chain regularizers require.
    """

    features: np.ndarray
    observations: np.ndarray
    m: int
    ordered: bool = False


def dataset(features, observations, ordered: bool = False) -> Dataset:
    feats = np.asarray(features, dtype=float)
    obs = np.asarray(observations, dtype=float)
    return Dataset(features=feats, observations=obs, m=feats.shape[0], ordered=ordered)


@dataclass(frozen=True)
class Violation:
    path: str
    message: str


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[Violation, ...]


# ---------------------------------------------------------------------------
# loss evaluation
# ---------------------------------------------------------------------------


# the smallest |residual| an lp curvature divides by, as a share of the
# largest: it caps the IRLS weight 1 / |u| of the rows the optimum
# interpolates, and so the model's conditioning. Of 400 weighted LAD P-steps
# (m=14, n=3) 4.5% ended over 1e-3 above the optimum at 1e-4 and 1% at 1e-6;
# 1e-8 ran lp + l1 P-steps into p_max_iter.
_LP_FLOOR = 1e-6


def _pieces(atom: LossAtom, F, y, theta, losses_only=False):
    """(losses, derivatives, curvatures) of a margin loss at theta, per sample.

    Every loss but squared distance is a function of its margins F @ theta,
    one per sample or, for multinomial logit, one per class, so one F @ theta
    gives all three. The derivative is that of each loss in its margins, s - y
    for the logit losses with s the sigmoid or softmax. The curvature weighs
    each margin in the model matrix of value_grad_hessian: s (1 - s) for
    binary logit, the softmax rows S for multinomial logit (whose margin
    Hessian is diag(s) - s s'), 2 for square regression, and for huber and lp
    the curvature of the quadratic that touches the loss at residual u and
    lies above it (the IRLS weight): 2 delta / max(|u|, delta) for huber and
    1 / |u| for lp, with |u| floored at _LP_FLOOR times the largest |u|.
    Binary terms are written so that no exp overflows and saturated margins
    keep their tiny derivatives and curvatures. With losses_only, the losses
    alone are returned, computed as in the triple, and nothing after them.
    """
    if atom.kind == MULTINOMIAL_LOGIT:
        U = F @ theta
        hi = U.max(axis=1, keepdims=True)
        E = np.exp(U - hi)
        tot = E.sum(axis=1, keepdims=True)
        losses = np.log(tot[:, 0]) + hi[:, 0] - (y * U).sum(axis=1)
        if losses_only:
            return losses
        S = E / tot
        return losses, S - y, S
    return _margin_pieces(atom, F @ theta, y, losses_only)


def _margin_pieces(atom: LossAtom, t, y, losses_only=False):
    """`_pieces` of a loss with one margin per sample, at one factor's margins t."""
    if atom.kind == BINARY_LOGIT:
        # margin form: the observation offsets the slope, not the margin
        pos = t >= 0.0
        e = np.exp(-np.abs(t))
        # softplus(t) - y t, with max(t, 0) - y t = t (pos - y) exact at y = pos
        losses = t * (pos - y) + np.log1p(e)
        if losses_only:
            return losses
        small = e / (1.0 + e)  # sigmoid(-|t|), the smaller of s and 1 - s
        return losses, np.where(pos, (1.0 - y) - small, small - y), small * (1.0 - small)
    u = t - y
    if atom.kind == SQUARE_REGRESSION:
        losses = u * u
        return losses if losses_only else (losses, 2.0 * u, 2.0)
    au = np.abs(u)
    if atom.kind == LP_REGRESSION:
        # lp norm of a scalar residual is its absolute value for every order;
        # with every residual 0 any positive curvature serves
        if losses_only:
            return au
        return au, np.sign(u), 1.0 / np.maximum(au, _LP_FLOOR * (float(au.max(initial=0.0)) or 1.0))
    if atom.kind == HUBER:
        # the linear piece only where it holds: at delta = inf, 2 delta |u| -
        # delta^2 would be inf - inf on every row
        d = atom.delta
        losses = u * u
        out = au > d
        losses[out] = 2.0 * d * au[out] - d * d
        if losses_only:
            return losses
        deriv, curv = 2.0 * u, np.full_like(u, 2.0)
        deriv[out] = 2.0 * d * np.sign(u[out])
        curv[out] = 2.0 * d / au[out]
        return losses, deriv, curv
    raise ValueError(f"unknown loss kind {atom.kind!r}")


def _margin_grad(F, deriv, w):
    # gradient of sum_i w_i f_i when deriv_i is f_i's derivative in its margins
    wd = w[:, None] * deriv if deriv.ndim == 2 else w * deriv
    return F.reshape(-1, F.shape[-1]).T @ wd.ravel()


def _squared_distances(F, y, thetas) -> np.ndarray:
    """(g, m) block of ||theta_k - (x_i + y_i)||^2 for the g rows of thetas.

    The points x_i + y_i are built once, as an (n, m) C-contiguous block
    (the bytes of F + y[:, None], transposed), and the squares are summed
    over n passes along its rows: subtract, square in place, add. Each pass
    runs over all g m entries at once, where a sum over each point's n
    coordinates would run m short rows per centre. The sum starts at 0 and
    goes left to right over the coordinates, and numpy sums rows of n <= 7
    left to right from their first entry: as 0 + a = a for every square a,
    there the values are those of (diff * diff).sum(axis=1) byte for byte.
    At n >= 8, where numpy's sum is pairwise, they differ by rounding.
    """
    T = np.asarray(thetas, dtype=float)
    P = np.add(F.T, y, order="C")
    out = np.zeros((T.shape[0], P.shape[1]))
    for t, p in zip(T.T, P):
        d = t[:, None] - p
        d *= d
        out += d
    return out


def batch_losses(atom: LossAtom, features, observations, theta) -> np.ndarray:
    """Per-sample loss values for one factor, vectorized over samples.

    Squared distances come from `_squared_distances` with one centre, the
    evaluator that loss_matrix runs on all its squared-distance factors.
    """
    theta, F, y = (np.asarray(a, dtype=float) for a in (theta, features, observations))
    n = theta.shape[0]
    if atom.kind in MATRIX_FEATURE_KINDS:
        if F.ndim != 3 or F.shape[2] != n:
            raise ValueError(f"matrix features must be (m, p, n={n}); got {F.shape}")
    elif F.ndim != 2 or F.shape[1] != n:
        raise ValueError(f"features must be (m, n={n}); got {F.shape}")
    if atom.kind == SQUARED_DISTANCE:
        return _squared_distances(F, y, theta[None])[0]
    return _pieces(atom, F, y, theta, losses_only=True)


def weighted_loss_grad(atom: LossAtom, features, observations, theta, weights) -> np.ndarray:
    """Gradient of sum_i w_i * f(x_i, y_i; theta) wrt theta.

    At nondifferentiable points of lp losses the zero subgradient convention
    sign(0) = 0 is used.
    """
    theta, F, y, w = (np.asarray(a, dtype=float) for a in (theta, features, observations, weights))
    if atom.kind == SQUARED_DISTANCE:
        return 2.0 * (w.sum() * theta - (w @ F + w @ y))
    return _margin_grad(F, _pieces(atom, F, y, theta)[1], w)


def value_grad_hessian(atom: LossAtom, features, observations, theta, weights):
    """(value, gradient, model matrix) of sum_i w_i * f(x_i, y_i; theta) at theta.

    The model matrix is the positive semidefinite curvature of a proximal
    Newton step: 2 W I for squared distance, and F' diag(w c) F with c the
    curvatures of `_pieces` for every other loss. That is the exact Hessian
    for square regression and binary logit, and the IRLS curvature of the
    quadratic that lies above the loss for huber and lp; multinomial logit
    takes its exact Hessian, sum_i w_i X_i' (diag(s_i) - s_i s_i') X_i, as
    B' B for B of rows sqrt(w_i s_ij) (x_ij - xbar_i), xbar_i = X_i' s_i: the
    covariance of x_ij under s_i, the same matrix in exact arithmetic and
    positive semidefinite after rounding too, where the difference of the two
    Gram terms cancels to an indefinite matrix once the softmax saturates.
    Value, gradient and curvatures come from one `_pieces` call, so they are
    those of batch_losses and weighted_loss_grad bit for bit.
    """
    theta, F, y, w = (np.asarray(a, dtype=float) for a in (theta, features, observations, weights))
    n = theta.shape[0]
    if atom.kind == SQUARED_DISTANCE:
        value = float(w @ batch_losses(atom, F, y, theta))
        return value, weighted_loss_grad(atom, F, y, theta, w), 2.0 * w.sum() * np.eye(n)
    losses, deriv, curv = _pieces(atom, F, y, theta)
    value, grad = float(w @ losses), _margin_grad(F, deriv, w)
    if atom.kind != MULTINOMIAL_LOGIT:
        return value, grad, (F.T * (w * curv)) @ F
    xbar = np.einsum("ijk,ij->ik", F, curv)  # X_i' s_i
    B = ((F - xbar[:, None, :]) * np.sqrt(w[:, None] * curv)[:, :, None]).reshape(-1, n)
    return value, grad, B.T @ B


# losses with one margin x . theta per sample: factors with one such atom
# share their margins' feature matrix
_ONE_MARGIN_KINDS = frozenset({SQUARE_REGRESSION, HUBER, LP_REGRESSION, BINARY_LOGIT})


def loss_matrix(spec: ModelSpec, data: Dataset, thetas) -> np.ndarray:
    """(m, K) matrix of per-sample losses, one column per factor.

    The matrix is the transpose of a C-contiguous (K, m) buffer, in Fortran
    order, so each factor's column is contiguous. On 2-D features the
    factors that share one loss atom of one margin per sample (square
    regression, huber, lp, binary logit) take their margins from one
    product Theta F' of their stacked thetas, and `_margin_pieces` takes
    each factor's losses alone from its row: on the whole (g, m) block its
    temporaries are g times larger, and cost more to allocate than they
    save. The squared-distance factors on 2-D features take their rows from
    one `_squared_distances` call, n passes over the factor-major points
    (x_i + y_i), the evaluator batch_losses runs with one centre: on n <= 7
    their values are those of each factor's (diff * diff).sum(axis=1) byte
    for byte. Multinomial logit and features of any other shape go through
    batch_losses factor by factor.
    """
    F, y = np.asarray(data.features, dtype=float), np.asarray(data.observations, dtype=float)
    Rt = np.empty((spec.K, data.m))
    groups: dict = {}
    distance = []  # the squared-distance factors
    for k, atom in enumerate(spec.loss_per_factor):
        if atom.kind in _ONE_MARGIN_KINDS and F.ndim == 2:
            groups.setdefault(atom, []).append(k)
        elif atom.kind == SQUARED_DISTANCE and F.ndim == 2:
            distance.append(k)
        else:
            Rt[k] = batch_losses(atom, F, y, thetas[k])
    for atom, ks in groups.items():
        margins = np.array([thetas[k] for k in ks], dtype=float) @ F.T
        for k, t in zip(ks, margins):
            Rt[k] = _margin_pieces(atom, t, y, losses_only=True)
    if distance:
        Rt[distance] = _squared_distances(F, y, [thetas[k] for k in distance])
    return Rt.T


# ---------------------------------------------------------------------------
# regularizer values
# ---------------------------------------------------------------------------


def kl_chain_value(Z: np.ndarray) -> float:
    """sum over consecutive rows of KL(z_t, z_{t+1}).

    KL is the Bregman divergence sum_j (u_j log(u_j / v_j) - u_j + v_j) with
    0 log 0 = 0; mass where the next row has none makes it inf.
    """
    Z = np.asarray(Z, dtype=float)
    U, V = Z[:-1], Z[1:]
    pos = U > 0.0
    if np.any(pos & (V <= 0.0)):
        return np.inf  # mass where the next row has none
    # 0 log 0 = 0: an entry with u <= 0 contributes v - u alone
    Up, Vp = np.where(pos, U, 1.0), np.where(pos, V, 1.0)
    inner = float((Up * np.log(Up / Vp) - Up + Vp).sum())
    return inner + float((V - U)[~pos].sum())


def p_regularizer_value(regs, thetas) -> float:
    total = 0.0
    for reg in regs:
        if reg.kind == L1:
            total += reg.weight * sum(float(np.abs(th).sum()) for th in thetas)
        elif reg.kind == GROUP_L2:
            total += reg.weight * sum(float(np.linalg.norm(th)) for th in thetas)
        else:
            raise ValueError(f"{reg.kind!r} is not a parameter-side regularizer")
    return total


def f_regularizer_value(regs, Z) -> float:
    total = 0.0
    for reg in regs:
        if reg.kind == KL_CHAIN:
            total += reg.weight * kl_chain_value(Z)
        else:
            raise ValueError(f"{reg.kind!r} is not a factor-side regularizer")
    return total


def objective(spec: ModelSpec, data: Dataset, thetas, Z) -> float:
    """Full relaxed objective: sum_i z_i . r_i plus all regularizers."""
    R = loss_matrix(spec, data, thetas)
    Z = np.asarray(Z, dtype=float)
    return (
        float((Z * R).sum())
        + p_regularizer_value(spec.p_regularizers, thetas)
        + f_regularizer_value(spec.f_regularizers, Z)
    )


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def _check_loss_atom(atom: LossAtom, path: str, out: list):
    if atom.kind not in LOSS_KINDS:
        out.append(Violation(path + ".kind", f"unknown loss kind {atom.kind!r}"))
        return
    if atom.kind == LP_REGRESSION:
        if atom.order is None or math.isnan(atom.order) or atom.order < 1.0:
            out.append(Violation(path + ".order", "order must be >= 1 (inf allowed)"))
    if atom.kind == HUBER:
        if atom.delta is None or not (atom.delta > 0.0):
            out.append(Violation(path + ".delta", "delta must be > 0"))


def _check_constraint_atom(atom: ConstraintAtom, n: int, path: str, out: list):
    if atom.kind not in CONSTRAINT_KINDS:
        out.append(Violation(path + ".kind", f"unknown constraint kind {atom.kind!r}"))
        return
    if atom.kind == BOX:
        lo, hi = atom.lo, atom.hi
        if lo.shape not in ((1,), (n,)) or hi.shape not in ((1,), (n,)):
            out.append(Violation(path, f"box bounds must be scalars or length {n}"))
            return
        for name, bound in (("lo", lo), ("hi", hi)):
            if np.isnan(bound).any():
                out.append(Violation(f"{path}.{name}", "bounds must not be NaN (+-inf allowed)"))
        lo, hi = np.broadcast_to(lo, (n,)), np.broadcast_to(hi, (n,))
        if np.any(lo > hi):
            out.append(Violation(path, "box requires lo <= hi componentwise"))
        elif np.any(np.isinf(lo) & (lo == hi)):
            out.append(Violation(path, "box has lo = hi = -inf or +inf on a coordinate: empty set"))
    elif atom.kind == POLYHEDRON:
        if atom.A.ndim != 2 or atom.A.shape[1] != n:
            out.append(Violation(path + ".A", f"A must have {n} columns; got {atom.A.shape}"))
        elif atom.b.shape != (atom.A.shape[0],):
            out.append(Violation(path + ".b", f"b must have length {atom.A.shape[0]}"))
        elif not np.isfinite(atom.A).all():
            out.append(Violation(path + ".A", "A must be finite (no NaN or inf)"))
        elif np.any(np.isnan(atom.b) | (atom.b == -np.inf)):
            out.append(Violation(path + ".b", "b must not be NaN or -inf (+inf allowed)"))
    elif atom.kind == NORM_BALL2:
        if atom.radius is None or not (atom.radius > 0.0):
            out.append(Violation(path + ".radius", "radius must be > 0"))
    elif atom.kind == SUM_EQUALS:
        if atom.value is None or not math.isfinite(atom.value):
            out.append(Violation(path + ".value", "value must be finite"))


def _feasible_set_nonempty(atoms, n: int) -> bool:
    # feasibility solve: project the origin and check the result satisfies
    # every atom; an infeasible projection subproblem means an empty set
    from . import kernels

    try:
        point = kernels.project(atoms, np.zeros(n))
    except kernels.ProjectionError:
        return False
    return kernels.max_violation(atoms, point) <= 1e-6


def validate(spec: ModelSpec, data: Dataset) -> ValidationReport:
    """Check a spec/data pair and report every violation with a field path.

    A pair that validates clean is solvable by the parameter- and
    factor-problem dispatch rules; solvers assume this and do not re-check.
    Pure: neither argument is mutated.
    """
    out: list[Violation] = []
    if spec.K < 1:
        out.append(Violation("K", "K must be >= 1"))
    if spec.n < 1:
        out.append(Violation("n", "n must be >= 1"))
    c = spec.controls
    for name in ("eps", "qp_tol", "p_tol", "f_tol"):
        if not (getattr(c, name) >= 0.0):  # also catches NaN
            out.append(Violation(f"controls.{name}", f"{name} must be >= 0"))
    for name in ("max_iter", "restarts", "qp_max_iter", "p_max_iter", "f_max_iter"):
        if getattr(c, name) < 1:
            out.append(Violation(f"controls.{name}", f"{name} must be >= 1"))
    if c.seed < 0:
        out.append(Violation("controls.seed", "seed must be a nonnegative integer"))

    if len(spec.loss_per_factor) != spec.K:
        out.append(Violation("loss_per_factor", f"need exactly K={spec.K} loss atoms"))
    if len(spec.constraints_per_factor) != spec.K:
        out.append(Violation("constraints_per_factor", f"need exactly K={spec.K} constraint lists"))

    for k, atom in enumerate(spec.loss_per_factor):
        _check_loss_atom(atom, f"loss_per_factor[{k}]", out)

    known_losses = [a for a in spec.loss_per_factor if a.kind in LOSS_KINDS]
    arities = {a.kind in MATRIX_FEATURE_KINDS for a in known_losses}
    if len(arities) > 1:
        out.append(
            Violation(
                "loss_per_factor",
                "cannot mix matrix-feature and vector-feature losses on one dataset",
            )
        )

    # dataset shapes against the (homogeneous) feature arity
    if data.features.shape[0] != data.m or data.observations.shape[0] != data.m:
        out.append(Violation("data", "features and observations must both have m rows"))
    elif data.m == 0:
        out.append(Violation("data", "dataset has no rows"))
    if not np.isfinite(data.features).all():
        out.append(Violation("data.features", "features must be finite (no NaN or inf)"))
    if not np.isfinite(data.observations).all():
        out.append(Violation("data.observations", "observations must be finite (no NaN or inf)"))
    if len(arities) == 1 and not out:
        matrix_features = arities.pop()
        if matrix_features:
            if data.features.ndim != 3 or data.features.shape[2] != spec.n:
                out.append(
                    Violation(
                        "data.features",
                        f"matrix-feature losses need shape (m, p, n={spec.n}); got {data.features.shape}",
                    )
                )
            elif data.observations.shape != data.features.shape[:2]:
                out.append(
                    Violation(
                        "data.observations",
                        f"need one-hot rows of shape {data.features.shape[:2]}; got {data.observations.shape}",
                    )
                )
            else:
                onehot = np.all(np.isin(data.observations, (0.0, 1.0))) and np.all(
                    data.observations.sum(axis=1) == 1.0
                )
                if not onehot:
                    out.append(Violation("data.observations", "rows must be one-hot"))
        else:
            if data.features.ndim != 2 or data.features.shape[1] != spec.n:
                out.append(
                    Violation(
                        "data.features",
                        f"vector-feature losses need shape (m, n={spec.n}); got {data.features.shape}",
                    )
                )
            elif data.observations.ndim != 1:
                out.append(Violation("data.observations", "need one scalar observation per row"))
            elif any(a.kind == BINARY_LOGIT for a in known_losses) and not np.all(
                np.isin(data.observations, (0.0, 1.0))
            ):
                out.append(Violation("data.observations", "binary labels must lie in {0, 1}"))

    # one feasibility probe per distinct constraint list: shared_spec hands
    # every factor the same tuple, and the probe builds a projector
    nonempty: dict = {}
    for k, atoms in enumerate(spec.constraints_per_factor):
        bad = False
        for j, atom in enumerate(atoms):
            before = len(out)
            _check_constraint_atom(atom, spec.n, f"constraints_per_factor[{k}][{j}]", out)
            bad = bad or len(out) > before
        if bad or not atoms:
            continue
        if id(atoms) not in nonempty:
            nonempty[id(atoms)] = _feasible_set_nonempty(atoms, spec.n)
        if not nonempty[id(atoms)]:
            out.append(Violation(f"constraints_per_factor[{k}]", "empty feasible set"))

    for j, reg in enumerate(spec.p_regularizers):
        path = f"p_regularizers[{j}]"
        if reg.kind not in P_REGULARIZER_KINDS:
            msg = (
                "kl_chain attaches to the factor problem"
                if reg.kind == KL_CHAIN
                else f"unknown parameter regularizer {reg.kind!r}"
            )
            out.append(Violation(path + ".kind", msg))
        elif not (reg.weight >= 0.0):
            out.append(Violation(path + ".weight", "weight must be >= 0"))
    for j, reg in enumerate(spec.f_regularizers):
        path = f"f_regularizers[{j}]"
        if reg.kind not in F_REGULARIZER_KINDS:
            msg = (
                "l1/group_l2 attach to the parameter problem"
                if reg.kind in P_REGULARIZER_KINDS
                else f"unknown factor regularizer {reg.kind!r}"
            )
            out.append(Violation(path + ".kind", msg))
        elif not (reg.weight >= 0.0):
            out.append(Violation(path + ".weight", "weight must be >= 0"))
        elif reg.kind == KL_CHAIN and reg.weight > 0.0 and not data.ordered:
            out.append(Violation(path, "kl_chain requires ordered data"))

    return ValidationReport(ok=not out, violations=tuple(out))

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

    qp_tol and qp_max_iter govern only the QP of square regression over
    polyhedral constraints; projections (including the projected centroid
    of a squared-distance factor) solve to a fixed tolerance.
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


def _logsumexp_rows(U: np.ndarray) -> np.ndarray:
    hi = U.max(axis=1, keepdims=True)
    return np.log(np.exp(U - hi).sum(axis=1)) + hi[:, 0]


def _softplus(u: np.ndarray) -> np.ndarray:
    # log(1 + exp(u)) without overflow
    return np.maximum(u, 0.0) + np.log1p(np.exp(-np.abs(u)))


def batch_losses(atom: LossAtom, features, observations, theta) -> np.ndarray:
    """Per-sample loss values for one factor, vectorized over samples."""
    theta = np.asarray(theta, dtype=float)
    F = np.asarray(features, dtype=float)
    y = np.asarray(observations, dtype=float)
    if atom.kind in MATRIX_FEATURE_KINDS:
        if F.ndim != 3 or F.shape[2] != theta.shape[0]:
            raise ValueError(f"matrix features must be (m, p, n={theta.shape[0]}); got {F.shape}")
        U = F @ theta
        return _logsumexp_rows(U) - (y * U).sum(axis=1)
    if F.ndim != 2 or F.shape[1] != theta.shape[0]:
        raise ValueError(f"features must be (m, n={theta.shape[0]}); got {F.shape}")
    if atom.kind == SQUARED_DISTANCE:
        diff = theta[None, :] - (F + y[:, None])
        return (diff * diff).sum(axis=1)
    t = F @ theta
    if atom.kind == BINARY_LOGIT:
        # margin form: the observation offsets the slope, not the margin
        return _softplus(t) - y * t
    u = t - y
    if atom.kind == SQUARE_REGRESSION:
        return u * u
    if atom.kind == LP_REGRESSION:
        # lp norm of a scalar residual is its absolute value for every order
        return np.abs(u)
    if atom.kind == HUBER:
        d = atom.delta
        au = np.abs(u)
        return np.where(au <= d, u * u, 2.0 * d * au - d * d)
    raise ValueError(f"unknown loss kind {atom.kind!r}")


def weighted_loss_grad(atom: LossAtom, features, observations, theta, weights) -> np.ndarray:
    """Gradient of sum_i w_i * f(x_i, y_i; theta) wrt theta.

    At nondifferentiable points of lp losses the zero subgradient convention
    sign(0) = 0 is used.
    """
    theta = np.asarray(theta, dtype=float)
    F = np.asarray(features, dtype=float)
    y = np.asarray(observations, dtype=float)
    w = np.asarray(weights, dtype=float)
    if atom.kind in MATRIX_FEATURE_KINDS:
        U = F @ theta
        hi = U.max(axis=1, keepdims=True)
        E = np.exp(U - hi)
        S = E / E.sum(axis=1, keepdims=True)
        return np.einsum("ijk,ij->k", F, w[:, None] * (S - y))
    if atom.kind == SQUARED_DISTANCE:
        centers = F + y[:, None]
        return 2.0 * (w.sum() * theta - w @ centers)
    t = F @ theta
    if atom.kind == BINARY_LOGIT:
        g = 1.0 / (1.0 + np.exp(-t)) - y
        return F.T @ (w * g)
    u = t - y
    if atom.kind == SQUARE_REGRESSION:
        g = 2.0 * u
    elif atom.kind == LP_REGRESSION:
        g = np.sign(u)
    elif atom.kind == HUBER:
        d = atom.delta
        g = np.where(np.abs(u) <= d, 2.0 * u, 2.0 * d * np.sign(u))
    else:
        raise ValueError(f"unknown loss kind {atom.kind!r}")
    return F.T @ (w * g)


def curvature_matrix(atom: LossAtom, features, observations, weights) -> np.ndarray:
    """PSD matrix M with weighted-loss Hessian <= M (in the Loewner order).

    Used by the parameter solver to size gradient steps. Piecewise-linear
    losses return the zero matrix.
    """
    F = np.asarray(features, dtype=float)
    w = np.asarray(weights, dtype=float)
    n = F.shape[-1]
    if atom.kind == MULTINOMIAL_LOGIT:
        # per-sample Hessian X^T (diag(s) - s s^T) X <= 0.5 X^T X
        return 0.5 * np.einsum("ijk,ijl->kl", F * w[:, None, None], F)
    if atom.kind == SQUARED_DISTANCE:
        return 2.0 * w.sum() * np.eye(n)
    if atom.kind in (SQUARE_REGRESSION, HUBER):
        return 2.0 * (F * w[:, None]).T @ F
    if atom.kind == BINARY_LOGIT:
        return 0.25 * (F * w[:, None]).T @ F
    if atom.kind == LP_REGRESSION:
        return np.zeros((n, n))
    raise ValueError(f"unknown loss kind {atom.kind!r}")


def loss_eval(atom: LossAtom, feature, observation, theta) -> float:
    """Single-sample loss value."""
    F = np.asarray(feature, dtype=float)[None, ...]
    y = np.asarray([observation], dtype=float) if np.ndim(observation) == 0 else np.asarray(observation, dtype=float)[None, ...]
    return float(batch_losses(atom, F, y, theta)[0])


def loss_grad(atom: LossAtom, feature, observation, theta) -> np.ndarray:
    """Single-sample loss gradient wrt theta."""
    F = np.asarray(feature, dtype=float)[None, ...]
    y = np.asarray([observation], dtype=float) if np.ndim(observation) == 0 else np.asarray(observation, dtype=float)[None, ...]
    return weighted_loss_grad(atom, F, y, theta, np.ones(1))


def loss_matrix(spec: ModelSpec, data: Dataset, thetas) -> np.ndarray:
    """(m, K) matrix of per-sample losses, one column per factor."""
    R = np.empty((data.m, spec.K))
    for k in range(spec.K):
        R[:, k] = batch_losses(spec.loss_per_factor[k], data.features, data.observations, thetas[k])
    return R


# ---------------------------------------------------------------------------
# regularizer values
# ---------------------------------------------------------------------------


def kl_divergence(u, v) -> float:
    """Bregman KL sum_i (u_i log(u_i/v_i) - u_i + v_i) with 0 log 0 = 0."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    pos = u > 0.0
    if np.any(pos & (v <= 0.0)):
        return np.inf  # mass where the reference has none
    out = float(v.sum() - u.sum())
    if np.any(pos):
        out += float((u[pos] * np.log(u[pos] / v[pos])).sum())
    return out


def kl_chain_terms(U: np.ndarray, V: np.ndarray):
    """(value, U / V, log(U / V)) with value = sum(U log(U / V) - U + V).

    U and V are strictly positive and of one shape: the earlier and the later
    member of each consecutive pair of a chain, in any layout. The ratio and
    its log are returned so that a gradient of the chain can reuse them.
    """
    ratio = U / V
    log_ratio = np.log(ratio)
    return float((U * log_ratio - U + V).sum()), ratio, log_ratio


def kl_chain_value(Z: np.ndarray) -> float:
    """sum over consecutive rows of kl_divergence(z_t, z_{t+1})."""
    Z = np.asarray(Z, dtype=float)
    U, V = Z[:-1], Z[1:]
    pos = U > 0.0
    if np.any(pos & (V <= 0.0)):
        return np.inf  # mass where the next row has none
    # 0 log 0 = 0: an entry with u <= 0 contributes v - u alone
    inner = kl_chain_terms(np.where(pos, U, 1.0), np.where(pos, V, 1.0))[0]
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
        if np.any(np.broadcast_to(lo, (n,)) > np.broadcast_to(hi, (n,))):
            out.append(Violation(path, "box requires lo <= hi componentwise"))
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

    for k, atoms in enumerate(spec.constraints_per_factor):
        bad = False
        for j, atom in enumerate(atoms):
            before = len(out)
            _check_constraint_atom(atom, spec.n, f"constraints_per_factor[{k}][{j}]", out)
            bad = bad or len(out) > before
        if not bad and atoms and not _feasible_set_nonempty(atoms, spec.n):
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

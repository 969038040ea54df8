"""Convex kernels shared by the block solvers.

A dense operator-splitting QP solver, Euclidean projections onto constraint
atoms and their intersections, and proximal operators for the parameter-side
regularizers. `canonical_atoms` reduces a constraint list to one form;
`projector` and `prox_plan` classify that form once and return the map to
apply; `project` and `joint_prox` apply one such map once.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import model

# bound sentinel: entries at +-INF are treated as absent bounds
INF = 1e30

SOLVED = "solved"
MAX_ITER = "max_iter"
PRIMAL_INFEASIBLE = "primal_infeasible"

# ADMM constants
_SIGMA = 1e-6
_ALPHA = 1.6
_RHO_INIT = 0.1
_RHO_EQ_SCALE = 1e3
_CHECK_EVERY = 25


class ProjectionError(RuntimeError):
    """Projection subproblem failed (infeasible or solver breakdown)."""


@dataclass(frozen=True, eq=False)
class QpProblem:
    """minimize 0.5 x^T P x + q^T x  subject to  lo <= A x <= hi.

    P must be symmetric PSD. Equality rows use lo == hi; one-sided rows use
    the +-INF sentinel.
    """

    P: np.ndarray
    q: np.ndarray
    A: np.ndarray
    lo: np.ndarray
    hi: np.ndarray


def qp_problem(P, q, A, lo, hi) -> QpProblem:
    q = np.asarray(q, dtype=float)
    n = q.shape[0]
    A = np.asarray(A, dtype=float).reshape(-1, n)
    return QpProblem(
        P=np.asarray(P, dtype=float),
        q=q,
        A=A,
        lo=np.asarray(lo, dtype=float).reshape(A.shape[0]),
        hi=np.asarray(hi, dtype=float).reshape(A.shape[0]),
    )


@dataclass(eq=False)
class QpSolution:
    x: np.ndarray
    y: np.ndarray  # dual for lo <= Ax <= hi (>= 0 at hi, <= 0 at lo)
    z: np.ndarray  # auxiliary copy of Ax, feasible by construction
    status: str
    primal_residual: float
    dual_residual: float
    iterations: int


class QpWorkspace:
    """Caches the reduced KKT inverse and iterates across repeated solves.

    Reuse is valid whenever the problem dimensions are fixed; the factorization
    is refreshed automatically when P, A, or the penalty changes.
    """

    def __init__(self):
        self.M_inv = None
        self.P = None
        self.A = None
        self.rho = None
        self.rho_base = None
        self.x = None
        self.y = None
        self.z = None

    def refresh(self, P, A, rho):
        same = (
            self.M_inv is not None
            and np.array_equal(self.P, P)
            and np.array_equal(self.A, A)
            and np.array_equal(self.rho, rho)
        )
        if not same:
            M = P + _SIGMA * np.eye(P.shape[0])
            if A.shape[0]:
                M = M + (A.T * rho) @ A
            self.M_inv = np.linalg.inv(M)
            self.P, self.A, self.rho = P, A, rho


def _polish(prob: QpProblem, eq_rows, y, z, tol):
    """Exact KKT point on the active set guessed from an ADMM iterate.

    A row is taken as active at lo when z - lo < -y, at hi when hi - z < y,
    and always when it is an equality. Returns (x, y, z, r_prim, r_dual) if
    the equality-constrained solve is primal feasible, dual optimal and has
    correctly signed multipliers, all to tol; None otherwise.
    """
    P, q, A, lo, hi = prob.P, prob.q, prob.A, prob.lo, prob.hi
    n = q.shape[0]
    at_lo = ~eq_rows & (z - lo < -y)
    at_hi = ~eq_rows & (hi - z < y)
    active = eq_rows | at_lo | at_hi
    Aa = A[active]
    k = Aa.shape[0]
    KKT = np.zeros((n + k, n + k))
    KKT[:n, :n] = P
    KKT[:n, n:] = Aa.T
    KKT[n:, :n] = Aa
    rhs = np.concatenate([-q, np.where(at_lo, lo, hi)[active]])
    try:
        sol = np.linalg.solve(KKT, rhs)
    except np.linalg.LinAlgError:
        return None
    if not np.all(np.isfinite(sol)):
        return None
    x = sol[:n]
    y = np.zeros_like(z)
    y[active] = sol[n:]
    ax = A @ x
    z = np.clip(ax, lo, hi)
    r_prim = float(np.abs(ax - z).max())
    r_dual = float(np.abs(P @ x + q + A.T @ y).max())
    signs_ok = not (np.any(y[at_hi] < -tol) or np.any(y[at_lo] > tol))
    if r_prim <= tol and r_dual <= tol and signs_ok:
        return x, y, z, r_prim, r_dual
    return None


def qp_solve(
    prob: QpProblem,
    warm_start: QpSolution | None = None,
    tol: float = 1e-8,
    max_iter: int = 20000,
    workspace: QpWorkspace | None = None,
) -> QpSolution:
    """Solve a dense QP by over-relaxed operator splitting.

    Penalty starts at 0.1 and rebalances by factor 2 whenever the primal/dual
    residual ratio exceeds 10; equality rows carry a stiffer penalty. At each
    residual check the iterate is also polished, as in OSQP: the active set
    is guessed from (y, z) and the equality-constrained KKT system on it is
    solved exactly. The polished point is accepted only when its primal and
    dual residuals are within tol and its multipliers have the right signs;
    otherwise the iteration goes on unchanged. Returns SOLVED when either
    point meets tol, PRIMAL_INFEASIBLE when the divergence certificate of the
    dual update persists, MAX_ITER otherwise. Deterministic; warm starts and
    a reusable workspace, which keeps the returned iterate, cut repeat-solve
    cost.
    """
    P, q, A = prob.P, prob.q, prob.A
    lo, hi = prob.lo, prob.hi
    n, m = q.shape[0], A.shape[0]

    if m == 0:
        x, *_ = np.linalg.lstsq(P, -q, rcond=None)
        r_dual = float(np.abs(P @ x + q).max()) if n else 0.0
        status = SOLVED if r_dual <= tol else MAX_ITER
        return QpSolution(x, np.zeros(0), np.zeros(0), status, 0.0, r_dual, 0)

    ws = workspace if workspace is not None else QpWorkspace()
    eq_rows = lo >= hi  # lo == hi up to ordering; treated as equalities
    rho_base = ws.rho_base if ws.rho_base is not None else _RHO_INIT

    def rho_vec(base):
        r = np.full(m, base)
        r[eq_rows] = base * _RHO_EQ_SCALE
        return r

    rho = rho_vec(rho_base)
    ws.refresh(P, A, rho)

    if warm_start is not None:
        x, y, z = warm_start.x.copy(), warm_start.y.copy(), warm_start.z.copy()
    elif ws.x is not None and ws.x.shape == (n,):
        x, y, z = ws.x.copy(), ws.y.copy(), ws.z.copy()
    else:
        x, y, z = np.zeros(n), np.zeros(m), np.clip(np.zeros(m), lo, hi)

    status = MAX_ITER
    r_prim = r_dual = np.inf
    it = 0
    for it in range(1, max_iter + 1):
        rhs = _SIGMA * x - q + A.T @ (rho * z - y)
        x_t = ws.M_inv @ rhs
        ax_t = A @ x_t
        x = _ALPHA * x_t + (1.0 - _ALPHA) * x
        z_pre = _ALPHA * ax_t + (1.0 - _ALPHA) * z
        z_new = np.clip(z_pre + y / rho, lo, hi)
        y_new = y + rho * (z_pre - z_new)
        dy = y_new - y
        y, z = y_new, z_new

        if it % _CHECK_EVERY == 0 or it == max_iter:
            ax = A @ x
            r_prim = float(np.abs(ax - z).max())
            r_dual = float(np.abs(P @ x + q + A.T @ y).max())
            if r_prim <= tol and r_dual <= tol:
                status = SOLVED
                break
            polished = _polish(prob, eq_rows, y, z, tol)
            if polished is not None:
                x, y, z, r_prim, r_dual = polished
                status = SOLVED
                break
            # primal infeasibility certificate from the dual direction
            ndy = float(np.abs(dy).max())
            if ndy > 1e-12:
                dyn = dy / ndy
                support = float(
                    np.where(dyn > 0, np.minimum(hi, INF), 0.0) @ np.maximum(dyn, 0.0)
                    + np.where(dyn < 0, np.maximum(lo, -INF), 0.0) @ np.minimum(dyn, 0.0)
                )
                if float(np.abs(A.T @ dyn).max()) <= 1e-10 and support < -1e-10:
                    status = PRIMAL_INFEASIBLE
                    break
            # residual balancing
            if r_prim > 10.0 * r_dual and rho_base < 1e6:
                rho_base *= 2.0
                rho = rho_vec(rho_base)
                ws.refresh(P, A, rho)
            elif r_dual > 10.0 * r_prim and rho_base > 1e-6:
                rho_base /= 2.0
                rho = rho_vec(rho_base)
                ws.refresh(P, A, rho)

    ws.x, ws.y, ws.z = x.copy(), y.copy(), z.copy()
    ws.rho_base = rho_base
    return QpSolution(x, y, z, status, r_prim, r_dual, it)


# ---------------------------------------------------------------------------
# projections
# ---------------------------------------------------------------------------


def pava_nondecreasing(v: np.ndarray) -> np.ndarray:
    """Isotonic (nondecreasing) projection by pooling adjacent violators."""
    vals: list[float] = []
    cnts: list[int] = []
    for x in np.asarray(v, dtype=float):
        vals.append(float(x))
        cnts.append(1)
        while len(vals) > 1 and vals[-2] > vals[-1]:
            v2, c2 = vals.pop(), cnts.pop()
            v1, c1 = vals.pop(), cnts.pop()
            vals.append((v1 * c1 + v2 * c2) / (c1 + c2))
            cnts.append(c1 + c2)
    return np.repeat(vals, cnts)


def pava_nonincreasing(v: np.ndarray) -> np.ndarray:
    return -pava_nondecreasing(-np.asarray(v, dtype=float))


def project_simplex(v: np.ndarray, total: float = 1.0) -> np.ndarray:
    """Projection onto {x >= 0, sum x = total} by the sorted-threshold rule."""
    v = np.asarray(v, dtype=float)
    u = np.sort(v)[::-1]
    css = np.cumsum(u)
    idx = np.arange(1, v.size + 1)
    rho = int(np.nonzero(u - (css - total) / idx > 0)[0][-1]) + 1
    tau = (css[rho - 1] - total) / rho
    return np.maximum(v - tau, 0.0)


def _atom_violation(atom: model.ConstraintAtom, v: np.ndarray) -> float:
    k = atom.kind
    if k == model.FREE:
        return 0.0
    if k == model.NONNEG:
        return float(max(0.0, -(v.min(initial=0.0))))
    if k == model.NONPOS:
        return float(max(0.0, v.max(initial=0.0)))
    if k == model.BOX:
        lo = np.broadcast_to(atom.lo, v.shape)
        hi = np.broadcast_to(atom.hi, v.shape)
        return float(max(0.0, np.maximum(lo - v, v - hi).max(initial=0.0)))
    if k == model.POLYHEDRON:
        return float(max(0.0, (atom.A @ v - atom.b).max(initial=0.0)))
    if k == model.MONOTONE_NONINCREASING:
        return float(max(0.0, np.diff(v).max(initial=0.0)))
    if k == model.MONOTONE_NONDECREASING:
        return float(max(0.0, (-np.diff(v)).max(initial=0.0)))
    if k == model.NORM_BALL2:
        return float(max(0.0, np.linalg.norm(v) - atom.radius))
    if k == model.SUM_EQUALS:
        return float(abs(v.sum() - atom.value))
    raise ValueError(f"unknown constraint kind {k!r}")


def max_violation(atoms, v) -> float:
    """Largest constraint violation of v across atoms (0 when feasible)."""
    v = np.asarray(v, dtype=float)
    return max((_atom_violation(a, v) for a in atoms), default=0.0)


# a nonneg or nonpos atom is the box with these bounds
_SIGN_BOUNDS = {model.NONNEG: (0.0, np.inf), model.NONPOS: (-np.inf, 0.0)}


def canonical_atoms(atoms, n: int) -> list:
    """The canonical form of a list of constraint atoms on R^n.

    FREE atoms are dropped. Every nonneg, nonpos and box atom is intersected
    into one box with length-n bounds, placed first. Of the norm balls, all
    centred at the origin, only the smallest is kept, placed last. Every
    other atom keeps its place in between. The form describes the same set,
    and is its own canonical form. Intersected bounds that cross raise
    ProjectionError: the set is empty.
    """
    lo, hi = np.full(n, -np.inf), np.full(n, np.inf)
    boxed, middle, balls = False, [], []
    for a in atoms:
        if a.kind == model.BOX or a.kind in _SIGN_BOUNDS:
            a_lo, a_hi = (a.lo, a.hi) if a.kind == model.BOX else _SIGN_BOUNDS[a.kind]
            lo, hi = np.maximum(lo, a_lo), np.minimum(hi, a_hi)
            boxed = True
        elif a.kind == model.NORM_BALL2:
            balls.append(a)
        elif a.kind != model.FREE:
            middle.append(a)
    if np.any(lo > hi):
        raise ProjectionError("empty feasible set: bounds cross")
    box = [model.box(lo, hi)] if boxed else []
    ball = [min(balls, key=lambda a: a.radius)] if balls else []
    return box + middle + ball


def _project_single(atom: model.ConstraintAtom, v: np.ndarray) -> np.ndarray:
    # closed-form projection onto one canonical non-POLYHEDRON atom
    k = atom.kind
    if k == model.BOX:
        return np.clip(v, atom.lo, atom.hi)
    if k == model.MONOTONE_NONINCREASING:
        return pava_nonincreasing(v)
    if k == model.MONOTONE_NONDECREASING:
        return pava_nondecreasing(v)
    if k == model.NORM_BALL2:
        nrm = float(np.linalg.norm(v))
        return v if nrm <= atom.radius else v * (atom.radius / nrm)
    if k == model.SUM_EQUALS:
        return v + (atom.value - v.sum()) / v.size
    raise ValueError(f"unknown constraint kind {k!r}")


def _rows_single(atom, n):
    # (A, lo, hi) rows for one canonical polyhedral atom
    k = atom.kind
    if k == model.BOX:
        return np.eye(n), np.clip(atom.lo, -INF, INF), np.clip(atom.hi, -INF, INF)
    if k == model.POLYHEDRON:
        q = atom.A.shape[0]
        return atom.A, np.full(q, -INF), atom.b
    if k == model.MONOTONE_NONINCREASING:
        D = np.diff(np.eye(n), axis=0)  # rows x_{i+1} - x_i
        return D, np.full(n - 1, -INF), np.zeros(n - 1)
    if k == model.MONOTONE_NONDECREASING:
        D = np.diff(np.eye(n), axis=0)
        return D, np.zeros(n - 1), np.full(n - 1, INF)
    if k == model.SUM_EQUALS:
        row = np.ones((1, n))
        return row, np.array([atom.value]), np.array([atom.value])
    raise ValueError(f"{k!r} has no halfspace representation")


def stack_rows(atoms, n):
    """Stacked (A, lo, hi) for a list of polyhedral atoms, in canonical form."""
    parts = [_rows_single(a, n) for a in canonical_atoms(atoms, n)]
    if not parts:
        return np.zeros((0, n)), np.zeros(0), np.zeros(0)
    A = np.vstack([p[0] for p in parts])
    lo = np.concatenate([p[1] for p in parts])
    hi = np.concatenate([p[2] for p in parts])
    return A, lo, hi


def _project_rows(v, A, lo, hi, tol, workspace=None):
    prob = qp_problem(np.eye(v.size), -v, A, lo, hi)
    sol = qp_solve(prob, tol=tol, workspace=workspace)
    if sol.status == PRIMAL_INFEASIBLE:
        raise ProjectionError("empty feasible set")
    if sol.status == MAX_ITER:
        raise ProjectionError("projection subproblem did not converge")
    return sol.x


# feasible points are returned unchanged; keep this above the accuracy of the
# interior QP/Dykstra solves so projecting twice is exact
_FEAS_TOL = 1e-8

# accuracy of the QP behind polyhedral projections
_PROJECT_TOL = 1e-10

_MONOTONE_KINDS = (model.MONOTONE_NONINCREASING, model.MONOTONE_NONDECREASING)


def _monotone_scalar_bounds(poly):
    """Exact projection onto one monotone cone intersected with uniform bounds.

    Clipping an isotonic fit at scalar bounds preserves the ordering and the
    pooled-block optimality conditions, so clip(pava(v)) is the intersection
    projection. Bounds that differ across coordinates do not qualify:
    clipping there can break the ordering. Returns that map when the
    canonical atoms poly are a box with one bound pair on every coordinate
    followed by a monotone atom, None otherwise.
    """
    if len(poly) != 2 or poly[0].kind != model.BOX or poly[1].kind not in _MONOTONE_KINDS:
        return None
    lo, hi = poly[0].lo, poly[0].hi
    if np.any(lo != lo[0]) or np.any(hi != hi[0]):
        return None
    lo, hi = lo[0], hi[0]
    if poly[1].kind == model.MONOTONE_NONINCREASING:
        return lambda v: np.clip(pava_nonincreasing(v), lo, hi)
    return lambda v: np.clip(pava_nondecreasing(v), lo, hi)


def _poly_projector(poly, n: int, workspace):
    # exact projection onto canonical polyhedral atoms, no feasibility
    # shortcut; the callers decide when a point is close enough
    if len(poly) == 1 and poly[0].kind != model.POLYHEDRON:
        return lambda v: _project_single(poly[0], v)
    if (
        len(poly) == 2
        and poly[0].kind == model.BOX
        and np.all(poly[0].lo == 0.0)
        and np.all(poly[0].hi >= INF)
        and poly[1].kind == model.SUM_EQUALS
        and poly[1].value > 0.0
    ):
        total = poly[1].value
        return lambda v: project_simplex(v, total)
    fast = _monotone_scalar_bounds(poly)
    if fast is not None:
        return fast
    A, lo, hi = stack_rows(poly, n)
    return lambda v: _project_rows(v, A, lo, hi, _PROJECT_TOL, workspace)


def _dykstra(first, second, v, max_iter, done=None):
    # Dykstra alternation between two proximal maps, from v; stops once an
    # iterate moves by at most 1e-12 and done(x) holds, else after max_iter
    x = v.copy()
    p_corr = np.zeros_like(v)
    q_corr = np.zeros_like(v)
    for _ in range(max_iter):
        y = first(x + p_corr)
        p_corr = x + p_corr - y
        x_new = second(y + q_corr)
        q_corr = y + q_corr - x_new
        if float(np.abs(x_new - x).max()) <= 1e-12 and (done is None or done(x_new)):
            return x_new
        x = x_new
    return x


def _ball_poly_projector(ball, poly, n: int, workspace):
    # Dykstra alternation between a norm ball and a polyhedral intersection
    poly_exact = _poly_projector(poly, n, workspace)
    atoms = [ball, *poly]

    def exact(v):
        x = _dykstra(
            functools.partial(_project_single, ball),
            lambda u: u if max_violation(poly, u) <= 1e-12 else poly_exact(u),
            v, 5000, lambda x: max_violation(atoms, x) <= 1e-10,
        )
        if max_violation(atoms, x) > 1e-6:
            raise ProjectionError("alternating projection did not converge (empty set?)")
        return x

    return exact


def projector(atoms, n: int, workspace: QpWorkspace | None = None):
    """Resolve the Euclidean projection onto an intersection of atoms once.

    Returns project(point) for points of R^n, with the case analysis done
    here, on canonical_atoms(atoms, n), rather than on every call. A lone
    atom uses its closed form (clipping, scaling, isotonic pooling), so
    stacked nonneg, nonpos and box atoms clip to their intersected bounds; a
    nonnegative sum constraint is the simplex; one monotone cone with scalar
    bounds clips its isotonic fit. Other intersections of polyhedral atoms
    are solved as one QP on rows stacked here; composing the individual
    projections would not give the intersection projection. The norm ball
    intersected with polyhedral atoms alternates both projections
    Dykstra-style. Points already feasible are returned as-is. A workspace
    speeds up repeated QP projections. Crossing bounds raise ProjectionError
    here; every other empty set raises when a point is projected.
    """
    atoms = canonical_atoms(atoms, n)
    if not atoms:
        return lambda point: np.asarray(point, dtype=float)

    if atoms[-1].kind != model.NORM_BALL2:
        exact = _poly_projector(atoms, n, workspace)
    elif len(atoms) == 1:
        exact = functools.partial(_project_single, atoms[0])
    else:
        exact = _ball_poly_projector(atoms[-1], atoms[:-1], n, workspace)

    def project_point(point):
        v = np.asarray(point, dtype=float)
        if max_violation(atoms, v) <= _FEAS_TOL:
            return v
        return exact(v)

    return project_point


def project(atoms, point, workspace: QpWorkspace | None = None) -> np.ndarray:
    """Euclidean projection of point onto the atoms: one use of projector."""
    v = np.asarray(point, dtype=float)
    return projector(atoms, v.size, workspace)(v)


# ---------------------------------------------------------------------------
# proximal operators
# ---------------------------------------------------------------------------


def soft_threshold(v: np.ndarray, amount: float) -> np.ndarray:
    return np.sign(v) * np.maximum(np.abs(v) - amount, 0.0)


def block_shrink(v: np.ndarray, amount: float) -> np.ndarray:
    nrm = float(np.linalg.norm(v))
    if nrm <= amount:
        return np.zeros_like(v)
    return v * (1.0 - amount / nrm)


def prox(reg: model.RegularizerAtom, point, step: float = 1.0):
    """Proximal operator of step * reg at point.

    l1 soft-thresholds componentwise; group_l2 shrinks the block toward zero.
    """
    if reg.kind == model.L1:
        return soft_threshold(np.asarray(point, dtype=float), step * reg.weight)
    if reg.kind == model.GROUP_L2:
        return block_shrink(np.asarray(point, dtype=float), step * reg.weight)
    raise ValueError(f"{reg.kind!r} has no parameter-side proximal operator")


def _chained_prox(regs, v, step):
    # prox of l1 + group_l2 composes exactly: soft-threshold, then shrink
    out = np.asarray(v, dtype=float)
    for reg in sorted(regs, key=lambda r: 0 if r.kind == model.L1 else 1):
        out = prox(reg, out, step)
    return out


def _is_sign_box(atom):
    # a canonical box whose every coordinate interval is one of (-inf,0],
    # [0,inf), (-inf,inf), {0}
    if atom.kind != model.BOX:
        return False
    return bool(
        np.all((atom.lo == 0.0) | (atom.lo <= -INF)) and np.all((atom.hi == 0.0) | (atom.hi >= INF))
    )


def _is_cone(atom):
    if atom.kind in _MONOTONE_KINDS:
        return True
    if atom.kind == model.BOX:
        return _is_sign_box(atom)
    if atom.kind == model.POLYHEDRON:
        return bool(np.all(atom.b == 0.0))
    if atom.kind == model.SUM_EQUALS:
        return atom.value == 0.0
    return False


def _dykstra_prox(regs, project_point, v, step):
    # Dykstra alternation between the regularizer prox and the projection
    return _dykstra(lambda u: _chained_prox(regs, u, step), project_point, v, 2000)


def prox_plan(regs, atoms, n: int, proj):
    """Resolve the joint prox of regularizers and atoms on R^n once.

    Returns prox(point, step), the map joint_prox applies, with the case
    analysis done here, on canonical_atoms(atoms, n), rather than on every
    call. proj is projector(atoms, n), which the plan reuses. A solver that
    applies one prox many times builds the plan once per factor.
    """
    atoms = canonical_atoms(atoms, n)
    kinds = {r.kind for r in regs}
    if regs and all(_is_sign_box(a) for a in atoms):
        # a sign box, or no atom at all, zeroes out coordinates;
        # soft-threshold and shrink keep them zeroed, so prox-after-project is
        # exact, and the projection onto the box is the clip to its bounds
        lo, hi = (atoms[0].lo, atoms[0].hi) if atoms else (-np.inf, np.inf)
        return lambda point, step: _chained_prox(regs, np.clip(point, lo, hi), step)
    if not regs:
        return lambda point, step: proj(point)
    if kinds == {model.GROUP_L2} and all(_is_cone(a) for a in atoms):
        # scaling stays in the cone and preserves orthogonality of the
        # projection residual, so shrink-after-project is exact
        return lambda point, step: _chained_prox(regs, proj(point), step)
    if kinds == {model.L1} and all(a.kind == model.BOX for a in atoms):
        # separable 1-d problems: clip the unconstrained prox
        return lambda point, step: proj(_chained_prox(regs, point, step))
    return lambda point, step: _dykstra_prox(regs, proj, np.asarray(point, dtype=float), step)


def joint_prox(regs, atoms, point, step: float, workspace: QpWorkspace | None = None):
    """argmin_x 0.5 ||x - point||^2 + step * (regularizers)(x) over the atoms.

    Exact closed forms cover the cases the solvers hit: bare regularizers,
    bare constraints, separable boxes with l1, and cone constraints (where
    projecting first and then shrinking is exact). Anything else falls back
    to Dykstra alternation between the two proximal maps. This is one
    application of prox_plan.
    """
    v = np.asarray(point, dtype=float)
    return prox_plan(regs, atoms, v.size, projector(atoms, v.size, workspace))(v, step)

"""Convex kernels shared by the block solvers.

Euclidean projections onto constraint atoms and their intersections, a
dense QP solver, and proximal operators for the parameter-side
regularizers. `canonical_atoms` reduces a constraint list to one form, and
`halfspaces` writes polyhedral atoms as rows C x <= d, the one form of a
polyhedron that the projections and `qp_solve` take; `constraint_form`
does both once per list. `projector` and `prox_plan` classify such a form
once and return the map to apply; `project` and `joint_prox` apply one
such map once. A lone box is clipped and a lone norm ball scaled; every
other polyhedron, monotone cones and the simplex among them, is projected
onto by one dual active-set loop, exact in finitely many steps however far
the point lies from the set, and each projector starts it from the active
set, KKT matrix included, of its last projection. `qp_solve` solves a QP
exactly, in one pass of the same loop in Cholesky-transformed coordinates;
a P that is not definite (`Metric`) raises SingularQp.
`regularized_qp` adds l1, group l2 and a ball to a QP: l1 by one such
solve per orthant, and group l2 and the ball by a primal active-set loop
over the polyhedron's faces, each face solved exactly by its secular
equation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import model

SOLVED = "solved"


class ProjectionError(RuntimeError):
    """Projection subproblem failed (infeasible or solver breakdown)."""


class SingularQp(ProjectionError):
    """A QP's P is not numerically definite (`Metric.definite`)."""


@dataclass(frozen=True, eq=False)
class QpProblem:
    """minimize 0.5 x^T P x + q^T x  subject to  A x <= b.

    P must be symmetric positive definite: `qp_solve` raises SingularQp on
    any other. Each row of A x <= b is one halfspace: an equality is two
    opposite rows, and `halfspaces` gives the rows of a list of constraint
    atoms. Build it with `qp_problem`.
    """

    P: np.ndarray
    q: np.ndarray
    A: np.ndarray
    b: np.ndarray


def qp_problem(P, q, A, b) -> QpProblem:
    """The QpProblem of P, q and the rows A x <= b, as float arrays.

    Raises ValueError unless q is a vector of some length n, P is (n, n), A
    is (k, n) and b is (k,).
    """
    P, q, A, b = (np.asarray(a, dtype=float) for a in (P, q, A, b))
    n = q.size
    if q.ndim != 1 or P.shape != (n, n) or A.ndim != 2 or A.shape[1] != n or b.shape != A.shape[:1]:
        raise ValueError(
            f"a QP needs q of shape (n,), P (n, n), A (k, n) and b (k,); "
            f"got q {q.shape}, P {P.shape}, A {A.shape}, b {b.shape}"
        )
    return QpProblem(P=P, q=q, A=A, b=b)


@dataclass(eq=False)
class QpSolution:
    x: np.ndarray
    status: str
    iterations: int  # passes of the active-set loop: always 1
    y: np.ndarray  # multipliers of the rows: P x + q + A^T y = 0


# a symmetric matrix is definite where its least eigenvalue exceeds this share of its largest
_NULL_EIGENVALUE = 1e-12


@dataclass(frozen=True, eq=False)
class Metric:
    """M = V diag(w) V', w ascending (`metric(M)`): the one eigendecomposition
    that gives w_max, definiteness, damping and `_face_minimizer`'s whole space."""

    M: np.ndarray
    w: np.ndarray
    V: np.ndarray

    @property
    def definite(self) -> bool:  # numerically positive definite
        return bool(self.w[0] > _NULL_EIGENVALUE * self.w[-1])

    def damped(self, rho: float) -> Metric:  # M + rho I, on the same eigenvectors
        return Metric(self.M + rho * np.eye(self.w.size), self.w + rho, self.V)


def metric(M) -> Metric:
    return Metric(M, *np.linalg.eigh(M))  # exactly (ones, I) for M = I


# ---------------------------------------------------------------------------
# projections
# ---------------------------------------------------------------------------


def _atom_violation(atom: model.ConstraintAtom, v: np.ndarray) -> float:
    k = atom.kind
    if k == model.FREE:
        return 0.0
    if k == model.NONNEG:
        return float(max(0.0, -(v.min(initial=0.0))))
    if k == model.NONPOS:
        return float(max(0.0, v.max(initial=0.0)))
    if k == model.BOX:
        return float(max(0.0, np.maximum(atom.lo - v, v - atom.hi).max(initial=0.0)))
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


_MONOTONE_KINDS = (model.MONOTONE_NONINCREASING, model.MONOTONE_NONDECREASING)

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


def halfspaces(atoms, n):
    """The rows C x <= d of a list of polyhedral atoms on R^n, in canonical form.

    One row per finite side: the bound hi_i of a box gives x_i <= hi_i and
    lo_i gives -x_i <= -lo_i, a sum constraint gives two opposite rows, and a
    bound of +-inf gives no row. The upper sides of all atoms come first, in
    atom order, then the lower sides.
    """
    return _stacked_rows(canonical_atoms(atoms, n), n)


def _stacked_rows(atoms, n):
    """halfspaces of polyhedral atoms already in canonical form."""
    upper, lower = [], []  # (A, hi) of rows A x <= hi, (A, lo) of rows A x >= lo
    for atom in atoms:
        k = atom.kind
        if k == model.BOX:
            upper.append((np.eye(n), atom.hi))
            lower.append((np.eye(n), atom.lo))
        elif k == model.POLYHEDRON:
            upper.append((atom.A, atom.b))
        elif k in _MONOTONE_KINDS:
            D = np.diff(np.eye(n), axis=0)  # rows x_{i+1} - x_i
            (upper if k == model.MONOTONE_NONINCREASING else lower).append((D, np.zeros(n - 1)))
        elif k == model.SUM_EQUALS:
            row = (np.ones((1, n)), np.array([atom.value]))
            upper.append(row)
            lower.append(row)
        else:
            raise ValueError(f"{k!r} has no halfspace representation")
    C = np.vstack([np.zeros((0, n))] + [A for A, _ in upper] + [-A for A, _ in lower])
    d = np.concatenate([np.zeros(0)] + [hi for _, hi in upper] + [-lo for _, lo in lower])
    finite = d < np.inf
    return C[finite], d[finite]


@dataclass(frozen=True, eq=False)
class ConstraintForm:
    """A constraint list on R^n compiled once, for every map built on it.

    atoms is its canonical form (`canonical_atoms`); C x <= d are the
    halfspace rows of every atom but the norm ball, whose radius is kept (inf
    where there is none). Build it with `constraint_form`.
    """

    n: int
    atoms: list
    C: np.ndarray
    d: np.ndarray
    radius: float


def constraint_form(atoms, n: int) -> ConstraintForm:
    """The ConstraintForm of a list of constraint atoms on R^n: canonicalized
    and stacked into rows once. Crossing bounds raise ProjectionError."""
    atoms = canonical_atoms(atoms, n)
    ball = bool(atoms) and atoms[-1].kind == model.NORM_BALL2
    C, d = _stacked_rows(atoms[:-1] if ball else atoms, n)
    return ConstraintForm(n, atoms, C, d, atoms[-1].radius if ball else math.inf)


# the projection onto a polyhedron other than a lone box returns points
# within this of the set unchanged, the loop reading it from their first
# residuals; keep it above the residual the loop leaves (_stop_tol) so
# projecting twice is exact
_FEAS_TOL = 1e-8

# the residual C x - d the active-set loop leaves (`_stop_tol`)
_PROJECT_TOL = 1e-10
_ROUNDING_TOL = 1e-12

# a row whose part orthogonal to the active normals is at most this share of
# its norm lies in their span
_SPAN_TOL = 1e-8

# the active-set loop takes at most this many steps per halfspace row
_STEPS_PER_ROW = 5

# Newton's method on a secular equation takes at most this many steps: from
# the left of the root it rises to it monotonically, quadratically at the end
_SECULAR_MAX_ITER = 100


class _ActiveSet:
    """Rows of C x <= d held tight, in row order: their normals N = C[rows],
    bounds b = d[rows] and the KKT matrix of N, built on its first solve and
    kept for every later one. A solve calls np.linalg.solve on that matrix,
    so it gives the bytes of a matrix built afresh."""

    __slots__ = ("rows", "N", "b", "_K")

    def __init__(self, C, d, rows):
        self.rows, self.b, self._K = rows, d[rows], None
        # one row is made tight in closed form, from its row of C as it lies
        # in memory: the rounding of a dot product depends on the stride
        self.N = C[rows] if len(rows) > 1 else C[rows[0]:rows[0] + 1]

    def solve(self, top, bottom):
        """(u, w) with u + N^T w = top and N u = bottom, for N of independent rows.

        u is the projection of top onto N u = bottom, and w holds the
        multipliers of its rows. The saddle-point system is solved as it
        stands: eliminating u would square the condition number of N.
        Raises ProjectionError where it is singular.
        """
        k, n = self.N.shape
        if self._K is None:
            K = np.zeros((n + k, n + k))
            K[:n, :n] = np.eye(n)
            K[:n, n:] = self.N.T
            K[n:, :n] = self.N
            self._K = K
        try:
            sol = np.linalg.solve(self._K, np.concatenate([top, bottom]))
        except np.linalg.LinAlgError:
            raise ProjectionError("active-set projection broke down") from None
        return sol[:n], sol[n:]

    def tight_point(self, v):
        """The projection x of v onto the rows made tight, and their
        multipliers clipped at 0: in closed form for one row, else from the
        KKT system. Raises ProjectionError where that system is singular."""
        if len(self.rows) == 1:
            c = self.N[0]
            w = max((float(c @ v) - self.b[0]) / float(c @ c), 0.0)
            return v - w * c, [w]
        x, w = self.solve(v, self.b)
        return x, np.maximum(w, 0.0).tolist()


def _stop_tol(C, x, d):
    # the residual C x - d the active-set loop leaves: _PROJECT_TOL, plus
    # _ROUNDING_TOL of the scale |C| |x| + |d| that its rounding reaches
    return _PROJECT_TOL + _ROUNDING_TOL * (np.abs(C) @ np.abs(x) + np.abs(d))


def _stopped(C, x, d, s):
    """Whether every residual s = C x - d is within `_stop_tol`: the test
    that ends the active-set loop. The tests run from the cheapest: the
    absolute bound, the largest residual's own bound, then every row's."""
    p = int(s.argmax())
    return bool(s[p] <= _PROJECT_TOL or (s[p] <= _stop_tol(C[p], x, d[p]) and np.all(s <= _stop_tol(C, x, d))))


def _dual_feasible(v, C, d, face):
    """v made tight on the rows of face, with every multiplier positive: rows
    whose multiplier is not are dropped and the rest made tight again, until
    none is left. Returns (x, active set, multipliers), or (v, None, []) where
    no row is left or the rows are not independent."""
    try:
        while face is not None:
            x, lam = face.tight_point(v)
            if min(lam) > 0.0:
                return x, face, lam
            rows = [r for r, w in zip(face.rows, lam) if w > 0.0]
            face = _ActiveSet(C, d, rows) if rows else None
    except ProjectionError:  # a singular KKT system
        pass
    return v, None, []


def _settle(v, C, d, x, face):
    """(x, s, stopped) for x, v made tight on the active set face: whether
    every residual s = C x - d is within `_stop_tol` (`_stopped`). x was
    solved from v, so far from the set its rounding is at the scale of v, and
    a row in the span of the active ones (the other side of an equality, say)
    can read as violated at the scale of x. So where the largest residual is
    within `_stop_tol` at the scale |x| + |v|, x is solved once more, as the
    projection of x itself onto the active rows (multipliers unclipped), whose
    rounding is at the scale of the set, and tested again."""
    s = C @ x - d
    if _stopped(C, x, d, s):
        return x, s, True
    p = int(s.argmax())
    if s[p] > _stop_tol(C[p], np.abs(x) + np.abs(v), d[p]):
        return x, s, False
    x = face.solve(x, face.b)[0]
    s = C @ x - d
    return x, s, _stopped(C, x, d, s)


def _active_set_project(v, C, d, feas_tol, start=None):
    """Euclidean projection x of v onto {x : C x <= d}, exact up to rounding.

    C has at least one row. Returns x, its active set (an _ActiveSet of C and
    d: the active rows in row order, with their KKT matrix) and their
    multipliers w, x + C_active^T w = v; v, None and none where no residual
    C v - d exceeds feas_tol. Otherwise runs the dual active-set method of
    Goldfarb & Idnani (Math. Programming 27, 1983), from x = v and no
    active row, or, given start, an active set of C and d (a warm start: say
    that of a nearby point's projection), from v made tight on its rows with
    every multiplier positive (`_dual_feasible`), a dual-feasible start whose
    solves the loop keeps. Each step takes the most violated row p and steps
    x along -z, z = c_p - N^T r with N z = 0 for the active normals N,
    raising p's multiplier by t and lowering the active ones by t r, so that
    the active rows stay tight.
    The step ends where p is tight, at t = s_p / c_p.z, and p joins the
    active set; or earlier, where an active multiplier reaches 0, and that
    row leaves while p is tried again. Where c_p lies in the span of N and
    no multiplier blocks, no feasible point exists. After each full step, x
    and the multipliers are solved afresh on the active rows
    (`_ActiveSet.tight_point`), with p's multiplier kept at least t, and
    tested (`_settle`), as is a warm start's point; the loop stops once
    every residual is within `_stop_tol`. Each active set builds its KKT
    matrix once, for its direction and its point. The loop's x depends on
    its last active set alone, so a warm start returns the bytes of the cold
    loop wherever both end on the same rows; its multipliers are the KKT
    ones, where the loop may keep p's at its step t. Raises ProjectionError
    on an empty set and after _STEPS_PER_ROW steps per row.
    """
    s = C @ v - d
    p = int(s.argmax())  # the row being made tight
    if s[p] <= feas_tol:
        return v, None, []
    x, face, lam = v, None, []  # the active set and its multipliers
    if start is not None:
        x, face, lam = _dual_feasible(v, C, d, start)
        if face is not None:
            x, s, stopped = _settle(v, C, d, x, face)
            if stopped:
                return x, face, lam
            p = int(s.argmax())
    for _ in range(_STEPS_PER_ROW * d.size):
        c = C[p]
        rows = [] if face is None else face.rows
        if rows:
            z, r = face.solve(c, np.zeros(len(rows)))
            r = r.tolist()
        else:
            r, z = [], c
        cz = float(c @ z)
        # the full step makes p tight; there is none when c_p is in the span
        # of N: its part z orthogonal to N is rounding of |c_p|
        spanned = len(rows) == v.size or cz <= _SPAN_TOL**2 * float(c @ c)
        full = math.inf if spanned else float(s[p]) / cz
        # the partial step stops where the first multiplier reaches 0
        partial, j = math.inf, -1
        for i, (li, ri) in enumerate(zip(lam, r)):
            if ri > 0.0 and li / ri < partial:
                partial, j = li / ri, i
        if full == partial == math.inf:
            raise ProjectionError("empty feasible set")
        if partial < full:
            lam = [max(li - partial * ri, 0.0) for li, ri in zip(lam, r)]
            del lam[j]
            rows = rows[:j] + rows[j + 1:]
            face = _ActiveSet(C, d, rows) if rows else None
            if not spanned:
                x = x - partial * z
                s = C @ x - d
            continue
        # after a full step, x is the projection of v onto the active rows
        # made tight, and lam its multipliers, solved afresh: they carry no
        # rounding from the steps, and one active set, kept in row order,
        # gives one x
        face = _ActiveSet(C, d, sorted(rows + [p]))
        x, lam = face.tight_point(v)
        # p's multiplier grew by at least the full step. Rounded below it,
        # towards 0, it would let p leave again at a step of length 0, and
        # the loop could cycle between two nearly dependent rows
        i = face.rows.index(p)
        lam[i] = max(lam[i], full)
        x, s, stopped = _settle(v, C, d, x, face)
        if stopped:
            return x, face, lam
        p = int(s.argmax())
    raise ProjectionError("active-set projection did not converge")


def _metric_qp(met: Metric, q, A, b) -> QpSolution:
    """qp_solve's point of the QP with a definite P = met.M = scale L L^T.

    x = L^-T u for u the Euclidean projection of -L^-1 q / scale onto the
    rows (A L^-T) u <= b (`_active_set_project`), the coordinates of
    Goldfarb & Idnani; the eigenvectors' would lose the accuracy of each row
    of a graded P. The scale keeps u and the rows near the scale of x and A.
    """
    scale = float(met.M.diagonal().max())  # > 0, as M is definite
    L = np.linalg.cholesky(met.M / scale)
    u = -np.linalg.solve(L, q / scale)
    y = np.zeros(b.size)  # the multipliers of the rows of P / scale and q / scale
    if b.size:
        u, face, lam = _active_set_project(u, np.linalg.solve(L, A.T).T, b, _PROJECT_TOL)
        if face is not None:
            y[face.rows] = lam
    return QpSolution(np.linalg.solve(L.T, u), SOLVED, 1, scale * y)


def qp_solve(prob: QpProblem) -> QpSolution:
    """Solve a dense strictly convex QP exactly, in one pass of the active-set loop.

    The rows A x <= b are used as given (`_norm_qp` with no l2 and no ball);
    a P that is not definite (`Metric.definite`) raises SingularQp. Returns
    SOLVED, with iterations 1, and the multipliers y of the rows. Raises
    ProjectionError on an empty set or a breakdown of the loop.
    """
    return _norm_qp(metric(prob.P), prob.q, prob.A, prob.b, 0.0, math.inf, None)


def _secular_root(terms, t, target):
    """The root right of t of F(t) = target^2, F(t) = sum b / (a + e t)^2
    over terms (b, a, e) with b > 0, e >= 0 and a + e t > 0 from t on.

    1 / sqrt(F) is a power mean (of order -2) of the a + e t, so it is
    concave, and it rises: Newton's method on 1 / sqrt(F) = 1 / target from
    t left of the root climbs to it monotonically and converges
    quadratically (More & Sorensen, 1983). The terms are Python floats:
    they are few, and NumPy's per-call cost would be most of the work.
    """
    for _ in range(_SECULAR_MAX_ITER):
        f = df = 0.0  # F(t) and -F'(t) / 2
        for b, a, e in terms:
            den = a + e * t
            u = b / (den * den)
            f += u
            df += u * e / den
        t_next = t + f * (math.sqrt(f) / target - 1.0) / df
        if t_next <= t:  # rounding stops the rise at the root
            return t
        t = t_next
    raise ProjectionError("secular equation did not converge")


def _face_minimizer(met, q, l2, radius, x0, N):
    """argmin x.M x / 2 + q.x + l2 ||x|| over x = x0 + N y, ||x|| <= radius,
    M = met.M, and the damping mu at which M x + q + mu x is normal to the face.

    x0 is the face's min-norm point and N an orthonormal basis of its
    directions (0 and None, read as I, for the whole space: met's own w and
    V), so ||x||^2 = a + ||y||^2 with a = ||x0||^2. With N'M N = V diag(w) V' and
    beta = V'N'(M x0 + q), y(mu) = -V (beta / (w + mu)), and the minimizer
    is x(mu) for the least mu >= 0 with mu ||x|| >= l2 and ||x|| <= radius.
    In s = 1 / mu the first is the secular equation
    a / s^2 + sum beta^2 / (1 + w s)^2 = l2^2, and in mu the second
    a + sum beta^2 / (w + mu)^2 = radius^2, each solved by `_secular_root`.
    x = 0 where a = 0 and ||beta|| <= l2. A face that meets the ball at x0
    alone gives x0. M must be definite, and so is N'M N.
    """
    if N is None:  # the whole space, with no product by I
        a, w, V, c = 0.0, met.w, met.V, q
    else:
        a = float(x0 @ x0)
        if not N.shape[1]:  # the face is one point
            return x0, l2 / math.sqrt(a) if a else 0.0
        w, V = np.linalg.eigh(N.T @ met.M @ N)
        c = N.T @ (met.M @ x0 + q if a else q)
    beta = V.T @ c
    # n is small, so the sums run on Python floats
    b2, wl = (beta * beta).tolist(), w.tolist()
    if not a and sum(b2) <= l2 * l2:
        return x0, 0.0
    terms = [(b, e) for b, e in zip(b2, wl) if b]
    if l2:
        s = _secular_root([(b, 1.0, e) for b, e in terms] + ([(a, 0.0, 1.0)] if a else []), math.sqrt(a) / l2, l2)
        y, mu = -s * (V @ (beta / (1.0 + w * s))), 1.0 / s
    else:
        y, mu = -(V @ (beta / w)), 0.0
    if a + y @ y > radius * radius:
        if a >= radius * radius:
            return x0, l2 / math.sqrt(a) if a else 0.0
        mu = _secular_root([(b, e, 1.0) for b, e in terms] + ([(a, 1.0, 0.0)] if a else []), mu, radius)
        y = -(V @ (beta / (w + mu)))
    return (y if N is None else x0 + N @ y), mu


def _face(C, d, W):
    """The face C_W x = d_W of the independent rows W (a nonempty list):
    its min-norm point x0, an orthonormal basis N of its directions, and
    the map from a vector g normal to the face to the multipliers y_W with
    C_W' y_W = -g. Coordinates that no row of W touches keep their own
    axes in N; on the others, x0 and N come from a QR factorization of
    C_W'."""
    n, k = C.shape[1], len(W)
    CW, dW = C[W], d[W]
    touched = CW.any(axis=0)
    Q, R = np.linalg.qr(CW[:, touched].T, mode="complete")
    Q1, R = Q[:, :k], R[:k]
    tangent = np.zeros((n, Q.shape[0] - k))
    tangent[touched] = Q[:, k:]
    x0 = np.zeros(n)
    if dW.any():
        x0[touched] = Q1 @ np.linalg.solve(R.T, dW)
    return x0, np.hstack([np.eye(n)[:, ~touched], tangent]), lambda g: -np.linalg.solve(R, Q1.T @ g[touched])


def _norm_qp(met, q, C, d, l2, radius, start):
    """argmin x.M x / 2 + q.x + l2 ||x|| over C x <= d and ||x|| <= radius.

    Returns the QpSolution (x, multipliers y of the rows). M = met.M must be
    definite (else SingularQp); without l2, `_metric_qp`'s point is the
    answer where it lies in the ball. Otherwise a primal active-set loop
    runs over the faces C_W x = d_W of the polyhedron (Goldfarb & Idnani, Math. Programming 27,
    1983, for the frame), each solved exactly by `_face_minimizer`, ball
    included. W starts empty: the minimizer over the whole space is the
    answer where it meets the rows, each within `_stop_tol`. Where it does
    not, x = 0 with l2 where 0 meets the rows and -q lies within l2 of their
    normal cone at 0 (Moreau); else the loop steps from start where it is a
    point of the set, and from the polyhedron's min-norm point otherwise,
    which outside the ball leaves the set empty (ProjectionError). A step to
    a face's minimizer that crosses rows stops at the first (the least index
    on ties), which joins W, so the rows of W stay independent. At a
    minimizer in the set the multipliers y_W of C_W' y_W = -(M x + q + mu x)
    are read: it is optimal once none is below -_PROJECT_TOL (l2 + ||q||),
    rounding of 0, and else the least-index row with one below leaves W
    (Bland). Raises ProjectionError after _STEPS_PER_ROW steps per row.
    """
    if not met.definite:
        raise SingularQp("QP matrix is not numerically positive definite")
    if not l2:
        sol = _metric_qp(met, q, C, d)
        if math.sqrt(sol.x @ sol.x) <= radius:
            return sol
    n, W, x = q.size, [], None
    for _ in range(_STEPS_PER_ROW * d.size + 1):
        x0, N, multipliers = _face(C, d, W) if W else (np.zeros(n), None, None)
        xs, mu = _face_minimizer(met, q, l2, radius, x0, N)
        s_next = C @ xs - d
        if W:
            s_next[W] = 0.0  # the face's rows
        crossed = d.size and not _stopped(C, xs, d, s_next)
        if crossed and x is None:  # the first face, the whole space, leaves the set
            if l2 and (d >= 0.0).all():
                tight = d == 0.0  # the rows through 0, whose normals span its normal cone
                u, face, w = _active_set_project(-q, C[tight], d[tight], _PROJECT_TOL) if tight.any() else (-q, None, [])
                if math.sqrt(u @ u) <= l2:
                    y = np.zeros(d.size)
                    if face is not None:
                        y[np.flatnonzero(tight)[face.rows]] = w
                    return QpSolution(np.zeros(n), SOLVED, 1, y)
            x = None if start is None else np.asarray(start, dtype=float)
            if x is None or (C @ x - d > _FEAS_TOL).any() or math.sqrt(x @ x) > radius + _FEAS_TOL:
                x = _active_set_project(np.zeros(n), C, d, _PROJECT_TOL)[0]
                if math.sqrt(x @ x) > radius:
                    raise ProjectionError("empty feasible set")
        if crossed:
            rows = np.flatnonzero(s_next > _stop_tol(C, xs, d))
            before = np.maximum(d[rows] - C[rows] @ x, 0.0)  # the slack at x, 0 where rounding crossed
            j = int((before / (s_next[rows] + before)).argmin())
            x = x + float(before[j] / (s_next[rows[j]] + before[j])) * (xs - x)
            W = sorted(W + [int(rows[j])])
            continue
        x, y = xs, np.zeros(d.size)
        if not W:
            return QpSolution(x, SOLVED, 1, y)
        y_W = multipliers(met.M @ x + q + mu * x)
        low = y_W < -_PROJECT_TOL * (l2 + math.sqrt(q @ q))
        if not low.any():
            y[W] = np.maximum(y_W, 0.0)
            return QpSolution(x, SOLVED, 1, y)
        del W[int(low.argmax())]
    raise ProjectionError("active-set loop of the norm QP did not converge")


def regularized_qp(met: Metric, q, C, d, l1, l2, radius, start):
    """argmin x.M x / 2 + q.x + l1 ||x||_1 + l2 ||x||_2 over C x <= d, ||x|| <= radius.

    M = met.M must be definite (else SingularQp); radius may be inf,
    l1 and l2 0, and start a point of the set or None. On the orthant of
    signs s, l1 ||x||_1 is l1 s.x, and the rows -s_i x_i <= 0 join C x <= d
    (`_norm_qp`, started from start). The loop starts on the orthant of
    start, which must be given where l1 > 0 (its zeros take the signs of
    -q), and ends once each sign row's multiplier y_i is at most 2 l1, so
    that l1 s_i - y_i is a subgradient. Else the least i that is not, at
    x_i = 0, flips s_i: the new orthant holds the last point, which starts
    its loop, and its minimum is lower. Returns None after 2n flips.
    """
    if not l1:
        return _norm_qp(met, q, C, d, l2, radius, start).x
    n = q.size
    s = np.where(start != 0.0, np.sign(start), np.where(q > 0.0, -1.0, 1.0))
    d = np.concatenate([d, np.zeros(n)])
    for _ in range(2 * n + 1):  # the start, then at most 2n flips
        sol = _norm_qp(met, q + l1 * s, np.vstack([C, -np.diag(s)]), d, l2, radius, start)
        bad = sol.y[-n:] > 2.0 * l1
        if not bad.any():
            return sol.x
        s[int(bad.argmax())] *= -1.0
        start = sol.x
    return None


def regularized_qp_terms(regs, form: ConstraintForm):
    """regularized_qp's C, d, l1, l2, radius for regs and a ConstraintForm:
    the rows of every atom but the ball, the summed l1 and group-l2 weights,
    and the ball's radius, inf where there is none."""
    l1, l2 = (sum(float(r.weight) for r in regs if r.kind == kind) for kind in (model.L1, model.GROUP_L2))
    return form.C, form.d, l1, l2, form.radius


def projector(form: ConstraintForm):
    """Resolve the Euclidean projection onto a compiled constraint list once.

    Returns project(point) for points of R^n, with the case analysis done
    here, on the form's canonical atoms, rather than on every call. There
    are three cases. A lone box clips, so stacked nonneg, nonpos and box
    atoms clip to their intersected bounds, and a lone norm ball scales;
    both return a feasible point with its values unchanged. A norm ball with
    other atoms is regularized_qp with M = I, from the polyhedron's min-norm
    point. Every other set is a polyhedron, the form's halfspace rows, one
    per finite side, and each point is projected onto them exactly by the
    dual active-set loop (`_active_set_project`); composing the individual
    projections would not give the intersection projection. That map keeps
    the active set of its last projection of an infeasible point, its rows
    with their KKT matrix, and starts the next loop from them: the cold
    loop's point wherever both end on the same rows, and a dual-feasible
    start, from the rows whose multipliers stay positive, where the start
    rows are not the answer. Each call of projector builds its own map, with
    its own active set; between projections it keeps only the last. The last
    two maps return points within _FEAS_TOL of the set as they are; the
    active-set loop reads that from its first residuals. Every empty set
    whose bounds do not cross (which `constraint_form` raises on) raises
    when a point is projected.
    """
    atoms, n = form.atoms, form.n
    kinds = [a.kind for a in atoms]
    if kinds == [model.BOX]:
        (box,) = atoms

        def exact(v):
            return np.clip(v, box.lo, box.hi)

    elif kinds == [model.NORM_BALL2]:
        (ball,) = atoms

        def exact(v):
            nrm = float(np.linalg.norm(v))
            return v if nrm <= ball.radius else v * (ball.radius / nrm)

    elif kinds[-1:] == [model.NORM_BALL2]:
        terms, eye = regularized_qp_terms((), form), metric(np.eye(n))

        def exact(v):
            return v if max_violation(atoms, v) <= _FEAS_TOL else regularized_qp(eye, -v, *terms, None)

    else:
        C, d = form.C, form.d
        if not d.size:  # no atom, or every side infinite
            return lambda point: np.asarray(point, dtype=float)
        last = None  # the active set of the last infeasible point's projection

        def exact(v):
            nonlocal last
            x, face, _ = _active_set_project(v, C, d, _FEAS_TOL, last)
            last = face or last
            return x

    return lambda point: exact(np.asarray(point, dtype=float))


def project(atoms, point) -> np.ndarray:
    """Euclidean projection of point onto the atoms: one use of projector."""
    v = np.asarray(point, dtype=float)
    return projector(constraint_form(atoms, v.size))(v)


# ---------------------------------------------------------------------------
# proximal operators
# ---------------------------------------------------------------------------


def soft_threshold(v: np.ndarray, amount: float) -> np.ndarray:
    return np.sign(v) * np.maximum(np.abs(v) - amount, 0.0)


def block_shrink(v: np.ndarray, amount: float) -> np.ndarray:
    # for a 1-D v, sqrt(v @ v) is np.linalg.norm(v) bit for bit, at less cost
    nrm = math.sqrt(v @ v)
    if nrm <= amount:
        return np.zeros_like(v)
    return v * (1.0 - amount / nrm)


def prox_plan(regs, form: ConstraintForm, proj):
    """Resolve the joint prox of regularizers and a compiled constraint list once.

    Returns prox(point, step), the map joint_prox applies, with the case
    analysis done here, on the form's canonical atoms, rather than on every
    call. proj is projector(form), which the plan reuses. A solver that
    applies one prox many times builds the plan once per factor. Over a
    sign box, or no atom, the prox clips, soft-thresholds and shrinks, which
    keep zeroed coordinates at 0: exact. Any other is regularized_qp with
    M = I, started from the projection; its orthant cap raises
    ProjectionError.
    """
    if not regs:
        return lambda point, step: proj(point)
    atoms = form.atoms
    C, d, l1, l2, radius = regularized_qp_terms(regs, form)
    # a box whose every coordinate interval is one of (-inf, 0], [0, inf),
    # (-inf, inf) and {0}: its prox is a closed form, with no rows
    if all(a.kind == model.BOX and np.isin(a.lo, (0.0, -np.inf)).all() and np.isin(a.hi, (0.0, np.inf)).all()
           for a in atoms):
        lo, hi = (atoms[0].lo, atoms[0].hi) if atoms else (-np.inf, np.inf)

        def box_prox(point, step):
            v = np.clip(point, lo, hi)
            v = soft_threshold(v, step * l1) if l1 else v
            return block_shrink(v, step * l2) if l2 else v

        return box_prox
    eye = metric(np.eye(form.n))

    def prox(point, step):
        v = np.asarray(point, dtype=float)
        x = regularized_qp(eye, -v, C, d, step * l1, step * l2, radius, proj(v))
        if x is None:
            raise ProjectionError("the orthant loop of the joint prox did not converge")
        return x

    return prox


def joint_prox(regs, atoms, point, step: float):
    """argmin_x 0.5 ||x - point||^2 + step * (regularizers)(x) over the atoms.

    One application of prox_plan: a closed form with no regularizer or over
    a sign box, and regularized_qp, exact, otherwise.
    """
    v = np.asarray(point, dtype=float)
    form = constraint_form(atoms, v.size)
    return prox_plan(regs, form, projector(form))(v, step)

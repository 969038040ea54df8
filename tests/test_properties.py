"""Property tests: random inputs drawn by hypothesis (MacIver et al., JOSS 2019).

Examples are derandomized, so every run of the suite draws the same ones.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

import dlfmkit as dk  # noqa: E402
from dlfmkit import kernels, model, oracle  # noqa: E402
from two_sided import two_sided_qp  # noqa: E402


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    m=st.integers(1, 60),
    K=st.integers(1, 6),
    levels=st.integers(1, 4),
    share_inf=st.floats(0.0, 0.6),
    fortran=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_plain_f_step_and_harden_match_numpy(m, K, levels, share_inf, fortran, seed):
    # few distinct values force ties, and +-inf entries fill some rows
    # entirely; the K vector ops over the factor axis must pick what
    # np.argmin and np.argmax pick, the smallest index among ties
    rng = np.random.default_rng(seed)
    R = rng.integers(levels, size=(m, K)) * rng.uniform(0.1, 10.0)
    inf = rng.random((m, K)) < share_inf
    R[inf] = rng.choice([-np.inf, np.inf], size=int(inf.sum()))
    if fortran:
        R = np.asfortranarray(R)
    Z = dk.solve_f_plain(R)
    assert Z.shape == (m, K) and Z.flags.f_contiguous
    assert np.all((Z == 0.0) | (Z == 1.0))
    assert np.array_equal(Z.sum(axis=1), np.ones(m))  # exactly one 1 per row
    assert np.array_equal(np.argmax(Z, axis=1), np.argmin(R, axis=1))
    assert np.array_equal(dk.harden(R), np.argmax(R, axis=1) + 1)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    m=st.integers(1, 80),
    K=st.integers(2, 5),
    lam=st.floats(1e-3, 10.0),
    scale=st.floats(1e-3, 1e4),
    seed=st.integers(0, 2**32 - 1),
)
def test_kl_f_step_descends_on_stochastic_rows(m, K, lam, scale, seed):
    rng = np.random.default_rng(seed)
    R = rng.normal(size=(m, K)) * scale
    Z0 = rng.dirichlet(np.ones(K), size=m)

    def total(Z):
        return float((Z * R).sum()) + lam * model.kl_chain_value(Z)

    start = np.maximum(Z0, 1e-12)
    start /= start.sum(axis=1, keepdims=True)
    Z, converged = dk.solve_f_kl(R, lam, Z0, max_iter=500)
    assert Z.shape == (m, K) and np.all(Z > 0)
    assert np.abs(Z.sum(axis=1) - 1.0).max() <= 1e-12
    assert total(Z) <= total(start) + 1e-12 * max(1.0, abs(total(start)))
    Z_again, converged_again = dk.solve_f_kl(R, lam, Z0, max_iter=500)
    assert np.array_equal(Z, Z_again) and converged == converged_again


def group_l2_box_objective(H, c, lam, x):
    return float(0.5 * x @ H @ x + c @ x) + lam * float(np.linalg.norm(x))


def group_l2_box_kkt_violation(H, c, lam, lo, hi, x):
    """Largest violation of the optimality conditions of x for the model
    x.H x / 2 + c.x + lam ||x|| over the sign box lo <= x <= hi."""
    nrm = float(np.linalg.norm(x))
    if nrm == 0.0:
        # 0 is optimal exactly when -c is within lam of the box's polar cone
        return max(float(np.linalg.norm(np.clip(-c, lo, hi))) - lam, 0.0)
    r = H @ x + c + lam * x / nrm
    held = (lo == 0.0) & (hi == 0.0)
    at_lower = (x == 0.0) & (lo == 0.0) & (hi > 0.0)  # may rise: r >= 0
    at_upper = (x == 0.0) & (hi == 0.0) & (lo < 0.0)  # may fall: r <= 0
    viol = np.where(at_lower, np.maximum(-r, 0.0), np.where(at_upper, np.maximum(r, 0.0), np.abs(r)))
    return float(np.where(held, 0.0, viol).max())


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    n=st.integers(1, 5),
    curvature=st.sampled_from(["definite", "deficient", "zero"]),
    scale=st.floats(1e-2, 1e2),
    seed=st.integers(0, 2**32 - 1),
)
# a draw on which flipping every coordinate that fails its sign check at once cycles
@example(n=2, curvature="definite", scale=1.0, seed=520)
def test_group_l2_box_model_is_exact(n, curvature, scale, seed):
    # the model of a group-l2 factor over a sign box, min x.H x / 2 + c.x +
    # lam ||x|| over lo <= x <= hi, solved by regularized_qp on the box's
    # halfspaces, against its own optimality conditions and the objective
    # of a long constant-step proximal gradient run
    rng = np.random.default_rng(seed)
    kinds = rng.integers(4, size=n)  # free, >= 0, <= 0, {0}
    lo = np.where((kinds == 0) | (kinds == 2), -np.inf, 0.0)
    hi = np.where((kinds == 0) | (kinds == 1), np.inf, 0.0)
    rank = {"definite": n, "deficient": int(rng.integers(1, n)) if n > 1 else 0, "zero": 0}[curvature]
    A = rng.normal(size=(n, rank)) * scale
    H = A @ A.T + (0.1 * scale**2 * np.eye(n) if curvature == "definite" else 0.0)
    c = rng.normal(size=n) * scale
    lam = rng.uniform(0.02, 1.0) * float(np.linalg.norm(c))
    if curvature == "deficient":
        # keep the part of c in the null space of H below lam: bounded
        null = np.linalg.svd(A, full_matrices=True)[0][:, rank:]
        part = null @ (null.T @ c)
        c = c - part + part * (0.9 * lam / max(float(np.linalg.norm(part)), lam))
    box = model.box(lo, hi)
    C, d = kernels.halfspaces([box], n)
    start = np.clip(rng.normal(size=n) * scale, lo, hi)  # a random point of the box
    if curvature != "definite":
        # a singular H fails the eigenvalue rule, as on every other model:
        # the Newton step damps it, and regularized_qp raises on it
        met = kernels.metric(H)
        assert not met.definite
        with pytest.raises(kernels.SingularQp):
            kernels.regularized_qp(met, c, C, d, 0.0, lam, np.inf, start)
        return
    form = kernels.constraint_form([box], n)
    proj = kernels.projector(form)
    lam_max = float(np.linalg.eigvalsh(H)[-1])
    best = oracle.prox_gradient_fixed_point(
        lambda v: H @ v + c, kernels.prox_plan([model.group_l2(lam)], form, proj),
        np.zeros(n), lam_max, max_iter=5000)
    size = float(np.linalg.norm(c)) + lam + lam_max * float(np.linalg.norm(best))
    # the minimizer from a random start and from the box's min-norm point,
    # projected onto the box as the Newton step projects its model point
    met = kernels.metric(H)
    candidates = [proj(kernels.regularized_qp(met, c, C, d, 0.0, lam, np.inf, x0)) for x0 in (start, None)]
    for x in candidates:
        assert np.all((lo <= x) & (x <= hi))
        assert group_l2_box_kkt_violation(H, c, lam, lo, hi, x) <= 1e-10 * size
        slack = 1e-12 * size * max(float(np.linalg.norm(x)), float(np.linalg.norm(best)))
        assert group_l2_box_objective(H, c, lam, x) <= group_l2_box_objective(H, c, lam, best) + slack


def random_polyhedron(n, rows, seed):
    """(A, lo, hi), rows of lo <= A x <= hi on R^n, and a point to project.

    Each row is one-sided (either side), two-sided or an equality, at a
    random offset from a random point x0, so x0 may violate it and the set
    may be empty. About a quarter of the rows repeat an earlier row exactly.
    """
    rng = np.random.default_rng(seed)
    x0 = rng.normal(size=n)
    A = rng.normal(size=(rows, n))
    mid = A @ x0 + rng.normal(0.3, 1.0, size=rows)
    half = rng.uniform(0.1, 2.0, size=rows)
    kind = rng.integers(4, size=rows)  # upper, lower, two-sided, equality
    lo = np.where(kind == 0, -np.inf, np.where(kind == 3, mid, mid - half))
    hi = np.where(kind == 1, np.inf, np.where(kind == 3, mid, mid + half))
    for i in range(1, rows):
        if rng.random() < 0.25:
            j = int(rng.integers(i))
            A[i], lo[i], hi[i] = A[j], lo[j], hi[j]
    return A, lo, hi, rng.normal(0.0, 3.0, size=n)


def random_metric(kind, n, log_cond, seed):
    """P of a QP on R^n: the identity, definite with condition number
    10^log_cond, or of rank below n, its nonzero eigenvalues from 1 to
    10^log_cond."""
    if kind == "identity":
        return np.eye(n)
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    rank = n if kind == "definite" else int(rng.integers(n))
    eigenvalues = np.zeros(n)
    eigenvalues[:rank] = np.logspace(0.0, log_cond, rank)
    return (Q * eigenvalues) @ Q.T


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    n=st.integers(1, 4),
    rows=st.integers(1, 8),
    metric=st.sampled_from(["identity", "definite", "deficient"]),
    log_cond=st.floats(0.0, 9.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_polyhedral_projection_matches_active_set_oracle(n, rows, metric, log_cond, seed):
    # the active-set projection onto lo <= A x <= hi, given as the halfspaces
    # of one polyhedron atom, against the enumerated KKT points of its QP;
    # then qp_solve on the projection in the metric of P, the QP with P and
    # q = -P v, which the same loop solves in Cholesky-transformed
    # coordinates; a rank-deficient P raises SingularQp
    A, lo, hi, v = random_polyhedron(n, rows, seed)
    atoms = [model.polyhedron(np.vstack([A, -A]), np.concatenate([hi, -lo]))]
    project = kernels.projector(kernels.constraint_form(atoms, n))
    P = random_metric(metric, n, log_cond, seed)
    prob = two_sided_qp(P, -P @ v, A, lo, hi)
    try:
        ref = oracle.qp_active_set_oracle(two_sided_qp(np.eye(n), -v, A, lo, hi))
    except RuntimeError:  # no KKT point: the set is empty
        with pytest.raises(kernels.ProjectionError):
            project(v)
        with pytest.raises(kernels.ProjectionError):
            dk.qp_solve(prob)
        return
    x = project(v)
    assert np.abs(x - ref).max() <= 1e-8
    assert kernels.max_violation(atoms, x) <= 1e-8
    assert np.array_equal(project(x), x)

    if metric == "deficient":  # psolve damps such a Newton model first
        with pytest.raises(kernels.SingularQp):
            dk.qp_solve(prob)
        return
    sol = dk.qp_solve(prob)
    assert kernels.max_violation(atoms, sol.x) <= 1e-8
    ref = oracle.qp_active_set_oracle(prob)
    # objectives are compared at the scale of a unit diagonal maximum of P
    unit = max(float(np.diag(P).max()), 1.0)

    def value(x):
        return float(0.5 * x @ P @ x - (P @ v) @ x) / unit

    assert value(sol.x) - value(ref) <= 1e-9 * max(1.0, float(v @ P @ v) / unit)
    assert np.abs(sol.x - ref).max() <= 1e-6 * max(1.0, np.abs(ref).max())


@settings(max_examples=120, deadline=None, derandomize=True)
@given(
    n=st.integers(1, 4),
    rows=st.integers(1, 8),
    steps=st.integers(2, 12),
    spread=st.floats(1e-3, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_warm_projections_of_nearby_points_match_cold_loop(n, rows, steps, spread, seed):
    # a walk of nearby points, each projected by the active-set loop started
    # from the rows of the previous projection, and by the projector, which
    # keeps those rows itself: each equals the cold loop byte for byte and
    # the enumerated KKT points of its QP
    A, lo, hi, v = random_polyhedron(n, rows, seed)
    atoms = [model.polyhedron(np.vstack([A, -A]), np.concatenate([hi, -lo]))]
    C, d = kernels.halfspaces(atoms, n)
    project = kernels.projector(kernels.constraint_form(atoms, n))
    rng = np.random.default_rng(seed)
    start = None
    for v in v + np.cumsum(rng.normal(0.0, spread, size=(steps, n)), axis=0):
        try:
            ref = oracle.qp_active_set_oracle(two_sided_qp(np.eye(n), -v, A, lo, hi))
        except RuntimeError:  # no KKT point: the set is empty
            with pytest.raises(kernels.ProjectionError):
                project(v)
            return
        x, active, lam = kernels._active_set_project(v, C, d, kernels._FEAS_TOL, start)
        cold, cold_active, _ = kernels._active_set_project(v, C, d, kernels._FEAS_TOL)
        assert x.tobytes() == cold.tobytes() and (active is None) == (cold_active is None)
        assert active is None or active.rows == cold_active.rows
        assert project(v).tobytes() == cold.tobytes()
        assert np.abs(x - ref).max() <= 1e-8
        assert all(w >= 0.0 for w in lam)
        start = active or start

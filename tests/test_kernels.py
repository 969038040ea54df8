import numpy as np
import pytest

import dlfmkit as dk
from dlfmkit import experiments, kernels, model, oracle


def random_qp(rng, n, m):
    """Strictly convex QP with finite box rows around a feasible anchor."""
    B = rng.normal(size=(n, n))
    P = B @ B.T + np.eye(n)
    q = rng.normal(size=n)
    A = rng.normal(size=(m, n))
    mid = A @ rng.normal(size=n)  # anchor keeps the row boxes consistent
    half = np.abs(rng.normal(size=m)) + 0.1
    return dk.qp_problem(P=P, q=q, A=A, lo=mid - half, hi=mid + half)


def qp_objective(prob, x):
    return 0.5 * x @ prob.P @ x + prob.q @ x


class TestQpSolve:
    def test_unconstrained(self):
        # no rows: plain linear solve, P x = -q
        prob = dk.qp_problem(P=2.0 * np.eye(2), q=np.array([-4.0, 2.0]),
                             A=np.zeros((0, 2)), lo=np.zeros(0), hi=np.zeros(0))
        sol = dk.qp_solve(prob)
        assert sol.status == kernels.SOLVED
        assert np.allclose(sol.x, [2.0, -1.0], atol=1e-8)

    def test_equality_row(self):
        prob = dk.qp_problem(P=2.0 * np.eye(2), q=np.array([-2.0, 0.0]),
                             A=np.array([[1.0, 1.0]]), lo=np.array([1.0]),
                             hi=np.array([1.0]))
        sol = dk.qp_solve(prob)
        assert sol.status == kernels.SOLVED
        assert np.allclose(sol.x, [1.0, 0.0], atol=1e-6)

    def test_matches_active_set_oracle(self):
        rng = np.random.default_rng(42)
        for trial in range(50):
            n = int(rng.integers(1, 5))
            m = int(rng.integers(1, 7))
            prob = random_qp(rng, n, m)
            ref = dk.qp_active_set_oracle(prob)
            sol = dk.qp_solve(prob)
            assert sol.status == kernels.SOLVED, f"trial {trial}"
            gap = qp_objective(prob, sol.x) - qp_objective(prob, ref)
            assert gap <= 1e-6 * max(1.0, abs(qp_objective(prob, ref))), f"trial {trial}"
            assert np.allclose(sol.x, ref, atol=1e-4), f"trial {trial}"

    def test_detects_infeasible(self):
        # x >= 1 and x <= -1 cannot hold
        prob = dk.qp_problem(P=np.eye(1), q=np.zeros(1),
                             A=np.array([[1.0], [1.0]]),
                             lo=np.array([1.0, -np.inf]),
                             hi=np.array([np.inf, -1.0]))
        sol = dk.qp_solve(prob)
        assert sol.status == kernels.PRIMAL_INFEASIBLE

    def test_workspace_reuse_same_answer(self):
        rng = np.random.default_rng(5)
        prob = random_qp(rng, 3, 4)
        ws = kernels.QpWorkspace()
        first = dk.qp_solve(prob, workspace=ws)
        again = dk.qp_solve(prob, workspace=ws)
        assert first.status == kernels.SOLVED
        assert np.allclose(first.x, again.x, atol=1e-7)


def polish_qp(rng, kind):
    """Random QP of one of the row structures the active-set polish must handle."""
    n = int(rng.integers(2, 5))
    m = int(rng.integers(n, 7))
    B = rng.normal(size=(n, n - 1 if kind == "singular_P" else n))
    P = B @ B.T + (0.0 if kind == "singular_P" else 1.0) * np.eye(n)
    q = 3.0 * rng.normal(size=n)  # pull the optimum onto the boundary
    A = rng.normal(size=(m, n))
    mid = A @ rng.normal(size=n)
    half = np.abs(rng.normal(size=m)) + 0.1
    lo, hi = mid - half, mid + half
    if kind == "equality":
        lo[0] = hi[0] = mid[0]
    elif kind == "one_sided":
        for i in range(m):
            side = rng.integers(0, 3)  # keep some rows two-sided
            if side == 1:
                lo[i] = -kernels.INF
            elif side == 2:
                hi[i] = kernels.INF
    elif kind == "duplicate":
        A = np.vstack([A, A[:2]])
        lo, hi = np.concatenate([lo, lo[:2]]), np.concatenate([hi, hi[:2]])
    return dk.qp_problem(P=P, q=q, A=A, lo=lo, hi=hi)


def assert_kkt(prob, sol, tol=1e-6):
    ax = prob.A @ sol.x
    assert np.all(ax >= prob.lo - tol) and np.all(ax <= prob.hi + tol)
    assert np.abs(prob.P @ sol.x + prob.q + prob.A.T @ sol.y).max() <= tol
    # multipliers: >= 0 only where Ax sits at hi, <= 0 only where it sits at lo
    assert np.all((sol.y <= tol) | (ax >= prob.hi - tol))
    assert np.all((sol.y >= -tol) | (ax <= prob.lo + tol))


class TestQpPolish:
    @pytest.mark.parametrize("kind", ["equality", "one_sided", "duplicate", "singular_P"])
    def test_matches_active_set_oracle(self, kind):
        rng = np.random.default_rng(7)
        compared = 0
        for trial in range(40):
            prob = polish_qp(rng, kind)
            sol = dk.qp_solve(prob)
            assert sol.status == kernels.SOLVED, f"trial {trial}"
            assert_kkt(prob, sol)
            if prob.A.shape[0] > 8:
                continue
            try:
                ref = dk.qp_active_set_oracle(prob)
            except RuntimeError:
                continue  # every candidate KKT system singular: oracle does not apply
            compared += 1
            gap = qp_objective(prob, sol.x) - qp_objective(prob, ref)
            assert abs(gap) <= 1e-6 * max(1.0, abs(qp_objective(prob, ref))), f"trial {trial}"
            if kind != "singular_P":
                assert np.allclose(sol.x, ref, atol=1e-5), f"trial {trial}"
        assert compared >= 20

    def test_kmeans_step_solves_in_few_iterations(self):
        # P-steps of constrained k-means on the true quadrant clusters; the
        # last one ends at a vertex of the polytope. Plain ADMM took 350 to
        # 2500 iterations on these.
        cfg = experiments.experiment_config(experiments.CONSTRAINED_KMEANS, 0)
        data, _, _ = experiments.gen_constrained_kmeans(cfg)
        X = data.features
        quadrant = 2 * (X[:, 0] > 0) + (X[:, 1] > 0)
        A, b = experiments.KMEANS_A, experiments.KMEANS_B
        for k in range(4):
            pts = X[quadrant == k]
            W = float(len(pts))
            prob = dk.qp_problem(P=2.0 * W * np.eye(2), q=-2.0 * W * pts.mean(axis=0),
                                 A=A, lo=np.full(5, -kernels.INF), hi=b)
            sol = dk.qp_solve(prob)
            assert sol.status == kernels.SOLVED
            assert sol.iterations <= 50
            assert np.allclose(sol.x, dk.qp_active_set_oracle(prob), atol=1e-7)


class TestPava:
    def test_nondecreasing_pools(self):
        out = kernels.pava_nondecreasing(np.array([3.0, 1.0, 2.0]))
        assert np.allclose(out, [2.0, 2.0, 2.0])

    def test_nondecreasing_partial(self):
        out = kernels.pava_nondecreasing(np.array([1.0, 3.0, 2.0]))
        assert np.allclose(out, [1.0, 2.5, 2.5])

    def test_nonincreasing_mirror(self):
        v = np.array([0.5, 2.0, -1.0, 0.0])
        out = kernels.pava_nonincreasing(v)
        assert np.all(np.diff(out) <= 1e-12)
        # mirror identity: nonincreasing fit is the reversed nondecreasing fit
        ref = kernels.pava_nondecreasing(v[::-1])[::-1]
        assert np.allclose(out, ref)

    def test_sorted_input_unchanged(self):
        v = np.array([-1.0, 0.0, 2.0, 7.0])
        assert np.allclose(kernels.pava_nondecreasing(v), v)


class TestProjectSimplex:
    def test_interior_point_unchanged(self):
        v = np.array([0.2, 0.3, 0.5])
        assert np.allclose(kernels.project_simplex(v, 1.0), v)

    def test_symmetric(self):
        assert np.allclose(kernels.project_simplex(np.array([2.0, 2.0]), 1.0),
                           [0.5, 0.5])

    def test_matches_qp(self):
        rng = np.random.default_rng(9)
        atoms = (model.sum_equals(1.0), model.nonneg())
        for _ in range(40):
            n = int(rng.integers(2, 6))
            v = rng.normal(0, 2, n)
            fast = kernels.project_simplex(v, 1.0)
            rows = [a for a in atoms]
            slow = kernels._project_rows(v.astype(float),
                                         *kernels.stack_rows(rows, n), 1e-12, None)
            assert np.allclose(fast, slow, atol=1e-5)


class TestProject:
    def test_box_clip(self):
        atom = model.box(np.array([0.0, -1.0]), np.array([1.0, 1.0]))
        out = dk.project((atom,), np.array([2.0, -3.0]))
        assert np.allclose(out, [1.0, -1.0])

    def test_feasible_point_identical(self):
        atom = model.nonneg()
        v = np.array([0.5, 2.0])
        out = dk.project((atom,), v)
        assert out is v or np.array_equal(out, v)

    def test_idempotent(self):
        rng = np.random.default_rng(13)
        atoms = (model.polyhedron(np.array([[1.0, 2.0], [-1.0, 0.5]]),
                                  np.array([1.0, 0.3])),
                 model.nonneg())
        for _ in range(25):
            v = rng.normal(0, 3, 2)
            p1 = dk.project(atoms, v)
            p2 = dk.project(atoms, p1)
            assert np.array_equal(p1, p2)

    def test_norm_ball(self):
        atom = model.norm_ball2(1.0)
        out = dk.project((atom,), np.array([3.0, 4.0]))
        assert np.allclose(out, [0.6, 0.8])

    def test_intersection_not_composition(self):
        # {x0 + x1 <= 0} with {x >= 0} forces the origin; composing the two
        # single projections from (1, 1) would stop at (0.5, 0.5) projected
        # to nonneg, which stays infeasible for the halfspace
        atoms = (model.polyhedron(np.array([[1.0, 1.0]]), np.array([0.0])),
                 model.nonneg())
        out = dk.project(atoms, np.array([1.0, 1.0]))
        assert np.allclose(out, [0.0, 0.0], atol=1e-6)

    def test_monotone_bound_fast_path_matches_qp(self):
        rng = np.random.default_rng(31)
        for trial in range(60):
            n = int(rng.integers(2, 8))
            v = rng.normal(0, 3, n)
            if trial % 3 == 1:
                atoms = [model.nonneg(), model.monotone_nonincreasing()]
            elif trial % 3 == 2:  # scalar bounds given as a box with an infinite side
                atoms = [model.box(np.full(n, -1.0), np.full(n, np.inf)),
                         model.monotone_nondecreasing()]
            else:
                atoms = [model.nonpos(), model.monotone_nondecreasing()]
            fast = dk.project(atoms, v)
            slow = kernels._project_rows(v.astype(float),
                                         *kernels.stack_rows(atoms, n), 1e-12, None)
            assert np.allclose(fast, slow, atol=1e-5)
            assert kernels.max_violation(atoms, fast) <= 1e-12

    def test_ball_polyhedron_intersection(self):
        # nonneg cone meets unit ball: project(-1, 2) -> (0, 1)
        atoms = (model.nonneg(), model.norm_ball2(1.0))
        out = dk.project(atoms, np.array([-1.0, 2.0]))
        assert np.allclose(out, [0.0, 1.0], atol=1e-8)

    def test_projection_optimality_random(self):
        # projected point must beat random feasible points in distance
        rng = np.random.default_rng(77)
        A = np.array([[1.0, 1.0, 1.0]])
        b = np.array([1.0])
        atoms = (model.polyhedron(A, b), model.nonneg())
        for _ in range(20):
            v = rng.normal(0, 2, 3)
            p = dk.project(atoms, v)
            d_p = np.sum((p - v) ** 2)
            for _ in range(50):
                w = rng.dirichlet(np.ones(3)) * rng.uniform(0, 1)
                assert d_p <= np.sum((w - v) ** 2) + 1e-8

    def test_infeasible_box_raises(self):
        atom = model.box(np.array([1.0]), np.array([0.0]))
        with pytest.raises(kernels.ProjectionError):
            dk.project((atom,), np.array([0.5]))


def atom_rows(atom, n):
    """(A, lo, hi) of one raw atom, built here independently of stack_rows."""
    eye = np.eye(n)
    if atom.kind == model.NONNEG:
        return eye, np.zeros(n), np.full(n, np.inf)
    if atom.kind == model.NONPOS:
        return eye, np.full(n, -np.inf), np.zeros(n)
    if atom.kind == model.BOX:
        return eye, np.broadcast_to(atom.lo, (n,)), np.broadcast_to(atom.hi, (n,))
    if atom.kind == model.MONOTONE_NONDECREASING:
        return np.diff(eye, axis=0), np.zeros(n - 1), np.full(n - 1, np.inf)
    if atom.kind == model.SUM_EQUALS:
        return np.ones((1, n)), np.array([atom.value]), np.array([atom.value])
    return atom.A, np.full(len(atom.b), -np.inf), atom.b


def random_separable_atoms(rng, n):
    """Raw nonneg/nonpos/box atoms whose intersected bounds can coincide or
    cross, and at most one more polyhedral atom, within the oracle's 8 rows."""
    atoms = []
    for _ in range(int(rng.integers(2, 8 // n + 1))):
        kind = rng.integers(3)
        if kind == 0:
            atoms.append(model.nonneg())
        elif kind == 1:
            atoms.append(model.nonpos())
        else:
            # lo < hi within one box: equal bounds arise only by intersection,
            # where the oracle's KKT systems stay nonsingular
            lo = rng.integers(-2, 2, size=n).astype(float)
            hi = lo + rng.integers(1, 3, size=n)
            lo[rng.random(n) < 0.25] = -np.inf
            hi[rng.random(n) < 0.25] = np.inf
            atoms.append(model.box(lo, hi))
    extra = [model.monotone_nondecreasing(), model.sum_equals(float(rng.uniform(-2.0, 2.0))),
             model.polyhedron(rng.normal(size=(1, n)), rng.uniform(-1.0, 1.0, size=1))]
    pick = extra[rng.integers(len(extra))]
    if rng.integers(2) and n * len(atoms) + len(atom_rows(pick, n)[1]) <= 8:
        atoms.insert(int(rng.integers(len(atoms) + 1)), pick)
    return atoms


class TestCanonicalProjection:
    def test_stacked_atoms_match_active_set_oracle(self):
        rng = np.random.default_rng(2024)
        checked = crossed = 0
        for trial in range(150):
            n = int(rng.integers(2, 4))
            atoms = random_separable_atoms(rng, n)
            v = rng.normal(0.0, 3.0, size=n)
            parts = [atom_rows(a, n) for a in atoms]
            lo = np.concatenate([p[1] for p in parts])
            hi = np.concatenate([p[2] for p in parts])
            sep = [p for a, p in zip(atoms, parts) if a.kind in (model.NONNEG, model.NONPOS, model.BOX)]
            if np.any(np.max([p[1] for p in sep], axis=0) > np.min([p[2] for p in sep], axis=0)):
                crossed += 1
                with pytest.raises(kernels.ProjectionError):
                    dk.project(atoms, v)
                continue
            prob = dk.qp_problem(np.eye(n), -v, np.vstack([p[0] for p in parts]), lo, hi)
            try:
                ref = oracle.qp_active_set_oracle(prob)
            except RuntimeError:  # no KKT point: the extra atom empties the set
                with pytest.raises(kernels.ProjectionError):
                    dk.project(atoms, v)
                continue
            got = dk.project(atoms, v)
            assert np.allclose(got, ref, rtol=0.0, atol=1e-8), f"trial {trial}"
            assert kernels.max_violation(atoms, got) <= 1e-8, f"trial {trial}"
            checked += 1
        assert checked >= 60 and crossed >= 10

    def test_nonneg_and_box_clip_without_qp(self, monkeypatch):
        calls = []
        qp_solve = kernels.qp_solve
        monkeypatch.setattr(kernels, "qp_solve", lambda *a, **k: calls.append(1) or qp_solve(*a, **k))
        out = dk.project((model.nonneg(), model.box(0.0, 2.0)), np.array([-1.0, 0.5, 3.0, 2.0, -4.0]))
        assert np.array_equal(out, [0.0, 0.5, 2.0, 2.0, 0.0])
        assert calls == []


def grid_prox_1d(fun, v, step, lo=-6.0, hi=6.0, num=240001):
    """Dense search for argmin_u fun(u) + (u - v)^2 / (2 step)."""
    grid = np.linspace(lo, hi, num)
    vals = fun(grid) + (grid - v) ** 2 / (2.0 * step)
    return grid[np.argmin(vals)]


class TestProx:
    def test_soft_threshold(self):
        out = kernels.soft_threshold(np.array([3.0, -1.0, 0.2]), 1.0)
        assert np.allclose(out, [2.0, 0.0, 0.0])

    def test_l1_prox_examples(self):
        out = dk.prox(model.l1(2.0), np.array([5.0, -0.5]), 0.5)
        assert np.allclose(out, [4.0, 0.0])

    def test_l1_prox_grid(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            v = float(rng.normal(0, 2))
            w = float(rng.uniform(0.1, 2.0))
            step = float(rng.uniform(0.1, 2.0))
            got = dk.prox(model.l1(w), np.array([v]), step)[0]
            ref = grid_prox_1d(lambda u: w * np.abs(u), v, step)
            assert abs(got - ref) <= 1e-4

    def test_group_shrink(self):
        out = dk.prox(model.group_l2(1.0), np.array([3.0, 4.0]), 1.0)
        assert np.allclose(out, [2.4, 3.2])

    def test_group_shrink_kills_small(self):
        out = dk.prox(model.group_l2(1.0), np.array([0.3, 0.4]), 1.0)
        assert np.allclose(out, [0.0, 0.0])


class TestJointProx:
    def test_l1_with_nonneg_matches_grid(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            v = float(rng.normal(0, 2))
            w = float(rng.uniform(0.1, 1.5))
            step = float(rng.uniform(0.1, 1.5))
            got = dk.joint_prox((model.l1(w),), (model.nonneg(),),
                                np.array([v]), step)[0]
            ref = grid_prox_1d(lambda u: np.where(u >= 0, w * np.abs(u), np.inf),
                               v, step, lo=0.0)
            assert abs(got - ref) <= 1e-4

    def test_l1_with_box(self):
        atoms = (model.box(np.array([-1.0, -1.0]), np.array([1.0, 1.0])),)
        out = dk.joint_prox((model.l1(1.0),), atoms, np.array([5.0, 0.2]), 1.0)
        assert np.allclose(out, [1.0, 0.0])

    def test_group_l2_on_cone(self):
        # projection then shrink is exact on the nonneg orthant
        regs = (model.group_l2(1.0),)
        atoms = (model.nonneg(),)
        out = dk.joint_prox(regs, atoms, np.array([3.0, -4.0]), 1.0)
        # project -> (3, 0), norm 3, scale 1 - 1/3 = 2/3 -> (2, 0)
        assert np.allclose(out, [2.0, 0.0])

    def test_constraint_only(self):
        out = dk.joint_prox((), (model.nonneg(),), np.array([-1.0, 2.0]), 1.0)
        assert np.allclose(out, [0.0, 2.0])

    def test_fallback_alternation_feasible(self):
        # regularizer with a genuinely coupled set: use ball + l1
        regs = (model.l1(0.5),)
        atoms = (model.norm_ball2(1.0),)
        v = np.array([2.0, 2.0])
        out = dk.joint_prox(regs, atoms, v, 1.0)
        assert np.linalg.norm(out) <= 1.0 + 1e-8
        # objective at output no worse than at the plain projection
        def total(u):
            return 0.5 * np.sum((u - v) ** 2) + 0.5 * np.abs(u).sum()
        assert total(out) <= total(v / np.linalg.norm(v)) + 1e-8


def random_sign_boxes(rng, n):
    """Two to four nonneg/nonpos/box atoms whose intervals are sign intervals."""
    atoms = []
    for _ in range(int(rng.integers(2, 5))):
        kind = rng.integers(3)
        if kind == 0:
            atoms.append(model.nonneg())
        elif kind == 1:
            atoms.append(model.nonpos())
        else:
            lo = rng.choice([0.0, -np.inf, -dk.INF], size=n)
            hi = rng.choice([0.0, np.inf, dk.INF], size=n)
            atoms.append(model.box(lo, hi))
    return atoms


class TestProxPlan:
    @pytest.mark.parametrize("regs", [
        (model.l1(0.7),),
        (model.group_l2(0.9),),
        (model.l1(0.4), model.group_l2(0.6)),
    ], ids=["l1", "group_l2", "both"])
    def test_sign_boxes_match_dykstra(self, regs):
        rng = np.random.default_rng(11)
        n = 5
        for _ in range(10):
            atoms = random_sign_boxes(rng, n)
            prox = kernels.prox_plan(regs, atoms, n, kernels.projector(atoms, n))  # one plan, many points
            for _ in range(3):
                v = rng.normal(0.0, 2.0, size=n)
                step = float(rng.uniform(0.1, 2.0))
                got = prox(v, step)
                ref = kernels._dykstra_prox(list(regs), kernels.projector(atoms, n), v, step)
                assert kernels.max_violation(atoms, got) == 0.0
                assert np.allclose(got, ref, atol=1e-8)


class TestMaxViolation:
    def test_zero_inside(self):
        atoms = (model.nonneg(), model.norm_ball2(2.0))
        assert kernels.max_violation(atoms, np.array([1.0, 1.0])) == 0.0

    def test_reports_worst(self):
        atoms = (model.nonneg(),)
        assert kernels.max_violation(atoms, np.array([-0.5, 1.0])) == pytest.approx(0.5)

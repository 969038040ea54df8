import numpy as np
import pytest

import dlfmkit as dk
from dlfmkit import experiments, kernels, model, oracle
from two_sided import two_sided_qp


def random_qp(rng, n, m):
    """Strictly convex QP with finite box rows around a feasible anchor."""
    B = rng.normal(size=(n, n))
    P = B @ B.T + np.eye(n)
    q = rng.normal(size=n)
    A = rng.normal(size=(m, n))
    mid = A @ rng.normal(size=n)  # anchor keeps the row boxes consistent
    half = np.abs(rng.normal(size=m)) + 0.1
    return two_sided_qp(P, q, A, mid - half, mid + half)


def qp_objective(prob, x):
    return 0.5 * x @ prob.P @ x + prob.q @ x


class TestQpSolve:
    def test_unconstrained(self):
        # no rows: plain linear solve, P x = -q
        prob = dk.qp_problem(P=2.0 * np.eye(2), q=np.array([-4.0, 2.0]),
                             A=np.zeros((0, 2)), b=np.zeros(0))
        sol = dk.qp_solve(prob)
        assert sol.status == kernels.SOLVED
        assert np.allclose(sol.x, [2.0, -1.0], atol=1e-8)

    def test_equality_row(self):
        prob = two_sided_qp(2.0 * np.eye(2), np.array([-2.0, 0.0]),
                            np.array([[1.0, 1.0]]), np.array([1.0]), np.array([1.0]))
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

    def test_semidefinite_large_scale_raises_singular_qp(self):
        # P of rank 2 on R^4 with eigenvalues 1 and 10^8.5 fails the
        # eigenvalue rule at every draw, as it stands and scaled to a unit
        # diagonal maximum, and so does P = 0. psolve damps such a Newton model
        # before it solves it; one that escapes ends one restart, as every
        # ProjectionError does
        assert issubclass(kernels.SingularQp, kernels.ProjectionError)
        with pytest.raises(kernels.SingularQp):
            dk.qp_solve(dk.qp_problem(np.zeros((2, 2)), np.ones(2), np.zeros((0, 2)), np.zeros(0)))
        rng = np.random.default_rng(0)
        n = 4
        for trial in range(30):
            Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
            P = (Q * np.array([1.0, 10.0**8.5, 0.0, 0.0])) @ Q.T
            q = -P @ rng.normal(0.0, 3.0, size=n)
            A = np.vstack([np.eye(n), -np.eye(n), rng.normal(size=(2, n))])
            b = np.concatenate([np.full(2 * n, 2.0), rng.uniform(0.5, 1.5, size=2)])
            with pytest.raises(kernels.SingularQp):
                dk.qp_solve(dk.qp_problem(P, q, A, b))
            with pytest.raises(kernels.SingularQp):
                dk.qp_solve(dk.qp_problem(P / float(np.diag(P).max()), q, A, b))

    def test_problem_shapes_are_checked(self):
        # a reshape would read A of shape (2, 3) for n = 2 as a different
        # (3, 2) matrix; every array must have its own shape
        P, q, A, b = np.eye(2), np.zeros(2), np.ones((3, 2)), np.ones(3)
        assert dk.qp_problem(P, q, A, b).A.shape == (3, 2)
        for bad in [(P, q, np.ones((2, 3)), np.ones(3)), (P, q, A.ravel(), b),
                    (P, q, A, np.ones(2)), (np.eye(3), q, A, b), (P[:, :1], q, A, b),
                    (P, np.zeros((2, 1)), A, b)]:
            with pytest.raises(ValueError):
                dk.qp_problem(*bad)

    def test_detects_infeasible(self):
        # x >= 1 and x <= -1 cannot hold
        prob = dk.qp_problem(P=np.eye(1), q=np.zeros(1),
                             A=np.array([[-1.0], [1.0]]), b=np.array([-1.0, -1.0]))
        with pytest.raises(kernels.ProjectionError):
            dk.qp_solve(prob)


def polish_qp(rng, kind):
    """Random QP of one of the row structures the active-set loop must handle."""
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
                lo[i] = -np.inf
            elif side == 2:
                hi[i] = np.inf
    elif kind == "duplicate":
        A = np.vstack([A, A[:2]])
        lo, hi = np.concatenate([lo, lo[:2]]), np.concatenate([hi, hi[:2]])
    return two_sided_qp(P, q, A, lo, hi)


def assert_feasible(prob, sol, tol=1e-6):
    assert np.all(prob.A @ sol.x <= prob.b + tol)


class TestQpPolish:
    @pytest.mark.parametrize("kind", ["equality", "one_sided", "duplicate", "singular_P"])
    def test_matches_active_set_oracle(self, kind):
        rng = np.random.default_rng(7)
        if kind == "singular_P":  # P of rank n - 1 fails the eigenvalue rule
            for _ in range(40):
                with pytest.raises(kernels.SingularQp):
                    dk.qp_solve(polish_qp(rng, kind))
            return
        compared = 0
        for trial in range(40):
            prob = polish_qp(rng, kind)
            sol = dk.qp_solve(prob)
            assert sol.status == kernels.SOLVED, f"trial {trial}"
            assert_feasible(prob, sol)
            if prob.A.shape[0] > 16:
                continue
            ref = dk.qp_active_set_oracle(prob)
            compared += 1
            gap = qp_objective(prob, sol.x) - qp_objective(prob, ref)
            assert abs(gap) <= 1e-6 * max(1.0, abs(qp_objective(prob, ref))), f"trial {trial}"
            assert np.allclose(sol.x, ref, atol=1e-5), f"trial {trial}"
        assert compared >= 20

    def test_kmeans_step_solves_in_few_iterations(self):
        # P-steps of constrained k-means on the true quadrant clusters; the
        # last one ends at a vertex of the polytope. P is definite, so each
        # QP is solved in one pass of the active-set loop.
        cfg = experiments.experiment_config(experiments.CONSTRAINED_KMEANS, 0)
        data, _, _ = experiments.gen_constrained_kmeans(cfg)
        X = data.features
        quadrant = 2 * (X[:, 0] > 0) + (X[:, 1] > 0)
        A, b = experiments.KMEANS_A, experiments.KMEANS_B
        for k in range(4):
            pts = X[quadrant == k]
            W = float(len(pts))
            prob = dk.qp_problem(P=2.0 * W * np.eye(2), q=-2.0 * W * pts.mean(axis=0), A=A, b=b)
            sol = dk.qp_solve(prob)
            assert sol.status == kernels.SOLVED
            assert sol.iterations == 1
            assert np.allclose(sol.x, dk.qp_active_set_oracle(prob), atol=1e-7)


class TestPava:
    """Projections onto the monotone cones: isotonic regression, which the
    active-set loop of `projector` solves exactly."""

    @staticmethod
    def isotonic(atom, v):
        v = np.asarray(v, dtype=float)
        return kernels.project([atom], v)

    def test_nondecreasing_pools(self):
        out = self.isotonic(model.monotone_nondecreasing(), [3.0, 1.0, 2.0])
        assert np.allclose(out, [2.0, 2.0, 2.0])

    def test_nondecreasing_partial(self):
        out = self.isotonic(model.monotone_nondecreasing(), [1.0, 3.0, 2.0])
        assert np.allclose(out, [1.0, 2.5, 2.5])

    def test_nonincreasing_mirror(self):
        v = np.array([0.5, 2.0, -1.0, 0.0])
        out = self.isotonic(model.monotone_nonincreasing(), v)
        assert np.all(np.diff(out) <= 1e-12)
        # mirror identity: nonincreasing fit is the reversed nondecreasing fit
        ref = self.isotonic(model.monotone_nondecreasing(), v[::-1])[::-1]
        assert np.allclose(out, ref)

    def test_sorted_input_unchanged(self):
        v = np.array([-1.0, 0.0, 2.0, 7.0])
        assert np.allclose(self.isotonic(model.monotone_nondecreasing(), v), v)


class TestProjectSimplex:
    """Projections onto the simplex {x >= 0, sum x = 1} through `projector`."""

    atoms = (model.sum_equals(1.0), model.nonneg())

    def test_interior_point_unchanged(self):
        v = np.array([0.2, 0.3, 0.5])
        assert np.allclose(kernels.project(self.atoms, v), v)

    def test_symmetric(self):
        # at (1e16, 1e16) the sorted-threshold rule found no positive
        # coordinate in its rounding and raised a raw IndexError
        for v in ([2.0, 2.0], [1e16, 1e16]):
            assert np.allclose(kernels.project(self.atoms, v), [0.5, 0.5])

    def test_matches_qp(self):
        rng = np.random.default_rng(9)
        for _ in range(40):
            n = int(rng.integers(2, 6))
            v = rng.normal(0, 2, n)
            fast = kernels.project(self.atoms, v)
            prob = dk.qp_problem(np.eye(n), -v, *kernels.halfspaces(self.atoms, n))
            sol = dk.qp_solve(prob)
            assert sol.status == kernels.SOLVED
            assert np.allclose(fast, sol.x, atol=1e-5)


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
            prob = dk.qp_problem(np.eye(n), -v, *kernels.halfspaces(atoms, n))
            sol = dk.qp_solve(prob)
            assert sol.status == kernels.SOLVED
            assert np.allclose(fast, sol.x, atol=1e-5)
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

    @pytest.mark.parametrize("scale", [1.0, 1e4, 1e6, 1e8])
    def test_scales_with_the_set(self, scale):
        # sum_equals and a 3-row polyhedron on R^5, drawn at scale 1, then
        # scaled with the point: the projection scales with them. Absolute
        # stopping tolerances read rounding at 1e6 and 1e8 as violated rows
        # in the span of the active ones, and raised ProjectionError on most
        # of these draws
        rng = np.random.default_rng(41)
        for _ in range(200):
            A = rng.normal(size=(3, 5))
            b = A @ rng.dirichlet(np.ones(5)) + rng.uniform(0.1, 1.0, size=3)
            u = rng.normal(size=5)
            unit = dk.project([model.sum_equals(1.0), model.polyhedron(A, b)], u)
            got = dk.project([model.sum_equals(scale), model.polyhedron(A, scale * b)], scale * u)
            np.testing.assert_allclose(got, scale * unit, rtol=0.0, atol=1e-12 * scale)

    @staticmethod
    def boxed_family(name, rng, n):
        """A nonempty polyhedral set on R^n in the box [-5, 5]^n: each
        polyhedron is drawn around a known point of the set."""
        if name == "sum_polyhedron":
            x, A = rng.dirichlet(np.ones(n)), rng.normal(size=(2, n))
            atoms = [model.sum_equals(1.0), model.polyhedron(A, A @ x + rng.uniform(0.1, 1.0, size=2))]
        elif name == "monotone_polyhedron":
            x, A = np.sort(rng.uniform(-1.0, 1.0, size=n)), rng.normal(size=(2, n))
            atoms = [model.monotone_nondecreasing(), model.polyhedron(A, A @ x + rng.uniform(0.1, 1.0, size=2))]
        elif name == "simplex":
            atoms = [model.nonneg(), model.sum_equals(1.0)]
        elif name == "sum_monotone":
            atoms = [model.sum_equals(0.3), model.monotone_nonincreasing()]
        else:
            atoms = [model.nonneg(), model.monotone_nondecreasing()]
        return [model.box(-5.0, 5.0)] + atoms

    @pytest.mark.parametrize("scale", [1e4, 1e8, 1e12, 1e16])
    @pytest.mark.parametrize("family", ["sum_polyhedron", "monotone_polyhedron", "simplex",
                                        "sum_monotone", "nonneg_monotone"])
    def test_far_points_project_exactly(self, family, scale):
        # x was solved from v, so it carried v's rounding, and the loop read
        # that rounding on rows in the span of the active ones as violated:
        # from 1e8 on it raised ProjectionError on most of these draws. The
        # projection x of v is also that of the unit-scale point on the ray
        # from x through v, which the oracle solves at unit scale
        rng = np.random.default_rng(67)
        for trial in range(12):
            n = int(rng.integers(2, 6))
            atoms = self.boxed_family(family, rng, n)
            v = scale * rng.normal(size=n)
            x = dk.project(atoms, v)
            size = np.abs(v).max()
            assert kernels.max_violation(atoms, x) <= 1e-12 * size, f"trial {trial}"
            u = x + (v - x) / np.linalg.norm(v - x)
            ref = oracle.qp_active_set_oracle(dk.qp_problem(np.eye(n), -u, *kernels.halfspaces(atoms, n)))
            np.testing.assert_allclose(x, ref, rtol=0.0, atol=1e-12 * size + 1e-9, err_msg=f"trial {trial}")

    def test_infeasible_box_raises(self):
        atom = model.box(np.array([1.0]), np.array([0.0]))
        with pytest.raises(kernels.ProjectionError):
            dk.project((atom,), np.array([0.5]))

    def test_lone_sum_equals_matches_active_set_oracle(self):
        # a point within _FEAS_TOL of the set is kept
        rng = np.random.default_rng(17)
        for _ in range(30):
            n = int(rng.integers(1, 6))
            value = float(rng.normal(0.0, 3.0))
            v = rng.normal(0.0, 3.0, size=n)
            got = dk.project([model.sum_equals(value)], v)
            ref = oracle.qp_active_set_oracle(two_sided_qp(np.eye(n), -v, np.ones((1, n)), [value], [value]))
            np.testing.assert_allclose(got, ref, rtol=0.0, atol=1e-12)
            near = got + 1e-10 / n
            assert np.array_equal(dk.project([model.sum_equals(value)], near), near)


class TestSumAndMonotone:
    """sum_equals(s) with one monotone cone, projected by the active-set loop."""

    ORDERS = [
        (model.sum_equals(0.3), model.monotone_nondecreasing()),
        (model.monotone_nondecreasing(), model.sum_equals(0.3)),
        (model.sum_equals(0.3), model.monotone_nonincreasing()),
        (model.monotone_nonincreasing(), model.sum_equals(0.3)),
    ]

    @pytest.mark.parametrize("v", [(1e7, 0.0, -1e7), (2e6, 0.0, -1e6), (1e8, 0.0, -1e8)])
    @pytest.mark.parametrize("atoms", ORDERS[:2], ids=["sum_first", "monotone_first"])
    def test_large_points_project_exactly(self, atoms, v):
        # the active-set loop reported an empty set at 1e7 and ran out of
        # steps at 2e6 and 1e8, where the projection is (0.1, 0.1, 0.1)
        got = kernels.project(atoms, v)
        np.testing.assert_allclose(got, [0.1, 0.1, 0.1], rtol=0.0, atol=1e-16 * max(map(abs, v)))

    @pytest.mark.parametrize("atoms", ORDERS, ids=["up_sum_first", "up_monotone_first",
                                                   "down_sum_first", "down_monotone_first"])
    def test_matches_active_set_oracle(self, atoms):
        rng = np.random.default_rng(53)
        total = atoms[[a.kind for a in atoms].index(model.SUM_EQUALS)].value
        for _ in range(40):
            n = int(rng.integers(1, 6))
            C, d = kernels.halfspaces(atoms, n)
            v = rng.normal(0.0, 3.0, size=n)
            ref = oracle.qp_active_set_oracle(dk.qp_problem(np.eye(n), -v, C, d))
            project = kernels.projector(kernels.constraint_form(atoms, n))
            got = project(v)
            assert np.array_equal(project(got), got)
            np.testing.assert_allclose(got, ref, rtol=0.0, atol=1e-9)
            assert abs(got.sum() - total) <= 1e-14 * (1.0 + np.abs(v).sum())


class TestWarmStart:
    """_active_set_project from the active set of a previous projection: the
    cold loop's bytes where both end on the same rows, with the start's
    solves kept where its rows are not the answer."""

    # x <= 0 and y <= 0
    C, d = np.eye(2), np.zeros(2)

    @pytest.fixture
    def solved(self, monkeypatch):
        """The rows of every point made tight (`tight_point`) and every KKT
        matrix built, in call order, as ("point", rows) and ("matrix", rows)."""
        log = []
        tight_point, solve = kernels._ActiveSet.tight_point, kernels._ActiveSet.solve

        def logged_point(face, v):
            log.append(("point", face.rows))
            return tight_point(face, v)

        def logged_solve(face, top, bottom):
            if face._K is None:
                log.append(("matrix", face.rows))
            return solve(face, top, bottom)

        monkeypatch.setattr(kernels._ActiveSet, "tight_point", logged_point)
        monkeypatch.setattr(kernels._ActiveSet, "solve", logged_solve)
        return log

    def both(self, v, rows, solved, C=None, d=None):
        """The warm projection of v from the rows, which must equal the cold
        one byte for byte, and the solves of the warm one alone."""
        C, d = (self.C, self.d) if C is None else (C, d)
        cold = kernels._active_set_project(v, C, d, kernels._FEAS_TOL)
        del solved[:]
        warm = kernels._active_set_project(v, C, d, kernels._FEAS_TOL, kernels._ActiveSet(C, d, rows))
        assert warm[0].tobytes() == cold[0].tobytes() and warm[1].rows == cold[1].rows
        return warm, list(solved)

    def test_right_rows_return_the_loop_point(self, solved):
        # a vertex: the loop solves two points, the warm start one
        (x, active, lam), log = self.both(np.array([1.0, 2.0]), [0, 1], solved)
        assert np.array_equal(x, [0.0, 0.0]) and active.rows == [0, 1] and lam == [1.0, 2.0]
        assert log == [("point", [0, 1]), ("matrix", [0, 1])]

    def test_wrong_rows_fall_back(self, solved):
        # v meets row 1: its multiplier is 0, so no row is left to start from
        (x, active, _), log = self.both(np.array([1.0, -1.0]), [1], solved)
        assert np.array_equal(x, [0.0, -1.0]) and active.rows == [0]
        assert log == [("point", [1]), ("point", [0])]

    def test_negative_multiplier_seeds_the_loop(self, solved):
        # rows 0 and 1 made tight give the feasible (0, 0), but row 1's
        # multiplier is -1: row 1 is dropped, and row 0 alone is the answer,
        # with no solve of the cold loop
        (x, active, _), log = self.both(np.array([1.0, -1.0]), [0, 1], solved)
        assert np.array_equal(x, [0.0, -1.0]) and active.rows == [0]
        assert log == [("point", [0, 1]), ("matrix", [0, 1]), ("point", [0])]

    def test_other_row_violated_seeds_the_loop(self, solved):
        # row 0 made tight leaves row 1 violated: the loop goes on from row 0,
        # whose point is not solved again
        (x, active, _), log = self.both(np.array([1.0, 1.0]), [0], solved)
        assert np.array_equal(x, [0.0, 0.0]) and active.rows == [0, 1]
        assert log == [("point", [0]), ("matrix", [0]), ("point", [0, 1]), ("matrix", [0, 1])]

    def test_seeded_loop_matches_cold_loop(self, solved):
        # random polytopes in R^3 and starts of two or three of their rows:
        # every start that keeps a row goes on from it
        rng = np.random.default_rng(31)
        seeded = 0
        for _ in range(200):
            C = rng.normal(size=(6, 3))
            d = rng.uniform(0.1, 1.0, size=6)
            v = rng.normal(0.0, 3.0, size=3)
            if (C @ v - d).max() <= kernels._FEAS_TOL:
                continue
            rows = sorted(rng.choice(6, size=int(rng.integers(2, 4)), replace=False).tolist())
            (_, active, _), log = self.both(v, rows, solved, C, d)
            assert log[0] == ("point", rows) and log.count(("point", rows)) == 1
            kept = kernels._dual_feasible(v, C, d, kernels._ActiveSet(C, d, rows))[1]
            seeded += kept is not None and active.rows != rows
        assert seeded > 20

    def test_dependent_rows_fall_back(self, solved):
        # a row named twice, or rows that repeat, make the KKT system singular
        C, d = np.array([[1.0, 1.0], [1.0, 1.0], [0.0, 1.0]]), np.array([0.0, 0.0, 0.0])
        v = np.array([1.0, 2.0])
        for start in ([0, 0], [0, 1]):
            _, log = self.both(v, start, solved, C, d)
            assert log[:2] == [("point", start), ("matrix", start)]
            assert ("point", start) not in log[2:]

    def test_feasible_point_returned_as_is(self):
        v = np.array([-1.0, -2.0])
        start = kernels._ActiveSet(self.C, self.d, [0, 1])
        x, active, lam = kernels._active_set_project(v, self.C, self.d, kernels._FEAS_TOL, start)
        assert x is v and active is None and lam == []

    def test_kept_matrix_gives_the_bytes_of_a_fresh_one(self):
        rng = np.random.default_rng(5)
        C, d = rng.normal(size=(6, 4)), rng.normal(size=6)
        for rows in ([2], [0, 3], [1, 2, 5]):
            kept = kernels._ActiveSet(C, d, rows)
            kept.solve(rng.normal(size=4), np.zeros(len(rows)))  # builds the matrix
            K = kept._K
            for _ in range(10):
                v, c = rng.normal(size=4), rng.normal(size=4)
                fresh = kernels._ActiveSet(C, d, rows)
                (x, w), (x_ref, w_ref) = kept.tight_point(v), fresh.tight_point(v)
                assert x.tobytes() == x_ref.tobytes() and w == w_ref
                for got, ref in zip(kept.solve(c, np.zeros(len(rows))), kernels._ActiveSet(C, d, rows).solve(c, np.zeros(len(rows)))):
                    assert got.tobytes() == ref.tobytes()
            assert kept._K is K

    def test_projectors_share_no_state(self, monkeypatch, solved):
        starts = []
        project_rows = kernels._active_set_project

        def spy(v, C, d, feas_tol, start=None):
            starts.append(None if start is None else start.rows)
            return project_rows(v, C, d, feas_tol, start)

        monkeypatch.setattr(kernels, "_active_set_project", spy)
        form = kernels.constraint_form([model.polyhedron(np.array([[1.0, 0.0], [0.0, 1.0]]), np.zeros(2))], 2)
        first, second = kernels.projector(form), kernels.projector(form)
        first(np.array([1.0, 2.0]))
        first(np.array([-1.0, -1.0]))  # feasible: the active set is kept
        del solved[:]
        first(np.array([3.0, 1.0]))  # the same rows: their matrix is not built again
        assert solved == [("point", [0, 1])]
        first(np.array([1.0, -1.0]))
        second(np.array([1.0, 2.0]))
        first(np.array([2.0, 1.0]))
        assert starts == [None, [0, 1], [0, 1], [0, 1], None, [0]]


def atom_rows(atom, n):
    """(A, lo, hi) of one raw atom, rows lo <= A x <= hi, built here
    independently of kernels.halfspaces."""
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
            prob = two_sided_qp(np.eye(n), -v, np.vstack([p[0] for p in parts]), lo, hi)
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
        # neither the QP kernel (_metric_qp, which qp_solve runs) nor
        # regularized_qp is called
        calls = []
        for name in ("_metric_qp", "regularized_qp"):
            real = getattr(kernels, name)
            monkeypatch.setattr(kernels, name, lambda *a, real=real: calls.append(1) or real(*a))
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
        out = dk.joint_prox((model.l1(2.0),), (), np.array([5.0, -0.5]), 0.5)
        assert np.allclose(out, [4.0, 0.0])

    def test_l1_prox_grid(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            v = float(rng.normal(0, 2))
            w = float(rng.uniform(0.1, 2.0))
            step = float(rng.uniform(0.1, 2.0))
            got = dk.joint_prox((model.l1(w),), (), np.array([v]), step)[0]
            ref = grid_prox_1d(lambda u: w * np.abs(u), v, step)
            assert abs(got - ref) <= 1e-4

    def test_group_shrink(self):
        out = dk.joint_prox((model.group_l2(1.0),), (), np.array([3.0, 4.0]), 1.0)
        assert np.allclose(out, [2.4, 3.2])

    def test_group_shrink_kills_small(self):
        out = dk.joint_prox((model.group_l2(1.0),), (), np.array([0.3, 0.4]), 1.0)
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
            # an open side is drawn two times in three, as when the third
            # choice was the 1e30 sentinel, which counted as infinite
            lo = rng.choice([0.0, -np.inf, -np.inf], size=n)
            hi = rng.choice([0.0, np.inf, np.inf], size=n)
            atoms.append(model.box(lo, hi))
    return atoms


class TestProxPlan:
    @pytest.mark.parametrize("cone", ["monotone", "polyhedral", "subspace", "sign_box_and_monotone"])
    def test_group_l2_on_cone_matches_dykstra(self, cone):
        # group l2 over a cone that is not a sign box: shrinking keeps a
        # point of a cone in it, and keeps the projection residual
        # orthogonal, so the prox is the shrunk projection. The name is that
        # of the Dykstra alternation the prox was once checked against
        rng = np.random.default_rng(23)
        reg = (model.group_l2(0.8),)
        for _ in range(15):
            n = int(rng.integers(2, 6))
            atoms = {
                "monotone": [model.monotone_nondecreasing()],
                "polyhedral": [model.polyhedron(rng.normal(size=(2, n)), np.zeros(2))],
                "subspace": [model.sum_equals(0.0)],
                "sign_box_and_monotone": [model.nonneg(), model.monotone_nonincreasing()],
            }[cone]
            form = kernels.constraint_form(atoms, n)
            project = kernels.projector(form)
            v = rng.normal(0.0, 2.0, size=n)
            step = float(rng.uniform(0.1, 2.0))
            got = kernels.prox_plan(reg, form, project)(v, step)
            ref = kernels.block_shrink(project(v), step * 0.8)
            assert np.allclose(got, ref, rtol=0.0, atol=1e-8)
            assert kernels.max_violation(atoms, got) <= 1e-8

    @pytest.mark.parametrize("regs", [
        (model.l1(0.7),),
        (model.group_l2(0.9),),
        (model.l1(0.4), model.group_l2(0.6)),
    ], ids=["l1", "group_l2", "both"])
    def test_sign_boxes_match_dykstra(self, regs):
        # the closed form against regularized_qp, which replaced the Dykstra
        # alternation of the name as the reference
        rng = np.random.default_rng(11)
        n = 5
        for _ in range(10):
            atoms = random_sign_boxes(rng, n)
            form = kernels.constraint_form(atoms, n)
            project = kernels.projector(form)
            prox = kernels.prox_plan(regs, form, project)  # one plan, many points
            C, d, l1, l2, radius = kernels.regularized_qp_terms(regs, form)
            eye = kernels.metric(np.eye(n))
            for _ in range(3):
                v = rng.normal(0.0, 2.0, size=n)
                step = float(rng.uniform(0.1, 2.0))
                got = prox(v, step)
                ref = kernels.regularized_qp(eye, -v, C, d, step * l1, step * l2, radius, project(v))
                assert kernels.max_violation(atoms, got) == 0.0
                assert np.allclose(got, ref, rtol=0.0, atol=1e-8)
                # the plan is the clip to the intersected bounds, then each
                # regularizer's prox, l1 first
                box = kernels.canonical_atoms(atoms, n)[0]
                exact = np.clip(v, box.lo, box.hi)
                for reg in sorted(regs, key=lambda r: r.kind != model.L1):
                    shrink = kernels.soft_threshold if reg.kind == model.L1 else kernels.block_shrink
                    exact = shrink(exact, step * reg.weight)
                assert np.array_equal(got, exact)

    def test_capped_dykstra_case_is_exactly_zero(self):
        # l1(0.4) + group_l2(0.6) over the box lo = 0, hi = (0, 0, 0, inf,
        # inf) at step 1.65: the prox (clip, then shrink) is 0. Dykstra
        # alternation stopped at its 2,000-iteration cap with 3.5e-8 in
        # coordinate 4; the kernel, called directly, is exact
        n, step = 5, 1.65
        atoms = [model.box(np.zeros(n), np.array([0.0, 0.0, 0.0, np.inf, np.inf]))]
        v = np.array([-0.27, -0.76, 0.93, 1.65, -0.41])
        C, d = kernels.halfspaces(atoms, n)
        eye = kernels.metric(np.eye(n))
        x = kernels.regularized_qp(eye, -v, C, d, step * 0.4, step * 0.6, np.inf, dk.project(atoms, v))
        assert x[4] == 0.0
        assert np.array_equal(x, np.zeros(n))


def epigraph_l1_qp(M, q, l1, C, d):
    """The QP of min x.M x / 2 + q.x + l1 |x|_1 over C x <= d in (x, t), with
    rows x - t <= 0 and -x - t <= 0, and P = diag(M, 0)."""
    n = q.size
    P = np.zeros((2 * n, 2 * n))
    P[:n, :n] = M
    eye = np.eye(n)
    A = np.vstack([np.hstack([eye, -eye]), np.hstack([-eye, -eye]), np.hstack([C, np.zeros((len(d), n))])])
    b = np.concatenate([np.zeros(2 * n), d])
    return dk.qp_problem(P, np.concatenate([q, np.full(n, l1)]), A, b)


def random_rows(rng, n, kind, point=None):
    """Up to 4 rows C x <= d on R^n that a point meets: at random offsets,
    all through that point, or with a first row that is a sign row."""
    k = int(rng.integers(0 if kind == "offset" else 1, 5))
    x0 = rng.normal(size=n) if point is None else point
    C = rng.normal(size=(k, n))
    d = C @ x0 + (0.0 if kind == "one_point" else rng.uniform(0.0, 1.0, size=k))
    if kind == "sign_row":
        i, side = int(rng.integers(n)), float(rng.choice([-1.0, 1.0]))
        C[0] = 0.0
        C[0, i] = side  # side x_i <= 0, which x0 meets with x0_i on the other side
        x0[i] = -side * abs(x0[i])
        d = np.concatenate([[0.0], C[1:] @ x0 + rng.uniform(0.0, 1.0, size=k - 1)])
    return C, d


def random_metric(rng, n, kind):
    if kind == "identity":  # a prox: M = I / step
        return np.eye(n) / rng.uniform(0.1, 2.0)
    B = rng.normal(size=(n, n))
    return B @ B.T + 0.1 * np.eye(n)


def normal_cone_distance(q, C, d):
    """||projection of -q onto the tangent cone {y : C_0 y <= 0} at 0||, C_0 the rows with d = 0."""
    tight = d == 0.0
    if not tight.any():
        return float(np.linalg.norm(q))
    u = kernels._active_set_project(-q, C[tight], d[tight], 0.0)[0]
    return float(np.linalg.norm(u))


class TestRegularizedQp:
    @pytest.mark.parametrize("metric", ["definite", "identity"])
    @pytest.mark.parametrize("rows", ["offset", "one_point", "sign_row"])
    def test_l1_over_polyhedra_matches_epigraph_oracle(self, metric, rows):
        # the orthant loop against the active-set oracle on the epigraph
        # lift; every draw ends within the cap, started from the
        # projection of -q or of a random point, as psolve and prox_plan
        # start it from a point of the set
        rng = np.random.default_rng({"offset": 3, "one_point": 5, "sign_row": 7}[rows] + (metric == "identity"))
        for trial in range(60):
            n = int(rng.integers(1, 4))
            C, d = random_rows(rng, n, rows)
            M = random_metric(rng, n, metric)
            q = rng.normal(0.0, 2.0, size=n)
            l1 = float(rng.uniform(0.05, 1.5))
            ref = oracle.qp_active_set_oracle(epigraph_l1_qp(M, q, l1, C, d))[:n]
            seed = -q if trial % 2 else rng.normal(0.0, 2.0, size=n)
            start = kernels._active_set_project(seed, C, d, 0.0)[0] if d.size else seed
            x = kernels.regularized_qp(kernels.metric(M), q, C, d, l1, 0.0, np.inf, start)
            assert x is not None, f"trial {trial}: orthant cap"
            assert np.abs(x - ref).max() <= 1e-8 * max(1.0, np.abs(ref).max()), f"trial {trial}"
            assert np.all(C @ x - d <= 1e-8), f"trial {trial}"

    @pytest.mark.parametrize("metric", ["definite", "identity"])
    @pytest.mark.parametrize("terms", ["group_l2", "ball", "both"])
    def test_group_l2_and_ball_meet_projected_gradient_fixed_point(self, metric, terms):
        # the mu-search against its optimality conditions. At x != 0 the
        # objective is smooth, with gradient G = M x + q + l2 x / ||x||, and
        # on the sphere ||x|| = r the ball may be replaced by its tangent
        # halfspace x.y <= x.x: x is the minimizer exactly when it is the
        # projection of x - G / lambda_max(M) onto those rows. At x = 0
        # the distance of -q to the normal cone at 0 is at most l2. A set
        # that misses the ball is reported empty
        rng = np.random.default_rng({"group_l2": 13, "ball": 17, "both": 19}[terms] + (metric == "identity"))
        empty = solved = 0
        for trial in range(60):
            n = int(rng.integers(1, 5))
            kind = ["offset", "one_point", "sign_row"][trial % 3]
            C, d = random_rows(rng, n, kind, np.zeros(n) if trial % 4 == 0 else None)
            M = random_metric(rng, n, metric)
            q = rng.normal(0.0, 2.0, size=n)
            l2 = float(rng.uniform(0.05, 2.0)) if terms != "ball" else 0.0
            radius = float(rng.uniform(0.2, 2.0)) if terms != "group_l2" else np.inf
            nearest = kernels._active_set_project(np.zeros(n), C, d, 0.0)[0] if d.size else np.zeros(n)
            if np.linalg.norm(nearest) > radius * (1.0 + 1e-9):
                with pytest.raises(kernels.ProjectionError):
                    kernels.regularized_qp(kernels.metric(M), q, C, d, 0.0, l2, radius, None)
                empty += 1
                continue
            x = kernels.regularized_qp(kernels.metric(M), q, C, d, 0.0, l2, radius, None)
            solved += 1
            assert np.all(np.isfinite(x))
            assert np.all(C @ x - d <= 1e-8), f"trial {trial}"
            nrm = float(np.linalg.norm(x))
            assert nrm <= radius * (1.0 + 1e-12), f"trial {trial}"
            if not x.any():
                assert np.all(d >= 0.0) and normal_cone_distance(q, C, d) <= l2 * (1.0 + 1e-9), f"trial {trial}"
                continue
            G = M @ x + q + l2 * x / nrm
            A, b = C, d
            if nrm >= radius * (1.0 - 1e-9):
                A, b = np.vstack([C, x]), np.append(d, x @ x)
            z = x - G / float(np.linalg.eigvalsh(M)[-1])
            if b.size:
                z = kernels._active_set_project(z, A, b, 0.0)[0]
            assert np.abs(z - x).max() <= 1e-8 * max(1.0, np.abs(x).max()), f"trial {trial}"
        assert solved >= 30 and (empty > 0) == (terms != "group_l2")

    @pytest.mark.parametrize("metric", ["definite", "identity"])
    @pytest.mark.parametrize("terms", ["group_l2", "ball", "both"])
    def test_starts_tight_on_offset_rows_match_the_start_free_point(self, metric, terms):
        # the face loop from a point of the set that is tight on rows with
        # d != 0 (the projection of a far point onto the rows, on the
        # sphere in a third of the ball draws) ends where it ends from the
        # polyhedron's min-norm point, and meets the fixed-point check above
        rng = np.random.default_rng({"group_l2": 23, "ball": 29, "both": 31}[terms] + (metric == "identity"))
        started = 0
        for trial in range(80):
            n = int(rng.integers(2, 5))
            C, d = random_rows(rng, n, "offset")
            M = random_metric(rng, n, metric)
            q = rng.normal(0.0, 2.0, size=n)
            l2 = float(rng.uniform(0.05, 2.0)) if terms != "ball" else 0.0
            start = kernels._active_set_project(rng.normal(0.0, 5.0, size=n), C, d, 0.0)[0] if d.size else None
            tight = start is not None and bool(np.any((np.abs(C @ start - d) <= 1e-9) & (d != 0.0)))
            if not tight:
                continue
            radius = np.inf
            if terms != "group_l2":
                radius = float(np.linalg.norm(start)) * (1.0 if trial % 3 == 0 else float(rng.uniform(1.0, 1.5)))
            started += 1
            x = kernels.regularized_qp(kernels.metric(M), q, C, d, 0.0, l2, radius, start)
            ref = kernels.regularized_qp(kernels.metric(M), q, C, d, 0.0, l2, radius, None)
            assert np.abs(x - ref).max() <= 1e-10 * max(1.0, np.abs(ref).max()), f"trial {trial}"
            assert np.all(C @ x - d <= 1e-8), f"trial {trial}"
            nrm = float(np.linalg.norm(x))
            assert nrm <= radius * (1.0 + 1e-12), f"trial {trial}"
            if not x.any():
                assert np.all(d >= 0.0) and normal_cone_distance(q, C, d) <= l2 * (1.0 + 1e-9), f"trial {trial}"
                continue
            G = M @ x + q + l2 * x / nrm
            A, b = C, d
            if nrm >= radius * (1.0 - 1e-9):
                A, b = np.vstack([C, x]), np.append(d, x @ x)
            z = kernels._active_set_project(x - G / float(np.linalg.eigvalsh(M)[-1]), A, b, 0.0)[0]
            assert np.abs(z - x).max() <= 1e-8 * max(1.0, np.abs(x).max()), f"trial {trial}"
        assert started >= 30

    def test_l1_over_ball_is_exact(self):
        # prox of l1(0.5) over the unit ball at (2, 2): soft-thresholding
        # gives (1.5, 1.5), and scaling it onto the ball (1/sqrt 2, 1/sqrt 2)
        out = dk.joint_prox((model.l1(0.5),), (model.norm_ball2(1.0),), np.array([2.0, 2.0]), 1.0)
        np.testing.assert_allclose(out, np.full(2, 1.0 / np.sqrt(2.0)), rtol=0.0, atol=1e-12)

    def test_multipliers_meet_kkt(self):
        # qp_solve hands back the multipliers y of the rows: P x + q + A^T y
        # = 0, y >= 0, and y_i > 0 only on a tight row
        rng = np.random.default_rng(42)
        for trial in range(50):
            prob = random_qp(rng, int(rng.integers(1, 5)), int(rng.integers(1, 7)))
            sol = dk.qp_solve(prob)
            scale = 1.0 + np.abs(prob.P).max() * np.abs(sol.x).max() + np.abs(prob.q).max()
            assert np.abs(prob.P @ sol.x + prob.q + prob.A.T @ sol.y).max() <= 1e-8 * scale, f"trial {trial}"
            assert np.all(sol.y >= 0.0)
            slack = prob.b - prob.A @ sol.x
            assert np.all((sol.y == 0.0) | (slack <= 1e-8 * (1.0 + np.abs(prob.b)))), f"trial {trial}"


class TestClosedFormProjection:
    """The closed forms of a lone box (clipping) and a lone ball (scaling)
    run without a feasibility test: a feasible point keeps its values, and a
    point just outside is projected, not kept. Every polyhedral set keeps
    points within _FEAS_TOL of it, as the active-set loop reads them."""

    n = 5

    @staticmethod
    def feasible_point(atoms, n):
        v = np.array([1.5, 0.5, 0.5, -0.25, -1.0])
        if any(a.kind == model.NONNEG for a in atoms):
            v = v - v.min()  # one coordinate on the bound
        return v

    @pytest.mark.parametrize("atoms", [
        (model.box(-1.0, 1.5),),
        (model.nonneg(), model.box(-np.inf, 2.5)),
        (model.norm_ball2(3.0),),
    ], ids=["box", "sign_box", "ball"])
    def test_feasible_kept_and_near_feasible_projected(self, atoms):
        n = self.n
        project = kernels.projector(kernels.constraint_form(atoms, n))
        v = self.feasible_point(atoms, n)
        assert kernels.max_violation(atoms, v) == 0.0
        assert np.array_equal(project(v), v)

        out = v.copy()
        last = kernels.canonical_atoms(atoms, n)[-1]
        if last.kind == model.NORM_BALL2:
            out *= (3.0 + 1e-9) / np.linalg.norm(out)
        else:
            out[0] = last.hi[0] + 1e-9
        assert 5e-10 < kernels.max_violation(atoms, out) < kernels._FEAS_TOL
        got = project(out)
        assert kernels.max_violation(atoms, got) <= 1e-15
        assert np.linalg.norm(got - out) <= 2e-9


class TestMaxViolation:
    def test_zero_inside(self):
        atoms = (model.nonneg(), model.norm_ball2(2.0))
        assert kernels.max_violation(atoms, np.array([1.0, 1.0])) == 0.0

    def test_reports_worst(self):
        atoms = (model.nonneg(),)
        assert kernels.max_violation(atoms, np.array([-0.5, 1.0])) == pytest.approx(0.5)

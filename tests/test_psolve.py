from dataclasses import replace

import numpy as np
import pytest

import dlfmkit as dk
from dlfmkit import experiments as ex, kernels, model, psolve


def hard_Z(labels, K):
    Z = np.zeros((len(labels), K))
    Z[np.arange(len(labels)), labels] = 1.0
    return Z


class TestClosedForms:
    def test_single_factor_centroid(self):
        pts = np.array([[0.0], [1.0], [2.0]])
        data = dk.dataset(pts, np.zeros(3))
        spec = dk.shared_spec(K=1, n=1, loss=dk.squared_distance(), constraints=())
        out = dk.solve_p(spec, data, np.ones((3, 1)))
        assert np.allclose(out.thetas[0], [1.0])
        assert out.objective == pytest.approx(2.0)  # 1 + 0 + 1

    def test_weighted_least_squares_matches_normal_equations(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(12, 3))
        y = rng.normal(size=12)
        Z = rng.dirichlet(np.ones(2), size=12)
        data = dk.dataset(X, y)
        spec = dk.shared_spec(K=2, n=3, loss=dk.square_regression(), constraints=())
        out = dk.solve_p(spec, data, Z)
        for k in range(2):
            W = np.diag(Z[:, k])
            ref = np.linalg.solve(X.T @ W @ X, X.T @ W @ y)
            assert np.allclose(out.thetas[k], ref, atol=1e-8)

    def test_constrained_pulls_to_boundary(self):
        # unconstrained centroid is 2; nonpos forces 0
        pts = np.array([[1.0], [3.0]])
        data = dk.dataset(pts, np.zeros(2))
        spec = dk.shared_spec(K=1, n=1, loss=dk.squared_distance(),
                              constraints=(dk.nonpos(),))
        out = dk.solve_p(spec, data, np.ones((2, 1)))
        assert np.allclose(out.thetas[0], [0.0], atol=1e-6)

    def test_ball_constrained_centroid(self):
        # the weighted centroid (3, 4) lies outside the unit ball; the step is
        # its exact projection, with no gradient iterations
        pts = np.array([[2.0, 4.0], [4.0, 4.0], [9.0, 9.0]])
        data = dk.dataset(pts, np.zeros(3))
        spec = dk.shared_spec(K=1, n=2, loss=dk.squared_distance(),
                              constraints=(dk.norm_ball2(1.0),))
        out = dk.solve_p(spec, data, np.array([[1.0], [1.0], [0.0]]))
        np.testing.assert_allclose(out.thetas[0], [0.6, 0.8], rtol=0.0, atol=1e-15)
        assert out.inner_iterations == [1]
        assert out.statuses == [psolve.P_CONVERGED]

    def test_box_constrained_regression(self):
        # min (th - 5)^2 with th <= 1 -> th = 1
        X = np.array([[1.0]])
        y = np.array([5.0])
        data = dk.dataset(X, y)
        spec = dk.shared_spec(K=1, n=1, loss=dk.square_regression(),
                              constraints=(dk.box(np.array([-1.0]), np.array([1.0])),))
        out = dk.solve_p(spec, data, np.ones((1, 1)))
        assert np.allclose(out.thetas[0], [1.0], atol=1e-6)


class TestProxGradientPath:
    def test_huber_matches_square_far_inside(self):
        # tiny residuals stay in the quadratic region: same minimizer as lstsq
        rng = np.random.default_rng(5)
        X = rng.normal(size=(30, 2))
        th_true = np.array([0.5, -0.3])
        y = X @ th_true
        data = dk.dataset(X, y)
        spec = dk.shared_spec(K=1, n=2, loss=dk.huber(1.0), constraints=())
        out = dk.solve_p(spec, data, np.ones((30, 1)))
        assert np.allclose(out.thetas[0], th_true, atol=1e-5)

    def test_binary_logit_separating_direction(self):
        X = np.array([[1.0], [-1.0], [2.0], [-2.0]])
        y = np.array([1.0, 0.0, 1.0, 0.0])
        data = dk.dataset(X, y)
        spec = dk.shared_spec(K=1, n=1, loss=dk.binary_logit(),
                              constraints=(dk.box(np.array([-4.0]), np.array([4.0])),))
        out = dk.solve_p(spec, data, np.ones((4, 1)))
        # separable data: the slope runs to the box edge
        assert out.thetas[0][0] > 3.9

    def test_l1_drives_small_coefficients_to_zero(self):
        rng = np.random.default_rng(12)
        X = rng.normal(size=(60, 3))
        y = X @ np.array([2.0, 0.0, 0.0]) + 0.01 * rng.normal(size=60)
        data = dk.dataset(X, y)
        spec = dk.shared_spec(K=1, n=3, loss=dk.square_regression(), constraints=(),
                              p_regularizers=(dk.l1(5.0),))
        out = dk.solve_p(spec, data, np.ones((60, 1)))
        th = out.thetas[0]
        assert abs(th[0]) > 1.0
        assert abs(th[1]) < 1e-6 and abs(th[2]) < 1e-6

    def test_descent_from_warm_start(self):
        rng = np.random.default_rng(21)
        X = rng.normal(size=(40, 4))
        y = rng.normal(size=40)
        Z = rng.dirichlet(np.ones(3), size=40)
        data = dk.dataset(X, y)
        spec = dk.shared_spec(K=3, n=4, loss=dk.huber(0.5),
                              constraints=(dk.nonneg(),))
        warm = [rng.normal(size=4) for _ in range(3)]

        def total(thetas):
            R = dk.loss_matrix(spec, data, thetas)
            return float((Z * R).sum())

        warm_feasible = [np.maximum(t, 0.0) for t in warm]
        out = dk.solve_p(spec, data, Z, warm=warm)
        assert out.objective <= total(warm_feasible) + 1e-9

    def test_monotone_constraint_respected(self):
        rng = np.random.default_rng(31)
        X = rng.normal(size=(50, 4))
        y = rng.normal(size=50)
        data = dk.dataset(X, y)
        spec = dk.shared_spec(K=1, n=4, loss=dk.huber(1.0),
                              constraints=(dk.nonneg(), dk.monotone_nonincreasing()))
        out = dk.solve_p(spec, data, np.ones((50, 1)))
        th = out.thetas[0]
        assert np.all(th >= -1e-10)
        assert np.all(np.diff(th) <= 1e-10)


class TestZeroWeightColumns:
    def test_empty_factor_keeps_warm_point(self):
        X = np.array([[1.0], [1.0]])
        y = np.array([1.0, 2.0])
        data = dk.dataset(X, y)
        spec = dk.shared_spec(K=2, n=1, loss=dk.square_regression(), constraints=())
        Z = np.array([[1.0, 0.0], [1.0, 0.0]])  # factor 2 owns nothing
        warm = [np.array([7.0]), np.array([9.0])]
        out = dk.solve_p(spec, data, Z, warm=warm)
        assert np.allclose(out.thetas[1], [9.0])
        assert out.statuses[1] == psolve.P_SKIPPED

    def test_empty_factor_with_regularizer_shrinks(self):
        X = np.array([[1.0], [1.0]])
        y = np.array([1.0, 2.0])
        data = dk.dataset(X, y)
        spec = dk.shared_spec(K=2, n=1, loss=dk.square_regression(), constraints=(),
                              p_regularizers=(dk.l1(0.5),))
        Z = np.array([[1.0, 0.0], [1.0, 0.0]])
        warm = [np.array([7.0]), np.array([9.0])]
        out = dk.solve_p(spec, data, Z, warm=warm)
        # nothing holds the empty factor away from the penalty minimizer
        assert np.allclose(out.thetas[1], [0.0], atol=1e-6)


class TestInfeasibleSubproblem:
    def test_raises_subsolver_failure(self):
        X = np.array([[1.0, 0.0]])
        y = np.array([0.0])
        data = dk.dataset(X, y)
        # nonneg meets the halfspace x0 + x1 <= -1: empty
        spec = dk.shared_spec(
            K=1, n=2, loss=dk.square_regression(),
            constraints=(dk.nonneg(),
                         dk.polyhedron(np.array([[1.0, 1.0]]), np.array([-1.0]))))
        with pytest.raises(dk.SubsolverFailure):
            dk.solve_p(spec, data, np.ones((1, 1)))


class TestWorkspaceReuse:
    def test_same_answer_with_and_without(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(20, 2))
        y = rng.normal(size=20)
        data = dk.dataset(X, y)
        A = np.array([[1.0, 1.0]])
        b = np.array([0.5])
        spec = dk.shared_spec(K=2, n=2, loss=dk.square_regression(),
                              constraints=(dk.polyhedron(A, b),))
        Z = rng.dirichlet(np.ones(2), size=20)
        plans = psolve.plan_factors(spec)
        cold = dk.solve_p(spec, data, Z)
        warm1 = dk.solve_p(spec, data, Z, plans=plans)
        warm2 = dk.solve_p(spec, data, Z, warm=warm1.thetas, plans=plans)
        for k in range(2):
            assert np.allclose(cold.thetas[k], warm1.thetas[k], atol=1e-5)
            assert np.allclose(cold.thetas[k], warm2.thetas[k], atol=1e-5)


def capped_case(name):
    """(spec, data, expect_capped) for the capped-QP tests, m=200."""
    if name == "kmeans":
        # squared distance: a projected centroid, no QP to cap
        cfg = ex.experiment_config(ex.CONSTRAINED_KMEANS, 0, m=200)
        data, _, _ = ex.gen_constrained_kmeans(cfg)
        return ex.kmeans_spec(True, 1, 0), data, False
    cfg = ex.experiment_config(ex.MIXTURE_LINREG, 0, m=200)
    data, _, _ = ex.gen_mixture_linreg(cfg)
    atoms = (dk.nonneg(), dk.polyhedron(np.ones((1, 10)), np.array([1.0])))
    spec = dk.shared_spec(3, 10, dk.square_regression(), atoms,
                          controls=model.SolverControls(restarts=1, seed=0))
    return spec, data, True


def fit_with_statuses(spec, data, monkeypatch):
    """fit(spec, data) and the statuses of every factor solve it ran."""
    statuses = []
    real = psolve.solve_p

    def spy(*args, **kwargs):
        out = real(*args, **kwargs)
        statuses.extend(out.statuses)
        return out

    monkeypatch.setattr(psolve, "solve_p", spy)
    return dk.fit(spec, data), statuses


def cap_qp(spec, max_iter=30):
    return replace(spec, controls=replace(spec.controls, qp_max_iter=max_iter))


@pytest.mark.parametrize("case", ["kmeans", "regression"])
class TestCappedQp:
    def test_capped_steps_stay_feasible_and_monotone(self, case, monkeypatch):
        # 30 ADMM iterations rarely finish the constrained regression
        # P-steps: without the guard the thetas left the polytope and the
        # objective trace rose
        spec, data, expect_capped = capped_case(case)
        res, statuses = fit_with_statuses(cap_qp(spec), data, monkeypatch)
        assert (psolve.P_MAX_ITER in statuses) == expect_capped
        flat = [v for _, after_p, after_f in res.objective_trace for v in (after_p, after_f)]
        for a, b in zip(flat, flat[1:]):
            assert b <= a + 1e-8 * max(1.0, abs(a))
        atoms = spec.constraints_per_factor[0]
        assert max(kernels.max_violation(atoms, th) for th in res.thetas) <= 1e-9

    def test_capped_step_does_not_close_the_gap(self, case, monkeypatch):
        # a rejected capped step keeps the warm theta, so after-P equals the
        # last after-F although no fixed point was reached; the fit must go on
        # to the optimum the uncapped fit finds
        spec, data, expect_capped = capped_case(case)
        capped, statuses = fit_with_statuses(cap_qp(spec), data, monkeypatch)
        full = dk.fit(spec, data)
        assert (psolve.P_MAX_ITER in statuses) == expect_capped
        assert capped.status == dk.GAP_CONVERGED
        assert capped.objective_trace[-1][2] == pytest.approx(full.objective_trace[-1][2], rel=1e-9)


class TestProjectedCentroid:
    """Squared-distance P-steps against the active-set oracle on their QP."""

    @pytest.mark.parametrize("weights", ["one_hot", "dirichlet"])
    def test_kmeans_step_matches_active_set_oracle(self, weights):
        # the weighted loss is the QP with P = 2 W I and q = -2 sum_i w_i c_i;
        # the oracle enumerates its active sets and shares no code with the
        # projection the P-step runs
        cfg = ex.experiment_config(ex.CONSTRAINED_KMEANS, 0, m=200)
        data, _, _ = ex.gen_constrained_kmeans(cfg)
        spec = ex.kmeans_spec(True, 1, 0)
        A, b = ex.KMEANS_A, ex.KMEANS_B
        X = data.features
        centers = X + data.observations[:, None]
        quadrant = 2 * (X[:, 0] > 0) + (X[:, 1] > 0)
        rng = np.random.default_rng(5)
        active = 0
        for _ in range(8):
            if weights == "one_hot":
                # quadrant labels with 30% reassigned at random
                noisy = rng.random(len(quadrant)) < 0.3
                Z = hard_Z(np.where(noisy, rng.integers(0, 4, len(quadrant)), quadrant), 4)
            else:  # Dirichlet weights leaning to the quadrant
                Z = np.array([rng.dirichlet(0.2 + 4.0 * np.eye(4)[q]) for q in quadrant])
            out = dk.solve_p(spec, data, Z)
            for k in range(4):
                w = Z[:, k]
                prob = dk.qp_problem(2.0 * w.sum() * np.eye(2), -2.0 * w @ centers,
                                     A, np.full(5, -dk.INF), b)
                ref = dk.qp_active_set_oracle(prob)
                np.testing.assert_allclose(out.thetas[k], ref, rtol=0.0, atol=1e-8)
                active += float((A @ ref - b).max()) > -1e-9
        assert active >= 16  # most centroids lie outside the polytope


class TestWeightedLeastSquares:
    """The closed-form regression step against full-row lstsq references."""

    @staticmethod
    def reg_spec(K, n):
        return dk.shared_spec(K=K, n=n, loss=dk.square_regression(), constraints=())

    @staticmethod
    def full_row_lstsq(X, y, w):
        rw = np.sqrt(w)
        theta, *_ = np.linalg.lstsq(X * rw[:, None], y * rw, rcond=None)
        return theta

    @staticmethod
    def count_lstsq(monkeypatch):
        calls = []
        real = np.linalg.lstsq

        def spy(*args, **kwargs):
            calls.append(args[0].shape)
            return real(*args, **kwargs)

        monkeypatch.setattr(psolve.np.linalg, "lstsq", spy)
        return calls

    @pytest.mark.parametrize("one_hot", [True, False])
    def test_matches_full_row_lstsq(self, one_hot, monkeypatch):
        rng = np.random.default_rng(11)
        m, n, K = 400, 6, 3
        X = rng.uniform(-2.0, 2.0, size=(m, n))
        y = X @ rng.normal(size=n) + rng.normal(0.0, 0.5, size=m)
        if one_hot:
            Z = hard_Z(rng.integers(0, K, size=m), K)
        else:  # the first BCD iteration's relaxed start
            Z = rng.dirichlet(np.ones(K), size=m)
        calls = self.count_lstsq(monkeypatch)
        out = dk.solve_p(self.reg_spec(K, n), dk.dataset(X, y), Z)
        assert calls == []  # well-conditioned: Cholesky, no fallback
        for k in range(K):
            ref = self.full_row_lstsq(X, y, Z[:, k])
            np.testing.assert_allclose(out.thetas[k], ref, rtol=1e-10, atol=0.0)

    def test_fewer_weighted_rows_than_unknowns(self, monkeypatch):
        rng = np.random.default_rng(12)
        m, n = 30, 5
        X = rng.normal(size=(m, n))
        y = rng.normal(size=m)
        Z = np.zeros((m, 2))
        Z[:3, 0] = 1.0  # factor 0 sees 3 rows for 5 unknowns
        Z[3:, 1] = 1.0
        calls = self.count_lstsq(monkeypatch)
        out = dk.solve_p(self.reg_spec(2, n), dk.dataset(X, y), Z)
        assert calls == [(3, n)]  # only the rank-deficient factor falls back
        ref = np.linalg.pinv(X[:3]) @ y[:3]  # minimum-norm interpolant
        np.testing.assert_allclose(out.thetas[0], ref, rtol=1e-10)
        np.testing.assert_allclose(out.thetas[0], self.full_row_lstsq(X, y, Z[:, 0]), rtol=1e-10)
        np.testing.assert_allclose(out.thetas[1], self.full_row_lstsq(X, y, Z[:, 1]), rtol=1e-10)

    def test_duplicated_column(self, monkeypatch):
        rng = np.random.default_rng(13)
        m = 50
        x = rng.normal(size=(m, 2))
        X = np.column_stack([x[:, 0], x[:, 0], x[:, 1]])
        y = 3.0 * x[:, 0] - x[:, 1] + rng.normal(0.0, 0.1, size=m)
        w = rng.dirichlet(np.ones(2), size=m)
        calls = self.count_lstsq(monkeypatch)
        out = dk.solve_p(self.reg_spec(2, 3), dk.dataset(X, y), w)
        assert len(calls) == 2
        for k in range(2):
            th = out.thetas[k]
            # minimum norm splits the shared coefficient evenly
            assert th[0] == pytest.approx(th[1], rel=1e-10)
            np.testing.assert_allclose(th, self.full_row_lstsq(X, y, w[:, k]), rtol=1e-10)


def pool_case(name):
    """(spec, data) with two or more restarts, small enough for a pool test."""
    if name == "mixture":
        cfg = ex.experiment_config(ex.MIXTURE_LINREG, 0, m=300)
        return ex.mixture_spec(4, 0), ex.gen_mixture_linreg(cfg)[0]
    if name == "kmeans":
        cfg = ex.experiment_config(ex.CONSTRAINED_KMEANS, 0, m=200)
        return ex.kmeans_spec(True, 2, 0), ex.gen_constrained_kmeans(cfg)[0]
    cfg = ex.experiment_config(ex.IO_HMM, 0, m=150)
    spec = ex.iohmm_spec(cfg.lam_theta, cfg.lam_z, 2, 0)
    capped = replace(spec.controls, max_iter=5, p_max_iter=100, f_max_iter=100)
    return replace(spec, controls=capped), ex.gen_io_hmm(cfg)[0]


class TestFactorPlans:
    @pytest.mark.parametrize("name, step", [
        ("kmeans", "_projected_centroid"),
        ("mixture", "_weighted_lstsq"),
        ("capped_regression", "_polyhedral_lstsq"),
        ("forgetting", "_prox_gradient_factor"),
        ("io_hmm", "_prox_gradient_factor"),
    ])
    def test_step_chosen_once_per_factor(self, name, step):
        spec = {
            "kmeans": lambda: ex.kmeans_spec(True, 2, 0),
            "mixture": lambda: ex.mixture_spec(4, 0),
            "capped_regression": lambda: capped_case("regression")[0],
            "forgetting": lambda: ex.forgetting_spec(1.0, 1, 0),
            "io_hmm": lambda: ex.iohmm_spec(0.5, 1.0, 1, 0),
        }[name]()
        plans = psolve.plan_factors(spec)
        assert [plan.solve for plan in plans] == [getattr(psolve, step)] * spec.K
        # only prox-gradient plans carry a joint prox, only QP plans stacked rows
        assert all((plan.prox is not None) == (step == "_prox_gradient_factor") for plan in plans)
        assert all((plan.rows is not None) == (step == "_polyhedral_lstsq") for plan in plans)

    def test_qp_rows_stacked_once_per_restart(self, monkeypatch):
        spec, data, _ = capped_case("regression")
        stacks = []
        real = kernels.stack_rows
        monkeypatch.setattr(kernels, "stack_rows", lambda *args: stacks.append(1) or real(*args))
        res = dk.fit(spec, data)
        assert res.iterations > 1
        # per factor: one for validate's feasibility probe, then per restart
        # one for the projector and one for the QP step
        assert len(stacks) == spec.K * (1 + 2 * spec.controls.restarts)

    def test_one_projector_per_factor_and_restart(self, monkeypatch):
        spec, data = pool_case("kmeans")
        builds = []
        real = kernels.projector

        def spy(*args, **kwargs):
            builds.append(len(args[0]))
            return real(*args, **kwargs)

        monkeypatch.setattr(kernels, "projector", spy)
        res = dk.fit(spec, data)
        assert res.iterations > 1
        # one per factor and restart, then one per factor for validate's
        # feasibility probe
        assert len(builds) == spec.K * spec.controls.restarts + spec.K

    @pytest.mark.parametrize("name", ["mixture", "kmeans", "io_hmm"])
    def test_pool_matches_sequential(self, name):
        # plans hold closures, so each pool worker builds its own
        spec, data = pool_case(name)
        seq = dk.fit(spec, data, jobs=1)
        par = dk.fit(spec, data, jobs=2)
        assert seq.restart_index_of_best == par.restart_index_of_best
        assert seq.objective_trace == par.objective_trace
        assert np.array_equal(seq.labels, par.labels)
        assert all(np.array_equal(a, b) for a, b in zip(seq.thetas, par.thetas))

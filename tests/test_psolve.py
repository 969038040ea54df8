import itertools
from dataclasses import replace

import numpy as np
import pytest

import dlfmkit as dk
from dlfmkit import experiments as ex, kernels, model, oracle, psolve


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
    """Iterative P-steps of huber, binary logit and l1-regularized square regression."""

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
        # the outcome carries the regularizer value that its objective adds
        assert out.p_reg == 5.0 * float(np.abs(th).sum())
        assert out.objective == float(out.R.sum()) + out.p_reg

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


def prox_gradient_reference(plan, data, w, curvature):
    """Objective of plan's factor at oracle.prox_gradient_fixed_point.

    The oracle runs from 0 on plan.prox with L = curvature * lambda_max(F' W F),
    a Lipschitz constant of the loss gradient when curvature bounds the
    second derivative of the loss in its residual or margin.
    """
    F, y = data.features, data.observations
    L = curvature * float(np.linalg.eigvalsh((F * w[:, None]).T @ F)[-1])
    ref = oracle.prox_gradient_fixed_point(
        lambda th: model.weighted_loss_grad(plan.loss, F, y, th, w),
        plan.prox, plan.project(np.zeros(F.shape[-1])), L)
    value = float(w @ model.batch_losses(plan.loss, F, y, ref))
    return value + model.p_regularizer_value(plan.regs, [ref])


def assert_damped_model_point(plan, H, g, theta, x):
    """x is the minimizer of the Newton model damped to P = H + rho I over
    plan's sign box: the fixed point of its prox-gradient step, with the
    closed-form sign-box prox, up to rounding of its scale."""
    P = H + psolve._PROX_SHARE * float(np.diag(H).max()) * np.eye(H.shape[0])
    step = 1.0 / float(np.linalg.eigvalsh(P)[-1])
    z = plan.prox(x - step * (g + P @ (x - theta)), step)
    assert np.abs(z - x).max() <= 1e-8 * max(1.0, np.abs(x).max())


def iohmm_dirichlet_case(seed):
    """(spec, data, Z): io_hmm at m=300 with Dirichlet weights that favour each row's true state."""
    cfg = ex.experiment_config(ex.IO_HMM, seed, m=300)
    data, states, _ = ex.gen_io_hmm(cfg)
    spec = ex.iohmm_spec(cfg.lam_theta, cfg.lam_z, 1, seed)
    rng = np.random.default_rng(6)
    return spec, data, np.array([rng.dirichlet(0.3 + 3.0 * np.eye(3)[s - 1]) for s in states])


def logit_total(spec, data, k, w, theta):
    """Weighted loss plus parameter regularizers of factor k at theta."""
    value = float(w @ model.batch_losses(spec.loss_per_factor[k], data.features, data.observations, theta))
    return value + model.p_regularizer_value(spec.p_regularizers, [theta])


class TestNewtonStep:
    """Proximal Newton P-steps of the logit losses against independent references."""

    @pytest.mark.parametrize("weights", ["noisy_labels", "dirichlet"])
    def test_converged_forgetting_factor_is_kkt_point(self, weights):
        # a converged theta minimizes its own quadratic model: the QP with
        # P = H and q = g - H theta over the factor's constraint rows, which
        # the active-set oracle solves by enumeration. The weights mix the
        # regimes: on the true labels alone the loss keeps falling as
        # theta_0 grows and has no minimizer
        cfg = ex.experiment_config(ex.FORGETTING_Q, 0)
        data, labels, _ = ex.gen_forgetting_q(cfg)
        spec = ex.forgetting_spec(0.0, 1, 0)
        rng = np.random.default_rng(4)
        if weights == "noisy_labels":  # 30% of the labels swapped
            Z = hard_Z(np.where(rng.random(data.m) < 0.3, 2 - labels, labels - 1), 2)
        else:
            Z = np.array([rng.dirichlet(0.5 + 2.0 * np.eye(2)[label - 1]) for label in labels])
        out = dk.solve_p(spec, data, Z)
        assert out.statuses == [psolve.P_CONVERGED] * 2
        for k, theta in enumerate(out.thetas):
            _, g, H = model.value_grad_hessian(
                spec.loss_per_factor[k], data.features, data.observations, theta, Z[:, k])
            # the rows are the monotone rows and the sign rows, 9 in all
            C, d = kernels.halfspaces(spec.constraints_per_factor[k], spec.n)
            ref = dk.qp_active_set_oracle(dk.qp_problem(H, g - H @ theta, C, d))
            np.testing.assert_allclose(theta, ref, rtol=0.0, atol=1e-6)

    def test_iohmm_not_above_long_prox_gradient(self):
        # group l2 with a sign box on every factor; the reference is
        # constant-step proximal gradient run to its fixed point, with its
        # steps sized by the global bound F' W F / 4 on the binary logit
        # Hessian
        spec, data, Z = iohmm_dirichlet_case(0)
        for plan in psolve.plan_factors(spec):
            w = Z[:, plan.k]
            theta, _, status = plan.solve(plan, data.features, data.observations, w, None, spec.controls)
            best = prox_gradient_reference(plan, data, w, 0.25)
            assert status == psolve.P_CONVERGED
            assert kernels.max_violation(plan.form.atoms, theta) == 0.0
            total = logit_total(spec, data, plan.k, w, theta)
            assert total - best <= spec.controls.p_tol * best

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_iohmm_fits_solve_every_model_exactly(self, seed, monkeypatch):
        # group l2 over a sign box: every Newton model reaches
        # regularized_qp once, undamped, and its face loop returns the exact
        # minimizer; no model raises or takes the prox-gradient step
        calls = {"model": 0, "qp": 0, "raised": 0, "none": 0}
        real_model, real_qp = psolve._model_step, kernels.regularized_qp

        def model_spy(*args):
            calls["model"] += 1
            return real_model(*args)

        def qp_spy(*args):
            calls["qp"] += 1
            try:
                x = real_qp(*args)
            except kernels.ProjectionError:
                calls["raised"] += 1
                raise
            calls["none"] += x is None
            return x

        monkeypatch.setattr(psolve, "_model_step", model_spy)
        monkeypatch.setattr(kernels, "regularized_qp", qp_spy)
        spec, data, Z = iohmm_dirichlet_case(seed)
        dk.fit(spec, data)
        for plan in psolve.plan_factors(spec):
            plan.solve(plan, data.features, data.observations, Z[:, plan.k], None, spec.controls)
        assert calls["model"] > 0 and calls["qp"] == calls["model"]
        assert calls["raised"] == calls["none"] == 0

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_iohmm_factor_at_default_p_tol_near_tight_point(self, seed):
        # with exact model solves proximal Newton converges superlinearly,
        # so the drop test at the default p_tol stops close in theta to the
        # point reached at p_tol 1e-14; with FISTA models it stopped up to
        # 1.5e-5 away
        spec, data, Z = iohmm_dirichlet_case(seed)
        tight = replace(spec.controls, p_tol=1e-14)
        for plan in psolve.plan_factors(spec):
            w = Z[:, plan.k]
            theta, _, status = plan.solve(plan, data.features, data.observations, w, None, spec.controls)
            ref, _, _ = plan.solve(plan, data.features, data.observations, w, None, tight)
            assert status == psolve.P_CONVERGED
            np.testing.assert_allclose(theta, ref, rtol=0.0, atol=1e-7)

    def test_unbounded_model_takes_the_damped_exact_point(self):
        # H singular, and the part of c = g - H theta in its null space is
        # larger than lambda: the model has no minimizer. H fails the
        # eigenvalue rule, and the model damped to H + rho I has one:
        # the prox-gradient fixed point of the damped model, finite and in
        # the box
        spec = ex.iohmm_spec(1.0, 1.0, 1, 0)
        plan = psolve.plan_factors(spec)[1]  # x_0 >= 0, x_1 free
        H, g, theta = np.diag([2.0, 0.0]), np.array([1.0, -3.0]), np.zeros(2)
        first, closer, exact = psolve._model_step(plan, theta, g, H)
        assert not exact and np.all(np.isfinite(closer))
        assert kernels.max_violation(plan.form.atoms, closer) == 0.0
        assert_damped_model_point(plan, H, g, theta, closer)

    def test_box_bounded_deficient_model_takes_the_damped_exact_point(self, monkeypatch):
        # H = (1, 1)(1, 1)' is singular, and c = g - H theta has a part of
        # sqrt 2 > lambda in its null space: unbounded on the whole space,
        # though the sign box bounds the model at x = (0, 3). H fails the
        # eigenvalue rule, and the model is solved once, damped, to within
        # rho of that point
        spec = dk.shared_spec(1, 2, dk.binary_logit(), (dk.nonneg(),), p_regularizers=(dk.group_l2(1.0),))
        plan = psolve.plan_factors(spec)[0]
        H, g, theta = np.ones((2, 2)), np.array([-2.0, -4.0]), np.zeros(2)
        fallback = []
        real = kernels.regularized_qp
        monkeypatch.setattr(kernels, "regularized_qp", lambda met, *args: fallback.append(met) or real(met, *args))
        first, closer, exact = psolve._model_step(plan, theta, g, H)
        assert np.all(first > 0.0)
        assert len(fallback) == 1 and not exact  # one solve, with M = H + rho I
        assert np.array_equal(fallback[0].M, H + psolve._PROX_SHARE * np.eye(2))
        assert kernels.max_violation(plan.form.atoms, closer) == 0.0
        np.testing.assert_allclose(closer, [0.0, 3.0], rtol=0.0, atol=1e-7)
        assert_damped_model_point(plan, H, g, theta, closer)

    def test_steps_never_raise_the_objective(self):
        # from far-off starts a full Newton step overshoots; the line search
        # must shorten it, so the objective falls with every iteration
        rng = np.random.default_rng(0)
        X = rng.normal(size=(60, 2))
        y = (rng.random(60) < 1.0 / (1.0 + np.exp(-(X @ [1.0, -1.0])))).astype(float)
        data, Z = dk.dataset(X, y), np.ones((60, 1))
        base = dk.shared_spec(K=1, n=2, loss=dk.binary_logit(), constraints=())
        for start in ([8.0, 8.0], [-6.0, 9.0]):
            warm = [np.array(start)]
            values = [logit_total(base, data, 0, Z[:, 0], warm[0])]
            for cap in range(1, 8):
                spec = replace(base, controls=replace(base.controls, p_max_iter=cap))
                values.append(dk.solve_p(spec, data, Z, warm=warm).objective)
            assert all(b <= a for a, b in zip(values, values[1:])), values
            assert values[-1] < 0.5 * values[0]

    def test_separable_binary_logit_ends_finite(self):
        # the loss has no minimizer: it falls toward 0 as the slope grows
        X = np.array([[1.0], [-1.0], [2.0], [-2.0]])
        data = dk.dataset(X, np.array([1.0, 0.0, 1.0, 0.0]))
        spec = dk.shared_spec(K=1, n=1, loss=dk.binary_logit(), constraints=(),
                              controls=model.SolverControls(p_max_iter=10))
        Z = np.ones((4, 1))
        out = dk.solve_p(spec, data, Z)
        assert out.statuses == [psolve.P_MAX_ITER]
        assert np.isfinite(out.thetas[0]).all() and out.thetas[0][0] > 5.0
        # past exp underflow every margin is saturated and the Hessian is
        # exactly zero; from below the gradient is not
        for start in (-800.0, 800.0):
            out = dk.solve_p(spec, data, Z, warm=[np.array([start])])
            assert np.isfinite(out.thetas[0]).all() and out.thetas[0][0] >= start
            assert 0.0 <= out.objective <= logit_total(spec, data, 0, Z[:, 0], np.array([start]))

    def test_empty_factor_goes_to_regularizer_minimizer(self):
        cfg = ex.experiment_config(ex.IO_HMM, 0, m=100)
        data, states, _ = ex.gen_io_hmm(cfg)
        spec = ex.iohmm_spec(cfg.lam_theta, cfg.lam_z, 1, 0)
        Z = hard_Z(np.minimum(states - 1, 1), 3)  # factor 2 owns nothing
        warm = [np.array([-1.0, 2.0]), np.array([1.0, 3.0]), np.array([4.0, -2.0])]
        out = dk.solve_p(spec, data, Z, warm=warm)
        assert out.statuses[2] == psolve.P_SKIPPED
        np.testing.assert_array_equal(out.thetas[2], [0.0, 0.0])

    def test_forgetting_steps_uncapped_and_lambda_zero_lower(self, monkeypatch):
        # capped prox-gradient P-steps let the gap rule stop forgetting at
        # lambda = 0 on 95.318; converged steps reach a lower fixed point
        statuses = []
        real = psolve.solve_p

        def spy(*args, **kwargs):
            out = real(*args, **kwargs)
            statuses.extend(out.statuses)
            return out

        monkeypatch.setattr(psolve, "solve_p", spy)
        out = ex.run_forgetting_q(seed=0)
        assert statuses and psolve.P_MAX_ITER not in statuses
        assert out["runs"][0.0]["fit"].objective_trace[-1][2] <= 95.305


def lad_steps_and_gaps(scale):
    """Statuses and relative gaps of five weighted LAD P-steps (m=14, n=3, K=2).

    Weighted LAD is a linear program, so one of its optima interpolates n
    rows: theta = X_S^-1 y_S for some n-subset S of the rows. Each gap is
    measured to the best of those vertices. The observations are scaled by
    scale.
    """
    rng = np.random.default_rng(14)
    m, n = 14, 3
    spec = dk.shared_spec(K=2, n=n, loss=dk.lp_regression(1.0), constraints=())
    steps = []
    for _ in range(5):
        X = rng.normal(size=(m, n))
        y = scale * (X @ rng.normal(size=n) + rng.laplace(size=m))
        Z = rng.dirichlet(np.ones(2), size=m)
        out = dk.solve_p(spec, dk.dataset(X, y), Z)
        gaps = []
        for k, theta in enumerate(out.thetas):
            def lad(th):
                return float(Z[:, k] @ np.abs(X @ th - y))

            best = min(lad(np.linalg.solve(X[list(S)], y[list(S)]))
                       for S in itertools.combinations(range(m), n))
            gaps.append((lad(theta) - best) / best)
        steps.append((out.statuses, gaps))
    return steps


class TestNewtonModelMatrices:
    """Proximal Newton P-steps of the losses whose model matrix is not a logit Hessian."""

    def test_lad_step_matches_vertex_enumeration(self):
        # the IRLS weight 1/|u| grows on a row whose residual must cross 0 on
        # the way to the optimum, so an odd step stops short: here one of ten
        # ends 1.04e-3 above it, the other nine within 3e-5
        for statuses, gaps in lad_steps_and_gaps(1.0):
            assert statuses == [psolve.P_CONVERGED] * 2
            assert max(gaps) <= 2e-3

    def test_lad_step_gap_is_scale_free(self):
        # LAD is homogeneous in (theta, y), and so is the Newton step; with
        # observations scaled by 1e-5 the objectives sit near 1e-4, where an
        # absolute drop test stopped steps up to 8.8e-3 above the optimum
        for (_, gaps), (statuses, scaled) in zip(lad_steps_and_gaps(1.0), lad_steps_and_gaps(1e-5)):
            assert statuses == [psolve.P_CONVERGED] * 2
            np.testing.assert_allclose(scaled, gaps, rtol=0.0, atol=1e-6)

    @pytest.mark.parametrize("case", [
        "huber_monotone", "square_l1", "square_ball", "square_group_l2", "huber_group_l2_nonneg"])
    def test_matches_prox_gradient_fixed_point(self, case):
        loss, atoms, regs = {
            "huber_monotone": (dk.huber(0.5), (dk.nonneg(), dk.monotone_nonincreasing()), ()),
            "square_l1": (dk.square_regression(), (), (dk.l1(5.0),)),
            "square_ball": (dk.square_regression(), (dk.norm_ball2(1.0),), ()),
            # the two models solved by their secular equation
            "square_group_l2": (dk.square_regression(), (), (dk.group_l2(20.0),)),
            "huber_group_l2_nonneg": (dk.huber(0.5), (dk.nonneg(),), (dk.group_l2(5.0),)),
        }[case]
        rng = np.random.default_rng(33)
        X = rng.normal(size=(50, 4))
        y = X @ np.array([1.5, 1.0, -0.5, 0.2]) + rng.normal(size=50)
        data, Z = dk.dataset(X, y), rng.dirichlet(np.ones(2), size=50)
        spec = dk.shared_spec(K=2, n=4, loss=loss, constraints=atoms, p_regularizers=regs)
        out = dk.solve_p(spec, data, Z)
        assert out.statuses == [psolve.P_CONVERGED] * 2
        if loss.kind == model.SQUARE_REGRESSION:
            # the model of a quadratic loss is exact, and solved exactly:
            # one full step reaches the minimizer and ends the solve
            assert out.inner_iterations == [1, 1]
        for plan, theta in zip(psolve.plan_factors(spec), out.thetas):
            w = Z[:, plan.k]
            assert plan.solve is psolve._newton_factor
            assert kernels.max_violation(plan.form.atoms, theta) <= 1e-12
            total = float(w @ model.batch_losses(loss, X, y, theta)) + model.p_regularizer_value(regs, [theta])
            # both losses have second derivative at most 2 in the residual
            best = prox_gradient_reference(plan, data, w, 2.0)
            assert total - best <= spec.controls.p_tol * best


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


class TestFactorLayout:
    @pytest.mark.parametrize("study", [ex.MIXTURE_LINREG, ex.CONSTRAINED_KMEANS, ex.IO_HMM])
    def test_c_and_fortran_order_give_equal_thetas(self, study):
        # the engine keeps Z in Fortran order; the P-step reads the same
        # weight columns from either layout
        cfg = ex.experiment_config(study, 0, m=120)
        data, _, _ = ex.generate(cfg)
        spec = {
            ex.MIXTURE_LINREG: lambda: ex.mixture_spec(1, 0),
            ex.CONSTRAINED_KMEANS: lambda: ex.kmeans_spec(True, 1, 0),
            ex.IO_HMM: lambda: ex.iohmm_spec(cfg.lam_theta, cfg.lam_z, 1, 0),
        }[study]()
        Z = np.random.default_rng(3).dirichlet(np.ones(spec.K), size=data.m)
        out_c = dk.solve_p(spec, data, np.ascontiguousarray(Z))
        out_f = dk.solve_p(spec, data, np.asfortranarray(Z))
        assert all(np.array_equal(a, b) for a, b in zip(out_c.thetas, out_f.thetas))
        assert np.array_equal(out_c.R, out_f.R) and out_f.R.flags.f_contiguous
        assert out_f.objective == pytest.approx(out_c.objective, rel=1e-12)


class TestInfeasibleSubproblem:
    @pytest.mark.parametrize("loss", ["squared_distance", "binary_logit", "huber", "square_regression"])
    def test_raises_subsolver_failure(self, loss):
        # every step, closed form or Newton, reports the empty set one way
        X = np.array([[1.0, 0.0]])
        y = np.array([0.0])
        data = dk.dataset(X, y)
        atom = {"squared_distance": dk.squared_distance, "binary_logit": dk.binary_logit,
                "huber": lambda: dk.huber(1.0), "square_regression": dk.square_regression}[loss]()
        # nonneg meets the halfspace x0 + x1 <= -1: empty
        spec = dk.shared_spec(
            K=1, n=2, loss=atom,
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
    """(spec, data) for the capped-QP tests, m=200."""
    if name == "kmeans":
        # squared distance: a projected centroid, no QP to cap
        cfg = ex.experiment_config(ex.CONSTRAINED_KMEANS, 0, m=200)
        data, _, _ = ex.gen_constrained_kmeans(cfg)
        return ex.kmeans_spec(True, 1, 0), data
    # square regression over polyhedral atoms: Newton, its model one QP
    cfg = ex.experiment_config(ex.MIXTURE_LINREG, 0, m=200)
    data, _, _ = ex.gen_mixture_linreg(cfg)
    atoms = (dk.nonneg(), dk.polyhedron(np.ones((1, 10)), np.array([1.0])))
    spec = dk.shared_spec(3, 10, dk.square_regression(), atoms,
                          controls=model.SolverControls(restarts=1, seed=0))
    return spec, data


def record_qp_statuses(monkeypatch, metrics=None):
    """The list to which every later QP solve (kernels._metric_qp, which
    qp_solve and every Newton model QP without group l2 run) appends its
    status; metrics, where given, gets the Metric of each."""
    statuses = []
    real = kernels._metric_qp

    def spy(met, *args):
        sol = real(met, *args)
        statuses.append(sol.status)
        if metrics is not None:
            metrics.append(met)
        return sol

    monkeypatch.setattr(kernels, "_metric_qp", spy)
    return statuses


def fit_with_qp_statuses(spec, data, monkeypatch):
    """fit(spec, data) and the statuses of every QP it solved."""
    statuses = record_qp_statuses(monkeypatch)
    return dk.fit(spec, data), statuses


def cap_qp(spec):
    # qp_tol and qp_max_iter are validated, but no solver reads them
    return replace(spec, controls=replace(spec.controls, qp_tol=0.5, qp_max_iter=1))


@pytest.mark.parametrize("case", ["kmeans", "regression"])
class TestCappedQp:
    def test_capped_steps_stay_feasible_and_monotone(self, case, monkeypatch):
        # at qp_max_iter = 1 and qp_tol = 0.5 the thetas stay in the
        # polytope and the trace monotone. K-means solves no QP, and every
        # regression model is definite, so each QP is solved in one pass
        spec, data = capped_case(case)
        res, statuses = fit_with_qp_statuses(cap_qp(spec), data, monkeypatch)
        assert set(statuses) == ({kernels.SOLVED} if case == "regression" else set())
        flat = [v for _, after_p, after_f in res.objective_trace for v in (after_p, after_f)]
        for a, b in zip(flat, flat[1:]):
            assert b <= a + 1e-8 * max(1.0, abs(a))
        atoms = spec.constraints_per_factor[0]
        assert max(kernels.max_violation(atoms, th) for th in res.thetas) <= 1e-9

    def test_capped_fit_is_bit_identical_to_default(self, case):
        # qp_solve takes no tolerance and no cap: the fit does not depend
        # on qp_tol or qp_max_iter
        spec, data = capped_case(case)
        capped, full = dk.fit(cap_qp(spec), data), dk.fit(spec, data)
        assert capped.objective_trace == full.objective_trace
        assert np.array_equal(capped.Z, full.Z) and np.array_equal(capped.labels, full.labels)
        for a, b in zip(capped.thetas, full.thetas):
            assert np.array_equal(a, b)


def test_singular_model_qp_is_damped(monkeypatch):
    # 1 or 3 weighted rows for 10 features: H is singular, so it fails the
    # eigenvalue rule and the model is solved once, with P = H + rho I,
    # centred at theta. The P-step lands in the polytope, at the objectives
    # reached by solving the undamped models to convergence by the
    # proximal-point method
    spec, data = capped_case("regression")
    spec = replace(spec, K=1, loss_per_factor=spec.loss_per_factor[:1],
                   constraints_per_factor=spec.constraints_per_factor[:1])
    atoms = spec.constraints_per_factor[0]
    metrics = []
    statuses = record_qp_statuses(monkeypatch, metrics)
    for rows, objective in [(1, 451.934126522431), (3, 841.114849864229)]:
        Z = np.zeros((data.m, 1))
        Z[:rows] = 1.0
        statuses.clear()
        metrics.clear()
        out = dk.solve_p(spec, data, Z)
        # the first model's one solve is damped: its least eigenvalue is rho
        rho = psolve._PROX_SHARE * float(np.diag(metrics[0].M).max())
        assert statuses[0] == kernels.SOLVED and metrics[0].w[0] >= 0.5 * rho
        assert kernels.max_violation(atoms, out.thetas[0]) <= 1e-9
        assert out.objective == pytest.approx(objective, rel=1e-9)


def test_saturated_binary_logit_models_take_finite_points(monkeypatch):
    # binary-logit draws at feature scale 1e3 saturate the sigmoid: many of
    # the model matrices F' diag(w c) F fail the eigenvalue rule, and some
    # round indefinite, how many depending on the BLAS build, so no count is
    # asserted. Each model step returns a finite point of its sign box, with
    # no exception: a model that fails the rule is solved once, damped to
    # H + rho I, and one with no curvature takes the prox-gradient step
    metrics = []
    real = kernels.regularized_qp
    monkeypatch.setattr(kernels, "regularized_qp", lambda met, *args: metrics.append(met) or real(met, *args))
    plans = {n: psolve.plan_factors(dk.shared_spec(1, n, dk.binary_logit(), (dk.nonneg(),)))[0] for n in (2, 3, 4)}
    rng = np.random.default_rng(2002)
    damped = 0
    for _ in range(2000):
        n, m = int(rng.integers(2, 5)), int(rng.integers(5, 40))
        F = 1e3 * rng.normal(size=(m, n))
        y = rng.integers(2, size=m).astype(float)
        plan = plans[n]
        theta = plan.project(rng.normal(size=n))
        _, g, H = model.value_grad_hessian(dk.binary_logit(), F, y, theta, rng.uniform(size=m))
        metrics.clear()
        first, closer, _ = psolve._model_step(plan, theta, g, H)
        assert np.isfinite(closer).all() and kernels.max_violation(plan.form.atoms, closer) == 0.0
        if np.linalg.eigvalsh(H)[-1] <= psolve._MIN_CURVATURE:
            assert not metrics and closer is first
        elif not kernels.metric(H).definite:
            damped += 1
            rho = psolve._PROX_SHARE * float(np.diag(H).max())
            (met,) = metrics
            assert met.definite and np.array_equal(met.M, H + rho * np.eye(n))
    assert damped > 0
    # a committed indefinite model, least eigenvalue -5e-10 of the largest,
    # as the rounded binary-logit matrices above reach: damped, solved once
    H = np.array([[1.0, 1.0], [1.0, 1.0 - 2e-9]])
    plan, theta = plans[2], np.array([0.5, 0.25])
    assert np.linalg.eigvalsh(H)[0] < -1e-12 * 2.0
    metrics.clear()
    _, closer, exact = psolve._model_step(plan, theta, np.array([1.0, -1.0]), H)
    (met,) = metrics
    assert met.definite and np.array_equal(met.M, H + psolve._PROX_SHARE * np.eye(2))
    assert np.isfinite(closer).all() and kernels.max_violation(plan.form.atoms, closer) == 0.0 and not exact


def test_exact_model_qp_ends_the_newton_step(monkeypatch):
    # square regression is quadratic, so its model is exact and a full step
    # to a SOLVED model QP reaches the minimizer. Confirming the drop with a
    # second QP made this fit solve 38 QPs, to the same final objective.
    spec, data = capped_case("regression")
    res, statuses = fit_with_qp_statuses(spec, data, monkeypatch)
    assert len(statuses) < 38
    assert res.objective_trace[-1][2] == pytest.approx(42106.775848994024, rel=1e-9)


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
                prob = dk.qp_problem(2.0 * w.sum() * np.eye(2), -2.0 * w @ centers, A, b)
                ref = dk.qp_active_set_oracle(prob)
                np.testing.assert_allclose(out.thetas[k], ref, rtol=0.0, atol=1e-8)
                active += float((A @ ref - b).max()) > -1e-9
        assert active >= 16  # most centroids lie outside the polytope

    def test_kmeans_fit_makes_no_qp_solve_call(self, monkeypatch):
        # the centroids are projected onto the polytope by the active-set
        # loop of kernels.projector, which never calls qp_solve
        spec, data = capped_case("kmeans")
        spec = replace(spec, controls=replace(spec.controls, restarts=2))
        res, statuses = fit_with_qp_statuses(spec, data, monkeypatch)
        assert statuses == []
        atoms = spec.constraints_per_factor[0]
        assert max(kernels.max_violation(atoms, th) for th in res.thetas) <= 1e-9


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


class TestWeightedGram:
    """psolve._weighted_gram against dense all-row references."""

    WEIGHTS = ["zero_and_fractional", "zero_and_unit", "all_unit", "all_fractional"]

    @staticmethod
    def check(weights, order):
        rng = np.random.default_rng(17)
        m, n = 300, 7
        X = np.asarray(rng.normal(size=(m, n)), order=order)
        y = rng.normal(size=m)
        Z = np.zeros((m, 2))  # w is a strided column, as in solve_p
        if weights == "zero_and_fractional":
            Z[:, 0] = rng.uniform(0.0, 1.0, size=m)
            Z[rng.random(m) < 0.3, 0] = 0.0
        elif weights == "zero_and_unit":
            Z[:, 0] = rng.random(m) < 0.6
        elif weights == "all_unit":
            Z[:, 0] = 1.0
        else:  # every weight nonzero, as in a restart's first P-step
            Z[:, 0] = rng.uniform(0.01, 1.0, size=m)
        w = Z[:, 0]
        G, b, Xs, ys, ws = psolve._weighted_gram(X, y, w)
        G_ref, b_ref = X.T @ np.diag(w) @ X, X.T @ (w * y)
        assert np.linalg.norm(G - G_ref) <= 1e-12 * np.linalg.norm(G_ref)
        assert np.linalg.norm(b - b_ref) <= 1e-12 * np.linalg.norm(b_ref)
        keep = w != 0
        assert np.array_equal(Xs, X[keep]) and np.array_equal(ys, y[keep]) and np.array_equal(ws, w[keep])
        if keep.all():  # every row selected: the features are used with no row copy
            assert np.shares_memory(Xs, X) and np.shares_memory(ys, y)
        if weights in ("zero_and_unit", "all_unit"):
            assert np.array_equal(G, G.T)  # unscaled rows: the symmetric product

    @pytest.mark.parametrize("weights", WEIGHTS)
    def test_matches_dense_reference(self, weights):
        self.check(weights, "C")

    @pytest.mark.parametrize("weights", WEIGHTS)
    def test_fortran_ordered_features(self, weights):
        self.check(weights, "F")


def pool_case(name):
    """(spec, data) with two or more restarts, small enough for a pool test."""
    if name == "mixture":
        cfg = ex.experiment_config(ex.MIXTURE_LINREG, 0, m=300)
        return ex.mixture_spec(4, 0), ex.gen_mixture_linreg(cfg)[0]
    if name == "kmeans":
        cfg = ex.experiment_config(ex.CONSTRAINED_KMEANS, 0, m=200)
        return ex.kmeans_spec(True, 2, 0), ex.gen_constrained_kmeans(cfg)[0]
    if name == "forgetting":  # Newton on its model QP
        cfg = ex.experiment_config(ex.FORGETTING_Q, 0, m=200)
        spec = ex.forgetting_spec(1.0, 2, 0)
        capped = replace(spec.controls, max_iter=5)
        return replace(spec, controls=capped), ex.gen_forgetting_q(cfg)[0]
    cfg = ex.experiment_config(ex.IO_HMM, 0, m=150)
    spec = ex.iohmm_spec(cfg.lam_theta, cfg.lam_z, 2, 0)
    capped = replace(spec.controls, max_iter=5, p_max_iter=100, f_max_iter=100)
    return replace(spec, controls=capped), ex.gen_io_hmm(cfg)[0]


class TestFactorPlans:
    @pytest.mark.parametrize("name, step", [
        ("kmeans", "_projected_centroid"),
        ("mixture", "_weighted_lstsq"),
        ("capped_regression", "_newton_factor"),
        ("ball_regression", "_newton_factor"),
        ("forgetting", "_newton_factor"),
        ("io_hmm", "_newton_factor"),
        ("huber_l1", "_newton_factor"),
    ])
    def test_step_chosen_once_per_factor(self, name, step):
        spec = {
            "kmeans": lambda: ex.kmeans_spec(True, 2, 0),
            "mixture": lambda: ex.mixture_spec(4, 0),
            "capped_regression": lambda: capped_case("regression")[0],
            "ball_regression": lambda: dk.shared_spec(2, 3, dk.square_regression(),
                                                      (dk.nonneg(), dk.norm_ball2(1.0))),
            "forgetting": lambda: ex.forgetting_spec(1.0, 1, 0),
            "io_hmm": lambda: ex.iohmm_spec(0.5, 1.0, 1, 0),
            "huber_l1": lambda: dk.shared_spec(2, 3, dk.huber(1.0), (dk.nonneg(),),
                                               p_regularizers=(dk.l1(0.1),)),
        }[name]()
        plans = psolve.plan_factors(spec)
        assert [plan.solve for plan in plans] == [getattr(psolve, step)] * spec.K
        # only Newton plans carry a joint prox and the terms of their model's
        # regularized_qp
        assert all((plan.prox is not None) == (step == "_newton_factor") for plan in plans)
        assert all((plan.qp_args is not None) == (step == "_newton_factor") for plan in plans)

    def test_qp_rows_stacked_once_per_restart(self, monkeypatch):
        spec, data = capped_case("regression")
        calls = []
        for name in ("canonical_atoms", "_stacked_rows"):
            real = getattr(kernels, name)
            monkeypatch.setattr(kernels, name, lambda *args, name=name, real=real: calls.append(name) or real(*args))
        res = dk.fit(spec, data)
        assert res.iterations > 1
        # each distinct constraint list (the shared spec has one) is
        # canonicalized and stacked once for validate's feasibility probe,
        # then once per restart, for the projectors and the Newton model QPs
        # of every factor
        lists = len({id(atoms) for atoms in spec.constraints_per_factor})
        assert lists == 1 and spec.K > 1
        once = ["canonical_atoms", "_stacked_rows"]
        assert calls == once * lists * (1 + spec.controls.restarts)

    def test_one_projector_per_factor_and_restart(self, monkeypatch):
        spec, data = pool_case("kmeans")
        forms = []
        real = kernels.projector
        monkeypatch.setattr(kernels, "projector", lambda form: forms.append(form) or real(form))
        res = dk.fit(spec, data)
        assert res.iterations > 1
        # one for validate's feasibility probe of each distinct constraint
        # list (the shared spec has one), then one per factor and restart,
        # each restart's on the one form it compiled for that list
        lists = len({id(atoms) for atoms in spec.constraints_per_factor})
        assert lists == 1
        assert len(forms) == lists + spec.K * spec.controls.restarts
        assert len({id(form) for form in forms}) == lists * (1 + spec.controls.restarts)

    @pytest.mark.parametrize("name", ["mixture", "kmeans", "forgetting", "io_hmm"])
    def test_pool_matches_sequential(self, name):
        # plans hold closures, so each pool worker builds its own
        spec, data = pool_case(name)
        seq = dk.fit(spec, data, jobs=1)
        par = dk.fit(spec, data, jobs=2)
        assert seq.restart_index_of_best == par.restart_index_of_best
        assert seq.objective_trace == par.objective_trace
        assert np.array_equal(seq.labels, par.labels)
        assert all(np.array_equal(a, b) for a, b in zip(seq.thetas, par.thetas))

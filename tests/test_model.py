import re

import numpy as np
import pytest

import dlfmkit as dk
from dlfmkit import model, oracle

RNG = np.random.default_rng(1234)

ALL_LOSSES = [
    (dk.square_regression(), 3),
    (dk.lp_regression(1.0), 3),
    (dk.lp_regression(2.0), 3),
    (dk.huber(1.0), 3),
    (dk.squared_distance(), 3),
    (dk.binary_logit(), 3),
]


def sample_for(atom, n, rng):
    if atom.kind == model.MULTINOMIAL_LOGIT:
        p = 4
        X = rng.normal(size=(p, n))
        y = np.zeros(p)
        y[rng.integers(p)] = 1.0
        return X, y
    X = rng.normal(size=n)
    if atom.kind == model.BINARY_LOGIT:
        return X, float(rng.integers(2))
    if atom.kind == model.SQUARED_DISTANCE:
        return X, 0.0
    return X, float(rng.normal())


class TestLossValues:
    def test_square_regression(self):
        th = np.array([1.0, 1.0])
        assert dk.loss_eval(dk.square_regression(), np.array([2.0, 0.0]), 1.0, th) \
            == pytest.approx(1.0)

    def test_square_regression_grad(self):
        th = np.array([1.0, 1.0])
        g = dk.loss_grad(dk.square_regression(), np.array([2.0, 0.0]), 1.0, th)
        assert np.allclose(g, [4.0, 0.0])

    def test_huber_quadratic_region(self):
        th = np.array([0.5])
        # residual 0.5, inside delta=1: loss u^2 = 0.25
        assert dk.loss_eval(dk.huber(1.0), np.array([1.0]), 0.0, th) == pytest.approx(0.25)

    def test_huber_linear_region(self):
        th = np.array([2.0])
        # residual 2 with delta 1: 2*1*2 - 1 = 3
        assert dk.loss_eval(dk.huber(1.0), np.array([1.0]), 0.0, th) == pytest.approx(3.0)

    def test_absolute_loss(self):
        th = np.array([3.0])
        assert dk.loss_eval(dk.lp_regression(1.0), np.array([1.0]), 1.0, th) \
            == pytest.approx(2.0)

    def test_squared_distance(self):
        th = np.array([1.0, 2.0])
        val = dk.loss_eval(dk.squared_distance(), np.array([0.0, 0.0]), 0.0, th)
        assert val == pytest.approx(5.0)

    def test_multinomial_uninformative(self):
        # all-zero features: log of the class count regardless of theta
        X = np.zeros((3, 4))
        y = np.array([0.0, 1.0, 0.0])
        val = dk.loss_eval(dk.multinomial_logit(), X, y, RNG.normal(size=4))
        assert val == pytest.approx(np.log(3.0))

    def test_binary_logit_at_zero(self):
        th = np.zeros(2)
        x = np.array([1.0, -2.0])
        assert dk.loss_eval(dk.binary_logit(), x, 1.0, th) == pytest.approx(np.log(2.0))
        g = dk.loss_grad(dk.binary_logit(), x, 1.0, th)
        assert np.allclose(g, -x / 2.0)


class TestLossGradients:
    @pytest.mark.parametrize("atom,n", ALL_LOSSES + [(dk.multinomial_logit(), 3)],
                             ids=lambda a: getattr(a, "kind", str(a)))
    def test_matches_finite_differences(self, atom, n):
        rng = np.random.default_rng(hash(atom.kind) % (1 << 32))
        checked = 0
        while checked < 100:
            X, y = sample_for(atom, n, rng)
            th = rng.normal(size=n)
            if atom.kind in (model.LP_REGRESSION, model.HUBER):
                # keep clear of the residual kink where the gradient jumps
                if abs(float(np.dot(X, th)) - y) < 1e-2:
                    continue
            g = dk.loss_grad(atom, X, y, th)
            ref = oracle.fd_gradient(lambda t: dk.loss_eval(atom, X, y, t), th)
            scale = max(1.0, float(np.linalg.norm(ref)))
            assert np.linalg.norm(g - ref) / scale <= 1e-5, atom.kind
            checked += 1


class TestConvexity:
    @pytest.mark.parametrize("atom,n", ALL_LOSSES + [(dk.multinomial_logit(), 3)],
                             ids=lambda a: getattr(a, "kind", str(a)))
    def test_midpoint_inequality(self, atom, n):
        rng = np.random.default_rng(99)
        for _ in range(100):
            X, y = sample_for(atom, n, rng)
            a = rng.normal(size=n)
            b = rng.normal(size=n)
            lhs = dk.loss_eval(atom, X, y, (a + b) / 2.0)
            rhs = (dk.loss_eval(atom, X, y, a) + dk.loss_eval(atom, X, y, b)) / 2.0
            assert lhs <= rhs + 1e-9


class TestBatchConsistency:
    def test_loss_matrix_matches_single(self):
        rng = np.random.default_rng(17)
        X = rng.normal(size=(6, 3))
        y = rng.normal(size=6)
        spec = dk.shared_spec(K=2, n=3, loss=dk.huber(0.7), constraints=())
        thetas = [rng.normal(size=3) for _ in range(2)]
        R = dk.loss_matrix(spec, dk.dataset(X, y), thetas)
        assert R.shape == (6, 2)
        for i in range(6):
            for k in range(2):
                assert R[i, k] == pytest.approx(
                    dk.loss_eval(dk.huber(0.7), X[i], y[i], thetas[k]))


class TestKl:
    def test_zero_on_equal(self):
        U = np.array([[0.2, 0.8], [0.5, 0.5]])
        assert dk.kl_divergence(U, U) == pytest.approx(0.0, abs=1e-15)

    def test_handles_zero_entries(self):
        u = np.array([[1.0, 0.0]])
        v = np.array([[0.5, 0.5]])
        # 1*log(2) - 1 + 0.5 + (0 - 0 + 0.5)
        assert dk.kl_divergence(u, v) == pytest.approx(np.log(2.0))

    def test_nonnegative(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            u = rng.dirichlet(np.ones(3))
            v = rng.dirichlet(np.ones(3))
            assert dk.kl_divergence(u[None], v[None]) >= -1e-12

    def test_disjoint_support_infinite(self):
        assert dk.kl_divergence(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == np.inf

    def test_chain_value(self):
        Z = np.array([[0.9, 0.1], [0.9, 0.1], [0.2, 0.8]])
        # equal consecutive rows contribute nothing; only the switch counts
        val = model.kl_chain_value(Z)
        byhand = dk.kl_divergence(Z[1], Z[2])
        assert val == pytest.approx(byhand)
        weighted = model.f_regularizer_value((dk.kl_chain(2.0),), Z)
        assert weighted == pytest.approx(2.0 * byhand)

    def test_chain_value_matches_pairwise_sum(self):
        rng = np.random.default_rng(9)
        for m, K in [(2, 2), (7, 3), (30, 4)]:
            Z = rng.dirichlet(np.ones(K), size=m)
            Z[rng.random((m, K)) < 0.2] = 0.0  # exact zeros, 0 log 0 = 0
            Z[:, 0] += 0.1  # keeps every row with some mass
            Z = Z / Z.sum(axis=1, keepdims=True)
            byhand = sum(dk.kl_divergence(Z[t], Z[t + 1]) for t in range(m - 1))
            assert model.kl_chain_value(Z) == pytest.approx(byhand, rel=1e-12, abs=1e-14)

    def test_chain_value_infinite_on_missing_mass(self):
        Z = np.array([[0.5, 0.5], [0.6, 0.4], [1.0, 0.0], [0.5, 0.5]])
        assert model.kl_chain_value(Z) == np.inf
        # a zero entry may be followed by mass, not preceded by it
        assert model.kl_chain_value(Z[2:]) == pytest.approx(dk.kl_divergence(Z[2], Z[3]))


class TestObjective:
    def test_hard_assignment_sum(self):
        X = np.array([[1.0], [1.0]])
        y = np.array([1.0, 3.0])
        data = dk.dataset(X, y)
        spec = dk.shared_spec(K=2, n=1, loss=dk.square_regression(), constraints=())
        thetas = [np.array([1.0]), np.array([3.0])]
        Z = np.eye(2)
        assert dk.objective(spec, data, thetas, Z) == pytest.approx(0.0)
        Zswap = Z[::-1]
        assert dk.objective(spec, data, thetas, Zswap) == pytest.approx(8.0)

    def test_includes_regularizers(self):
        X = np.array([[1.0], [1.0]])
        y = np.array([0.0, 0.0])
        data = dk.dataset(X, y, ordered=True)
        spec = dk.shared_spec(K=2, n=1, loss=dk.square_regression(), constraints=(),
                              p_regularizers=(dk.l1(2.0),),
                              f_regularizers=(dk.kl_chain(1.0),))
        thetas = [np.array([1.0]), np.array([-1.0])]
        Z = np.array([[1.0, 0.0], [1.0, 0.0]])
        base = 1.0 + 1.0          # squared residuals under hard assignment
        preg = 2.0 * (1.0 + 1.0)  # l1 on both columns
        assert dk.objective(spec, data, thetas, Z) == pytest.approx(base + preg)


class TestValidate:
    def _data(self, m=4, n=2):
        return dk.dataset(RNG.normal(size=(m, n)), RNG.normal(size=m))

    def test_accepts_plain_spec(self):
        spec = dk.shared_spec(K=2, n=2, loss=dk.square_regression(), constraints=())
        assert dk.validate(spec, self._data()).ok

    def test_accepts_polyhedron(self):
        A = np.array([[0.8, 0.6], [-0.7, 0.9], [-1.0, -0.5], [1.0, -1.0], [0.3, 0.9]])
        b = np.array([1.0, 0.8, 0.6, 0.7, 0.8])
        spec = dk.shared_spec(K=2, n=2, loss=dk.squared_distance(),
                              constraints=(dk.polyhedron(A, b),))
        data = dk.dataset(RNG.normal(size=(4, 2)), np.zeros(4))
        assert dk.validate(spec, data).ok

    def test_rejects_bad_delta(self):
        spec = dk.shared_spec(K=1, n=2, loss=dk.huber(0.0), constraints=())
        rep = dk.validate(spec, self._data())
        assert not rep.ok
        assert any("delta" in v.message for v in rep.violations)

    def test_rejects_bad_order(self):
        spec = dk.shared_spec(K=1, n=2, loss=dk.lp_regression(0.5), constraints=())
        rep = dk.validate(spec, self._data())
        assert not rep.ok
        assert any("order" in v.message for v in rep.violations)

    def test_rejects_empty_feasible_set(self):
        spec = dk.shared_spec(
            K=1, n=2, loss=dk.square_regression(),
            constraints=(dk.nonneg(),
                         dk.polyhedron(np.array([[1.0, 1.0]]), np.array([-1.0]))))
        rep = dk.validate(spec, self._data())
        assert not rep.ok
        assert any("empty" in v.message for v in rep.violations)

    def test_rejects_chain_on_unordered(self):
        spec = dk.shared_spec(K=2, n=2, loss=dk.square_regression(), constraints=(),
                              f_regularizers=(dk.kl_chain(1.0),))
        rep = dk.validate(spec, self._data())  # dataset not marked ordered
        assert not rep.ok
        assert any("ordered" in v.message for v in rep.violations)

    def test_rejects_chain_on_parameters(self):
        spec = dk.shared_spec(K=2, n=2, loss=dk.square_regression(), constraints=(),
                              p_regularizers=(dk.kl_chain(1.0),))
        rep = dk.validate(spec, self._data())
        assert not rep.ok

    def test_rejects_shape_mismatch(self):
        spec = dk.shared_spec(K=2, n=3, loss=dk.square_regression(), constraints=())
        rep = dk.validate(spec, self._data(n=2))
        assert not rep.ok

    @pytest.mark.parametrize("field", ["features", "observations"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_data(self, field, bad):
        spec = dk.shared_spec(K=2, n=2, loss=dk.square_regression(), constraints=())
        data = self._data()
        getattr(data, field).flat[1] = bad
        rep = dk.validate(spec, data)
        assert not rep.ok
        assert [v.path for v in rep.violations] == [f"data.{field}"]
        with pytest.raises(ValueError, match=f"data.{field}"):
            dk.fit(spec, data)

    @pytest.mark.parametrize("atom, field", [
        (dk.box(np.nan, 1.0), "lo"),
        (dk.box(0.0, [1.0, np.nan]), "hi"),
        (dk.polyhedron([[np.nan, 1.0]], [1.0]), "A"),
        (dk.polyhedron([[np.inf, 1.0]], [1.0]), "A"),
        (dk.polyhedron([[1.0, 1.0]], [np.nan]), "b"),
        (dk.polyhedron([[1.0, 1.0]], [-np.inf]), "b"),
    ], ids=["box_lo", "box_hi", "A_nan", "A_inf", "b_nan", "b_neg_inf"])
    def test_rejects_nan_constraint_data(self, atom, field):
        # max(0, nan) is 0, so the feasibility probe alone reads these as feasible
        spec = dk.shared_spec(K=1, n=2, loss=dk.huber(1.0), constraints=(atom,))
        rep = dk.validate(spec, self._data())
        path = f"constraints_per_factor[0][0].{field}"
        assert [v.path for v in rep.violations] == [path]
        with pytest.raises(ValueError, match=re.escape(path)):
            dk.fit(spec, self._data())

    @pytest.mark.parametrize("field, value", [
        ("qp_max_iter", 0), ("p_max_iter", 0), ("f_max_iter", -3),
        ("qp_tol", np.nan), ("p_tol", np.nan), ("f_tol", -1.0),
    ])
    def test_rejects_bad_inner_controls(self, field, value):
        # each of these voids the fit: a step that never iterates, or a
        # stopping test that never (or always) passes
        spec = dk.shared_spec(K=2, n=2, loss=dk.square_regression(), constraints=(),
                              controls=dk.SolverControls(**{field: value}))
        rep = dk.validate(spec, self._data())
        assert [v.path for v in rep.violations] == [f"controls.{field}"]

    def test_accepts_infinite_bounds(self):
        atoms = (dk.box(-np.inf, np.inf), dk.box([0.0, -np.inf], [np.inf, 1.0]))
        spec = dk.shared_spec(K=1, n=2, loss=dk.huber(1.0), constraints=atoms)
        assert dk.validate(spec, self._data()).ok

    def test_rejects_empty_dataset(self):
        spec = dk.shared_spec(K=2, n=2, loss=dk.square_regression(), constraints=())
        rep = dk.validate(spec, self._data(m=0))
        assert not rep.ok
        assert [v.path for v in rep.violations] == ["data"]

    def test_validate_is_pure(self):
        spec = dk.shared_spec(K=2, n=2, loss=dk.square_regression(), constraints=())
        data = self._data()
        before = (data.features.copy(), data.observations.copy())
        dk.validate(spec, data)
        assert np.array_equal(data.features, before[0])
        assert np.array_equal(data.observations, before[1])


class TestAtomFactories:
    def test_huber_requires_delta(self):
        atom = dk.huber(2.5)
        assert atom.delta == 2.5

    def test_order_stored(self):
        assert dk.lp_regression(1.5).order == 1.5

    def test_regularizer_weights(self):
        assert dk.l1(0.3).weight == 0.3
        assert dk.group_l2(0.5).weight == 0.5
        assert dk.kl_chain(2.0).weight == 2.0

    def test_spec_per_factor_lengths(self):
        with pytest.raises(ValueError):
            dk.ModelSpec(
                K=2, n=1,
                loss_per_factor=(dk.square_regression(),),
                constraints_per_factor=((), ()),
            )

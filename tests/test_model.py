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


def one_row_loss(atom, x, y, theta):
    """batch_losses of one sample, passed as a batch of one row."""
    return float(model.batch_losses(atom, np.asarray(x, dtype=float)[None],
                                    np.asarray(y, dtype=float)[None], theta)[0])


def one_row_grad(atom, x, y, theta):
    """weighted_loss_grad of one sample with weight 1."""
    return model.weighted_loss_grad(atom, np.asarray(x, dtype=float)[None],
                                    np.asarray(y, dtype=float)[None], theta, np.ones(1))


class TestLossValues:
    def test_square_regression(self):
        th = np.array([1.0, 1.0])
        assert one_row_loss(dk.square_regression(), np.array([2.0, 0.0]), 1.0, th) \
            == pytest.approx(1.0)

    def test_square_regression_grad(self):
        th = np.array([1.0, 1.0])
        g = one_row_grad(dk.square_regression(), np.array([2.0, 0.0]), 1.0, th)
        assert np.allclose(g, [4.0, 0.0])

    def test_huber_quadratic_region(self):
        th = np.array([0.5])
        # residual 0.5, inside delta=1: loss u^2 = 0.25
        assert one_row_loss(dk.huber(1.0), np.array([1.0]), 0.0, th) == pytest.approx(0.25)

    def test_huber_linear_region(self):
        th = np.array([2.0])
        # residual 2 with delta 1: 2*1*2 - 1 = 3
        assert one_row_loss(dk.huber(1.0), np.array([1.0]), 0.0, th) == pytest.approx(3.0)

    def test_absolute_loss(self):
        th = np.array([3.0])
        assert one_row_loss(dk.lp_regression(1.0), np.array([1.0]), 1.0, th) \
            == pytest.approx(2.0)

    def test_squared_distance(self):
        th = np.array([1.0, 2.0])
        val = one_row_loss(dk.squared_distance(), np.array([0.0, 0.0]), 0.0, th)
        assert val == pytest.approx(5.0)

    def test_multinomial_uninformative(self):
        # all-zero features: log of the class count regardless of theta
        X = np.zeros((3, 4))
        y = np.array([0.0, 1.0, 0.0])
        val = one_row_loss(dk.multinomial_logit(), X, y, RNG.normal(size=4))
        assert val == pytest.approx(np.log(3.0))

    def test_binary_logit_at_zero(self):
        th = np.zeros(2)
        x = np.array([1.0, -2.0])
        assert one_row_loss(dk.binary_logit(), x, 1.0, th) == pytest.approx(np.log(2.0))
        g = one_row_grad(dk.binary_logit(), x, 1.0, th)
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
            g = one_row_grad(atom, X, y, th)
            ref = oracle.fd_gradient(lambda t: one_row_loss(atom, X, y, t), th)
            scale = max(1.0, float(np.linalg.norm(ref)))
            assert np.linalg.norm(g - ref) / scale <= 1e-5, atom.kind
            checked += 1


def logit_batch(kind, rng, m=40, n=4, p=3):
    """(atom, features, observations, weights) with about a quarter of the weights 0."""
    if kind == model.MULTINOMIAL_LOGIT:
        F = rng.normal(size=(m, p, n))
        y = np.eye(p)[rng.integers(p, size=m)]
        atom = dk.multinomial_logit()
    else:
        F = rng.normal(size=(m, n))
        y = rng.integers(2, size=m).astype(float)
        atom = dk.binary_logit()
    w = np.where(rng.random(m) < 0.25, 0.0, rng.uniform(0.1, 2.0, size=m))
    return atom, F, y, w


@pytest.mark.parametrize("kind", [model.BINARY_LOGIT, model.MULTINOMIAL_LOGIT])
class TestLogitValueGradHessian:
    def test_value_and_gradient_match_batch_forms(self, kind):
        rng = np.random.default_rng(41)
        atom, F, y, w = logit_batch(kind, rng)
        for _ in range(10):
            th = rng.normal(scale=2.0, size=F.shape[-1])
            value, grad, _ = model.value_grad_hessian(atom, F, y, th, w)
            assert value == float(w @ model.batch_losses(atom, F, y, th))
            np.testing.assert_array_equal(grad, model.weighted_loss_grad(atom, F, y, th, w))

    def test_hessian_matches_finite_differences_and_is_psd(self, kind):
        rng = np.random.default_rng(42)
        atom, F, y, w = logit_batch(kind, rng)
        n = F.shape[-1]
        for _ in range(10):
            th = rng.normal(scale=2.0, size=n)
            _, _, H = model.value_grad_hessian(atom, F, y, th, w)
            ref = np.array([
                oracle.fd_gradient(lambda t: model.weighted_loss_grad(atom, F, y, t, w)[j], th)
                for j in range(n)
            ])
            scale = max(1.0, float(np.abs(ref).max()))
            assert np.abs(H - ref).max() / scale <= 1e-6
            np.testing.assert_allclose(H, H.T, rtol=0.0, atol=1e-12 * scale)
            assert np.linalg.eigvalsh(H)[0] >= -1e-12 * scale

    def test_saturated_margins_stay_finite(self, kind):
        # margins in the hundreds: exp(-|t|) underflows to 0, and the value,
        # gradient and Hessian stay finite, nonnegative where they must
        rng = np.random.default_rng(43)
        atom, F, y, w = logit_batch(kind, rng)
        th = 400.0 * rng.normal(size=F.shape[-1])
        value, grad, H = model.value_grad_hessian(atom, F, y, th, w)
        assert np.isfinite(value) and value >= 0.0
        assert np.isfinite(grad).all() and np.isfinite(H).all()
        assert np.all(model.batch_losses(atom, F, y, th) >= 0.0)


def test_multinomial_hessian_psd_where_softmax_saturates():
    # features at scale 1e3 saturate the softmax; formed as the difference
    # of the Gram terms sum w X' diag(s) X and sum w X' s s' X, which cancel,
    # H came out indefinite on about one draw in six
    rng = np.random.default_rng(2000)
    for _ in range(300):
        n, p, m = int(rng.integers(2, 5)), int(rng.integers(2, 4)), int(rng.integers(5, 40))
        F = 1e3 * rng.normal(size=(m, p, n))
        y = np.eye(p)[rng.integers(p, size=m)]
        _, _, H = model.value_grad_hessian(dk.multinomial_logit(), F, y, rng.normal(size=n), rng.uniform(size=m))
        eigenvalues = np.linalg.eigvalsh(H)
        assert eigenvalues[0] >= -1e-12 * eigenvalues[-1]


@pytest.mark.parametrize("atom", [dk.square_regression(), dk.squared_distance(), dk.huber(0.7),
                                  dk.lp_regression(1.0), pytest.param(dk.huber(np.inf), id="huber_inf")],
                         ids=lambda a: a.kind)
class TestModelMatrices:
    """value_grad_hessian of the losses whose model matrix is not a logit Hessian."""

    @staticmethod
    def batch(rng, atom, m=40, n=3):
        """(features, observations, weights, theta); a finite huber batch has a
        quarter of its rows on the kink |u| = delta exactly."""
        F = rng.normal(size=(m, n))
        y = F @ rng.normal(size=n) + rng.normal(size=m)
        w = np.where(rng.random(m) < 0.25, 0.0, rng.uniform(0.1, 2.0, size=m))
        th = rng.normal(size=n)
        if atom.kind == model.HUBER and np.isfinite(atom.delta):
            # margins t near +-delta: y = t -+ delta and u = t - y are then exact
            d, kink = atom.delta, slice(0, m // 4)
            F[kink] *= (np.where(np.arange(m // 4) % 2, -d, d) / (F[kink] @ th))[:, None]
            t = (F @ th)[kink]
            y[kink] = t - np.sign(t) * d
            assert np.count_nonzero(np.abs(F @ th - y) == d) == m // 4
        return F, y, w, th

    def test_value_and_gradient_match_batch_forms(self, atom):
        rng = np.random.default_rng(44)
        F, y, w, th = self.batch(rng, atom)
        value, grad, H = model.value_grad_hessian(atom, F, y, th, w)
        assert value == float(w @ model.batch_losses(atom, F, y, th))
        np.testing.assert_array_equal(grad, model.weighted_loss_grad(atom, F, y, th, w))
        np.testing.assert_allclose(H, H.T, rtol=0.0, atol=1e-12 * np.abs(H).max())
        assert np.linalg.eigvalsh(H)[0] >= -1e-12 * np.abs(H).max()

    def test_model_lies_above_the_loss(self, atom):
        # exact for the quadratic losses; for huber and lp the sum of the
        # quadratics that touch each loss at its residual (IRLS weights), so
        # value + g.d + d'Hd/2 bounds the weighted loss at theta + d
        rng = np.random.default_rng(45)
        F, y, w, th = self.batch(rng, atom)
        value, grad, H = model.value_grad_hessian(atom, F, y, th, w)
        quadratic = atom.kind in (model.SQUARE_REGRESSION, model.SQUARED_DISTANCE) or atom.delta == np.inf
        for scale in (1e-3, 0.1, 1.0, 10.0):
            for _ in range(20):
                d = scale * rng.normal(size=3)
                model_value = value + grad @ d + 0.5 * d @ H @ d
                loss = float(w @ model.batch_losses(atom, F, y, th + d))
                tol = 1e-12 * max(1.0, abs(loss))
                assert loss <= model_value + tol
                if quadratic:
                    assert loss == pytest.approx(model_value, rel=1e-12, abs=1e-12)


class TestConvexity:
    @pytest.mark.parametrize("atom,n", ALL_LOSSES + [(dk.multinomial_logit(), 3)],
                             ids=lambda a: getattr(a, "kind", str(a)))
    def test_midpoint_inequality(self, atom, n):
        rng = np.random.default_rng(99)
        for _ in range(100):
            X, y = sample_for(atom, n, rng)
            a = rng.normal(size=n)
            b = rng.normal(size=n)
            lhs = one_row_loss(atom, X, y, (a + b) / 2.0)
            rhs = (one_row_loss(atom, X, y, a) + one_row_loss(atom, X, y, b)) / 2.0
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
                    one_row_loss(dk.huber(0.7), X[i], y[i], thetas[k]))


class TestGroupedLossMatrix:
    # loss_matrix takes the margins of the factors that share one loss atom
    # from one product Theta F'; batch_losses takes each factor's own F theta
    VECTOR_LOSSES = [dk.square_regression(), dk.lp_regression(1.0), dk.lp_regression(3.0),
                     dk.huber(0.7), dk.binary_logit(), dk.squared_distance()]

    @staticmethod
    def per_factor(spec, data, thetas):
        return np.column_stack([
            model.batch_losses(spec.loss_per_factor[k], data.features, data.observations, thetas[k])
            for k in range(spec.K)])

    @staticmethod
    def data_for(atoms, m, n, rng):
        X = rng.normal(size=(m, n))
        binary = any(a.kind == model.BINARY_LOGIT for a in atoms)
        y = rng.integers(2, size=m).astype(float) if binary else rng.normal(size=m) * 3.0
        return dk.dataset(X, y)

    @pytest.mark.parametrize("atom", VECTOR_LOSSES, ids=lambda a: f"{a.kind}-{a.order}-{a.delta}")
    def test_shared_loss_matches_batch_losses(self, atom):
        rng = np.random.default_rng(31)
        m, n, K = 257, 4, 3
        data = self.data_for([atom], m, n, rng)
        spec = dk.shared_spec(K=K, n=n, loss=atom)
        thetas = [rng.normal(size=n) * s for s in (0.5, 2.0, 8.0)]
        R = dk.loss_matrix(spec, data, thetas)
        assert R.shape == (m, K) and R.flags.f_contiguous
        ref = self.per_factor(spec, data, thetas)
        assert np.allclose(R, ref, rtol=1e-12, atol=0.0)

    def test_mixed_losses_match_batch_losses(self):
        # two huber deltas are two atoms: two groups, each one product
        rng = np.random.default_rng(32)
        atoms = (dk.huber(0.5), dk.square_regression(), dk.huber(2.0), dk.lp_regression(1.0),
                 dk.square_regression(), dk.squared_distance(), dk.huber(0.5))
        m, n = 190, 3
        data = self.data_for(atoms, m, n, rng)
        spec = dk.ModelSpec(K=len(atoms), n=n, loss_per_factor=atoms,
                            constraints_per_factor=((),) * len(atoms))
        thetas = [rng.normal(size=n) for _ in atoms]
        R = dk.loss_matrix(spec, data, thetas)
        assert R.flags.f_contiguous
        assert np.allclose(R, self.per_factor(spec, data, thetas), rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("n", [1, 2, 7, 8, 9, 33])
    def test_squared_distance_stack_is_batch_losses_bit_for_bit(self, n):
        # the points F + y are built once per call, and each factor's row of
        # squares is summed as batch_losses sums it, below, at and above the
        # 8-wide blocks of numpy's pairwise sum
        rng = np.random.default_rng(35 + n)
        m, K = 131, 4
        atoms = (dk.squared_distance(), dk.square_regression(), dk.squared_distance(), dk.squared_distance())
        data = dk.dataset(rng.normal(size=(m, n)) * 7.0, rng.normal(size=m))
        spec = dk.ModelSpec(K=K, n=n, loss_per_factor=atoms, constraints_per_factor=((),) * K)
        thetas = [rng.normal(size=n) * s for s in (0.1, 1.0, 3.0, 30.0)]
        R = dk.loss_matrix(spec, data, thetas)
        assert R.flags.f_contiguous
        assert np.array_equal(R, self.per_factor(spec, data, thetas))

    def test_matrix_features_match_batch_losses(self):
        rng = np.random.default_rng(33)
        m, p, n, K = 40, 4, 3, 3
        X = rng.normal(size=(m, p, n))
        Y = np.eye(p)[rng.integers(p, size=m)]
        data = dk.dataset(X, Y)
        spec = dk.shared_spec(K=K, n=n, loss=dk.multinomial_logit())
        thetas = [rng.normal(size=n) for _ in range(K)]
        R = dk.loss_matrix(spec, data, thetas)
        assert R.flags.f_contiguous
        assert np.array_equal(R, self.per_factor(spec, data, thetas))

    def test_lp_floor_per_factor(self):
        # the residuals of the two lp factors differ in scale by 1e6, so a
        # floor shared by the group would move the small factor's curvatures:
        # each row of the product gets its own
        rng = np.random.default_rng(34)
        m, n = 60, 3
        X = rng.normal(size=(m, n))
        y = np.zeros(m)
        atom = dk.lp_regression(1.0)
        thetas = [rng.normal(size=n) * 1e-3, rng.normal(size=n) * 1e3]
        margins = np.array(thetas) @ X.T
        for k, theta in enumerate(thetas):
            grouped = model._margin_pieces(atom, margins[k], y)
            alone = model._pieces(atom, X, y, theta)
            for a, b in zip(grouped, alone):
                assert np.allclose(a, b, rtol=1e-12, atol=0.0)
        spec = dk.shared_spec(K=2, n=n, loss=atom)
        R = dk.loss_matrix(spec, dk.dataset(X, y), thetas)
        assert np.allclose(R, self.per_factor(spec, dk.dataset(X, y), thetas), rtol=1e-12, atol=0.0)


# the per-factor squared distances of loss_matrix before the factor-major
# evaluator, kept verbatim: each factor's own difference to the points F + y,
# its squares summed along each point's row
def previous_squared_distances(F, y, thetas) -> np.ndarray:
    points = F + y[:, None]
    Rt = np.empty((len(thetas), F.shape[0]))
    for k in range(len(thetas)):
        diff = np.asarray(thetas[k], dtype=float) - points
        Rt[k] = (diff * diff).sum(axis=1)
    return Rt


class TestSquaredDistances:
    # loss_matrix (all squared-distance factors at once) and batch_losses (one
    # centre) take their squared distances from model._squared_distances
    ATOMS = (dk.huber(0.5), dk.squared_distance(), dk.square_regression(), dk.squared_distance(),
             dk.squared_distance(), dk.lp_regression(1.0))
    DISTANCE = [1, 3, 4]

    @staticmethod
    def draws(n, order, seed, m=97):
        rng = np.random.default_rng(seed)
        F = np.asarray(rng.normal(size=(m, n)) * 7.0, order=order)
        assert F.flags[f"{order}_CONTIGUOUS"]
        thetas = [rng.normal(size=n) * s for s in (0.1, 1.0, 3.0, 30.0, 2.0, 0.5)]
        return F, rng.normal(size=m), thetas

    def paths(self, F, y, thetas):
        """(computed, previous) pairs of (g, m) blocks: the evaluator at g = 1
        and g = 4, batch_losses per centre, and loss_matrix on ATOMS."""
        n = F.shape[1]
        yield model._squared_distances(F, y, thetas[:1]), previous_squared_distances(F, y, thetas[:1])
        yield model._squared_distances(F, y, thetas[:4]), previous_squared_distances(F, y, thetas[:4])
        for theta in thetas:
            got = model.batch_losses(dk.squared_distance(), F, y, theta)
            yield got[None], previous_squared_distances(F, y, [theta])
        K = len(self.ATOMS)
        spec = dk.ModelSpec(K=K, n=n, loss_per_factor=self.ATOMS, constraints_per_factor=((),) * K)
        R = dk.loss_matrix(spec, dk.dataset(F, y), thetas)
        for k in set(range(K)) - set(self.DISTANCE):
            assert np.array_equal(R[:, k], model.batch_losses(self.ATOMS[k], F, y, thetas[k]))
        yield R.T[self.DISTANCE], previous_squared_distances(F, y, [thetas[k] for k in self.DISTANCE])

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("n", [1, 2])
    def test_previous_bytes(self, n, order):
        # numpy sums rows of n <= 7 left to right, as the column passes do
        F, y, thetas = self.draws(n, order, 50 + n)
        for got, ref in self.paths(F, y, thetas):
            assert got.shape == ref.shape and got.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("n", [3, 8, 9, 33])
    def test_previous_within_summation_rounding(self, n, order):
        # the squares are the same; two orders of summing n nonnegative terms
        # differ by at most n eps of the sum
        F, y, thetas = self.draws(n, order, 60 + n)
        for got, ref in self.paths(F, y, thetas):
            assert got.shape == ref.shape
            assert np.all(np.abs(got - ref) <= n * np.finfo(float).eps * ref)


class TestLossesOnly:
    """The losses-only path of _pieces and _margin_pieces, which loss_matrix and
    batch_losses take, against the losses of the full triple, bit for bit."""

    CASES = [
        pytest.param(dk.square_regression(), "normal", id="square_regression"),
        pytest.param(dk.huber(0.7), "normal", id="huber"),
        pytest.param(dk.huber(np.inf), "normal", id="huber_inf"),
        pytest.param(dk.lp_regression(1.0), "normal", id="lp"),
        pytest.param(dk.lp_regression(3.0), "zero_residuals", id="lp_zero_residuals"),
        pytest.param(dk.binary_logit(), "normal", id="binary_logit"),
        pytest.param(dk.multinomial_logit(), "normal", id="multinomial_logit"),
    ]

    @pytest.mark.parametrize("atom, residuals", CASES)
    def test_equals_full_triple(self, atom, residuals):
        rng = np.random.default_rng(41)
        m, n, p = 200, 4, 3
        theta = rng.normal(size=n) * 3.0  # saturated logit margins too
        if atom.kind == model.MULTINOMIAL_LOGIT:
            F = rng.normal(size=(m, p, n))
            y = np.eye(p)[rng.integers(p, size=m)]
        else:
            F = rng.normal(size=(m, n))
            if atom.kind == model.BINARY_LOGIT:
                y = rng.integers(2, size=m).astype(float)
            elif residuals == "zero_residuals":
                y = F @ theta
            else:
                y = rng.normal(size=m) * 2.0
        alone = model._pieces(atom, F, y, theta, losses_only=True)
        assert np.array_equal(alone, model._pieces(atom, F, y, theta)[0])
        assert np.array_equal(alone, model.batch_losses(atom, F, y, theta))
        if atom.kind != model.MULTINOMIAL_LOGIT:
            t = F @ theta
            margin = model._margin_pieces(atom, t, y, losses_only=True)
            assert np.array_equal(margin, model._margin_pieces(atom, t, y)[0])
        if residuals == "zero_residuals":
            assert not alone.any()


def kl_reference(u, v) -> float:
    """Bregman KL sum_i (u_i log(u_i/v_i) - u_i + v_i) with 0 log 0 = 0, entry by entry."""
    total = 0.0
    for ui, vi in zip(np.ravel(u), np.ravel(v)):
        if ui > 0.0:
            if vi <= 0.0:
                return np.inf  # mass where the reference has none
            total += ui * np.log(ui / vi)
        total += vi - ui
    return total


class TestKl:
    # the chain value of two rows is the KL divergence of the first from the second
    def test_zero_on_equal(self):
        U = np.array([[0.2, 0.8], [0.2, 0.8]])
        assert model.kl_chain_value(U) == pytest.approx(0.0, abs=1e-15)

    def test_handles_zero_entries(self):
        Z = np.array([[1.0, 0.0], [0.5, 0.5]])
        # 1*log(2) - 1 + 0.5 + (0 - 0 + 0.5)
        assert model.kl_chain_value(Z) == pytest.approx(np.log(2.0))

    def test_nonnegative(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            u = rng.dirichlet(np.ones(3))
            v = rng.dirichlet(np.ones(3))
            assert model.kl_chain_value(np.vstack([u, v])) >= -1e-12

    def test_disjoint_support_infinite(self):
        assert model.kl_chain_value(np.array([[1.0, 0.0], [0.0, 1.0]])) == np.inf

    def test_chain_value(self):
        Z = np.array([[0.9, 0.1], [0.9, 0.1], [0.2, 0.8]])
        # equal consecutive rows contribute nothing; only the switch counts
        val = model.kl_chain_value(Z)
        byhand = kl_reference(Z[1], Z[2])
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
            byhand = sum(kl_reference(Z[t], Z[t + 1]) for t in range(m - 1))
            assert model.kl_chain_value(Z) == pytest.approx(byhand, rel=1e-12, abs=1e-14)
            # the engine keeps Z in Fortran order
            assert model.kl_chain_value(np.asfortranarray(Z)) == pytest.approx(byhand, rel=1e-12, abs=1e-14)

    def test_chain_value_infinite_on_missing_mass(self):
        Z = np.array([[0.5, 0.5], [0.6, 0.4], [1.0, 0.0], [0.5, 0.5]])
        assert model.kl_chain_value(Z) == np.inf
        # a zero entry may be followed by mass, not preceded by it
        assert model.kl_chain_value(Z[2:]) == pytest.approx(kl_reference(Z[2], Z[3]))


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

    def test_shared_empty_set_probed_once(self, monkeypatch):
        # shared_spec hands all K factors one constraint tuple: one probe, and
        # still one violation per factor
        probes = []
        real = model._feasible_set_nonempty
        monkeypatch.setattr(model, "_feasible_set_nonempty",
                            lambda atoms, n: probes.append(atoms) or real(atoms, n))
        spec = dk.shared_spec(
            K=4, n=2, loss=dk.squared_distance(),
            constraints=(dk.polyhedron(np.array([[1.0, 0.0], [-1.0, 0.0]]), np.array([-1.0, -1.0])),))
        rep = dk.validate(spec, self._data())
        assert len(probes) == 1
        assert [(v.path, v.message) for v in rep.violations] == [
            (f"constraints_per_factor[{k}]", "empty feasible set") for k in range(4)]

    def test_rejects_polyhedron_outside_ball(self):
        # x_0 >= 2 misses the unit ball, and x_0 >= 1 touches it at (1, 0):
        # the ball intersected with polyhedra is projected onto exactly, and
        # its search finds no point of an empty set
        for bound, ok in [(2.0, False), (1.0, True)]:
            spec = dk.shared_spec(
                K=1, n=2, loss=dk.square_regression(),
                constraints=(dk.polyhedron(np.array([[-1.0, 0.0]]), np.array([-bound])), dk.norm_ball2(1.0)))
            rep = dk.validate(spec, self._data())
            assert rep.ok == ok
            assert any("empty" in v.message for v in rep.violations) != ok

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

    @pytest.mark.parametrize("lo, hi", [
        ([-np.inf, -1.0, -np.inf], [-1.0, 1.0, -np.inf]),
        ([0.0, np.inf, 0.0], [1.0, np.inf, 1.0]),
    ], ids=["both_neg_inf", "both_pos_inf"])
    def test_rejects_box_empty_at_infinity(self, lo, hi):
        # lo <= hi holds, but no number lies in [-inf, -inf]: the fit ended
        # in EngineFailure on non-finite parameters
        spec = dk.shared_spec(K=1, n=3, loss=dk.huber(1.0), constraints=(dk.box(lo, hi),))
        data = self._data(n=3)
        rep = dk.validate(spec, data)
        assert [v.path for v in rep.violations] == ["constraints_per_factor[0][0]"]
        with pytest.raises(ValueError, match=re.escape("constraints_per_factor[0][0]")):
            dk.fit(spec, data)

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

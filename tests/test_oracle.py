import numpy as np
import pytest

import dlfmkit as dk
from dlfmkit import oracle


def test_fd_gradient_quadratic():
    # f(x) = x0^2 + 3 x1, gradient (2 x0, 3)
    fun = lambda x: x[0] ** 2 + 3.0 * x[1]
    g = oracle.fd_gradient(fun, np.array([2.0, -1.0]))
    assert np.allclose(g, [4.0, 3.0], atol=1e-7)


def test_fd_gradient_matches_analytic_exp():
    fun = lambda x: float(np.exp(x).sum())
    pt = np.array([0.3, -0.2, 1.1])
    g = oracle.fd_gradient(fun, pt)
    assert np.allclose(g, np.exp(pt), rtol=1e-7)


def test_brute_force_line_clusters():
    # points 0, 1, 10, 11; two centers. Optimal split {0,1} | {10,11}
    # leaves within-cluster squared distance 0.5 + 0.5 = 1.0 total.
    pts = np.array([[0.0], [1.0], [10.0], [11.0]])
    data = dk.dataset(pts, np.zeros(4))
    spec = dk.shared_spec(K=2, n=1, loss=dk.squared_distance(), constraints=())
    res = dk.brute_force_fit(spec, data)
    assert res.optimum == pytest.approx(1.0, abs=1e-12)
    first = res.best_assignment[0]
    assert list(res.best_assignment) == [first, first, 3 - first, 3 - first]
    centers = sorted(float(t[0]) for t in res.thetas_at_optimum)
    assert centers == pytest.approx([0.5, 10.5], abs=1e-12)


def test_brute_force_regression_interpolates():
    # two samples per factor, one unknown each: exact fit has zero loss
    X = np.array([[1.0], [2.0], [1.0], [3.0]])
    y = np.array([2.0, 4.0, -1.0, -3.0])
    data = dk.dataset(X, y)
    spec = dk.shared_spec(K=2, n=1, loss=dk.square_regression(), constraints=())
    res = dk.brute_force_fit(spec, data)
    assert res.optimum == pytest.approx(0.0, abs=1e-18)
    slopes = sorted(float(t[0]) for t in res.thetas_at_optimum)
    assert slopes == pytest.approx([-1.0, 2.0], abs=1e-9)


def test_brute_force_respects_constraints():
    # centers forced nonnegative: all four points cluster as before but the
    # negative-side center saturates at zero
    pts = np.array([[-2.0], [-1.0], [5.0]])
    data = dk.dataset(pts, np.zeros(3))
    spec = dk.shared_spec(K=2, n=1, loss=dk.squared_distance(),
                          constraints=(dk.nonneg(),))
    res = dk.brute_force_fit(spec, data)
    # assignment {-2,-1} vs {5}: center clamps to 0, loss 4 + 1 = 5
    assert res.optimum == pytest.approx(5.0, abs=1e-8)


def nonneg_regression_case(seed):
    """Two nonnegative regressions on R^2, m=8: the second true slope is negative."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(8, 2))
    labels = rng.integers(2, size=8)
    y = np.where(labels == 0, X @ np.array([1.0, 2.0]), X @ np.array([-1.0, 1.0]))
    spec = dk.shared_spec(K=2, n=2, loss=dk.square_regression(), constraints=(dk.nonneg(),),
                          controls=dk.SolverControls(restarts=40, seed=seed))
    return spec, dk.dataset(X, y + rng.normal(0.0, 0.1, size=8))


@pytest.mark.parametrize("seed", range(3))
def test_brute_force_nonneg_regression_bounds_fit(seed):
    # a factor's subset of one row gives a singular Gram matrix, so its QP
    # runs the proximal-point loop of qp_solve; no restart of fit may end
    # below the enumerated optimum, and the best reaches it
    spec, data = nonneg_regression_case(seed)
    ref = dk.brute_force_fit(spec, data)
    assert all(np.all(t >= -1e-9) for t in ref.thetas_at_optimum)
    final = dk.fit(spec, data).objective_trace[-1][2]
    assert final >= ref.optimum - 1e-9 * max(1.0, ref.optimum)
    assert final == pytest.approx(ref.optimum, rel=1e-7, abs=1e-9)


def test_brute_force_budget():
    data = dk.dataset(np.zeros((25, 1)), np.zeros(25))
    spec = dk.shared_spec(K=4, n=1, loss=dk.squared_distance(), constraints=())
    with pytest.raises(dk.InstanceTooLarge):
        dk.brute_force_fit(spec, data)


def test_brute_force_rejects_regularized():
    data = dk.dataset(np.zeros((3, 1)), np.zeros(3))
    spec = dk.shared_spec(K=2, n=1, loss=dk.squared_distance(), constraints=(),
                          p_regularizers=(dk.l1(0.1),))
    with pytest.raises(ValueError):
        dk.brute_force_fit(spec, data)


def test_active_set_equality_qp():
    # min x^2 + y^2 - 2x  s.t.  x + y = 1  ->  (1, 0)
    prob = dk.qp_problem(
        P=2.0 * np.eye(2),
        q=np.array([-2.0, 0.0]),
        A=np.array([[1.0, 1.0]]),
        lo=np.array([1.0]),
        hi=np.array([1.0]),
    )
    x = dk.qp_active_set_oracle(prob)
    assert np.allclose(x, [1.0, 0.0], atol=1e-10)


def test_active_set_inactive_bounds():
    # unconstrained minimum (1.5, -0.5) sits inside wide bounds
    prob = dk.qp_problem(
        P=2.0 * np.eye(2),
        q=np.array([-3.0, 1.0]),
        A=np.eye(2),
        lo=np.array([-10.0, -10.0]),
        hi=np.array([10.0, 10.0]),
    )
    x = dk.qp_active_set_oracle(prob)
    assert np.allclose(x, [1.5, -0.5], atol=1e-10)


def test_active_set_active_bound():
    # min (x-3)^2 with x <= 1 pins x at 1
    prob = dk.qp_problem(
        P=np.array([[2.0]]),
        q=np.array([-6.0]),
        A=np.array([[1.0]]),
        lo=np.array([-np.inf]),
        hi=np.array([1.0]),
    )
    x = dk.qp_active_set_oracle(prob)
    assert np.allclose(x, [1.0], atol=1e-12)


def test_active_set_row_limit():
    prob = dk.qp_problem(P=np.eye(2), q=np.zeros(2), A=np.ones((9, 2)),
                         lo=np.zeros(9), hi=np.ones(9))
    with pytest.raises(ValueError):
        dk.qp_active_set_oracle(prob)


def test_active_set_duplicated_equality_rows():
    # two copies of x0 = 1: every candidate pinning both was singular
    prob = dk.qp_problem(P=np.eye(2), q=np.array([-1.0, -1.0]),
                         A=np.array([[1.0, 0.0], [1.0, 0.0]]),
                         lo=np.ones(2), hi=np.ones(2))
    x = dk.qp_active_set_oracle(prob)
    assert np.allclose(x, [1.0, 1.0], atol=1e-12)


def test_distinct_rows_groups_identical_rows():
    A = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 0.0]])
    lo, hi = np.zeros(4), np.array([1.0, 1.0, 1.0, 2.0])
    keep, inverse = oracle.distinct_rows(A, lo, hi)
    assert np.array_equal(keep[inverse], [0, 1, 0, 3])
    assert oracle.distinct_rows(A[:2], lo[:2], hi[:2]) is None

import numpy as np
import pytest

import dlfmkit as dk
from dlfmkit import kernels, oracle
from two_sided import two_sided_qp


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
    # a factor's subset of one row gives a singular Gram matrix: the oracle
    # enumerates the active sets of its QP, and fit damps its Newton model;
    # no restart of fit may end below the enumerated optimum, and the best
    # reaches it
    spec, data = nonneg_regression_case(seed)
    ref = dk.brute_force_fit(spec, data)
    assert all(np.all(t >= -1e-9) for t in ref.thetas_at_optimum)
    final = dk.fit(spec, data).objective_trace[-1][2]
    assert final >= ref.optimum - 1e-9 * max(1.0, ref.optimum)
    assert final == pytest.approx(ref.optimum, rel=1e-7, abs=1e-9)


def test_brute_force_makes_no_qp_solve_call(monkeypatch):
    # the oracle shares no code with the kernels of the Newton model QPs
    # that it checks (_metric_qp, which qp_solve runs, and regularized_qp):
    # constrained square regression enumerates active sets
    calls = []
    for name in ("_metric_qp", "regularized_qp"):
        real = getattr(kernels, name)
        monkeypatch.setattr(kernels, name, lambda *a, real=real: calls.append(1) or real(*a))
    spec, data = nonneg_regression_case(0)
    dk.brute_force_fit(spec, data)
    assert calls == []


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
    prob = two_sided_qp(
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
    prob = two_sided_qp(
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
        b=np.array([1.0]),
    )
    x = dk.qp_active_set_oracle(prob)
    assert np.allclose(x, [1.0], atol=1e-12)


def test_active_set_row_limit():
    prob = dk.qp_problem(P=np.eye(2), q=np.zeros(2), A=np.ones((17, 2)), b=np.ones(17))
    with pytest.raises(ValueError):
        dk.qp_active_set_oracle(prob)


def test_active_set_duplicated_equality_rows():
    # two copies of x0 = 1: every candidate pinning both was singular
    prob = two_sided_qp(P=np.eye(2), q=np.array([-1.0, -1.0]),
                        A=np.array([[1.0, 0.0], [1.0, 0.0]]),
                        lo=np.ones(2), hi=np.ones(2))
    x = dk.qp_active_set_oracle(prob)
    assert np.allclose(x, [1.0, 1.0], atol=1e-12)


def test_active_set_more_equality_rows_than_n():
    # x0 = 1, x1 = 1 and x0 + x1 = 2 on R^2: three consistent equality rows.
    # Pinning all of them at once gives a singular KKT system; a subset of
    # n = 2 rows carries the minimizer
    A = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    prob = two_sided_qp(P=np.diag([1.0, 2.0]), q=np.array([3.0, -1.0]), A=A,
                        lo=np.array([1.0, 1.0, 2.0]), hi=np.array([1.0, 1.0, 2.0]))
    x = dk.qp_active_set_oracle(prob)
    assert np.allclose(x, [1.0, 1.0], atol=1e-12)
    assert np.allclose(dk.qp_solve(prob).x, x, atol=1e-12)


def test_active_set_with_large_p_matches_qp_solve():
    # P with eigenvalues from 1 to 3.5e8: multipliers and the rounding of
    # the pinned rows grow with P, and tests absolute at 1e-9 rejected the
    # minimizer's active set or accepted a point outside an equality row
    rng = np.random.default_rng(3)
    for _ in range(40):
        n = int(rng.integers(2, 5))
        Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        P = (Q * np.logspace(0.0, np.log10(3.5e8), n)) @ Q.T
        q = P @ rng.normal(0.0, 3.0, size=n)
        A = rng.normal(size=(3, n))
        mid = A @ rng.normal(size=n)
        lo, hi = mid - rng.uniform(0.0, 1.0, size=3), mid + rng.uniform(0.0, 1.0, size=3)
        lo[0] = hi[0] = mid[0]  # one equality row, through the feasible anchor
        prob = two_sided_qp(P, q, A, lo, hi)
        x = dk.qp_active_set_oracle(prob)
        sol = dk.qp_solve(prob)

        def value(y):
            return 0.5 * y @ P @ y + q @ y

        size = float(np.abs(P).max() * np.abs(x).max() ** 2 + np.abs(q) @ np.abs(x))
        assert abs(value(x) - value(sol.x)) <= 1e-9 * max(1.0, size)
        assert float((prob.A @ x - prob.b).max()) <= 1e-9 * max(1.0, float(np.abs(x).max()))
        assert np.abs(x - sol.x).max() <= 1e-6 * max(1.0, np.abs(x).max())


def test_active_set_skips_numerically_singular_systems():
    # P of rank 1 on R^3 and one two-sided row: every KKT system is singular,
    # yet P alone rounds to a nonzero determinant (-9.5e-34). Solving it gave
    # a point 35.6 outside the row at objective -4.8e17; no candidate is
    # left, and the oracle says so. qp_solve takes a definite P only
    P = np.array([[0.6153573562352205, -0.3927354160565128, -0.28714381995323923],
                  [-0.3927354160565128, 0.25065290186621825, 0.1832618826356971],
                  [-0.28714381995323923, 0.1832618826356971, 0.13398974189856136]])
    q = np.array([-0.6407520928138966, 0.40894292919471537, 0.29899375006948864])
    a = np.array([0.8142084964935903, -0.40593445274061396, 0.23015071764451447])
    prob = dk.qp_problem(P=P, q=q, A=np.vstack([a, -a]),
                         b=np.array([0.9704637312201184, 0.9850434691900419]))
    with pytest.raises(RuntimeError, match="no KKT point"):
        dk.qp_active_set_oracle(prob)
    with pytest.raises(kernels.SingularQp):
        dk.qp_solve(prob)

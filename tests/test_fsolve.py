import itertools
import math

import numpy as np
import pytest

import dlfmkit as dk
from dlfmkit import fsolve, model


class TestPlain:
    def test_rowwise_argmin(self):
        R = np.array([[1.0, 2.0], [3.0, 0.0]])
        Z = dk.solve_f_plain(R)
        assert np.array_equal(Z, np.eye(2))

    def test_tie_takes_first(self):
        R = np.array([[5.0, 5.0, 7.0]])
        Z = dk.solve_f_plain(R)
        assert np.array_equal(Z, [[1.0, 0.0, 0.0]])

    def test_beats_every_assignment(self):
        # exhaustive check on a 5 x 3 cost matrix
        rng = np.random.default_rng(0)
        R = rng.normal(size=(5, 3))
        Z = dk.solve_f_plain(R)
        best = (Z * R).sum()
        for combo in itertools.product(range(3), repeat=5):
            val = sum(R[i, c] for i, c in enumerate(combo))
            assert best <= val + 1e-12

    def test_optimal_over_soft_matrices(self):
        # the linear program over row-stochastic matrices is minimized at a vertex
        rng = np.random.default_rng(1)
        R = rng.normal(size=(6, 3))
        best = (dk.solve_f_plain(R) * R).sum()
        for _ in range(1000):
            S = rng.dirichlet(np.ones(3), size=6)
            assert best <= (S * R).sum() + 1e-12


    def test_nan_row_takes_numpy_choice(self):
        # a row with a NaN attains no minimum; it is not dropped, and takes
        # np.argmin's answer, its first NaN, as harden takes np.argmax's
        R = np.array([[np.nan, 1.0, 0.0], [2.0, np.nan, np.nan], [1.0, 0.0, 0.0]])
        Z = dk.solve_f_plain(R)
        assert np.array_equal(Z, np.eye(3)[np.argmin(R, axis=1)])
        assert np.array_equal(dk.harden(R), np.argmax(R, axis=1) + 1)

    def test_fortran_order_for_either_input(self):
        rng = np.random.default_rng(2)
        R = rng.normal(size=(7, 3))
        for given in (R, np.asfortranarray(R)):
            Z = dk.solve_f_plain(given)
            assert Z.flags.f_contiguous
            assert np.array_equal(Z, np.eye(3)[np.argmin(R, axis=1)])


class TestKlChain:
    def test_zero_weight_matches_plain(self):
        rng = np.random.default_rng(3)
        R = rng.normal(size=(8, 3))
        Z0 = np.full((8, 3), 1.0 / 3.0)
        Z, converged = dk.solve_f_kl(R, 0.0, Z0)
        assert converged
        assert np.array_equal(dk.harden(Z), dk.harden(dk.solve_f_plain(R)))

    def test_huge_weight_forces_consensus(self):
        rng = np.random.default_rng(4)
        R = rng.normal(size=(10, 2))
        Z0 = rng.dirichlet(np.ones(2), size=10)
        Z, _ = dk.solve_f_kl(R, 1e6, Z0)
        assert model.kl_chain_value(Z) <= 1e-6

    def test_matches_grid_small(self):
        # m=3, K=2: the matrix is three scalars after the simplex reduction
        rng = np.random.default_rng(5)
        R = rng.normal(size=(3, 2))
        lam = 0.8

        def total(p):
            Z = np.column_stack([p, 1.0 - np.asarray(p)])
            return float((Z * R).sum()) + lam * model.kl_chain_value(Z)

        grid = np.linspace(1e-9, 1.0 - 1e-9, 401)
        best = min(
            total((a, b, c))
            for a in grid[::8] for b in grid[::8] for c in grid[::8]
        )
        Z0 = np.full((3, 2), 0.5)
        Z, converged = dk.solve_f_kl(R, lam, Z0)
        got = total(Z[:, 0])
        assert converged
        assert got <= best + 1e-3

    def test_monotone_descent(self):
        rng = np.random.default_rng(6)
        R = rng.normal(size=(12, 3))
        lam = 0.5
        Z0 = rng.dirichlet(np.ones(3), size=12)

        def total(Z):
            return float((Z * R).sum()) + lam * model.kl_chain_value(Z)

        Z, _ = dk.solve_f_kl(R, lam, Z0)
        assert total(Z) <= total(Z0) + 1e-10

    def test_rows_stay_stochastic(self):
        rng = np.random.default_rng(7)
        R = rng.normal(size=(15, 4)) * 3
        Z0 = rng.dirichlet(np.ones(4), size=15)
        Z, _ = dk.solve_f_kl(R, 2.0, Z0)
        assert np.all(Z > 0)
        assert np.allclose(Z.sum(axis=1), 1.0, atol=1e-12)

    def test_smoothing_carries_cost_across_switch(self):
        # middle sample slightly prefers factor 2; strong chain keeps it at 1
        R = np.array([[0.0, 10.0], [0.6, 0.4], [0.0, 10.0]])
        Z0 = np.full((3, 2), 0.5)
        Z, _ = dk.solve_f_kl(R, 5.0, Z0)
        assert dk.harden(Z)[1] == 1

    def test_large_costs_no_overflow(self):
        R = np.array([[1e8, 0.0], [0.0, 1e8], [1e8, 0.0]])
        Z0 = np.full((3, 2), 0.5)
        Z, _ = dk.solve_f_kl(R, 1.0, Z0)
        assert np.all(np.isfinite(Z))

    @pytest.mark.parametrize("K, scale", [(2, 1.0), (3, 1.0), (4, 1.0), (3, 1e3)])
    def test_objective_never_rises_with_max_iter(self, K, scale):
        # the kernel accepts on its log-domain value; the objective recomputed
        # by model.kl_chain_value must not rise from one iteration to the next.
        # At R scale 1e3 the losing factors sit at the 1e-12 floor.
        rng = np.random.default_rng(K)
        m, lam = 30, 0.7
        R = rng.normal(size=(m, K)) * scale
        Z0 = rng.dirichlet(np.ones(K), size=m)

        def total(Z):
            return float((Z * R).sum()) + lam * model.kl_chain_value(Z)

        prev = total(Z0)
        for N in range(1, 61):
            Z, _ = dk.solve_f_kl(R, lam, Z0, max_iter=N)
            cur = total(Z)
            assert cur <= prev + 1e-12 * max(1.0, abs(prev))
            prev = cur
        assert (Z.min() < 1.01 * fsolve._FLOOR) == (scale > 1.0)

    @pytest.mark.parametrize("m", [1, 2])
    def test_short_chains_stay_stochastic(self, m):
        # m = 1 has no pair, and m = 2 one pair per factor beside the K - 1
        # cut pairs of the flat layout
        rng = np.random.default_rng(8 + m)
        R = rng.normal(size=(m, 3))
        Z0 = rng.dirichlet(np.ones(3), size=m)
        Z, _ = dk.solve_f_kl(R, 1.0, Z0)
        assert Z.shape == (m, 3)
        assert np.all(np.isfinite(Z)) and np.all(Z > 0)
        assert np.allclose(Z.sum(axis=1), 1.0, atol=1e-12)
        if m == 1:
            assert dk.harden(Z)[0] == np.argmin(R[0]) + 1


def reference_solve_f_kl(R, lam, Z_init, tol, max_iter):
    """The kernel's mirror descent on the (m, K) layout, written as a plain loop.

    Its elementwise arithmetic runs in the kernel's order; only the
    reductions (the objective's sums) differ.
    """
    log_floor = math.log(1e-12)

    def evaluate(W):
        E = np.exp(W)
        s = E.sum(axis=1)
        Z = E / s[:, None]
        log_s = np.log(s)
        chain = float((Z[:-1] * (W[:-1] - W[1:])).sum()) - (log_s[0] - log_s[-1])
        return Z, W - log_s[:, None], float((Z * R).sum()) + lam * chain

    Z, L, val = evaluate(np.log(np.maximum(Z_init, 1e-12)))
    step = 1.0
    for _ in range(max_iter):
        log_ratio = L[:-1] - L[1:]
        G = np.zeros_like(R)
        G[:-1] = lam * log_ratio
        G[1:] += lam * (1.0 - np.exp(log_ratio))
        G += R
        G = G - G.min(axis=1, keepdims=True)
        while step > 1e-18:
            cand, cand_L, cand_val = evaluate(np.maximum(G * (-step) + L, log_floor))
            if cand_val <= val:
                break
            step *= 0.5
        else:
            return Z, True
        drop = val - cand_val
        Z, L, val = cand, cand_L, cand_val
        if drop <= tol * max(1.0, abs(val)):
            return Z, True
        step = min(step * 2.0, 1.0)
    return Z, False


class TestKlLayout:
    def test_matches_row_layout_reference(self):
        rng = np.random.default_rng(10)
        for _ in range(40):
            m, K = int(rng.integers(2, 60)), int(rng.integers(2, 5))
            R = rng.normal(size=(m, K)) * rng.uniform(0.1, 5.0)
            lam = float(rng.uniform(0.05, 3.0))
            max_iter = int(rng.integers(1, 200))
            Z0 = rng.dirichlet(np.ones(K), size=m)
            Z, converged = dk.solve_f_kl(R, lam, Z0, tol=1e-9, max_iter=max_iter)
            Z_ref, conv_ref = reference_solve_f_kl(R, lam, Z0, 1e-9, max_iter)
            assert Z.shape == (m, K) and Z.flags.f_contiguous
            assert converged == conv_ref
            assert np.abs(Z - Z_ref).max() <= 1e-12


# the kernel before its buffers were made once per call, kept verbatim with
# its floor constants: the current kernel must match it byte for byte
_FLOOR = 1e-12
_LOG_FLOOR = math.log(_FLOOR)


def previous_solve_f_kl(
    R: np.ndarray,
    lam: float,
    Z_init: np.ndarray,
    tol: float = 1e-9,
    max_iter: int = 50000,
) -> tuple[np.ndarray, bool]:
    R = np.asarray(R, dtype=float)
    m, K = R.shape
    r = R.T.ravel()
    n = r.size
    # buffers: the iterate and the candidate (log z is kept for the
    # iterate only), exp(W), the differences, the gradient
    W = np.log(np.maximum(np.asarray(Z_init, dtype=float).T.ravel(), _FLOOR))
    W_cand, z, z_cand, L = np.empty(n), np.empty(n), np.empty(n), np.empty(n)
    E, D, G, s = np.empty(n), np.empty(n - 1), np.empty(n), np.empty(m)

    def evaluate(W, z):
        # z = exp(W) renormalized; returns (objective, log s)
        np.exp(W, out=E)
        np.add.reduce(E.reshape(K, m), axis=0, out=s)
        np.divide(E.reshape(K, m), s, out=z.reshape(K, m))
        log_s = np.log(s)
        np.subtract(W[:-1], W[1:], out=D)
        D[m - 1::m] = 0.0  # pairs (k, m-1) -> (k+1, 0)
        chain = float(z[:-1] @ D) - (log_s[0] - log_s[-1])
        return float(r @ z) + lam * chain, log_s

    val, log_s = evaluate(W, z)
    step = 1.0
    converged = False
    for _ in range(max_iter):
        np.subtract(W.reshape(K, m), log_s, out=L.reshape(K, m))
        np.subtract(L[:-1], L[1:], out=D)
        D[m - 1::m] = 0.0
        np.multiply(D, lam, out=G[:-1])
        G[-1] = 0.0
        G[1:] += lam * (1.0 - np.exp(D))
        G += r
        Gs = G.reshape(K, m)
        Gs -= Gs.min(axis=0)  # per-sample shifts cancel after renorm
        accepted = False
        while step > 1e-18:
            np.multiply(G, -step, out=W_cand)
            W_cand += L
            np.maximum(W_cand, _LOG_FLOOR, out=W_cand)
            cand_val, cand_log_s = evaluate(W_cand, z_cand)
            if cand_val <= val:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            converged = True
            break
        drop = val - cand_val
        W, W_cand, z, z_cand = W_cand, W, z_cand, z
        val, log_s = cand_val, cand_log_s
        if drop <= tol * max(1.0, abs(val)):
            converged = True
            break
        step = min(step * 2.0, 1.0)
    return z.reshape(K, m).T, converged


def kl_draws(seed, count):
    """Random F-problems (R, lam, Z_init, tol, max_iter) over the kernel's range.

    Every fourth draw has m in {1, 2, 3}, the others m up to 400; K runs
    through 1..5, tol through {0, 1e-9, 1e-6}, and R alternates C and
    Fortran order. lam spans 1e-3..1e3 and the cost scale 1e-2..1e4, both
    log-uniform, and half of the starts carry exact zeros.
    """
    rng = np.random.default_rng(seed)
    for j in range(count):
        m = (1, 2, 3)[j // 4 % 3] if j % 4 == 0 else int(np.exp(rng.uniform(np.log(4), np.log(400))))
        K = 1 + j % 5
        R = rng.normal(size=(m, K)) * 10.0 ** rng.uniform(-2, 4)
        if j % 2:
            R = np.asfortranarray(R)
        Z0 = np.asfortranarray(rng.dirichlet(np.ones(K), size=m))
        if rng.random() < 0.5:
            Z0[rng.random(Z0.shape) < 0.3] = 0.0
        yield R, float(10.0 ** rng.uniform(-3, 3)), Z0, (0.0, 1e-9, 1e-6)[j % 3], int(rng.integers(1, 301))


class TestKlBitIdentity:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_previous_kernel_bytes(self, seed):
        for R, lam, Z0, tol, max_iter in kl_draws(seed, 80):
            Z, converged = dk.solve_f_kl(R, lam, Z0, tol=tol, max_iter=max_iter)
            Z_ref, conv_ref = previous_solve_f_kl(R, lam, Z0, tol=tol, max_iter=max_iter)
            assert Z.shape == Z_ref.shape and Z.flags.f_contiguous
            assert Z.tobytes() == Z_ref.tobytes()
            assert converged == conv_ref


class TestHarden:
    def test_one_based_labels(self):
        Z = np.array([[0.9, 0.1], [0.2, 0.8]])
        assert dk.harden(Z).tolist() == [1, 2]

    def test_tie_takes_first(self):
        Z = np.array([[0.5, 0.5]])
        assert dk.harden(Z).tolist() == [1]

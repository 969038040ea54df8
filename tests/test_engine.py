import concurrent.futures
import os
import pickle
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import dlfmkit as dk
from dlfmkit import engine, experiments, kernels, psolve


def two_line_data(rng, m=30, noise=0.0):
    X = rng.normal(size=(m, 2))
    th = np.array([[1.0, -2.0], [-1.5, 0.5]])
    lab = rng.integers(0, 2, m)
    y = np.einsum("ij,ij->i", X, th[lab]) + noise * rng.normal(size=m)
    return dk.dataset(X, y), lab + 1


class TestSplitmix:
    def test_deterministic(self):
        assert dk.splitmix64(7, 3) == dk.splitmix64(7, 3)

    def test_streams_differ(self):
        seen = {dk.splitmix64(0, i) for i in range(100)}
        assert len(seen) == 100

    def test_seeds_differ(self):
        assert dk.splitmix64(1, 0) != dk.splitmix64(2, 0)


class TestInitFactors:
    def test_row_stochastic(self):
        rng = np.random.default_rng(0)
        Z = dk.init_factors(50, 4, rng)
        assert Z.shape == (50, 4)
        assert np.all(Z >= 0)
        assert np.allclose(Z.sum(axis=1), 1.0, atol=1e-12)


class TestFit:
    def test_single_factor_converges_fast(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(20, 2))
        y = rng.normal(size=20)
        data = dk.dataset(X, y)
        spec = dk.shared_spec(K=1, n=2, loss=dk.square_regression(), constraints=())
        res = dk.fit(spec, data)
        assert res.status == dk.GAP_CONVERGED
        assert res.iterations <= 2

    def test_noiseless_mixture_exact(self):
        rng = np.random.default_rng(2)
        data, truth = two_line_data(rng, m=40, noise=0.0)
        spec = dk.shared_spec(K=2, n=2, loss=dk.square_regression(), constraints=(),
                              controls=dk.SolverControls(restarts=20, seed=0))
        res = dk.fit(spec, data)
        assert res.objective_trace[-1][2] <= 1e-10
        flipped = 3 - res.labels
        agree = max((res.labels == truth).mean(), (flipped == truth).mean())
        assert agree == 1.0

    def test_matches_brute_force(self):
        rng = np.random.default_rng(3)
        data, _ = two_line_data(rng, m=9, noise=0.05)
        spec = dk.shared_spec(K=2, n=2, loss=dk.square_regression(), constraints=(),
                              controls=dk.SolverControls(restarts=30, seed=0))
        res = dk.fit(spec, data)
        ref = dk.brute_force_fit(spec, data)
        got = res.objective_trace[-1][2]
        assert got >= ref.optimum - 1e-9
        assert got <= ref.optimum + 1e-6 * max(1.0, abs(ref.optimum))

    def test_cluster_quartet(self):
        # four tight pairs at the corners of a square, K=4
        centers = np.array([[0.0, 0.0], [0.0, 4.0], [4.0, 0.0], [4.0, 4.0]])
        pts = np.repeat(centers, 2, axis=0)
        pts = pts + 0.05 * np.array([[1.0, 0.0], [-1.0, 0.0]] * 4)
        data = dk.dataset(pts, np.zeros(8))
        spec = dk.shared_spec(K=4, n=2, loss=dk.squared_distance(), constraints=(),
                              controls=dk.SolverControls(restarts=40, seed=0))
        res = dk.fit(spec, data)
        # each pair contributes 2 * 0.05^2
        assert res.objective_trace[-1][2] == pytest.approx(8 * 0.05 ** 2, rel=1e-6)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(4)
        data, _ = two_line_data(rng, m=25, noise=0.1)
        spec = dk.shared_spec(K=2, n=2, loss=dk.square_regression(), constraints=(),
                              controls=dk.SolverControls(restarts=5, seed=11))
        a = dk.fit(spec, data)
        b = dk.fit(spec, data)
        assert np.array_equal(a.labels, b.labels)
        assert a.objective_trace == b.objective_trace
        for ta, tb in zip(a.thetas, b.thetas):
            assert np.array_equal(ta, tb)

    def test_trace_monotone(self):
        rng = np.random.default_rng(5)
        data, _ = two_line_data(rng, m=60, noise=0.3)
        spec = dk.shared_spec(K=3, n=2, loss=dk.huber(0.5),
                              constraints=(dk.box(np.full(2, -5.0), np.full(2, 5.0)),),
                              controls=dk.SolverControls(restarts=3, seed=0))
        res = dk.fit(spec, data)
        flat = []
        for _, after_p, after_f in res.objective_trace:
            flat += [after_p, after_f]
        for a, b in zip(flat, flat[1:]):
            assert b <= a + 1e-8 * max(1.0, abs(a))

    def test_gap_closed_at_fixed_point(self):
        rng = np.random.default_rng(6)
        data, _ = two_line_data(rng, m=30, noise=0.05)
        spec = dk.shared_spec(K=2, n=2, loss=dk.square_regression(), constraints=(),
                              controls=dk.SolverControls(restarts=4, seed=0))
        res = dk.fit(spec, data)
        assert res.status == dk.GAP_CONVERGED
        it, after_p, after_f = res.objective_trace[-1]
        assert dk.gap(after_p, after_f) <= spec.controls.eps

    def test_parallel_matches_sequential(self):
        rng = np.random.default_rng(7)
        data, _ = two_line_data(rng, m=30, noise=0.2)
        spec = dk.shared_spec(K=2, n=2, loss=dk.square_regression(), constraints=(),
                              controls=dk.SolverControls(restarts=4, seed=3))
        seq = dk.fit(spec, data, jobs=1)
        par = dk.fit(spec, data, jobs=2)
        assert seq.restart_index_of_best == par.restart_index_of_best
        assert np.array_equal(seq.labels, par.labels)
        assert seq.objective_trace == par.objective_trace

    def test_parallel_matches_sequential_on_constrained_kmeans(self):
        # each restart builds its own projectors, whose warm-started
        # active-set loops then see the same points in either process
        cfg = experiments.experiment_config(experiments.CONSTRAINED_KMEANS, 5, m=200)
        data, _, _ = experiments.generate(cfg)
        spec = experiments.kmeans_spec(True, 4, 5)
        seq = dk.fit(spec, data, jobs=1)
        par = dk.fit(spec, data, jobs=2)
        assert seq.restart_index_of_best == par.restart_index_of_best
        assert seq.objective_trace == par.objective_trace
        assert np.array_equal(seq.Z, par.Z) and np.array_equal(seq.labels, par.labels)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(seq.thetas, par.thetas))

    @pytest.mark.parametrize("cpus, jobs, restarts, workers", [
        (2, 64, 64, 2),   # capped at the CPU count
        (2, 3, 2, 2),     # at most one worker per restart
        (4, 3, 8, 3),     # at most jobs workers
        (None, 4, 4, 1),  # an unknown CPU count allows one
    ])
    def test_pool_workers_capped(self, monkeypatch, cpus, jobs, restarts, workers):
        # the pool only records its size and runs each restart in this process
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                fut = concurrent.futures.Future()
                fut.set_result(fn(*args))
                return fut

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(engine.os, "cpu_count", lambda: cpus)
        rng = np.random.default_rng(7)
        data, _ = two_line_data(rng, m=12, noise=0.2)
        spec = dk.shared_spec(K=2, n=2, loss=dk.square_regression(), constraints=(),
                              controls=dk.SolverControls(restarts=restarts, seed=3, max_iter=5))
        res = dk.fit(spec, data, jobs=jobs)
        assert sizes == [workers]
        assert res.objective_trace == dk.fit(spec, data, jobs=1).objective_trace

    def test_import_loads_no_process_pool(self):
        # fit imports the pool only when it makes one, so a jobs=1 script
        # does not pay for loading concurrent.futures.process and multiprocessing
        code = ("import sys, dlfmkit, dlfmkit.cli; "
                "print([m for m in ('concurrent.futures.process', 'multiprocessing') if m in sys.modules])")
        src = os.path.dirname(os.path.dirname(dk.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"

    @pytest.mark.parametrize("jobs", [0, -2])
    def test_jobs_below_one_rejected(self, jobs):
        rng = np.random.default_rng(7)
        data, _ = two_line_data(rng, m=12, noise=0.2)
        spec = dk.shared_spec(K=2, n=2, loss=dk.square_regression(), constraints=(),
                              controls=dk.SolverControls(restarts=2, seed=3, max_iter=5))
        with pytest.raises(ValueError, match="jobs must be >= 1"):
            dk.fit(spec, data, jobs=jobs)

    def test_lad_l1_fit(self):
        # lp runs proximal Newton on its IRLS model matrix, inside BCD
        rng = np.random.default_rng(9)
        data, _ = two_line_data(rng, m=40, noise=0.1)
        atoms = (dk.box(np.full(2, -1.8), np.full(2, 1.8)),)
        spec = dk.shared_spec(K=2, n=2, loss=dk.lp_regression(1.0), constraints=atoms,
                              p_regularizers=(dk.l1(0.2),),
                              controls=dk.SolverControls(restarts=3, seed=2))
        seq = dk.fit(spec, data, jobs=1)
        par = dk.fit(spec, data, jobs=2)
        flat = [v for _, after_p, after_f in seq.objective_trace for v in (after_p, after_f)]
        for a, b in zip(flat, flat[1:]):
            assert b <= a + 1e-9 * max(1.0, abs(a))
        assert max(kernels.max_violation(atoms, th) for th in seq.thetas) <= 1e-12
        assert seq.restart_index_of_best == par.restart_index_of_best
        assert seq.objective_trace == par.objective_trace
        assert np.array_equal(seq.labels, par.labels)
        assert all(np.array_equal(a, b) for a, b in zip(seq.thetas, par.thetas))

    @pytest.mark.parametrize("delta", [np.inf, 1e308])
    def test_huber_with_no_linear_piece_fits_as_square_regression(self, delta):
        # no residual reaches delta, so the loss is u^2 on every row; the
        # linear piece 2 delta |u| - delta^2 is inf - inf there
        rng = np.random.default_rng(3)
        X = rng.normal(size=(60, 2))
        data = dk.dataset(X, X @ np.array([1.0, -2.0]) + 0.1 * rng.normal(size=60))
        ref, res = (dk.fit(dk.shared_spec(K=2, n=2, loss=loss), data)
                    for loss in (dk.square_regression(), dk.huber(delta)))
        assert res.status == dk.GAP_CONVERGED
        for a, b in zip(res.thetas, ref.thetas):
            np.testing.assert_allclose(a, b, rtol=0.0, atol=1e-8)
        assert np.array_equal(res.labels, ref.labels)
        assert res.objective_trace[-1][2] == pytest.approx(ref.objective_trace[-1][2], rel=1e-10)

    def test_restarts_within_an_ulp_tie_to_the_first(self, monkeypatch):
        # the same partition reached with the factors permuted sums its losses
        # in another order; a 1-ulp lower later restart must not win
        final = 12.345

        def restart(spec, data, r):
            last = final if r else np.nextafter(final, np.inf)
            return dk.FitResult(thetas=[], Z=np.zeros((0, 2)), labels=np.zeros(0, dtype=int),
                                objective_trace=[(1, last, last)], status=dk.GAP_CONVERGED,
                                iterations=1, restart_index_of_best=r, seed_used=r)

        monkeypatch.setattr(engine, "_run_restart", restart)
        rng = np.random.default_rng(0)
        data, _ = two_line_data(rng, m=10)
        spec = dk.shared_spec(K=2, n=2, loss=dk.square_regression(), constraints=(),
                              controls=dk.SolverControls(restarts=2))
        assert dk.fit(spec, data).restart_index_of_best == 0

    def test_invalid_spec_raises_with_paths(self):
        data = dk.dataset(np.zeros((3, 2)), np.zeros(3))
        spec = dk.shared_spec(K=1, n=2, loss=dk.huber(-1.0), constraints=())
        with pytest.raises(ValueError, match="delta"):
            dk.fit(spec, data)

    def test_zero_weight_regularizers_are_absent(self):
        # fit drops them once, before any restart: they would otherwise turn
        # the closed-form P-step into proximal Newton and choose the
        # regularized stopping rule
        rng = np.random.default_rng(4)
        data, _ = two_line_data(rng, m=40, noise=0.1)
        data = dk.dataset(data.features, data.observations, ordered=True)
        plain = dk.shared_spec(K=2, n=2, loss=dk.square_regression(), constraints=())
        zeros = dk.shared_spec(K=2, n=2, loss=dk.square_regression(), constraints=(),
                               p_regularizers=(dk.l1(0.0),), f_regularizers=(dk.kl_chain(0.0),))
        a, b = dk.fit(plain, data), dk.fit(zeros, data)
        assert b.status == dk.GAP_CONVERGED
        assert a.objective_trace == b.objective_trace
        assert all(np.array_equal(x, y) for x, y in zip(a.thetas, b.thetas))

    def test_best_restart_reported(self):
        rng = np.random.default_rng(8)
        data, _ = two_line_data(rng, m=40, noise=0.1)
        spec = dk.shared_spec(K=2, n=2, loss=dk.square_regression(), constraints=(),
                              controls=dk.SolverControls(restarts=6, seed=5))
        res = dk.fit(spec, data)
        assert 0 <= res.restart_index_of_best < 6
        assert res.seed_used == dk.splitmix64(5, res.restart_index_of_best)


class TestWarmStartSpeedup:
    def test_warm_iterations_not_more_than_cold(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(80, 3))
        y = rng.normal(size=80)
        data = dk.dataset(X, y)
        spec = dk.shared_spec(K=2, n=3, loss=dk.huber(1.0), constraints=())
        Z = rng.dirichlet(np.ones(2), size=80)
        cold = dk.solve_p(spec, data, Z)
        warm = dk.solve_p(spec, data, Z, warm=cold.thetas)
        assert sum(warm.inner_iterations) <= sum(cold.inner_iterations)


_run_restart = engine._run_restart


def _first_restart_raises(spec, data, restart):
    # module level, so pool workers can unpickle it
    if restart == 0:
        raise dk.SubsolverFailure(1, "injected breakdown")
    return _run_restart(spec, data, restart)


def _every_restart_raises(spec, data, restart):
    raise kernels.ProjectionError("projection subproblem did not converge")


def _nan_final(res):
    it, after_p, _ = res.objective_trace[-1]
    res.objective_trace[-1] = (it, after_p, float("nan"))
    return res


class TestRestartFailures:
    def _problem(self):
        rng = np.random.default_rng(10)
        data, _ = two_line_data(rng, m=30, noise=0.1)
        spec = dk.shared_spec(K=2, n=2, loss=dk.square_regression(), constraints=(),
                              controls=dk.SolverControls(restarts=3, seed=2))
        return spec, data

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failed_restart_is_skipped(self, monkeypatch, jobs):
        spec, data = self._problem()
        monkeypatch.setattr(engine, "_run_restart", _first_restart_raises)
        res = dk.fit(spec, data, jobs=jobs)
        assert res.restart_index_of_best in (1, 2)

    def test_projection_error_fails_one_restart(self, monkeypatch):
        spec, data = self._problem()

        def projection_fails_first(spec, data, restart):
            if restart == 0:
                raise kernels.ProjectionError("empty feasible set")
            return _run_restart(spec, data, restart)

        monkeypatch.setattr(engine, "_run_restart", projection_fails_first)
        assert dk.fit(spec, data).restart_index_of_best in (1, 2)

    def test_all_restarts_failing_raises_engine_failure(self, monkeypatch):
        spec, data = self._problem()
        monkeypatch.setattr(engine, "_run_restart", _every_restart_raises)
        for jobs in (1, 2):
            with pytest.raises(dk.EngineFailure, match="did not converge") as info:
                dk.fit(spec, data, jobs=jobs)
            # every restart is named with its own reason
            for r in range(spec.controls.restarts):
                assert f"restart {r}: ProjectionError: projection subproblem did not converge" in str(info.value)

    def test_nan_final_never_wins(self, monkeypatch):
        spec, data = self._problem()

        def first_restart_nan(spec, data, restart):
            res = _run_restart(spec, data, restart)
            return _nan_final(res) if restart == 0 else res

        monkeypatch.setattr(engine, "_run_restart", first_restart_nan)
        res = dk.fit(spec, data)
        assert res.restart_index_of_best in (1, 2)
        assert np.isfinite(res.objective_trace[-1][2])

    def test_no_finite_final_raises_engine_failure(self, monkeypatch):
        spec, data = self._problem()
        monkeypatch.setattr(engine, "_run_restart",
                            lambda spec, data, restart: _nan_final(_run_restart(spec, data, restart)))
        with pytest.raises(dk.EngineFailure, match="finite"):
            dk.fit(spec, data)

    @staticmethod
    def _failing_p_steps(monkeypatch, failing):
        """Patch psolve.solve_p to raise SubsolverFailure at the (restart,
        iteration) pairs in failing, for sequential fits. Returns the log of
        (restart, iteration, warm thetas, thetas out) of each call."""
        real = psolve.solve_p
        log = []

        def solve_p(spec, data, Z, warm=None, plans=None):
            # a restart's first P-step is the one without a warm start
            if warm is None:
                restart, it = (log[-1][0] + 1 if log else 0), 1
            else:
                restart, it = log[-1][0], log[-1][1] + 1
            if (restart, it) in failing:
                log.append((restart, it, warm, None))
                raise dk.SubsolverFailure(0, "injected breakdown")
            out = real(spec, data, Z, warm=warm, plans=plans)
            log.append((restart, it, warm, out.thetas))
            return out

        monkeypatch.setattr(psolve, "solve_p", solve_p)
        return log

    def test_failed_p_step_keeps_the_previous_thetas(self, monkeypatch):
        spec, data = self._problem()
        spec = replace(spec, controls=replace(spec.controls, restarts=1))
        log = self._failing_p_steps(monkeypatch, {(0, 2)})
        res = dk.fit(spec, data)
        assert res.iterations > 3
        # iteration 2 keeps iteration 1's thetas, its after-P objective is the
        # last after-F one, and the F-step on the same losses changes nothing
        assert log[1][3] is None and log[2][2] is log[0][3]
        _, _, after_f = res.objective_trace[0]
        assert res.objective_trace[1] == (2, after_f, after_f)
        assert [entry[1] for entry in log] == list(range(1, res.iterations + 1))

    def test_two_failed_p_steps_in_a_row_drop_the_restart(self, monkeypatch):
        spec, data = self._problem()
        log = self._failing_p_steps(monkeypatch, {(0, 2), (0, 3)})
        res = dk.fit(spec, data)
        # restart 0 ends at its second failure in a row; the others run
        assert [entry[1] for entry in log if entry[0] == 0] == [1, 2, 3]
        assert {entry[0] for entry in log} == {0, 1, 2}
        assert res.restart_index_of_best in (1, 2)

    def test_subsolver_failure_pickles(self):
        exc = pickle.loads(pickle.dumps(dk.SubsolverFailure(3, "QP broke down")))
        assert exc.factor == 3
        assert str(exc) == "factor 3: QP broke down"

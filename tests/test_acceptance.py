"""Acceptance suite.

Eight gate criteria, each printed as one PASS/FAIL line. The reproduction
runs are computed once in module-scoped fixtures and shared; their wall
times are recorded so the per-study time budgets are enforced on the real
compute, not on cached lookups.
"""

import time

import numpy as np
import pytest

import dlfmkit as dk
from dlfmkit import experiments as ex
from dlfmkit import kernels, model, oracle
from two_sided import two_sided_qp


def _report(name, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


# ---------------------------------------------------------------------------
# shared reproduction runs
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def kmeans_runs():
    t0 = time.perf_counter()
    out = ex.run_constrained_kmeans(seed=0, restarts=10)
    return out, time.perf_counter() - t0


@pytest.fixture(scope="module")
def mixture_runs():
    t0 = time.perf_counter()
    out = {s: ex.run_mixture_linreg(seed=s, restarts=10) for s in ex.REPRO_SEEDS}
    return out, time.perf_counter() - t0


@pytest.fixture(scope="module")
def forgetting_runs():
    t0 = time.perf_counter()
    out = {s: ex.run_forgetting_q(seed=s, lams=(0.0, 1.0), restarts=5)
           for s in ex.REPRO_SEEDS}
    return out, time.perf_counter() - t0


@pytest.fixture(scope="module")
def iohmm_runs():
    t0 = time.perf_counter()
    out = {s: ex.run_io_hmm(seed=s, restarts=5) for s in ex.REPRO_SEEDS}
    return out, time.perf_counter() - t0


def _all_fits(kmeans_runs, mixture_runs, forgetting_runs, iohmm_runs):
    fits = [("kmeans_constrained", kmeans_runs[0]["constrained"]),
            ("kmeans_unconstrained", kmeans_runs[0]["unconstrained"])]
    for s, r in mixture_runs[0].items():
        fits.append((f"mixture[{s}]", r["fit"]))
    for s, r in forgetting_runs[0].items():
        for lam, run in r["runs"].items():
            fits.append((f"forgetting[{s},lam={lam:g}]", run["fit"]))
    for s, r in iohmm_runs[0].items():
        fits.append((f"io_hmm[{s}]", r["fit"]))
    return fits


# ---------------------------------------------------------------------------
# criterion 1: alternating solver vs exhaustive assignment search
# ---------------------------------------------------------------------------


def test_criterion_1_small_instance_optimality():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    hits, below = 0, 0
    total = 20
    for _ in range(total):
        m, K, n = 8, 2, int(rng.integers(1, 4))
        X = rng.normal(size=(m, n))
        th = rng.normal(size=(K, n))
        lab = rng.integers(0, K, m)
        y = np.einsum("ij,ij->i", X, th[lab]) + 0.05 * rng.normal(size=m)
        data = dk.dataset(X, y)
        spec = dk.shared_spec(
            K=K, n=n, loss=dk.square_regression(), constraints=(),
            controls=dk.SolverControls(restarts=50, seed=int(rng.integers(1 << 30))))
        res = dk.fit(spec, data)
        opt = dk.brute_force_fit(spec, data).optimum
        got = res.objective_trace[-1][2]
        if got < opt - 1e-9:
            below += 1
        if got <= opt + 1e-6 * max(1.0, abs(opt)):
            hits += 1
    wall = time.perf_counter() - t0
    ok = below == 0 and hits >= 18 and wall <= 60.0
    _report("criterion-1 small-instance optimality", ok,
            f"{hits}/{total} matched the exhaustive optimum, "
            f"{below} fell below it, {wall:.1f}s (limit 60s)")


# ---------------------------------------------------------------------------
# criterion 2: monotone objective traces on every reproduction
# ---------------------------------------------------------------------------


def test_criterion_2_monotone_traces(kmeans_runs, mixture_runs, forgetting_runs,
                                     iohmm_runs):
    worst = 0.0
    worst_name = ""
    count = 0
    for name, fit in _all_fits(kmeans_runs, mixture_runs, forgetting_runs, iohmm_runs):
        seqs = []
        for _, after_p, after_f in fit.objective_trace:
            seqs += [after_p, after_f]
        for a, b in zip(seqs, seqs[1:]):
            rise = (b - a) / max(1.0, abs(a))
            if rise > worst:
                worst, worst_name = rise, name
        count += 1
    ok = worst <= 1e-8
    _report("criterion-2 monotone traces", ok,
            f"{count} runs, worst relative increase {worst:.2e} "
            f"({worst_name or 'none'}; limit 1e-8)")


# ---------------------------------------------------------------------------
# criterion 3: constraint activity separates the two center fits
# ---------------------------------------------------------------------------


def test_criterion_3_kmeans_constraints(kmeans_runs):
    out, wall = kmeans_runs
    worst_feas = max(out["margins_constrained"])
    best_violation = min(out["margins_unconstrained"])
    ok = worst_feas <= 1e-6 and best_violation > 1e-6 and wall <= 30.0
    _report("criterion-3 constrained centers", ok,
            f"constrained margin {worst_feas:.2e} (limit 1e-6), "
            f"unconstrained centers all violate by >= {best_violation:.3f}, "
            f"{wall:.1f}s (limit 30s)")


# ---------------------------------------------------------------------------
# criterion 4: mixture-of-regressions recovery
# ---------------------------------------------------------------------------


def test_criterion_4_mixture_recovery(mixture_runs):
    runs, wall = mixture_runs
    accs = [r["accuracy"] for r in runs.values()]
    rmses = [max(r["rmse_per_factor"]) for r in runs.values()]
    med_acc = float(np.median(accs))
    med_rmse = float(np.median(rmses))
    ok = med_acc >= 0.90 and med_rmse <= 0.15 and wall <= 120.0
    _report("criterion-4 mixture recovery", ok,
            f"median accuracy {med_acc:.3f} (floor 0.90), "
            f"median worst-factor rmse {med_rmse:.3f} (cap 0.15), "
            f"{wall:.1f}s (limit 120s)")


# ---------------------------------------------------------------------------
# criterion 5: chain smoothing lifts regime recovery under shape constraints
# ---------------------------------------------------------------------------


def test_criterion_5_forgetting_chain_gain(forgetting_runs):
    runs, wall = forgetting_runs
    acc1 = [r["runs"][1.0]["accuracy"] for r in runs.values()]
    gains = [r["runs"][1.0]["accuracy"] - r["runs"][0.0]["accuracy"]
             for r in runs.values()]
    med1 = float(np.median(acc1))
    med_gain = float(np.median(gains))

    worst_shape = 0.0
    for r in runs.values():
        for run in r["runs"].values():
            fit = run["fit"]
            spec = ex.forgetting_spec(lam=0.0, restarts=1, seed=0)
            for k, th in enumerate(fit.thetas):
                worst_shape = max(worst_shape, kernels.max_violation(
                    spec.constraints_per_factor[k], th))
    ok = (med1 >= 0.85 and med_gain >= 0.10 and worst_shape <= 1e-6
          and wall <= 180.0)
    _report("criterion-5 chain smoothing gain", ok,
            f"median accuracy at weight 1 is {med1:.3f} (floor 0.85), "
            f"median gain {med_gain:.3f} (floor 0.10), "
            f"worst shape violation {worst_shape:.2e} (limit 1e-6), "
            f"{wall:.1f}s (limit 180s)")


# ---------------------------------------------------------------------------
# criterion 6: switching-process transition recovery
# ---------------------------------------------------------------------------


def test_criterion_6_transition_recovery(iohmm_runs):
    runs, wall = iohmm_runs
    devs = [r["max_deviation"] for r in runs.values()]
    med = float(np.median(devs))
    ok = med <= 0.08 and wall <= 180.0
    _report("criterion-6 transition recovery", ok,
            f"median max deviation {med:.4f} (cap 0.08), "
            f"{wall:.1f}s (limit 180s)")


# ---------------------------------------------------------------------------
# criterion 7: numerical kernels against independent checks
# ---------------------------------------------------------------------------


def test_criterion_7_kernel_checks():
    t0 = time.perf_counter()
    rng = np.random.default_rng(777)

    qp_bad = 0
    for _ in range(50):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 7))
        B = rng.normal(size=(n, n))
        P = B @ B.T + np.eye(n)
        q = rng.normal(size=n)
        A = rng.normal(size=(m, n))
        mid = A @ rng.normal(size=n)
        half = np.abs(rng.normal(size=m)) + 0.1
        prob = two_sided_qp(P, q, A, mid - half, mid + half)
        ref = dk.qp_active_set_oracle(prob)
        sol = dk.qp_solve(prob)
        def fval(x):
            return 0.5 * x @ P @ x + q @ x
        if sol.status != kernels.SOLVED or \
                fval(sol.x) - fval(ref) > 1e-6 * max(1.0, abs(fval(ref))):
            qp_bad += 1

    grad_bad = 0
    atoms = [dk.square_regression(), dk.huber(0.8), dk.binary_logit(),
             dk.squared_distance(), dk.multinomial_logit()]
    for atom in atoms:
        for _ in range(40):
            n = 3
            if atom.kind == model.MULTINOMIAL_LOGIT:
                X = rng.normal(size=(4, n))
                y = np.zeros(4)
                y[rng.integers(4)] = 1.0
            else:
                X = rng.normal(size=n)
                y = float(rng.integers(2)) if atom.kind == model.BINARY_LOGIT \
                    else float(rng.normal())
            th = rng.normal(size=n)
            F, Y = X[None], np.asarray(y, dtype=float)[None]
            g = model.weighted_loss_grad(atom, F, Y, th, np.ones(1))
            ref = oracle.fd_gradient(lambda t: model.batch_losses(atom, F, Y, t)[0], th)
            if np.linalg.norm(g - ref) / max(1.0, np.linalg.norm(ref)) > 1e-5:
                grad_bad += 1

    proj_bad = 0
    sets = [
        (model.nonneg(),),
        (model.box(np.array([-1.0, 0.0, -2.0]), np.array([1.0, 2.0, 0.0])),),
        (model.norm_ball2(1.5),),
        (model.sum_equals(1.0), model.nonneg()),
        (model.nonneg(), model.monotone_nonincreasing()),
        (model.polyhedron(np.array([[1.0, 1.0, 1.0]]), np.array([1.0])),
         model.nonneg()),
        (model.norm_ball2(2.0), model.nonneg()),
        (model.monotone_nondecreasing(),),
    ]
    checked = 0
    for atoms_ in sets:
        for _ in range(125):
            v = rng.normal(0, 2, 3)
            p = dk.project(atoms_, v)
            checked += 1
            if kernels.max_violation(atoms_, p) > 1e-6:
                proj_bad += 1
                continue
            # no feasible candidate may sit closer to v than the projection
            d = np.sum((p - v) ** 2)
            for _ in range(8):
                w = dk.project(atoms_, v + rng.normal(0, 1.0, 3))
                if np.sum((w - v) ** 2) < d - 1e-8:
                    proj_bad += 1
                    break

    wall = time.perf_counter() - t0
    ok = qp_bad == 0 and grad_bad == 0 and proj_bad == 0 and wall <= 30.0
    _report("criterion-7 kernel cross-checks", ok,
            f"{qp_bad}/50 qp mismatches, {grad_bad} gradient mismatches, "
            f"{proj_bad}/{checked} projection failures, {wall:.1f}s (limit 30s)")


# ---------------------------------------------------------------------------
# criterion 8: clean termination without regularizers
# ---------------------------------------------------------------------------


def test_criterion_8_gap_termination(kmeans_runs, mixture_runs, forgetting_runs,
                                     iohmm_runs):
    plain = [(n, f) for n, f in _all_fits(kmeans_runs, mixture_runs,
                                          forgetting_runs, iohmm_runs)
             if "lam=1" not in n and "io_hmm" not in n]
    bad = []
    for name, fit in plain:
        it, after_p, after_f = fit.objective_trace[-1]
        if fit.status != dk.GAP_CONVERGED or it >= 500 \
                or dk.gap(after_p, after_f) > 1e-6:
            bad.append(name)
    ok = not bad
    _report("criterion-8 gap termination", ok,
            f"{len(plain)} regularizer-free runs closed the gap within "
            f"500 iterations" + (f"; failures: {bad}" if bad else ""))

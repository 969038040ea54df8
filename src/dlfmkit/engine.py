"""Block coordinate descent driver: alternate the parameter and factor solves.

Each restart draws a fresh random relaxed assignment, alternates the two
block problems until the chosen termination rule fires, and the best final
objective across restarts wins. Everything is deterministic given
(spec, data, seed): restart r uses an RNG stream derived by splitmix64.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

import numpy as np

from . import fsolve, kernels, model, psolve

GAP_CONVERGED = "gap_converged"
OBJECTIVE_STALLED = "objective_stalled"
MAX_ITER = "max_iter"


class EngineFailure(RuntimeError):
    """No restart produced a finite final objective."""


# numerical breakdowns that end one restart, not the whole fit
_RESTART_FAILURES = (psolve.SubsolverFailure, kernels.ProjectionError)

# restarts whose final objectives lie within this share of the best one tie,
# and the smallest restart index wins: two restarts that reach one partition
# with the factors permuted sum their losses in another order, and an exact
# comparison would let rounding choose between them
_TIE_RTOL = 1e-12


@dataclass(eq=False)
class FitResult:
    thetas: list
    Z: np.ndarray
    labels: np.ndarray  # 1-based hardened assignment
    objective_trace: list  # (iteration, objective after P, objective after F)
    status: str
    iterations: int
    restart_index_of_best: int
    seed_used: int


_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def splitmix64(seed: int, index: int) -> int:
    """Decorrelated 64-bit stream seed for restart number index."""
    z = (seed + (index + 1) * _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def init_factors(m: int, K: int, rng: np.random.Generator) -> np.ndarray:
    """Random interior start: rows drawn flat on the simplex, renormalized."""
    Z = rng.dirichlet(np.ones(K), size=m)
    return Z / Z.sum(axis=1, keepdims=True)


def gap(after_p: float, after_f: float) -> float:
    """Termination gap between the two half-step objectives."""
    return abs(after_p - after_f)


def _run_restart(spec: model.ModelSpec, data: model.Dataset, restart: int):
    # weight-0 regularizers are absent: they would otherwise turn a closed-form
    # P-step into proximal Newton, add an orthant loop or a face-by-face
    # secular solve to Newton's model QP, and pick the regularized stopping
    # rule
    p_regs = tuple(r for r in spec.p_regularizers if r.weight > 0.0)
    f_regs = tuple(r for r in spec.f_regularizers if r.weight > 0.0)
    spec = replace(spec, p_regularizers=p_regs, f_regularizers=f_regs)
    c = spec.controls
    rng = np.random.default_rng(splitmix64(c.seed, restart))
    # Fortran order, as loss_matrix returns R: each factor's column of Z is
    # contiguous for the P-step, and the F-steps keep that layout
    Z = np.asfortranarray(init_factors(data.m, spec.K, rng))

    lam_z = sum(r.weight for r in f_regs if r.kind == model.KL_CHAIN)
    regularized = bool(p_regs or f_regs)

    plans = psolve.plan_factors(spec)
    thetas = None
    # the factor regularizer changes only in the F-step; carry it forward
    freg = model.f_regularizer_value(f_regs, Z)
    trace: list = []
    prev_total = None
    status = MAX_ITER
    failed_last = False
    for it in range(1, c.max_iter + 1):
        try:
            out = psolve.solve_p(spec, data, Z, warm=thetas, plans=plans)
            thetas, R, preg = out.thetas, out.R, out.p_reg
            after_p = out.objective + freg
            failed_last = False
        except psolve.SubsolverFailure:
            # keep the previous block values, their losses and hence the
            # last after-F objective for one more iteration
            if failed_last or thetas is None:
                raise
            failed_last = True
            after_p = after_f

        if lam_z > 0.0:
            Z, _ = fsolve.solve_f_kl(R, lam_z, Z, tol=c.f_tol, max_iter=c.f_max_iter)
            freg = lam_z * model.kl_chain_value(Z)
        else:
            Z = fsolve.solve_f_plain(R)
        after_f = float((Z * R).sum()) + preg + freg

        trace.append((it, after_p, after_f))
        if not regularized:
            # a failed P-step leaves after-P equal to the last after-F without
            # reaching a fixed point, so the gap closing proves nothing; every
            # other step converged or, capped, lowered the objective
            if not failed_last and gap(after_p, after_f) <= c.eps:
                status = GAP_CONVERGED
                break
        else:
            if prev_total is not None and abs(after_f - prev_total) <= c.eps * max(1.0, abs(prev_total)):
                status = OBJECTIVE_STALLED
                break
        prev_total = after_f

    return FitResult(
        thetas=thetas,
        Z=Z,
        labels=fsolve.harden(Z),
        objective_trace=trace,
        status=status,
        iterations=len(trace),
        restart_index_of_best=restart,
        seed_used=splitmix64(c.seed, restart),
    )


def fit(spec: model.ModelSpec, data: model.Dataset, jobs: int = 1) -> FitResult:
    """Validate once, run all restarts, and return the best fit.

    The best run is the one with the smallest final objective; finals within
    a relative _TIE_RTOL of it tie, and the smallest restart index wins.
    Restarts are independent, so jobs > 1 may fan them out over processes,
    at most one per restart and one per CPU, without changing the result. A
    restart that breaks down in a subsolver or projection, or ends on a
    non-finite objective, is dropped from the selection. Raises ValueError
    on validation violations or jobs < 1, and EngineFailure if no restart
    is left.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    report = model.validate(spec, data)
    if not report.ok:
        lines = "; ".join(f"{v.path}: {v.message}" for v in report.violations)
        raise ValueError(f"invalid spec/data: {lines}")

    restarts = spec.controls.restarts
    results: list[FitResult | None] = [None] * restarts
    errors: list[Exception] = []
    if jobs > 1 and restarts > 1:
        # imported here, so that importing the package loads no process-pool modules
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(jobs, restarts, os.cpu_count() or 1)) as pool:
            futures = [pool.submit(_run_restart, spec, data, r) for r in range(restarts)]
            for r, fut in enumerate(futures):
                try:
                    results[r] = fut.result()
                except _RESTART_FAILURES as exc:
                    errors.append(exc)
    else:
        for r in range(restarts):
            try:
                results[r] = _run_restart(spec, data, r)
            except _RESTART_FAILURES as exc:
                errors.append(exc)

    finals = [
        res.objective_trace[-1][2] if res is not None and res.objective_trace else np.inf
        for res in results
    ]
    best = min((f for f in finals if np.isfinite(f)), default=None)
    if best is None:
        reason = errors[0] if errors else "no finite final objective"
        raise EngineFailure(f"all {restarts} restarts failed: {reason}")
    return next(res for res, f in zip(results, finals) if f <= best + _TIE_RTOL * abs(best))

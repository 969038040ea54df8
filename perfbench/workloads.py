"""Benchmark workloads: batches of fit problems drawn from a seed, and checks.

A run fits a batch of independent problem instances. Instance seeds are drawn
from the run seed, so the same seed gives the same batch, and each instance
varies both its data and its restart seeds. A batch can be built with the
`experiments` module of dlfmkit or of its frozen copy `dlfmkit_v0`; from the
same seed both give the same data.

mixture_large and chain_iohmm fit under an iteration budget (`limits`): they
stop after a fixed number of block-descent iterations, and chain_iohmm also
caps its inner prox-gradient and mirror-descent loops. Run to convergence,
io_hmm fits of one batch took from 0.8 s to 4.2 s (m=200, one restart), in
step with their inner iteration counts; under the budget each fit does
nearly the same work. kmeans_qp runs to convergence, so fewer block-descent
or ADMM iterations show in its fit time.

Sizes were chosen on a 2-CPU x86 machine with numpy 2.4 and OpenBLAS, where
one pass over a batch takes 6 to 16 s.
"""

from __future__ import annotations

import dataclasses
import statistics
from dataclasses import dataclass

import numpy as np

from dlfmkit import engine, experiments as ex, kernels, model

MONOTONE_TOL = 1e-8  # relative rise allowed between half-steps, as in the acceptance gate
FEASIBILITY_TOL = 1e-6
OBJECTIVE_TOL = 1e-9  # relative, final objective against an independent recomputation
KMEANS_MARGIN_TOL = 1e-6
MIXTURE_MIN_ACCURACY = 0.90
IOHMM_MAX_TRANSITION_DEV = 0.08


@dataclass(frozen=True)
class Instance:
    seed: int
    spec: model.ModelSpec
    data: model.Dataset
    truth: np.ndarray  # 1-based generator labels


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    study: str
    m: int
    restarts: int
    batch: int
    limits: tuple = ()  # (SolverControls field, value) pairs that cap iterations
    pool_jobs: int = 0  # workers of the extra pool pass in a traced run; 0 for none

    def instance(self, seed: int, ex=ex) -> Instance:
        cfg = ex.experiment_config(self.study, seed, m=self.m)
        data, truth, _ = ex.generate(cfg)
        if self.study == ex.CONSTRAINED_KMEANS:
            spec = ex.kmeans_spec(True, self.restarts, seed)
            truth = kmeans_faces(cfg)
        elif self.study == ex.MIXTURE_LINREG:
            spec = ex.mixture_spec(self.restarts, seed)
        else:
            spec = ex.iohmm_spec(cfg.lam_theta, cfg.lam_z, self.restarts, seed)
        if self.limits:
            spec = dataclasses.replace(spec, controls=dataclasses.replace(spec.controls, **dict(self.limits)))
        return Instance(seed=seed, spec=spec, data=data, truth=truth)

    def make_batch(self, seed: int, ex=ex) -> list[Instance]:
        return [self.instance(int(s), ex) for s in np.random.SeedSequence(seed).generate_state(self.batch)]


def kmeans_faces(cfg) -> np.ndarray:
    """Face of the l1 sphere each k-means point was drawn from, 1-based.

    The generator does not return its labels; its first draw picks the two
    coordinate signs, which name the face, so replaying that draw recovers them.
    """
    signs = np.random.default_rng(cfg.seed).integers(0, 2, size=(cfg.m, 2))
    return 1 + signs[:, 0] + 2 * signs[:, 1]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="kmeans_qp",
            why="polytope-constrained k-means run to convergence: the only workload where the ADMM QP kernel does the work",
            study=ex.CONSTRAINED_KMEANS, m=500, restarts=2, batch=30,
        ),
        Workload(
            name="mixture_large",
            why="mixture of regressions at m=15000: the closed-form P-step over all rows dominates; traced runs add a 2-process pool pass",
            study=ex.MIXTURE_LINREG, m=15000, restarts=4, batch=8,
            limits=(("max_iter", 10),), pool_jobs=2,
        ),
        Workload(
            name="chain_iohmm",
            why="io_hmm with a KL chain at m=1000: the only workload running prox-gradient, joint prox and KL mirror descent",
            study=ex.IO_HMM, m=1000, restarts=1, batch=12,
            limits=(("max_iter", 10), ("p_max_iter", 100), ("f_max_iter", 100)),
        ),
    )
}


# ---------------------------------------------------------------------------
# correctness
# ---------------------------------------------------------------------------


def final_objective(res: engine.FitResult) -> float:
    return res.objective_trace[-1][2]


def check_fit(inst: Instance, res: engine.FitResult) -> list[str]:
    """Every per-fit check that fails, as one message each."""
    problems = []
    seq = [v for _, after_p, after_f in res.objective_trace for v in (after_p, after_f)]
    rises = [(b - a) / max(1.0, abs(a)) for a, b in zip(seq, seq[1:])]
    if not seq or not all(np.isfinite(seq)):
        problems.append("objective trace is empty or not finite")
    elif max(rises, default=0.0) > MONOTONE_TOL:
        problems.append(f"objective trace rises by {max(rises):.3g} (relative)")
    for k, theta in enumerate(res.thetas):
        viol = kernels.max_violation(inst.spec.constraints_per_factor[k], np.asarray(theta))
        if not viol <= FEASIBILITY_TOL:
            problems.append(f"theta {k} violates its constraints by {viol:.3g}")
    if seq:
        recomputed = model.objective(inst.spec, inst.data, res.thetas, res.Z)
        final = final_objective(res)
        if not abs(final - recomputed) <= OBJECTIVE_TOL * max(1.0, abs(recomputed)):
            problems.append(f"final objective {final!r} differs from recomputed {recomputed!r}")
    return [f"instance {inst.seed}: {p}" for p in problems]


def accuracy(inst: Instance, res: engine.FitResult) -> float:
    return ex.aligned_accuracy(res.labels, inst.truth, inst.spec.K)[0]


def check_batch(workload: Workload, batch: list[Instance], fits: list) -> list[str]:
    """Study thresholds over one pass of the batch, as in the acceptance gate."""
    pairs = [(inst, res) for inst, res in zip(batch, fits) if res is not None]
    if not pairs:
        return ["no fit of the batch finished"]
    problems = []
    if workload.study == ex.CONSTRAINED_KMEANS:
        margin = max(float((ex.KMEANS_A @ th - ex.KMEANS_B).max()) for _, r in pairs for th in r.thetas)
        if margin > KMEANS_MARGIN_TOL:
            problems.append(f"constrained k-means margin {margin:.3g} > {KMEANS_MARGIN_TOL}")
    elif workload.study == ex.MIXTURE_LINREG:
        acc = statistics.median(accuracy(i, r) for i, r in pairs)
        if acc < MIXTURE_MIN_ACCURACY:
            problems.append(f"median mixture accuracy {acc:.3f} < {MIXTURE_MIN_ACCURACY}")
    else:
        dev = pooled_transition_deviation(pairs)
        if dev > IOHMM_MAX_TRANSITION_DEV:
            problems.append(f"transition deviation {dev:.3f} > {IOHMM_MAX_TRANSITION_DEV}")
    return problems


def pooled_transition_deviation(pairs) -> float:
    """Largest entry error of the transition matrix estimated from every fit.

    Transition counts of the permutation-aligned labels are pooled over the
    batch, so that rare transitions are seen often enough to estimate.
    """
    K = pairs[0][0].spec.K
    counts = np.zeros((K, K))
    for inst, res in pairs:
        _, perm = ex.aligned_accuracy(res.labels, inst.truth, K)
        labels = ex.apply_permutation(res.labels, perm)
        np.add.at(counts, (labels[:-1] - 1, labels[1:] - 1), 1.0)
    est = counts / np.maximum(counts.sum(axis=1, keepdims=True), 1.0)
    return float(np.abs(est - ex.IOHMM_P_TR).max())


def check_same_fit(a: engine.FitResult, b: engine.FitResult) -> list[str]:
    """Pool and sequential fits of one instance must agree bit for bit."""
    same = np.array_equal(a.labels, b.labels) and all(
        np.array_equal(x, y) for x, y in zip(a.thetas, b.thetas)
    )
    return [] if same else ["pool fit differs from the sequential fit of the same instance"]

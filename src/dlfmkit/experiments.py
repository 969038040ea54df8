"""Benchmark generators, alignment metrics, and canned reproduction runs.

Four synthetic studies exercise the fitting engine end to end: polytope-
constrained location clustering, a mixture of linear regressions, a
two-regime bandit learner with shape-constrained forgetting curves, and an
input-output HMM with logistic emissions.
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass

import numpy as np

from . import engine, model

REPRO_SEEDS = (0, 1, 2, 3, 4)

CONSTRAINED_KMEANS = "constrained_kmeans"
MIXTURE_LINREG = "mixture_linreg"
FORGETTING_Q = "forgetting_q"
IO_HMM = "io_hmm"
EXPERIMENT_NAMES = (CONSTRAINED_KMEANS, MIXTURE_LINREG, FORGETTING_Q, IO_HMM)

# feasible polytope for the constrained location study
KMEANS_A = np.array(
    [[0.8, 0.6], [-0.7, 0.9], [-1.0, -0.5], [1.0, -1.0], [0.3, 0.9]]
)
KMEANS_B = np.array([1.0, 0.8, 0.6, 0.7, 0.8])

MIXTURE_THETAS = np.array(
    [
        [-1.47, 0.07, 0.16, -2.02, 0.14, 0.33, 0.71, 0.80, 1.53, -0.26],
        [-0.12, 1.38, -1.25, 0.88, -0.80, 1.33, -1.43, -0.42, 0.90, -0.47],
        [1.14, -1.33, 0.16, 0.23, -1.20, -0.90, 1.40, 0.98, -1.11, 0.60],
    ]
)
MIXTURE_PROBS = np.array([0.4, 0.3, 0.3])

# fast-forgetting positive learner vs slow negative learner
FORGETTING_THETAS = np.array(
    [
        [9.9, 9.9e-2, 9.9e-4, 9.9e-6, 9.9e-8],
        [-4.0, -0.8, -0.16, -0.032, -0.0064],
    ]
)
FORGETTING_REWARD_PROBS = np.array([0.1, 0.2, 0.7])

IOHMM_THETAS = np.array([[-2.0, 0.0], [2.0, 6.0], [3.0, -5.0]])
IOHMM_P_TR = np.array(
    [[0.90, 0.05, 0.05], [0.01, 0.98, 0.01], [0.03, 0.02, 0.95]]
)
IOHMM_P_INIT = np.array([1.0, 0.0, 0.0])


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    """Generative parameters and hyperparameters for one benchmark."""

    name: str
    seed: int = 0
    m: int = 0
    n: int = 0
    K: int = 0
    noise_sigma: float = 0.0
    true_thetas: np.ndarray | None = None
    category_probs: np.ndarray | None = None
    lo: float = 0.0
    hi: float = 0.0
    reward_probs: np.ndarray | None = None
    transition: np.ndarray | None = None
    p_init: np.ndarray | None = None
    switch_period: int = 0
    classes: int = 0  # rows of each matrix feature
    lam_theta: float = 0.0
    lam_z: float = 0.0


def experiment_config(name: str, seed: int = 0, **overrides) -> ExperimentConfig:
    """Per-experiment default configuration with optional field overrides."""
    if name == CONSTRAINED_KMEANS:
        base = dict(m=500, n=2, K=4, noise_sigma=0.05)
    elif name == MIXTURE_LINREG:
        base = dict(
            m=500,
            n=10,
            K=3,
            noise_sigma=1.5,
            true_thetas=MIXTURE_THETAS,
            category_probs=MIXTURE_PROBS,
            lo=-10.0,
            hi=10.0,
        )
    elif name == FORGETTING_Q:
        base = dict(
            m=200,
            n=5,
            K=2,
            true_thetas=FORGETTING_THETAS,
            reward_probs=FORGETTING_REWARD_PROBS,
            switch_period=20,
            classes=3,
        )
    elif name == IO_HMM:
        base = dict(
            m=500,
            n=2,
            K=3,
            true_thetas=IOHMM_THETAS,
            transition=IOHMM_P_TR,
            p_init=IOHMM_P_INIT,
            lo=-5.0,
            hi=5.0,
            lam_theta=0.5,
            lam_z=1.0,
        )
    else:
        raise ValueError(f"unknown experiment {name!r}")
    base.update(overrides)
    return ExperimentConfig(name=name, seed=seed, **base)


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------


def gen_constrained_kmeans(cfg: ExperimentConfig):
    """Noisy points around the l1 sphere of radius 2: pick one of the four
    faces uniformly, then a uniform point on it."""
    rng = np.random.default_rng(cfg.seed)
    signs = rng.integers(0, 2, size=(cfg.m, 2)) * 2 - 1
    t = rng.uniform(0.0, 1.0, size=cfg.m)
    clean = np.column_stack([signs[:, 0] * 2.0 * t, signs[:, 1] * 2.0 * (1.0 - t)])
    pts = clean + rng.normal(0.0, cfg.noise_sigma, size=(cfg.m, 2))
    data = model.dataset(pts, np.zeros(cfg.m))
    return data, None, None


def gen_mixture_linreg(cfg: ExperimentConfig):
    """Linear regressions mixed by categorical labels with Gaussian noise."""
    rng = np.random.default_rng(cfg.seed)
    labels = rng.choice(cfg.K, size=cfg.m, p=cfg.category_probs) + 1
    X = rng.uniform(cfg.lo, cfg.hi, size=(cfg.m, cfg.n))
    y = np.einsum("ij,ij->i", X, cfg.true_thetas[labels - 1])
    y = y + rng.normal(0.0, cfg.noise_sigma, size=cfg.m)
    return model.dataset(X, y), labels, cfg.true_thetas


def _softmax(v):
    e = np.exp(v - v.max())
    return e / e.sum()


def gen_forgetting_q(cfg: ExperimentConfig):
    """Bandit learner whose per-trial features stack recent reward signals.

    The reward signal u(t) is the indicator vector of the arm chosen at the
    previous trial, kept only if that choice paid out. Each feature matrix
    holds the last n signals as columns (zero-padded at the start), and the
    learner samples its arm from a softmax over signal-weighted scores. The
    active parameter vector alternates every switch_period trials.
    Each trial takes two uniforms from one batch of 2m: the arm's, inverted
    as `rng.choice(p, p=probs)` inverts it, then the reward's, the double
    that `rng.uniform()` returns; so the data are those of one `choice` and
    one `uniform` call per trial.
    """
    rng = np.random.default_rng(cfg.seed)
    p = cfg.classes
    u = rng.random(2 * cfg.m).tolist()
    feats = np.zeros((cfg.m, p, cfg.n))
    obs = np.zeros((cfg.m, p))
    labels = (np.arange(cfg.m) // cfg.switch_period) % 2 + 1
    for t in range(cfg.m):
        X = feats[t]
        if t:  # the signals shift one lag back, and u(t) is the last reward
            X[:, 1:] = feats[t - 1, :, :-1]
            X[arm, 0] = float(rewarded)
        # a softmax row is a valid choice row by construction, so the
        # checks of _choice_cdf are skipped
        arm = bisect.bisect_right(_cdf(_softmax(X @ cfg.true_thetas[labels[t] - 1])), u[2 * t])
        rewarded = u[2 * t + 1] < cfg.reward_probs[arm]
        obs[t, arm] = 1.0
    return model.dataset(feats, obs, ordered=True), labels, cfg.true_thetas


# the tolerance on the sum of float64 probabilities that `Generator.choice`
# applies, sqrt(eps) = 2^-26, written out: np.finfo at import would load
# numpy's float limits into every process, which only this generator reads
_CHOICE_ATOL = 2.0**-26


def _choice_cdf(p, K: int) -> list[float]:
    """The CDF that `Generator.choice(K, p=p)` inverts, as Python floats.

    One such draw takes one uniform u and returns `bisect_right(cdf, u)`, so
    inverting pre-drawn uniforms gives the same index from the same stream.
    Raises ValueError where `choice` would: p not of length K, a negative or
    NaN entry, or a sum off 1 by more than choice's tolerance.
    """
    p = np.asarray(p)
    atol = _CHOICE_ATOL
    if p.dtype != np.float64 and np.issubdtype(p.dtype, np.floating):
        atol = max(atol, np.sqrt(np.finfo(p.dtype).eps))
    p = p.astype(float)
    if p.shape != (K,):
        raise ValueError(f"probabilities must have shape ({K},), got {p.shape}")
    total = p.sum()
    if np.isnan(total):
        raise ValueError("probabilities contain NaN")
    if np.any(p < 0):
        raise ValueError("probabilities are not non-negative")
    if abs(total - 1.0) > atol:
        raise ValueError(f"probabilities sum to {total!r}, not 1")
    return _cdf(p)


def _cdf(p) -> list[float]:
    """`_choice_cdf` of a float64 row p that passes its checks."""
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return cdf.tolist()


def _markov_chain(u, p_init, transition, K: int) -> np.ndarray:
    """0-based states of a K-state chain, one per uniform in u.

    State t is `rng.choice(K, p=row)` for p_init at t = 0 and for the row of
    state t-1 after it, with u[t] as the uniform that call would draw.
    """
    init = _choice_cdf(p_init, K)
    rows = [_choice_cdf(transition[k], K) for k in range(K)]

    def step(state, x):
        return bisect.bisect_right(rows[state], x)

    u = u.tolist()
    return np.array(list(itertools.accumulate(u[1:], step, initial=bisect.bisect_right(init, u[0]))))


def gen_io_hmm(cfg: ExperimentConfig):
    """Markov-switching logistic responses to uniform scalar inputs.

    Inputs carry a trailing bias coordinate; the hidden state follows the
    configured chain and selects the logistic parameter for each response.
    The chain inverts one batch of m uniforms, the stream that m calls of
    `rng.choice` would consume, so it draws the same states.
    """
    rng = np.random.default_rng(cfg.seed)
    states = _markov_chain(rng.random(cfg.m), cfg.p_init, cfg.transition, cfg.K)
    xbar = rng.uniform(cfg.lo, cfg.hi, size=cfg.m)
    X = np.column_stack([xbar, np.ones(cfg.m)])
    logits = np.einsum("ij,ij->i", X, cfg.true_thetas[states])
    y = (rng.uniform(size=cfg.m) < 1.0 / (1.0 + np.exp(-logits))).astype(float)
    return model.dataset(X, y, ordered=True), states + 1, cfg.true_thetas


def generate(cfg: ExperimentConfig):
    """Dispatch to the named generator; returns (data, labels, thetas)."""
    gens = {
        CONSTRAINED_KMEANS: gen_constrained_kmeans,
        MIXTURE_LINREG: gen_mixture_linreg,
        FORGETTING_Q: gen_forgetting_q,
        IO_HMM: gen_io_hmm,
    }
    return gens[cfg.name](cfg)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def aligned_accuracy(pred, truth, K: int):
    """Best label agreement over all K! relabelings of the prediction.

    Returns (accuracy, perm) where perm[k-1] is the true label assigned to
    predicted label k. K is capped at 8 to keep the search exhaustive.
    """
    if K > 8:
        raise ValueError("exhaustive alignment supports K <= 8")
    pred = np.asarray(pred, dtype=int)
    truth = np.asarray(truth, dtype=int)
    best_acc, best_perm = -1.0, None
    for perm in itertools.permutations(range(1, K + 1)):
        table = np.asarray(perm)
        acc = float(np.mean(table[pred - 1] == truth))
        if acc > best_acc:
            best_acc, best_perm = acc, perm
    return best_acc, best_perm


def apply_permutation(pred, perm):
    """Relabel predictions by perm (as returned by aligned_accuracy)."""
    table = np.asarray(perm)
    return table[np.asarray(pred, dtype=int) - 1]


def aligned_theta_rmse(thetas_pred, thetas_true, perm):
    """Per-true-factor RMSE between aligned recovered and true parameters."""
    thetas_true = np.asarray(thetas_true, dtype=float)
    K, n = thetas_true.shape
    out = np.zeros(K)
    for k in range(K):
        j = perm[k] - 1  # predicted factor k explains true factor j
        out[j] = float(np.linalg.norm(np.asarray(thetas_pred[k]) - thetas_true[j])) / np.sqrt(n)
    return out


def estimate_transition(labels, K: int) -> np.ndarray:
    """Row-normalized transition counts of a 1-based label sequence.

    States that never transition get a uniform row. Rows sum to 1 exactly;
    the largest entry absorbs the float rounding residual.
    """
    labels = np.asarray(labels, dtype=int)
    counts = np.zeros((K, K))
    for a, b in zip(labels[:-1], labels[1:]):
        counts[a - 1, b - 1] += 1.0
    out = np.empty((K, K))
    for k in range(K):
        s = counts[k].sum()
        out[k] = counts[k] / s if s > 0 else np.full(K, 1.0 / K)
        out[k, int(np.argmax(out[k]))] += 1.0 - out[k].sum()
    return out


# ---------------------------------------------------------------------------
# canned fitting problems
# ---------------------------------------------------------------------------


def kmeans_spec(constrained: bool, restarts: int, seed: int) -> model.ModelSpec:
    atoms = [model.polyhedron(KMEANS_A, KMEANS_B)] if constrained else []
    controls = model.SolverControls(restarts=restarts, seed=seed)
    return model.shared_spec(4, 2, model.squared_distance(), atoms, controls=controls)


def mixture_spec(restarts: int, seed: int) -> model.ModelSpec:
    controls = model.SolverControls(restarts=restarts, seed=seed)
    return model.shared_spec(3, 10, model.square_regression(), controls=controls)


def forgetting_spec(lam: float, restarts: int, seed: int) -> model.ModelSpec:
    controls = model.SolverControls(restarts=restarts, seed=seed)
    return model.ModelSpec(
        K=2,
        n=5,
        loss_per_factor=(model.multinomial_logit(),) * 2,
        constraints_per_factor=(
            (model.nonneg(), model.monotone_nonincreasing()),
            (model.nonpos(), model.monotone_nondecreasing()),
        ),
        f_regularizers=(model.kl_chain(lam),),
        controls=controls,
    )


def iohmm_spec(lam_theta: float, lam_z: float, restarts: int, seed: int) -> model.ModelSpec:
    inf = np.inf
    controls = model.SolverControls(restarts=restarts, seed=seed)
    return model.ModelSpec(
        K=3,
        n=2,
        loss_per_factor=(model.binary_logit(),) * 3,
        constraints_per_factor=(
            (model.box([-inf, -inf], [0.0, inf]),),
            (model.box([0.0, -inf], [inf, inf]),),
            (model.box([0.0, -inf], [inf, inf]),),
        ),
        p_regularizers=(model.group_l2(lam_theta),),
        f_regularizers=(model.kl_chain(lam_z),),
        controls=controls,
    )


# ---------------------------------------------------------------------------
# reproduction drivers
# ---------------------------------------------------------------------------


def run_constrained_kmeans(seed: int, restarts: int = 10, jobs: int = 1) -> dict:
    """Fit the polytope-constrained and unconstrained location models."""
    cfg = experiment_config(CONSTRAINED_KMEANS, seed)
    data, _, _ = gen_constrained_kmeans(cfg)
    fit_con = engine.fit(kmeans_spec(True, restarts, seed), data, jobs=jobs)
    fit_unc = engine.fit(kmeans_spec(False, restarts, seed), data, jobs=jobs)
    margins_con = np.array([float((KMEANS_A @ th - KMEANS_B).max()) for th in fit_con.thetas])
    margins_unc = np.array([float((KMEANS_A @ th - KMEANS_B).max()) for th in fit_unc.thetas])
    return {
        "config": cfg,
        "data": data,
        "constrained": fit_con,
        "unconstrained": fit_unc,
        "margins_constrained": margins_con,
        "margins_unconstrained": margins_unc,
    }


def run_mixture_linreg(seed: int, restarts: int = 10, jobs: int = 1) -> dict:
    """Fit the regression mixture and score label/parameter recovery."""
    cfg = experiment_config(MIXTURE_LINREG, seed)
    data, labels, thetas_true = gen_mixture_linreg(cfg)
    fit = engine.fit(mixture_spec(restarts, seed), data, jobs=jobs)
    acc, perm = aligned_accuracy(fit.labels, labels, cfg.K)
    rmse = aligned_theta_rmse(fit.thetas, thetas_true, perm)
    return {
        "config": cfg,
        "data": data,
        "fit": fit,
        "truth": labels,
        "accuracy": acc,
        "perm": perm,
        "rmse_per_factor": rmse,
    }


def run_forgetting_q(seed: int, lams=(0.0, 1.0), restarts: int = 5, jobs: int = 1) -> dict:
    """Fit the bandit study once per chain weight on one simulated run."""
    cfg = experiment_config(FORGETTING_Q, seed)
    data, labels, thetas_true = gen_forgetting_q(cfg)
    runs = {}
    for lam in lams:
        fit = engine.fit(forgetting_spec(lam, restarts, seed), data, jobs=jobs)
        acc, perm = aligned_accuracy(fit.labels, labels, cfg.K)
        runs[lam] = {"fit": fit, "accuracy": acc, "perm": perm}
    return {
        "config": cfg,
        "data": data,
        "truth": labels,
        "true_thetas": thetas_true,
        "runs": runs,
    }


def run_io_hmm(seed: int, restarts: int = 5, jobs: int = 1) -> dict:
    """Fit the switching logistic model and estimate the hidden chain."""
    cfg = experiment_config(IO_HMM, seed)
    data, labels, thetas_true = gen_io_hmm(cfg)
    fit = engine.fit(iohmm_spec(cfg.lam_theta, cfg.lam_z, restarts, seed), data, jobs=jobs)
    acc, perm = aligned_accuracy(fit.labels, labels, cfg.K)
    aligned_pred = apply_permutation(fit.labels, perm)
    transition = estimate_transition(aligned_pred, cfg.K)
    max_dev = float(np.abs(transition - IOHMM_P_TR).max())
    return {
        "config": cfg,
        "data": data,
        "fit": fit,
        "truth": labels,
        "accuracy": acc,
        "perm": perm,
        "transition": transition,
        "max_deviation": max_dev,
    }

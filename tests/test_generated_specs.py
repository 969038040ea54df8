"""engine.fit on random small specs that validate (MacIver et al., JOSS 2019).

`random_case(rng)` draws one spec and its data: K <= 3 factors on R^n,
n <= 4, 5 <= m < 40 rows, one of the six losses, 0-2 constraint atoms of
eight kinds drawn around a known point that they all contain, l1, group l2
and a KL chain each at 30%, and features at a scale from 1e-3 to 1e3. Every
such spec must fit: no EngineFailure, thetas in their sets and a monotone
objective trace. Examples are derandomized, so every run of the suite draws
the same ones.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

import dlfmkit as dk  # noqa: E402
from dlfmkit import kernels, model  # noqa: E402

LOSSES = (dk.square_regression(), dk.lp_regression(1.0), dk.huber(1.0), dk.squared_distance(),
          dk.binary_logit(), dk.multinomial_logit())
ATOM_KINDS = (model.NONNEG, model.NONPOS, model.BOX, model.POLYHEDRON, model.MONOTONE_NONINCREASING,
              model.MONOTONE_NONDECREASING, model.NORM_BALL2, model.SUM_EQUALS)

MONOTONE_TOL = 1e-8  # relative rise allowed between half-steps, as in the acceptance gate
FEASIBILITY_TOL = 1e-6


def _atoms_around(rng, n, kinds):
    """Atoms of the given kinds on R^n and a point x0 that they all contain."""
    x0 = rng.normal(size=n)
    if model.NONNEG in kinds or model.NONPOS in kinds:
        x0 = np.abs(x0) * ((model.NONNEG in kinds) - (model.NONPOS in kinds))
    if model.MONOTONE_NONINCREASING in kinds and model.MONOTONE_NONDECREASING in kinds:
        x0 = np.full(n, x0.mean())
    elif model.MONOTONE_NONINCREASING in kinds:
        x0 = np.sort(x0)[::-1]
    elif model.MONOTONE_NONDECREASING in kinds:
        x0 = np.sort(x0)
    atoms = []
    for kind in kinds:
        if kind == model.BOX:
            lo, hi = x0 - rng.uniform(0.0, 2.0, size=n), x0 + rng.uniform(0.0, 2.0, size=n)
            lo[rng.random(n) < 0.3], hi[rng.random(n) < 0.3] = -np.inf, np.inf
            atoms.append(dk.box(lo, hi))
        elif kind == model.POLYHEDRON:
            A = rng.normal(size=(int(rng.integers(1, 4)), n))
            atoms.append(dk.polyhedron(A, A @ x0 + rng.uniform(0.0, 1.0, size=len(A))))
        elif kind == model.NORM_BALL2:
            atoms.append(dk.norm_ball2(float(np.linalg.norm(x0)) + rng.uniform(0.1, 2.0)))
        elif kind == model.SUM_EQUALS:
            atoms.append(dk.sum_equals(float(x0.sum())))
        else:
            atoms.append(model.ConstraintAtom(kind))
    return atoms, x0


def random_case(rng):
    """(spec, data) of one random small spec that validates."""
    K, n, m = int(rng.integers(1, 4)), int(rng.integers(1, 5)), int(rng.integers(5, 40))
    loss = LOSSES[int(rng.integers(len(LOSSES)))]
    kinds = [ATOM_KINDS[int(i)] for i in rng.integers(len(ATOM_KINDS), size=int(rng.integers(3)))]
    atoms, x0 = _atoms_around(rng, n, kinds)
    scale = 10.0 ** rng.uniform(-3.0, 3.0)
    if loss.kind == model.MULTINOMIAL_LOGIT:
        p = int(rng.integers(2, 4))
        F = scale * rng.normal(size=(m, p, n))
        y = np.eye(p)[np.argmax(F @ x0 + rng.gumbel(size=(m, p)), axis=1)]
    else:
        F = scale * rng.normal(size=(m, n))
        t = F @ x0
        if loss.kind == model.BINARY_LOGIT:
            y = (rng.random(m) < 1.0 / (1.0 + np.exp(-np.clip(t, -50.0, 50.0)))).astype(float)
        elif loss.kind == model.SQUARED_DISTANCE:
            y = scale * rng.normal(size=m)
        else:
            y = t + scale * rng.normal(size=m)
    p_regs = [reg(float(rng.uniform(0.01, 2.0))) for reg in (dk.l1, dk.group_l2) if rng.random() < 0.3]
    chain = rng.random() < 0.3
    f_regs = [dk.kl_chain(float(rng.uniform(0.1, 2.0)))] if chain else []
    controls = model.SolverControls(restarts=2, max_iter=60, seed=int(rng.integers(1000)))
    spec = dk.shared_spec(K, n, loss, atoms, p_regs, f_regs, controls)
    return spec, dk.dataset(F, y, ordered=chain)


def check_fit(spec, res):
    """Every failed check of a fit, as one message each."""
    problems = []
    seq = [v for _, after_p, after_f in res.objective_trace for v in (after_p, after_f)]
    if not seq or not np.isfinite(seq).all():
        problems.append("objective trace is empty or not finite")
    rise = max(((b - a) / max(1.0, abs(a)) for a, b in zip(seq, seq[1:])), default=0.0)
    if rise > MONOTONE_TOL:
        problems.append(f"objective trace rises by {rise:.3g} (relative)")
    for k, theta in enumerate(res.thetas):
        violation = kernels.max_violation(spec.constraints_per_factor[k], theta)
        if not violation <= FEASIBILITY_TOL:
            problems.append(f"theta {k} violates its constraints by {violation:.3g}")
    return problems


@settings(max_examples=50, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1))
def test_generated_specs_fit(seed):
    spec, data = random_case(np.random.default_rng(seed))
    assert model.validate(spec, data).ok
    res = dk.fit(spec, data)  # raises EngineFailure if every restart breaks down
    assert check_fit(spec, res) == []

"""Property tests: random inputs drawn by hypothesis (MacIver et al., JOSS 2019).

Examples are derandomized, so every run of the suite draws the same ones.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

import dlfmkit as dk  # noqa: E402
from dlfmkit import model  # noqa: E402


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    m=st.integers(1, 80),
    K=st.integers(2, 5),
    lam=st.floats(1e-3, 10.0),
    scale=st.floats(1e-3, 1e4),
    seed=st.integers(0, 2**32 - 1),
)
def test_kl_f_step_descends_on_stochastic_rows(m, K, lam, scale, seed):
    rng = np.random.default_rng(seed)
    R = rng.normal(size=(m, K)) * scale
    Z0 = rng.dirichlet(np.ones(K), size=m)

    def total(Z):
        return float((Z * R).sum()) + lam * model.kl_chain_value(Z)

    start = np.maximum(Z0, 1e-12)
    start /= start.sum(axis=1, keepdims=True)
    Z, converged = dk.solve_f_kl(R, lam, Z0, max_iter=500)
    assert Z.shape == (m, K) and np.all(Z > 0)
    assert np.abs(Z.sum(axis=1) - 1.0).max() <= 1e-12
    assert total(Z) <= total(start) + 1e-12 * max(1.0, abs(total(start)))
    Z_again, converged_again = dk.solve_f_kl(R, lam, Z0, max_iter=500)
    assert np.array_equal(Z, Z_again) and converged == converged_again

import numpy as np
import pytest

import dlfmkit as dk
from dlfmkit import experiments as ex
from dlfmkit import model


def previous_gen_io_hmm(cfg):
    """gen_io_hmm as it was when it drew its chain with one rng.choice per sample."""
    rng = np.random.default_rng(cfg.seed)
    states = np.zeros(cfg.m, dtype=int)
    states[0] = rng.choice(cfg.K, p=cfg.p_init)
    for t in range(1, cfg.m):
        states[t] = rng.choice(cfg.K, p=cfg.transition[states[t - 1]])
    xbar = rng.uniform(cfg.lo, cfg.hi, size=cfg.m)
    X = np.column_stack([xbar, np.ones(cfg.m)])
    logits = np.einsum("ij,ij->i", X, cfg.true_thetas[states])
    y = (rng.uniform(size=cfg.m) < 1.0 / (1.0 + np.exp(-logits))).astype(float)
    return model.dataset(X, y, ordered=True), states + 1, cfg.true_thetas


def previous_gen_forgetting_q(cfg):
    """gen_forgetting_q as it was when each trial called rng.choice and rng.uniform."""
    rng = np.random.default_rng(cfg.seed)
    p = cfg.classes
    hist = [np.zeros(p) for _ in range(cfg.n)]  # u(t), u(t-1), ...
    feats = np.zeros((cfg.m, p, cfg.n))
    obs = np.zeros((cfg.m, p))
    labels = np.zeros(cfg.m, dtype=int)
    for t in range(cfg.m):
        X = np.column_stack(hist)
        label = ((t // cfg.switch_period) % 2) + 1
        theta = cfg.true_thetas[label - 1]
        probs = ex._softmax(X @ theta)
        arm = rng.choice(p, p=probs)
        rewarded = rng.uniform() < cfg.reward_probs[arm]
        feats[t] = X
        obs[t, arm] = 1.0
        labels[t] = label
        u_next = np.zeros(p)
        if rewarded:
            u_next[arm] = 1.0
        hist = [u_next] + hist[:-1]
    return model.dataset(feats, obs, ordered=True), labels, cfg.true_thetas


def assert_same_data(got, ref):
    (data, labels, thetas), (ref_data, ref_labels, ref_thetas) = got, ref
    for a, b in ((data.features, ref_data.features), (data.observations, ref_data.observations),
                 (labels, ref_labels)):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()
    assert data.ordered and thetas is ref_thetas


def assert_same_io_hmm(cfg):
    data, labels, thetas = ex.gen_io_hmm(cfg)
    ref_data, ref_labels, ref_thetas = previous_gen_io_hmm(cfg)
    for a, b in ((data.features, ref_data.features), (data.observations, ref_data.observations),
                 (labels, ref_labels)):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()
    assert data.ordered and thetas is ref_thetas


# a zero entry in every row, so consecutive CDF values tie and side="right" decides
ZERO_ENTRY_P_TR = np.array([[0.5, 0.0, 0.5], [0.2, 0.8, 0.0], [0.0, 0.3, 0.7]])
# rows whose sums round below 1, so dividing the CDF by its last entry moves it
ROUNDED_P_TR = np.array([[0.3, 0.35, 0.35], [0.05, 0.05, 1 - 0.05 - 0.05], [0.15, 0.2, 1 - 0.15 - 0.2]])


class TestKmeansGenerator:
    def test_noise_free_points_on_diamond(self):
        cfg = ex.experiment_config(ex.CONSTRAINED_KMEANS, seed=0, noise_sigma=0.0)
        data, _, _ = ex.generate(cfg)
        norms = np.abs(data.features).sum(axis=1)
        assert np.allclose(norms, 2.0, atol=1e-12)

    def test_shapes_and_spread(self):
        cfg = ex.experiment_config(ex.CONSTRAINED_KMEANS, seed=1)
        data, labels, thetas = ex.generate(cfg)
        assert data.features.shape == (500, 2)
        assert labels is None and thetas is None
        # all four diamond faces get visited
        signs = set(map(tuple, np.sign(np.round(data.features, 1)).astype(int)))
        assert len(signs) >= 4


class TestMixtureGenerator:
    def test_label_frequencies(self):
        cfg = ex.experiment_config(ex.MIXTURE_LINREG, seed=0)
        data, labels, thetas = ex.generate(cfg)
        assert data.features.shape == (500, 10)
        assert np.array_equal(np.asarray(thetas), ex.MIXTURE_THETAS)
        freq = np.bincount(labels, minlength=4)[1:] / 500.0
        assert np.all(np.abs(freq - np.array([0.4, 0.3, 0.3])) <= 0.05)

    def test_observations_follow_assigned_line(self):
        cfg = ex.experiment_config(ex.MIXTURE_LINREG, seed=2, noise_sigma=0.0)
        data, labels, thetas = ex.generate(cfg)
        th = np.asarray(thetas)
        pred = np.einsum("ij,ij->i", data.features, th[labels - 1])
        assert np.allclose(pred, data.observations, atol=1e-9)


class TestForgettingGenerator:
    def test_feature_stack_shape(self):
        cfg = ex.experiment_config(ex.FORGETTING_Q, seed=0)
        data, labels, _ = ex.generate(cfg)
        assert data.features.shape == (200, 3, 5)
        assert data.ordered

    def test_reward_signal_sparsity(self):
        # each lag column holds at most one nonzero arm entry
        cfg = ex.experiment_config(ex.FORGETTING_Q, seed=3)
        data, _, _ = ex.generate(cfg)
        nz = (data.features != 0.0).sum(axis=1)
        assert nz.max() <= 1

    def test_regime_switches_every_20(self):
        cfg = ex.experiment_config(ex.FORGETTING_Q, seed=1)
        _, labels, _ = ex.generate(cfg)
        assert labels[0] == 1
        assert labels[19] == 1
        assert labels[20] == 2
        assert labels[39] == 2
        assert labels[40] == 1

    def test_choices_one_hot(self):
        cfg = ex.experiment_config(ex.FORGETTING_Q, seed=4)
        data, _, _ = ex.generate(cfg)
        assert data.observations.shape == (200, 3)
        assert set(np.unique(data.observations)) == {0.0, 1.0}
        assert np.allclose(data.observations.sum(axis=1), 1.0)

    @pytest.mark.parametrize("m", [1, 2, 200, 2000])
    def test_matches_per_trial_choice_loop(self, m):
        for seed in range(12 if m == 2000 else 40):
            cfg = ex.experiment_config(ex.FORGETTING_Q, seed=seed, m=m)
            assert_same_data(ex.gen_forgetting_q(cfg), previous_gen_forgetting_q(cfg))

    @pytest.mark.parametrize("overrides", [
        dict(n=1, true_thetas=ex.FORGETTING_THETAS[:, :1]),
        dict(switch_period=3),
        dict(classes=2, reward_probs=np.array([0.9, 0.1])),
    ], ids=["one_lag", "short_period", "two_arms"])
    def test_matches_per_trial_choice_loop_on_overrides(self, overrides):
        for seed in range(10):
            cfg = ex.experiment_config(ex.FORGETTING_Q, seed=seed, m=300, **overrides)
            assert_same_data(ex.gen_forgetting_q(cfg), previous_gen_forgetting_q(cfg))


class TestIoHmmGenerator:
    def test_bias_column(self):
        cfg = ex.experiment_config(ex.IO_HMM, seed=0)
        data, labels, thetas = ex.generate(cfg)
        assert data.features.shape == (500, 2)
        assert np.allclose(data.features[:, 1], 1.0)
        assert data.ordered
        assert set(np.unique(data.observations)) <= {0.0, 1.0}

    def test_state_transitions_near_nominal(self):
        cfg = ex.experiment_config(ex.IO_HMM, seed=1, m=5000)
        _, labels, _ = ex.generate(cfg)
        est = ex.estimate_transition(labels, 3)
        assert np.all(np.abs(est - ex.IOHMM_P_TR) <= 0.08)

    def test_starts_in_first_state(self):
        for seed in range(5):
            cfg = ex.experiment_config(ex.IO_HMM, seed=seed)
            _, labels, _ = ex.generate(cfg)
            assert labels[0] == 1

    @pytest.mark.parametrize("m", [1, 2, 500, 5000])
    def test_matches_per_sample_choice_loop(self, m):
        for seed in range(50):
            assert_same_io_hmm(ex.experiment_config(ex.IO_HMM, seed=seed, m=m))

    @pytest.mark.parametrize("overrides", [
        dict(transition=ZERO_ENTRY_P_TR),
        dict(transition=ZERO_ENTRY_P_TR, p_init=np.array([0.0, 0.0, 1.0])),
        dict(p_init=np.array([0.2, 0.5, 0.3])),
        dict(p_init=[0.25, 0.0, 0.75], transition=[[0.3, 0.35, 0.35], [0.0, 1.0, 0.0], [0.6, 0.0, 0.4]]),
        # rows that sum to 1 only within float32's tolerance, which choice applies to them
        dict(p_init=np.array([0.2, 0.5, 0.3], dtype=np.float32), transition=ex.IOHMM_P_TR.astype(np.float32)),
    ], ids=["zero_transition_entries", "zero_entries_start_last", "nonuniform_p_init", "lists", "float32"])
    def test_matches_per_sample_choice_loop_on_overrides(self, overrides):
        for seed in range(20):
            for m in (1, 2, 500):
                assert_same_io_hmm(ex.experiment_config(ex.IO_HMM, seed=seed, m=m, **overrides))

    @pytest.mark.parametrize("transition", [ZERO_ENTRY_P_TR, ROUNDED_P_TR], ids=["zero_entries", "rounded_sums"])
    def test_chain_inverts_uniforms_like_choice(self, transition):
        # uniforms on and next to every CDF value, raw and normalized: one on a
        # value shared with a zero-probability state goes past it, as
        # Generator.choice's searchsorted(side="right") does, and the CDFs are
        # choice's own, cumsum divided by its last entry
        def choice_cdf(p):
            cdf = np.cumsum(p)
            cdf /= cdf[-1]
            return cdf

        rows = [*transition, ex.IOHMM_P_INIT]
        special = {0.0}
        for row in rows:
            for c in [*np.cumsum(row)[:-1], *choice_cdf(row)[:-1]]:
                special.update((np.nextafter(c, -1.0), c, np.nextafter(c, 2.0)))
        pool = np.array(sorted(x for x in special if 0.0 <= x < 1.0))
        u = np.random.default_rng(0).choice(pool, size=3000)
        ref = [int(np.searchsorted(choice_cdf(ex.IOHMM_P_INIT), u[0], side="right"))]
        for x in u[1:]:
            ref.append(int(np.searchsorted(choice_cdf(transition[ref[-1]]), x, side="right")))
        states = ex._markov_chain(u, ex.IOHMM_P_INIT, transition, 3)
        assert states.dtype == np.dtype(int)
        assert states.tolist() == ref
        assert len(set(zip(ref, ref[1:]))) == sum(int(v > 0) for v in np.ravel(transition))
        for p_init in rows:  # the first state, from each row as the initial law
            first = [ex._markov_chain(np.array([x]), p_init, transition, 3)[0] for x in pool]
            assert first == [int(np.searchsorted(choice_cdf(p_init), x, side="right")) for x in pool]

    @pytest.mark.parametrize("overrides", [
        dict(p_init=np.array([0.5, 0.5])),
        dict(transition=np.array([[0.5, 0.5], [0.5, 0.5], [0.5, 0.5]])),
        dict(p_init=np.array([1.1, -0.1, 0.0])),
        dict(transition=np.array([[0.9, 0.2, -0.1], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])),
        dict(p_init=np.array([np.nan, 0.5, 0.5])),
        dict(transition=np.array([[np.nan, 0.5, 0.5], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])),
        dict(p_init=np.array([0.5, 0.5, 0.1])),
        dict(transition=np.array([[0.5, 0.5, 0.1], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])),
    ], ids=["init_length", "row_length", "init_negative", "row_negative", "init_nan", "row_nan",
            "init_sum_1.1", "row_sum_1.1"])
    def test_rejects_what_choice_rejects(self, overrides):
        # the chain starts in state 0, so the per-sample loop reaches row 0 at t=1
        cfg = ex.experiment_config(ex.IO_HMM, seed=0, m=10, **overrides)
        with pytest.raises(ValueError):
            previous_gen_io_hmm(cfg)
        with pytest.raises(ValueError):
            ex.gen_io_hmm(cfg)

    def test_accepts_rows_that_sum_to_one_up_to_rounding(self):
        row = np.array([0.3, 0.35, 0.35])
        assert row.sum() != 1.0
        within = np.array([0.3, 0.35, 0.35 + 1e-9])
        P = np.array([row, within, [0.0, 0.0, 1.0]])
        for seed in range(5):
            assert_same_io_hmm(ex.experiment_config(ex.IO_HMM, seed=seed, m=200, p_init=row, transition=P))


class TestAlignedAccuracy:
    def test_identity(self):
        pred = np.array([1, 2, 3, 1])
        acc, perm = ex.aligned_accuracy(pred, pred, 3)
        assert acc == 1.0
        assert list(perm) == [1, 2, 3]

    def test_swap_recovered(self):
        truth = np.array([1, 1, 2, 2])
        pred = np.array([2, 2, 1, 1])
        acc, perm = ex.aligned_accuracy(pred, truth, 2)
        assert acc == 1.0
        assert list(perm) == [2, 1]

    def test_apply_permutation_roundtrip(self):
        truth = np.array([1, 2, 1, 2, 2])
        pred = np.array([2, 1, 2, 1, 1])
        acc, perm = ex.aligned_accuracy(pred, truth, 2)
        assert np.array_equal(ex.apply_permutation(pred, perm), truth)

    def test_relabeling_invariant(self):
        rng = np.random.default_rng(0)
        truth = rng.integers(1, 4, 60)
        pred = rng.integers(1, 4, 60)
        base, _ = ex.aligned_accuracy(pred, truth, 3)
        relab = np.choose(pred - 1, [3, 1, 2])
        again, _ = ex.aligned_accuracy(relab, truth, 3)
        assert base == again

    def test_uniform_noise_near_half(self):
        rng = np.random.default_rng(1)
        truth = rng.integers(1, 3, 4000)
        pred = rng.integers(1, 3, 4000)
        acc, _ = ex.aligned_accuracy(pred, truth, 2)
        assert 0.5 <= acc <= 0.56

    def test_rejects_large_k(self):
        with pytest.raises(ValueError):
            ex.aligned_accuracy(np.ones(3, dtype=int), np.ones(3, dtype=int), 9)


class TestThetaRmse:
    def test_zero_on_exact(self):
        th = [np.array([1.0, 2.0]), np.array([3.0, 4.0])]
        out = ex.aligned_theta_rmse(th, np.array(th), (1, 2))
        assert np.allclose(out, 0.0)

    def test_normalized_by_dimension(self):
        pred = [np.array([1.0, 1.0, 1.0, 1.0])]
        true = np.zeros((1, 4))
        out = ex.aligned_theta_rmse(pred, true, (1,))
        assert out[0] == pytest.approx(1.0)  # norm 2 over sqrt(4)


class TestEstimateTransition:
    def test_small_example(self):
        est = ex.estimate_transition(np.array([1, 1, 2, 2]), 2)
        assert np.allclose(est, [[0.5, 0.5], [0.0, 1.0]])

    def test_constant_sequence(self):
        est = ex.estimate_transition(np.array([1, 1, 1]), 2)
        assert np.allclose(est[0], [1.0, 0.0])
        assert np.allclose(est[1], [0.5, 0.5])  # unvisited row: uniform

    def test_rows_sum_to_one_exactly(self):
        rng = np.random.default_rng(2)
        labels = rng.integers(1, 4, 300)
        est = ex.estimate_transition(labels, 3)
        assert np.all(est.sum(axis=1) == 1.0)


class TestSpecBuilders:
    def test_kmeans_spec_flags(self):
        con = ex.kmeans_spec(constrained=True, restarts=3, seed=1)
        unc = ex.kmeans_spec(constrained=False, restarts=3, seed=1)
        assert any(a.kind == "polyhedron" for a in con.constraints_per_factor[0])
        assert not unc.constraints_per_factor[0]

    def test_forgetting_spec_shapes(self):
        spec = ex.forgetting_spec(lam=1.0, restarts=2, seed=0)
        assert spec.K == 2 and spec.n == 5
        kinds0 = {a.kind for a in spec.constraints_per_factor[0]}
        kinds1 = {a.kind for a in spec.constraints_per_factor[1]}
        assert kinds0 == {"nonneg", "monotone_nonincreasing"}
        assert kinds1 == {"nonpos", "monotone_nondecreasing"}
        assert spec.f_regularizers[0].weight == 1.0

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            ex.experiment_config("no_such_study")


class TestConfigOverrides:
    def test_override_applies(self):
        cfg = ex.experiment_config(ex.MIXTURE_LINREG, seed=5, m=100)
        assert cfg.m == 100 and cfg.seed == 5

    def test_unknown_override_rejected(self):
        with pytest.raises(TypeError):
            ex.experiment_config(ex.MIXTURE_LINREG, seed=0, bogus=1)

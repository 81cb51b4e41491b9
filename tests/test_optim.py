import numpy as np
import pytest

from comlabel.complementary import corrupt_uniform
from comlabel.dataset import (
    GenerativeSpec,
    make_exclusive_spec,
    sample_from_generative,
    subset_membership,
)
from comlabel.loss import batch_objective
from comlabel.metrics import evaluate_all
from comlabel.model import forward, init_linear
from comlabel.optim import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    AdamState,
    NonFiniteGradientError,
    TrainConfig,
    adam_step,
    init_adam,
    train_cl_predictor,
    train_clrl,
    train_mlcl,
    train_supervised,
)
from comlabel.transition import uniform_transition


def deterministic_cl_spec(K):
    """Exclusive classes where class k always draws complementary label k+1 mod K,
    making the complementary label a deterministic (separable) function of x."""
    n_subsets = 2**K - 2
    probs = np.zeros(n_subsets)
    cl = np.zeros((n_subsets, K))
    members = subset_membership(K)
    for k in range(K):
        idx = (1 << k) - 1
        probs[idx] = 1.0 / K
        cl[idx, (k + 1) % K] = 1.0
    for i in range(n_subsets):
        if cl[i].sum() == 0:  # unused subsets still need valid rows
            comp = 1.0 - members[i]
            cl[i] = comp / comp.sum()
    return GenerativeSpec(K, probs, cl)


def reference_adam_step(params, grads, state, cfg):
    """The out-of-place update the in-place `adam_step` must reproduce bit for bit."""
    t = state.t + 1
    new_params, new_m, new_v = [], [], []
    for p, g, m, v in zip(params, grads, state.m, state.v):
        g = g + cfg.weight_decay * p
        m = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * g
        v = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * g * g
        m_hat = m / (1.0 - ADAM_BETA1**t)
        v_hat = v / (1.0 - ADAM_BETA2**t)
        new_params.append(p - cfg.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS))
        new_m.append(m)
        new_v.append(v)
    return new_params, AdamState(m=new_m, v=new_v, t=t)


class TestAdamStep:
    def test_zero_gradient_no_decay_is_identity(self):
        cfg = TrainConfig(weight_decay=0.0)
        params = [np.array([[1.0, -2.0]]), np.array([0.5])]
        before = [p.copy() for p in params]
        grads = [np.zeros((1, 2)), np.zeros(1)]
        out, state = adam_step(params, grads, init_adam(params), cfg)
        np.testing.assert_array_equal(out[0], before[0])
        np.testing.assert_array_equal(out[1], before[1])
        assert state.t == 1

    @pytest.mark.parametrize("weight_decay", [0.0, 1e-2])
    def test_in_place_update_bit_identical_to_reference(self, weight_decay):
        cfg = TrainConfig(learning_rate=0.05, weight_decay=weight_decay)
        rng = np.random.default_rng(8)
        params = [rng.standard_normal((4, 7)), rng.standard_normal(4)]  # (K, d) and (K,)
        ref_params, ref_state = [p.copy() for p in params], init_adam(params)
        state = init_adam(params)
        for _ in range(50):
            grads = [rng.standard_normal(p.shape) * 10.0 ** rng.integers(-4, 3) for p in params]
            ref_params, ref_state = reference_adam_step(ref_params, grads, ref_state, cfg)
            out, out_state = adam_step(params, grads, state, cfg)
            assert out is params and out_state is state
        assert state.t == ref_state.t == 50
        for got, want in zip(params + state.m + state.v, ref_params + ref_state.m + ref_state.v):
            assert np.array_equal(got, want)

    def test_nonfinite_gradient_leaves_params_and_moments_untouched(self):
        cfg = TrainConfig(weight_decay=1e-2)
        rng = np.random.default_rng(2)
        params = [rng.standard_normal((3, 4)), rng.standard_normal(3)]
        state = init_adam(params)
        adam_step(params, [np.ones((3, 4)), np.ones(3)], state, cfg)
        snapshot = [a.copy() for a in params + state.m + state.v]
        # the good gradient comes first: nothing may be written before the bad one is seen
        grads = [np.ones((3, 4)), np.array([0.0, np.nan, 0.0])]
        with pytest.raises(NonFiniteGradientError, match=r"parameter 1 at index \(1,\) \(step 2\)"):
            adam_step(params, grads, state, cfg)
        assert state.t == 1
        for got, want in zip(params + state.m + state.v, snapshot):
            assert np.array_equal(got, want)

    def test_constant_gradient_reaches_lr_magnitude(self):
        # closed-form fixed point: with constant g, bias-corrected moments give
        # update -> lr * g / (|g| + eps) ~ lr * sign(g)
        cfg = TrainConfig(learning_rate=0.03, weight_decay=0.0)
        params = [np.array([0.0])]
        g = [np.array([0.37])]
        state = init_adam(params)
        prev = params[0].copy()
        for _ in range(300):
            params, state = adam_step(params, g, state, cfg)
        step = prev[0] - params[0][0]
        # after many steps each update has magnitude ~ lr
        last = params[0].copy()
        params, state = adam_step(params, g, state, cfg)
        np.testing.assert_allclose(abs(last[0] - params[0][0]), cfg.learning_rate, rtol=1e-6)

    def test_decay_pulls_toward_zero(self):
        cfg = TrainConfig(learning_rate=0.01, weight_decay=0.1)
        params = [np.array([5.0])]
        state = init_adam(params)
        for _ in range(50):
            params, state = adam_step(params, [np.zeros(1)], state, cfg)
        assert params[0][0] < 5.0

    def test_nonfinite_gradient_aborts_with_diagnostics(self):
        cfg = TrainConfig()
        params = [np.zeros((2, 2))]
        grads = [np.array([[0.0, np.nan], [0.0, 0.0]])]
        with pytest.raises(NonFiniteGradientError, match=r"parameter 0 at index \(0, 1\)"):
            adam_step(params, grads, init_adam(params), cfg)

    def test_deterministic(self):
        cfg = TrainConfig(seed=3)
        rng1, rng2 = np.random.default_rng(0), np.random.default_rng(0)
        params1 = [rng1.standard_normal((3, 4))]
        params2 = [rng2.standard_normal((3, 4))]
        s1, s2 = init_adam(params1), init_adam(params2)
        for step in range(20):
            g = [np.full((3, 4), 0.1 * (step + 1))]
            params1, s1 = adam_step(params1, g, s1, cfg)
            params2, s2 = adam_step(params2, g, s2, cfg)
        np.testing.assert_array_equal(params1[0], params2[0])


class TestTrainingLoops:
    def test_epochs_zero_returns_init(self):
        spec = make_exclusive_spec(3)
        _, comp = sample_from_generative(spec, 100, 4, seed=0)
        cfg = TrainConfig(epochs=0, seed=5)
        result = train_cl_predictor(comp, cfg)
        ref = init_linear(4, 3, "softmax", seed=5)
        np.testing.assert_array_equal(result.model.weights, ref.weights)
        assert result.epoch_losses == []

    def test_bit_identical_reruns(self):
        spec = make_exclusive_spec(4)
        _, comp = sample_from_generative(spec, 300, 5, seed=1)
        cfg = TrainConfig(epochs=5, seed=9)
        T = uniform_transition(4)
        a = train_mlcl(comp, T, cfg)
        b = train_mlcl(comp, T, cfg)
        np.testing.assert_array_equal(a.model.weights, b.model.weights)
        assert a.epoch_losses == b.epoch_losses

    def test_every_instance_visited_once_per_epoch(self, monkeypatch):
        spec = make_exclusive_spec(3)
        _, comp = sample_from_generative(spec, 103, 4, seed=2)  # odd n forces a short final batch
        seen: list[np.ndarray] = []

        def spy(model, X, kind, **kwargs):
            seen.append(X.shape[0])
            return batch_objective(model, X, kind, **kwargs)

        monkeypatch.setattr("comlabel.optim.batch_objective", spy)
        cfg = TrainConfig(epochs=3, batch_size=32, seed=0)
        train_cl_predictor(comp, cfg)
        per_epoch = (103 // 32) + 1
        assert len(seen) == 3 * per_epoch
        assert sum(seen[:per_epoch]) == 103  # full cover, short batch kept

    def test_cl_predictor_learns_separable_complementary_labels(self):
        K = 4
        spec = deterministic_cl_spec(K)
        _, comp = sample_from_generative(spec, 1500, 6, seed=3)
        cfg = TrainConfig(learning_rate=1e-2, epochs=200, seed=1)
        result = train_cl_predictor(comp, cfg)
        assert result.epoch_losses[-1] < 0.1 * np.log(K)

    def test_loss_mostly_nonincreasing(self):
        # on data with learnable signal the curve should descend essentially
        # every epoch; on pure-noise targets it merely plateaus
        spec = deterministic_cl_spec(4)
        _, comp = sample_from_generative(spec, 1000, 5, seed=4)
        for lr in (1e-2, 1e-3):
            cfg = TrainConfig(learning_rate=lr, epochs=100, seed=2)
            curve = train_cl_predictor(comp, cfg).epoch_losses
            drops = sum(1 for a, b in zip(curve, curve[1:]) if b <= a + 1e-9)
            assert drops >= 0.9 * (len(curve) - 1)

    def test_mlcl_bce_decreases_smoothed(self):
        K = 4
        spec = make_exclusive_spec(K)
        _, comp = sample_from_generative(spec, 1200, 5, seed=5)
        cfg = TrainConfig(learning_rate=1e-2, epochs=120, beta=0.0, seed=3)
        curve = np.array(train_mlcl(comp, uniform_transition(K), cfg).epoch_losses)
        smooth = np.convolve(curve, np.ones(5) / 5, mode="valid")
        assert smooth[-1] < smooth[0]
        drops = np.mean(np.diff(smooth) <= 1e-9)
        assert drops >= 0.9

    def test_mlcl_consistency_small(self):
        # uniform transition on exclusive-label data: hamming loss under 0.2
        K = 3
        spec = make_exclusive_spec(K)
        full, comp = sample_from_generative(spec, 2000, 5, seed=6)
        test_full, _ = sample_from_generative(spec, 600, 5, seed=7)
        cfg = TrainConfig(learning_rate=1e-2, epochs=150, seed=4)
        model = train_mlcl(comp, uniform_transition(K), cfg).model
        ham = evaluate_all(forward(model, test_full.features), test_full.y).hamming_loss
        assert ham < 0.2

    def test_supervised_memorizes_single_instance(self):
        import scipy.sparse as sp

        from comlabel.dataset import LabelSpace, MultiLabelDataset

        ds = MultiLabelDataset(sp.csr_matrix(np.ones((1, 3))), np.array([[1, 0, 1]]), LabelSpace(3))
        cfg = TrainConfig(learning_rate=1e-1, epochs=200, batch_size=1, seed=0, weight_decay=0.0)
        result = train_supervised(ds, cfg)
        assert result.epoch_losses[-1] < 1e-2
        scores = forward(result.model, ds.features)[0]
        np.testing.assert_array_equal(scores > 0.5, [True, False, True])

    def test_clrl_requires_relevant(self):
        spec = make_exclusive_spec(3)
        _, comp = sample_from_generative(spec, 50, 4, seed=8)
        with pytest.raises(ValueError, match="relevant"):
            train_clrl(comp, uniform_transition(3), TrainConfig(epochs=1))

    def test_clrl_with_full_truth_dominates_cl_only(self):
        from comlabel.complementary import ComplementaryDataset

        K = 4
        spec = make_exclusive_spec(K)
        full, comp = sample_from_generative(spec, 1500, 6, seed=9)
        test_full, _ = sample_from_generative(spec, 500, 6, seed=10)
        T = uniform_transition(K)
        cfg = TrainConfig(learning_rate=1e-2, epochs=150, seed=5)
        cl_model = train_mlcl(comp, T, cfg).model
        enriched = ComplementaryDataset(comp.features, comp.cl, comp.labels, relevant=full.y)
        clrl_model = train_clrl(enriched, T, cfg).model
        ap_cl = evaluate_all(forward(cl_model, test_full.features), test_full.y).average_precision
        ap_clrl = evaluate_all(forward(clrl_model, test_full.features), test_full.y).average_precision
        assert ap_clrl >= ap_cl

    def test_parameters_bounded_with_weight_decay(self):
        spec = make_exclusive_spec(3)
        _, comp = sample_from_generative(spec, 500, 4, seed=11)
        cfg = TrainConfig(learning_rate=1e-1, epochs=200, seed=6)
        result = train_mlcl(comp, uniform_transition(3), cfg)
        assert np.linalg.norm(result.model.weights) < 1e3
        assert np.all(np.isfinite(result.model.weights))

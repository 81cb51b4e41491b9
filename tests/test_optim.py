import numpy as np
import pytest

from comlabel.complementary import corrupt_uniform
from comlabel.dataset import (
    ComplementaryDataset,
    GenerativeSpec,
    make_exclusive_spec,
    sample_from_generative,
    subset_membership,
)
from comlabel.loss import batch_objective
from comlabel.metrics import evaluate_all
from comlabel.model import LinearModel, forward, init_linear
from comlabel.optim import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    LEARNING_RATE_GRID,
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


def reference_adam_step(p, g, state, cfg, lr):
    """The out-of-place update of one parameter at the rate `lr`, which the
    in-place `adam_step` must reproduce bit for bit."""
    t = state.t + 1
    g = g + cfg.weight_decay * p
    m = ADAM_BETA1 * state.m + (1.0 - ADAM_BETA1) * g
    v = ADAM_BETA2 * state.v + (1.0 - ADAM_BETA2) * g * g
    m_hat = m / (1.0 - ADAM_BETA1**t)
    v_hat = v / (1.0 - ADAM_BETA2**t)
    return p - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS), AdamState(m=m, v=v, t=t)


class TestTrainConfig:
    @pytest.mark.parametrize("name", ["learning_rates", "weight_decay", "beta"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_value_rejected(self, name, value):
        arg = (1e-2, value) if name == "learning_rates" else value  # a bad rate anywhere in the stack
        with pytest.raises(ValueError, match=f"^{name} must be .*finite, got {value!r}"):
            TrainConfig(**{name: arg})

    def test_no_rate_rejected(self):
        with pytest.raises(ValueError, match="^learning_rates must hold at least one rate$"):
            TrainConfig(learning_rates=())

    def test_defaults_to_the_grid(self):
        assert TrainConfig().learning_rates == LEARNING_RATE_GRID == (1e-1, 1e-2, 1e-3)


def one_rate(cfg):
    """The learning rates of a one-candidate stack at cfg's one rate."""
    (lr,) = cfg.learning_rates
    return np.array([lr])


class TestAdamStep:
    # every array is a one-candidate stack: a leading axis of length 1
    def test_zero_gradient_no_decay_is_identity(self):
        cfg = TrainConfig(learning_rates=(1e-2,), weight_decay=0.0)
        P = np.array([[[1.0, -2.0, 0.5]]])  # a (1, K, d+1) buffer: weights, then the bias
        before = P.copy()
        out, state = adam_step(P, np.zeros((1, 1, 3)), init_adam(P), cfg, one_rate(cfg))
        np.testing.assert_array_equal(out, before)
        assert state.t == 1

    @pytest.mark.parametrize("weight_decay", [0.0, 1e-2])
    def test_in_place_update_bit_identical_to_reference(self, weight_decay):
        cfg = TrainConfig(learning_rates=(0.05,), weight_decay=weight_decay)
        rng = np.random.default_rng(8)
        P = rng.standard_normal((1, 4, 8))  # (1, K, d+1)
        ref_P, ref_state = P.copy(), init_adam(P)
        state = init_adam(P)
        for _ in range(50):
            G = rng.standard_normal(P.shape) * 10.0 ** rng.integers(-4, 3, size=P.shape[-1])  # a scale per column
            ref_P, ref_state = reference_adam_step(ref_P, G, ref_state, cfg, 0.05)
            out, out_state = adam_step(P, G, state, cfg, one_rate(cfg))
            assert out is P and out_state is state
        assert state.t == ref_state.t == 50
        for got, want in zip((P, state.m, state.v), (ref_P, ref_state.m, ref_state.v)):
            assert np.array_equal(got, want)

    def test_nonfinite_gradient_leaves_params_and_moments_untouched(self):
        cfg = TrainConfig(learning_rates=(1e-2,), weight_decay=1e-2)
        rng = np.random.default_rng(2)
        P = rng.standard_normal((1, 3, 5))  # the weights (1, 3, 4), then the bias
        state = init_adam(P)
        adam_step(P, np.ones((1, 3, 5)), state, cfg, one_rate(cfg))
        snapshot = [a.copy() for a in (P, state.m, state.v)]
        # the good weights come first: nothing may be written before the bad bias entry is seen
        G = np.ones((1, 3, 5))
        G[0, 1, 4] = np.nan
        with pytest.raises(NonFiniteGradientError, match=r"parameter 1 at index \(1,\) \(step 2\)"):
            adam_step(P, G, state, cfg, one_rate(cfg), named=(G[..., :4], G[..., 4]))
        assert state.t == 1
        for got, want in zip((P, state.m, state.v), snapshot):
            assert np.array_equal(got, want)

    def test_constant_gradient_reaches_lr_magnitude(self):
        # closed-form fixed point: with constant g, bias-corrected moments give
        # update -> lr * g / (|g| + eps) ~ lr * sign(g)
        cfg = TrainConfig(learning_rates=(0.03,), weight_decay=0.0)
        P = np.array([[0.0]])
        g = np.array([[0.37]])
        state = init_adam(P)
        for _ in range(300):
            P, state = adam_step(P, g, state, cfg, one_rate(cfg))
        # after many steps each update has magnitude ~ lr
        last = P.copy()
        P, state = adam_step(P, g, state, cfg, one_rate(cfg))
        np.testing.assert_allclose(abs(last[0, 0] - P[0, 0]), 0.03, rtol=1e-6)

    def test_decay_pulls_toward_zero(self):
        cfg = TrainConfig(learning_rates=(0.01,), weight_decay=0.1)
        P = np.array([[5.0]])
        state = init_adam(P)
        for _ in range(50):
            P, state = adam_step(P, np.zeros((1, 1)), state, cfg, one_rate(cfg))
        assert P[0, 0] < 5.0

    def test_nonfinite_gradient_aborts_with_diagnostics(self):
        cfg = TrainConfig(learning_rates=(1e-2,))
        P = np.zeros((1, 2, 2))
        G = np.array([[[0.0, np.nan], [0.0, 0.0]]])
        with pytest.raises(NonFiniteGradientError, match=r"parameter 0 at index \(0, 1\)"):
            adam_step(P, G, init_adam(P), cfg, one_rate(cfg))

    def test_deterministic(self):
        cfg = TrainConfig(learning_rates=(1e-2,), seed=3)
        rng1, rng2 = np.random.default_rng(0), np.random.default_rng(0)
        P1 = rng1.standard_normal((1, 3, 4))
        P2 = rng2.standard_normal((1, 3, 4))
        s1, s2 = init_adam(P1), init_adam(P2)
        for step in range(20):
            g = np.full((1, 3, 4), 0.1 * (step + 1))
            P1, s1 = adam_step(P1, g, s1, cfg, one_rate(cfg))
            P2, s2 = adam_step(P2, g, s2, cfg, one_rate(cfg))
        np.testing.assert_array_equal(P1, P2)


def reference_training(ds, head, cfg, kind, per_instance, **fixed):
    """The minibatch loop on one 2-D model with the out-of-place Adam above,
    stepping the weights and the bias apart, on the trainers' seeds: the bits
    a one-rate training must reproduce."""
    (lr,) = cfg.learning_rates
    model = init_linear(ds.n_features, ds.n_labels, head, cfg.seed)
    states = (init_adam(model.weights), init_adam(model.bias))
    shuffle_rng = np.random.default_rng((cfg.seed, 0xB0))
    curve = []
    for _ in range(cfg.epochs):
        perm = shuffle_rng.permutation(ds.n_instances)
        total = 0.0
        for start in range(0, ds.n_instances, cfg.batch_size):
            idx = perm[start : start + cfg.batch_size]
            rows = {name: a[idx] for name, a in per_instance.items()}
            value, gW, gb = batch_objective(model, ds.features[idx], kind, **rows, **fixed)
            (W, sW), (b, sb) = (
                reference_adam_step(p, g, s, cfg, lr) for p, g, s in zip((model.weights, model.bias), (gW, gb), states)
            )
            model, states = LinearModel(W, b, head), (sW, sb)
            total += value * idx.size
        curve.append(float(total / ds.n_instances))
    return model, curve


class TestOneRateTraining:
    """A trainer at one rate runs as a stack of one candidate, and gives the
    bits of the plain 2-D loop."""

    @pytest.mark.parametrize("fmt", ["dense", "csr"])
    @pytest.mark.parametrize("trainer", ["cl_predictor", "mlcl", "clrl", "supervised"])
    def test_bit_equal_to_2d_loop(self, trainer, fmt):
        import scipy.sparse as sp

        from comlabel.dataset import ComplementaryDataset, MultiLabelDataset

        K = 4
        full, comp = sample_from_generative(make_exclusive_spec(K), 203, 9, seed=12)  # 203 leaves a short batch
        X = sp.csr_matrix(np.where(np.abs(full.features) < 0.5, 0.0, full.features)) if fmt == "csr" else full.features
        cds = ComplementaryDataset(X, comp.cl, K, relevant=full.y)
        ds = MultiLabelDataset(X, full.y)
        T = uniform_transition(K)
        cfg = TrainConfig(learning_rates=(0.05,), batch_size=32, epochs=4, beta=0.7, seed=8)
        y = full.y.astype(np.float64)
        if trainer == "cl_predictor":
            (result,) = train_cl_predictor(cds, cfg)
            model, curve = reference_training(cds, "softmax", cfg, "ce_softmax", {"cl": cds.cl})
        elif trainer == "mlcl":
            (result,) = train_mlcl(cds, T, cfg)
            model, curve = reference_training(cds, "sigmoid", cfg, "mlcl", {"cl": cds.cl}, T=T, beta=cfg.beta)
        elif trainer == "clrl":
            (result,) = train_clrl(cds, T, cfg)
            model, curve = reference_training(cds, "sigmoid", cfg, "clrl", {"cl": cds.cl, "relevant": y}, T=T)
        else:
            (result,) = train_supervised(ds, cfg)
            model, curve = reference_training(ds, "sigmoid", cfg, "bce_supervised", {"y": y})
        assert result.model.weights.shape == (K, 9) and result.model.bias.shape == (K,)
        assert result.model.weights.tobytes() == model.weights.tobytes()
        assert result.model.bias.tobytes() == model.bias.tobytes()
        assert result.epoch_losses == curve

    def test_error_raised_as_candidate_zero(self, monkeypatch):
        import comlabel.optim as optim

        _, comp = sample_from_generative(make_exclusive_spec(3), 60, 4, seed=13)

        def poisoned(model, X, kind, **targets):
            value, gW, gb = batch_objective(model, X, kind, **targets)
            gW[0, 1, 2] = np.inf
            return value, gW, gb

        monkeypatch.setattr(optim, "batch_objective", poisoned)
        with pytest.raises(NonFiniteGradientError, match=r"^non-finite gradient in parameter 0 at index \(1, 2\) \(step 1\)$"):
            train_cl_predictor(comp, TrainConfig(learning_rates=(1e-2,), epochs=1, seed=1))


class TestTrainingLoops:
    def test_epochs_zero_returns_init(self):
        spec = make_exclusive_spec(3)
        _, comp = sample_from_generative(spec, 100, 4, seed=0)
        cfg = TrainConfig(learning_rates=(1e-2,), epochs=0, seed=5)
        (result,) = train_cl_predictor(comp, cfg)
        ref = init_linear(4, 3, "softmax", seed=5)
        np.testing.assert_array_equal(result.model.weights, ref.weights)
        assert result.epoch_losses == []

    def test_bit_identical_reruns(self):
        spec = make_exclusive_spec(4)
        _, comp = sample_from_generative(spec, 300, 5, seed=1)
        cfg = TrainConfig(learning_rates=(1e-2,), epochs=5, seed=9)
        T = uniform_transition(4)
        (a,) = train_mlcl(comp, T, cfg)
        (b,) = train_mlcl(comp, T, cfg)
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
        cfg = TrainConfig(learning_rates=(1e-2,), epochs=3, batch_size=32, seed=0)
        train_cl_predictor(comp, cfg)
        per_epoch = (103 // 32) + 1
        assert len(seen) == 3 * per_epoch
        assert sum(seen[:per_epoch]) == 103  # full cover, short batch kept

    def test_cl_predictor_learns_separable_complementary_labels(self):
        K = 4
        spec = deterministic_cl_spec(K)
        _, comp = sample_from_generative(spec, 1500, 6, seed=3)
        cfg = TrainConfig(learning_rates=(1e-2,), epochs=200, seed=1)
        (result,) = train_cl_predictor(comp, cfg)
        assert result.epoch_losses[-1] < 0.1 * np.log(K)

    def test_loss_mostly_nonincreasing(self):
        # on data with learnable signal the curve should descend essentially
        # every epoch; on pure-noise targets it merely plateaus
        spec = deterministic_cl_spec(4)
        _, comp = sample_from_generative(spec, 1000, 5, seed=4)
        cfg = TrainConfig(learning_rates=(1e-2, 1e-3), epochs=100, seed=2)
        for result in train_cl_predictor(comp, cfg):
            curve = result.epoch_losses
            drops = sum(1 for a, b in zip(curve, curve[1:]) if b <= a + 1e-9)
            assert drops >= 0.9 * (len(curve) - 1)

    def test_mlcl_bce_decreases_smoothed(self):
        K = 4
        spec = make_exclusive_spec(K)
        _, comp = sample_from_generative(spec, 1200, 5, seed=5)
        cfg = TrainConfig(learning_rates=(1e-2,), epochs=120, beta=0.0, seed=3)
        (result,) = train_mlcl(comp, uniform_transition(K), cfg)
        curve = np.array(result.epoch_losses)
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
        cfg = TrainConfig(learning_rates=(1e-2,), epochs=150, seed=4)
        (result,) = train_mlcl(comp, uniform_transition(K), cfg)
        ham = evaluate_all(forward(result.model, test_full.features), test_full.y).hamming_loss
        assert ham < 0.2

    def test_supervised_memorizes_single_instance(self):
        import scipy.sparse as sp

        from comlabel.dataset import MultiLabelDataset

        ds = MultiLabelDataset(sp.csr_matrix(np.ones((1, 3))), np.array([[1, 0, 1]]))
        cfg = TrainConfig(learning_rates=(1e-1,), epochs=200, batch_size=1, seed=0, weight_decay=0.0)
        (result,) = train_supervised(ds, cfg)
        assert result.epoch_losses[-1] < 1e-2
        scores = forward(result.model, ds.features)[0]
        np.testing.assert_array_equal(scores > 0.5, [True, False, True])

    def test_clrl_requires_relevant(self):
        spec = make_exclusive_spec(3)
        _, comp = sample_from_generative(spec, 50, 4, seed=8)
        with pytest.raises(ValueError, match="relevant"):
            train_clrl(comp, uniform_transition(3), TrainConfig(learning_rates=(1e-2,), epochs=1))

    def test_clrl_with_full_truth_dominates_cl_only(self):
        from comlabel.dataset import ComplementaryDataset

        K = 4
        spec = make_exclusive_spec(K)
        full, comp = sample_from_generative(spec, 1500, 6, seed=9)
        test_full, _ = sample_from_generative(spec, 500, 6, seed=10)
        T = uniform_transition(K)
        cfg = TrainConfig(learning_rates=(1e-2,), epochs=150, seed=5)
        (cl,) = train_mlcl(comp, T, cfg)
        enriched = ComplementaryDataset(comp.features, comp.cl, comp.n_labels, relevant=full.y)
        (clrl,) = train_clrl(enriched, T, cfg)
        cl_model, clrl_model = cl.model, clrl.model
        ap_cl = evaluate_all(forward(cl_model, test_full.features), test_full.y).average_precision
        ap_clrl = evaluate_all(forward(clrl_model, test_full.features), test_full.y).average_precision
        assert ap_clrl >= ap_cl

    def test_parameters_bounded_with_weight_decay(self):
        spec = make_exclusive_spec(3)
        _, comp = sample_from_generative(spec, 500, 4, seed=11)
        cfg = TrainConfig(learning_rates=(1e-1,), epochs=200, seed=6)
        (result,) = train_mlcl(comp, uniform_transition(3), cfg)
        assert np.linalg.norm(result.model.weights) < 1e3
        assert np.all(np.isfinite(result.model.weights))


def substitute_relevant(comp, full, rho, seed):
    """`comp` with each complementary label, with probability `rho`, replaced
    by the index of a relevant label of its instance: label noise that the
    transition does not model."""
    rng = np.random.default_rng(seed)
    cl = comp.cl.copy()
    for i in np.flatnonzero(rng.random(cl.size) < rho):
        cl[i] = rng.choice(np.flatnonzero(full.y[i]))
    return ComplementaryDataset(comp.features, cl, comp.n_labels)


class TestRegulariserGrid:
    """Where the squared-error regulariser helps: train_mlcl through U on
    exclusive tables, correctly specified, for beta in {0, 1, 4} with a share
    rho in {0, 0.1} of complementary labels replaced by a relevant one.  One
    draw per table; the table is printed, not gated (rho stays below 1/K,
    where the labels are still identifiable)."""

    TABLES = {"K5_n4000_d20_e60": (5, 4000, 20, 60), "K8_n600_d60_e300": (8, 600, 60, 300)}
    BETAS, RHOS = (0.0, 1.0, 4.0), (0.0, 0.1)

    @staticmethod
    def cell(comp, K, epochs, beta):
        cfg = TrainConfig(learning_rates=(1e-2,), epochs=epochs, beta=beta, seed=3)
        (result,) = train_mlcl(comp, uniform_transition(K), cfg)
        return result

    @pytest.mark.parametrize("table", list(TABLES))
    def test_reported_grid(self, table):
        K, n, d, epochs = self.TABLES[table]
        spec = make_exclusive_spec(K)
        full, comp = sample_from_generative(spec, n, d, seed=21)
        test_full, _ = sample_from_generative(spec, 2000, d, seed=22)
        for rho in self.RHOS:
            noisy = substitute_relevant(comp, full, rho, seed=23)
            reports = []
            for beta in self.BETAS:
                result = self.cell(noisy, K, epochs, beta)
                assert np.all(np.isfinite(result.epoch_losses))
                reports.append(evaluate_all(forward(result.model, test_full.features), test_full.y))
            assert all(np.isfinite(getattr(r, name)) for r in reports for name in r.METRIC_NAMES)
            print(
                f"{table} rho={rho}: hamming beta 0/1/4 = "
                + " / ".join(f"{r.hamming_loss:.3f}" for r in reports)
                + ", AP = "
                + " / ".join(f"{r.average_precision:.3f}" for r in reports)
            )
        again = self.cell(noisy, K, epochs, self.BETAS[-1])
        assert again.model.weights.tobytes() == result.model.weights.tobytes()
        assert again.model.bias.tobytes() == result.model.bias.tobytes()
        assert again.epoch_losses == result.epoch_losses

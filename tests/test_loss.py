import zlib

import numpy as np
import pytest

from comlabel import optim
from comlabel.dataset import ComplementaryDataset, MultiLabelDataset
from comlabel.loss import (
    CLAMP_EPS,
    LOSS_KINDS,
    batch_objective,
    gradient_check,
    score_objective,
)
from comlabel.model import forward, init_linear
from comlabel.transition import uniform_transition


def random_row_stochastic(K, rng):
    T = rng.random((K, K))
    np.fill_diagonal(T, 0.0)
    return T / T.sum(axis=1, keepdims=True)


def one(kind, f, **kwargs):
    """Loss value and score gradient of a single instance, as a batch of one."""
    values, G = score_objective(np.asarray(f, dtype=np.float64)[None], kind, **kwargs)
    assert values.shape == (1,) and G.shape == (1, len(f))
    return float(values[0]), G[0]


def onehot(index, n_labels):
    return np.eye(n_labels)[index]


def mse_term(f, **kwargs):
    """The regulariser of mlcl alone: its value and gradient at beta = 1 less
    those at beta = 0."""
    (v1, g1), (v0, g0) = (one("mlcl", f, beta=beta, **kwargs) for beta in (1.0, 0.0))
    return v1 - v0, g1 - g0


def test_one_kind_per_trainer(monkeypatch):
    """The loss kinds are exactly those the four trainers train with."""
    kinds = []
    real = optim.batch_objective

    def spy(model, X, kind, **targets):
        kinds.append(kind)
        return real(model, X, kind, **targets)

    monkeypatch.setattr(optim, "batch_objective", spy)
    y = np.array([[1, 0, 1], [0, 1, 0], [1, 1, 0], [0, 0, 1]], dtype=np.uint8)
    X = np.arange(8.0).reshape(4, 2)
    cds = ComplementaryDataset(X, np.array([1, 0, 2, 0]), 3, relevant=y)
    cfg = optim.TrainConfig(epochs=1)
    optim.train_cl_predictor(cds, cfg)
    optim.train_mlcl(cds, uniform_transition(3), cfg)
    optim.train_clrl(cds, uniform_transition(3), cfg)
    optim.train_supervised(MultiLabelDataset(X, y), cfg)
    assert LOSS_KINDS == ("bce_supervised", "mlcl", "clrl", "ce_softmax")
    assert set(kinds) == set(LOSS_KINDS)


class TestBCE:
    def test_uninformative(self):
        value, _ = one("bce_supervised", np.full(4, 0.5), y=[1, 0, 1, 0])
        np.testing.assert_allclose(value, 4 * np.log(2))

    def test_perfect_fit_near_zero(self):
        y = np.array([1.0, 0.0, 1.0])
        value, _ = one("bce_supervised", y, y=y)
        assert 0 <= value < 1e-9

    def test_hand_value(self):
        value, _ = one("bce_supervised", [0.9, 0.2], y=[1, 0])
        np.testing.assert_allclose(value, -np.log(0.9) - np.log(0.8))
        np.testing.assert_allclose(value, 0.3285, atol=5e-5)


class TestClBCE:
    """The complementary BCE term: mlcl at beta = 0."""

    def test_perfect_complementary_fit(self):
        # identity transition makes q = f directly
        value, _ = one("mlcl", onehot(1, 3), T=np.eye(3), cl=[1], beta=0.0)
        assert 0 <= value < 1e-9

    def test_hand_value(self):
        value, _ = one("mlcl", [0.2, 0.7, 0.1], T=np.eye(3), cl=[1], beta=0.0)
        expected = -(np.log(0.8) + np.log(0.7) + np.log(0.9))
        np.testing.assert_allclose(value, expected)
        np.testing.assert_allclose(value, 0.6851, atol=1e-4)

    def test_zero_scores_clamped_finite(self):
        K = 3
        value, grad = one("mlcl", np.zeros(K), T=uniform_transition(K), cl=[0], beta=0.0)
        eps = CLAMP_EPS
        np.testing.assert_allclose(value, -np.log(eps) - 2 * np.log(1 - eps))
        assert np.all(np.isfinite(grad))


class TestClMSE:
    """The squared-error regulariser: mlcl at beta = 1 less mlcl at beta = 0."""

    def test_zero_residual(self):
        assert mse_term(onehot(2, 3), T=np.eye(3), cl=[2])[0] == 0.0

    def test_hand_value(self):
        value, _ = mse_term([0.2, 0.7, 0.1], T=np.eye(3), cl=[1])
        np.testing.assert_allclose(value, 0.14)

    def test_quadratic_homogeneity(self):
        T = np.eye(3)
        ybar = onehot(0, 3)
        f1 = np.array([0.9, 0.1, 0.2])  # residual r
        r = ybar - f1
        f2 = ybar - 2 * r  # doubled residual
        np.testing.assert_allclose(mse_term(f2, T=T, cl=[0])[0], 4 * mse_term(f1, T=T, cl=[0])[0])


def complementary_terms(F, T, cl):
    """The two terms of mlcl by their textbook formulas: per-row BCE of
    q = F T against the one-hot complementary rows, and ||ybar - q||^2, each
    with its gradient with respect to F."""
    Ybar = np.eye(F.shape[-1])[cl]
    Q = F @ T
    Qc = np.clip(Q, CLAMP_EPS, 1.0 - CLAMP_EPS)
    interior = (Q > CLAMP_EPS) & (Q < 1.0 - CLAMP_EPS)
    bce = -(Ybar * np.log(Qc) + (1.0 - Ybar) * np.log(1.0 - Qc)).sum(axis=-1)
    g_bce = (((1.0 - Ybar) / (1.0 - Qc) - Ybar / Qc) * interior) @ T.T
    R = Ybar - Q
    return (bce, g_bce), ((R**2).sum(axis=-1), -2.0 * R @ T.T)


class TestMLCL:
    def test_beta_zero_equals_cl_bce(self):
        # beta = 0 drops the regulariser to the bit, with the clamp active or not
        rng = np.random.default_rng(0)
        for _ in range(200):
            K, n = int(rng.integers(2, 9)), int(rng.integers(1, 12))
            T = random_row_stochastic(K, rng)
            F = rng.random((n, K))
            F[0, 0] = 0.0
            cl = rng.integers(0, K, size=n)
            (bce, g_bce), _ = complementary_terms(F, T, cl)
            values, G = score_objective(F, "mlcl", T=T, cl=cl, beta=0.0)
            assert values.tobytes() == bce.tobytes() and G.tobytes() == g_bce.tobytes()

    def test_sum_of_components(self):
        value, _ = one("mlcl", [0.2, 0.7, 0.1], T=np.eye(3), cl=[1], beta=1.0)
        np.testing.assert_allclose(value, 0.6851 + 0.14, atol=2e-4)

    def test_monotone_in_beta(self):
        rng = np.random.default_rng(1)
        T = random_row_stochastic(5, rng)
        f = rng.random(5) * 0.8 + 0.1
        values = [one("mlcl", f, T=T, cl=[3], beta=b)[0] for b in (0.0, 0.3, 0.7, 1.0, 2.5)]
        assert all(a <= b + 1e-15 for a, b in zip(values, values[1:]))

    def test_gradient_linearity_exact(self):
        # mlcl is its two terms combined, to the bit, in values and gradients
        rng = np.random.default_rng(2)
        T = random_row_stochastic(4, rng)
        F = rng.random((6, 4)) * 0.8 + 0.1
        cl = rng.integers(0, 4, size=6)
        beta = 0.63
        values, G = score_objective(F, "mlcl", T=T, cl=cl, beta=beta)
        (v_bce, g_bce), (v_mse, g_mse) = complementary_terms(F, T, cl)
        assert values.tobytes() == (v_bce + beta * v_mse).tobytes()
        assert G.tobytes() == (g_bce + beta * g_mse).tobytes()


class TestCLRL:
    def test_joint_perfect_fit(self):
        # f equals the relevant vector and T^T f equals the complementary one-hot
        K = 3
        f = np.array([1.0, 0.0, 0.0])
        T = np.zeros((K, K))
        T[0, 2] = 1.0  # T^T f = e_2
        value, _ = one("clrl", f, T=T, cl=[2], relevant=f[None])
        assert 0 <= value < 1e-9

    def test_relevant_term_hand_value(self):
        f = np.array([0.8, 0.1, 0.3])
        ytilde = np.array([[1.0, 0.0, 0.0]])
        base = one("mlcl", f, T=np.eye(3), cl=[1], beta=0.0)[0]
        value, _ = one("clrl", f, T=np.eye(3), cl=[1], relevant=ytilde)
        np.testing.assert_allclose(value - base, 0.04 + 0.01 + 0.09)

    def test_full_supervision_specialization(self):
        # with ytilde = y the relevant term is a plain supervised squared error
        rng = np.random.default_rng(3)
        f = rng.random(4) * 0.8 + 0.1
        y = np.array([1.0, 0.0, 1.0, 0.0])
        T = random_row_stochastic(4, rng)
        value, _ = one("clrl", f, T=T, cl=[3], relevant=y[None])
        np.testing.assert_allclose(value, one("mlcl", f, T=T, cl=[3], beta=0.0)[0] + ((y - f) ** 2).sum())

    def test_relevant_vectors_required(self):
        with pytest.raises(ValueError, match="relevant"):
            one("clrl", [0.5, 0.5, 0.5], T=np.eye(3), cl=[1])


class TestCESoftmax:
    def test_confident_zero(self):
        assert one("ce_softmax", onehot(1, 4) * (1 - 1e-12) + 1e-13, cl=[1])[0] < 1e-9

    def test_uniform(self):
        K = 5
        value, _ = one("ce_softmax", np.full(K, 1.0 / K), cl=[2])
        np.testing.assert_allclose(value, np.log(K))

    def test_quarter(self):
        value, _ = one("ce_softmax", [0.25, 0.25, 0.25, 0.25], cl=[0])
        np.testing.assert_allclose(value, np.log(4))
        np.testing.assert_allclose(value, 1.3863, atol=5e-5)


class TestFiniteness:
    def test_all_losses_finite_on_extremes(self):
        K = 4
        T = uniform_transition(K)
        ytilde = onehot(1, K)
        for f in (np.zeros(K), np.ones(K), np.full(K, 0.5), onehot(2, K)):
            for value, grad in (
                one("bce_supervised", f, y=ytilde),
                one("mlcl", f, T=T, cl=[0], beta=0.0),
                mse_term(f, T=T, cl=[0]),
                one("mlcl", f, T=T, cl=[0]),
                one("clrl", f, T=T, cl=[0], relevant=ytilde[None]),
            ):
                assert np.isfinite(value) and value >= 0
                assert np.all(np.isfinite(grad))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown loss kind"):
            score_objective(np.full((1, 3), 0.5), "hinge")

    def test_single_score_row_rejected(self):
        # one instance is a batch of one, shape (1, K)
        with pytest.raises(ValueError, match=r"\(n, K\) batch"):
            score_objective(np.full(3, 0.5), "mlcl", T=np.eye(3), cl=[1])


def _random_config(kind, rng, beta=None):
    """A model/batch pair whose probabilities stay inside the clamp interior."""
    K = int(rng.integers(3, 6))
    d = int(rng.integers(2, 7))
    n = int(rng.integers(2, 7))
    head = "softmax" if kind == "ce_softmax" else "sigmoid"
    model = init_linear(d, K, head, seed=int(rng.integers(1 << 30)))
    model.weights *= 0.5
    X = rng.standard_normal((n, d))
    kwargs = {}
    if kind == "bce_supervised":
        y = (rng.random((n, K)) < 0.5).astype(float)
        kwargs["y"] = y
    else:
        kwargs["cl"] = rng.integers(0, K, size=n)
        if kind != "ce_softmax":
            kwargs["T"] = random_row_stochastic(K, rng)
        if kind == "mlcl":
            kwargs["beta"] = float(rng.random() * 2) if beta is None else beta
        if kind == "clrl":
            rel = np.zeros((n, K))
            for i in range(n):
                choices = [k for k in range(K) if k != kwargs["cl"][i]]
                rel[i, rng.choice(choices)] = 1.0
            kwargs["relevant"] = rel
    return model, X, kwargs


# every kind at its own random draws, and mlcl at beta = 0 and 1 besides
GRADIENT_CASES = {**{kind: (kind, None) for kind in LOSS_KINDS}, "mlcl_beta0": ("mlcl", 0.0), "mlcl_beta1": ("mlcl", 1.0)}


class TestGradientCheck:
    @pytest.mark.parametrize("case", list(GRADIENT_CASES))
    def test_fifty_random_configs(self, case):
        kind, beta = GRADIENT_CASES[case]
        rng = np.random.default_rng(zlib.crc32(case.encode()))
        for _ in range(50):
            model, X, kwargs = _random_config(kind, rng, beta)
            report = gradient_check(model, X, kind, tolerance=1e-4, **kwargs)
            assert report.passed, f"{kind}: {report.worst_param} rel err {report.max_rel_error:.2e}"

    def test_corrupted_gradient_detected(self, monkeypatch):
        rng = np.random.default_rng(99)
        model, X, kwargs = _random_config("bce_supervised", rng)
        import comlabel.loss as loss_mod

        orig = loss_mod.batch_objective

        def corrupted(*args, **kw):
            value, gW, gb = orig(*args, **kw)
            gW = gW.copy()
            gW[0, 0] += 0.1
            return value, gW, gb

        monkeypatch.setattr(loss_mod, "batch_objective", corrupted)
        report = loss_mod.gradient_check(model, X, "bce_supervised", tolerance=1e-4, **kwargs)
        assert not report.passed
        assert report.worst_param == "W[0, 0]"

    def test_step_across_clamp_boundary_retried(self):
        # Config 24 of seed 173 puts an mlcl score near the clamp floor: at the
        # default 1e-5 step the central difference at W[3, 4] reads 1918.95
        # against the analytic 1910.515 (rel. error 4.4e-3); a 1e-7 step agrees.
        rng = np.random.default_rng(173)
        for _ in range(25):
            model, X, kwargs = _random_config("mlcl", rng)
        report = gradient_check(model, X, "mlcl", **kwargs)
        assert report.passed, f"{report.worst_param} rel err {report.max_rel_error:.2e}"


class TestBatchObjective:
    def test_matches_per_instance_mean(self):
        rng = np.random.default_rng(7)
        model, X, kwargs = _random_config("mlcl", rng)
        value, _, _ = batch_objective(model, X, "mlcl", **kwargs)
        F = forward(model, X)
        per = [
            one("mlcl", F[i], T=kwargs["T"], cl=kwargs["cl"][i : i + 1], beta=kwargs["beta"])[0]
            for i in range(F.shape[0])
        ]
        np.testing.assert_allclose(value, np.mean(per), atol=1e-12)

import zlib

import numpy as np
import pytest

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
    def test_perfect_complementary_fit(self):
        # identity transition makes q = f directly
        value, _ = one("cl_bce", onehot(1, 3), T=np.eye(3), cl=[1])
        assert 0 <= value < 1e-9

    def test_hand_value(self):
        value, _ = one("cl_bce", [0.2, 0.7, 0.1], T=np.eye(3), cl=[1])
        expected = -(np.log(0.8) + np.log(0.7) + np.log(0.9))
        np.testing.assert_allclose(value, expected)
        np.testing.assert_allclose(value, 0.6851, atol=1e-4)

    def test_zero_scores_clamped_finite(self):
        K = 3
        value, grad = one("cl_bce", np.zeros(K), T=uniform_transition(K), cl=[0])
        eps = CLAMP_EPS
        np.testing.assert_allclose(value, -np.log(eps) - 2 * np.log(1 - eps))
        assert np.all(np.isfinite(grad))


class TestClMSE:
    def test_zero_residual(self):
        assert one("cl_mse", onehot(2, 3), T=np.eye(3), cl=[2])[0] == 0.0

    def test_hand_value(self):
        value, _ = one("cl_mse", [0.2, 0.7, 0.1], T=np.eye(3), cl=[1])
        np.testing.assert_allclose(value, 0.14)

    def test_quadratic_homogeneity(self):
        T = np.eye(3)
        ybar = onehot(0, 3)
        f1 = np.array([0.9, 0.1, 0.2])  # residual r
        r = ybar - f1
        f2 = ybar - 2 * r  # doubled residual
        np.testing.assert_allclose(one("cl_mse", f2, T=T, cl=[0])[0], 4 * one("cl_mse", f1, T=T, cl=[0])[0])


class TestMLCL:
    def test_beta_zero_equals_cl_bce(self):
        rng = np.random.default_rng(0)
        T = random_row_stochastic(4, rng)
        f = rng.random(4) * 0.8 + 0.1
        a = one("mlcl", f, T=T, cl=[2], beta=0.0)
        b = one("cl_bce", f, T=T, cl=[2])
        np.testing.assert_allclose(a[0], b[0])
        np.testing.assert_allclose(a[1], b[1])

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
        v_bce, g_bce = score_objective(F, "cl_bce", T=T, cl=cl)
        v_mse, g_mse = score_objective(F, "cl_mse", T=T, cl=cl)
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
        base = one("cl_bce", f, T=np.eye(3), cl=[1])[0]
        value, _ = one("clrl", f, T=np.eye(3), cl=[1], relevant=ytilde)
        np.testing.assert_allclose(value - base, 0.04 + 0.01 + 0.09)

    def test_full_supervision_specialization(self):
        # with ytilde = y the relevant term is a plain supervised squared error
        rng = np.random.default_rng(3)
        f = rng.random(4) * 0.8 + 0.1
        y = np.array([1.0, 0.0, 1.0, 0.0])
        T = random_row_stochastic(4, rng)
        value, _ = one("clrl", f, T=T, cl=[3], relevant=y[None])
        np.testing.assert_allclose(value, one("cl_bce", f, T=T, cl=[3])[0] + ((y - f) ** 2).sum())

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
                one("cl_bce", f, T=T, cl=[0]),
                one("cl_mse", f, T=T, cl=[0]),
                one("mlcl", f, T=T, cl=[0]),
                one("clrl", f, T=T, cl=[0], relevant=ytilde[None]),
            ):
                assert np.isfinite(value) and value >= 0
                assert np.all(np.isfinite(grad))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown loss kind"):
            score_objective(np.full((1, 3), 0.5), "hinge")


def _random_config(kind, rng):
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
            kwargs["beta"] = float(rng.random() * 2)
        if kind == "clrl":
            rel = np.zeros((n, K))
            for i in range(n):
                choices = [k for k in range(K) if k != kwargs["cl"][i]]
                rel[i, rng.choice(choices)] = 1.0
            kwargs["relevant"] = rel
    return model, X, kwargs


class TestGradientCheck:
    @pytest.mark.parametrize("kind", LOSS_KINDS)
    def test_fifty_random_configs(self, kind):
        rng = np.random.default_rng(zlib.crc32(kind.encode()))
        for _ in range(50):
            model, X, kwargs = _random_config(kind, rng)
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

    def test_one_hot_rows_equal_label_indices(self):
        # training loops pass ybar rows built once; gradient checks pass cl indices
        rng = np.random.default_rng(8)
        for kind in ("cl_bce", "cl_mse", "mlcl", "clrl"):
            model, X, kwargs = _random_config(kind, rng)
            F = forward(model, X)
            ybar = np.eye(F.shape[1])[kwargs["cl"]]
            by_index = score_objective(F, kind, **kwargs)
            by_rows = score_objective(F, kind, **{**kwargs, "cl": None, "ybar": ybar})
            for a, b in zip(by_index, by_rows):
                assert a.tobytes() == b.tobytes()

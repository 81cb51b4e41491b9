import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.special import expit

from comlabel.model import (
    LinearModel,
    forward,
    head_gradient,
    init_linear,
    load_model,
    predict_labels,
    rank_matrix,
    save_model,
    sigmoid,
)


class TestInit:
    def test_deterministic(self):
        a = init_linear(10, 4, "sigmoid", seed=5)
        b = init_linear(10, 4, "sigmoid", seed=5)
        np.testing.assert_array_equal(a.weights, b.weights)

    def test_zero_bias(self):
        m = init_linear(8, 3, "softmax", seed=1)
        np.testing.assert_array_equal(m.bias, 0.0)

    def test_weight_scale(self):
        # sample std should sit near 1/sqrt(d) for d=1000, K=15
        m = init_linear(1000, 15, "sigmoid", seed=2)
        std = m.weights.std()
        assert abs(std - 1 / np.sqrt(1000)) / (1 / np.sqrt(1000)) < 0.10

    def test_bad_head(self):
        with pytest.raises(ValueError):
            LinearModel(np.zeros((2, 2)), np.zeros(2), "relu")


class TestForward:
    def test_zero_weights_sigmoid(self):
        m = LinearModel(np.zeros((4, 3)), np.zeros(4), "sigmoid")
        np.testing.assert_allclose(forward(m, np.zeros((1, 3))), 0.5)

    def test_zero_weights_softmax(self):
        m = LinearModel(np.zeros((4, 3)), np.zeros(4), "softmax")
        np.testing.assert_allclose(forward(m, np.zeros((1, 3))), 0.25)

    def test_softmax_overflow_stable(self):
        m = LinearModel(np.eye(3), np.zeros(3), "softmax")
        out = forward(m, np.array([[1000.0, 0.0, 0.0]]))
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out, [[1.0, 0.0, 0.0]], atol=1e-12)
        np.testing.assert_allclose(out.sum(), 1.0)

    def test_sigmoid_extreme_finite(self):
        m = LinearModel(np.eye(2) * 1e4, np.zeros(2), "sigmoid")
        out = forward(m, np.array([[1.0, -1.0]]))
        assert np.all(np.isfinite(out))
        assert 0.0 <= out.min() and out.max() <= 1.0

    def test_sparse_batch_matches_dense(self):
        rng = np.random.default_rng(3)
        m = init_linear(6, 4, "sigmoid", seed=0)
        X = rng.standard_normal((9, 6))
        np.testing.assert_allclose(forward(m, sp.csr_matrix(X)), forward(m, X), atol=1e-14)

    def test_softmax_sums_to_one(self):
        rng = np.random.default_rng(4)
        m = init_linear(5, 6, "softmax", seed=1)
        F = forward(m, rng.standard_normal((40, 5)))
        np.testing.assert_allclose(F.sum(axis=1), 1.0, atol=1e-9)

    def test_dimension_mismatch(self):
        m = init_linear(5, 3, "sigmoid", seed=0)
        with pytest.raises(ValueError, match="features"):
            forward(m, np.zeros((2, 4)))

    def test_single_row_rejected(self):
        # one instance is a batch of one, shape (1, d)
        m = init_linear(5, 3, "sigmoid", seed=0)
        with pytest.raises(ValueError, match="batch"):
            forward(m, np.zeros(5))


class TestSigmoid:
    def test_exact_values(self):
        z = np.array([0.0, 800.0, np.inf, -800.0, -np.inf, np.nan])
        out = sigmoid(z)
        np.testing.assert_array_equal(out[:5], [0.5, 1.0, 1.0, 0.0, 0.0])
        assert np.isnan(out[5])

    def test_no_warning_on_overflow(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            np.testing.assert_array_equal(sigmoid(np.array([-800.0, -1e308])), [0.0, 0.0])

    def test_within_four_ulp_of_expit(self):
        # NumPy's exp may not be the C library's (AVX-512 kernels): a few ulp apart
        rng = np.random.default_rng(0)
        z = np.concatenate([np.linspace(-750.0, 750.0, 300001), rng.standard_normal(100000) * 10.0])
        got, want = sigmoid(z), expit(z)
        ulps = np.abs(got.view(np.int64) - want.view(np.int64))  # both non-negative
        assert ulps.max() <= 4

    def test_sigmoid_head_is_sigmoid(self):
        rng = np.random.default_rng(5)
        m = init_linear(6, 4, "sigmoid", seed=2)
        X = rng.standard_normal((7, 6))
        assert forward(m, X).tobytes() == sigmoid(X @ m.weights.T + m.bias).tobytes()


class TestPredict:
    def test_strict_threshold(self):
        np.testing.assert_array_equal(predict_labels(np.array([0.9, 0.5, 0.1])), [1, 0, 0])

    def test_all_below(self):
        np.testing.assert_array_equal(predict_labels(np.array([0.4999, 0.4999])), [0, 0])

    def test_all_above(self):
        np.testing.assert_array_equal(predict_labels(np.array([0.6, 0.7])), [1, 1])


class TestRank:
    def test_basic(self):
        np.testing.assert_array_equal(rank_matrix(np.array([[0.1, 0.9, 0.5]])), [[3, 1, 2]])

    def test_tie_to_lower_index(self):
        np.testing.assert_array_equal(rank_matrix(np.array([[0.5, 0.5]])), [[1, 2]])

    def test_reversal(self):
        rng = np.random.default_rng(5)
        s = rng.permutation(10).astype(float)[None]
        np.testing.assert_array_equal(rank_matrix(-s), 11 - rank_matrix(s))

    def test_rank_matrix_consistent(self):
        # against a plain sort by (descending score, label index)
        rng = np.random.default_rng(6)
        S = np.round(rng.random((20, 7)), 1)  # ties occur
        R = rank_matrix(S)
        for i in range(20):
            order = sorted(range(7), key=lambda k: (-S[i, k], k))
            for pos, label in enumerate(order):
                assert R[i, label] == pos + 1

    def test_shift_invariance_under_softmax(self):
        # ranks from softmax scores ignore constant logit shifts
        m = LinearModel(np.eye(4), np.zeros(4), "softmax")
        z = np.array([[0.3, -0.2, 1.4, 0.9]])
        np.testing.assert_array_equal(rank_matrix(forward(m, z)), rank_matrix(forward(m, z + 123.0)))


class TestCheckpoint:
    def test_roundtrip_exact(self, tmp_path):
        m = init_linear(7, 5, "softmax", seed=9)
        m.weights[0, 0] = np.pi
        path = tmp_path / "model.txt"
        save_model(m, path)
        back = load_model(path)
        np.testing.assert_array_equal(back.weights, m.weights)
        np.testing.assert_array_equal(back.bias, m.bias)
        assert back.head == "softmax"

    def test_header_format(self, tmp_path):
        m = init_linear(3, 4, "sigmoid", seed=0)
        path = tmp_path / "model.txt"
        save_model(m, path)
        assert path.read_text().splitlines()[0] == "3 4 sigmoid"

    def test_line_after_the_rows_rejected(self, tmp_path):
        path = tmp_path / "model.txt"
        save_model(init_linear(3, 4, "sigmoid", seed=0), path)
        path.write_text(path.read_text() + "1 2 3\n")
        with pytest.raises(ValueError, match="^checkpoint declares 4 rows, but line 6 follows them$"):
            load_model(path)

    @pytest.mark.parametrize("entry, what", [("x", "non-numeric"), ("nan", "non-finite"), ("-inf", "non-finite")])
    def test_bad_entry_names_its_line(self, tmp_path, entry, what):
        path = tmp_path / "model.txt"
        path.write_text(f"3 2 sigmoid\n0 0 0 0\n0 {entry} 0 0\n")
        with pytest.raises(ValueError, match=f"^line 3: {what} entry in '0 {entry} 0 0'$"):
            load_model(path)

    @pytest.mark.parametrize("header", ["0 4 sigmoid", "3 -4 sigmoid", "3 x sigmoid", "2.5 4 sigmoid", "3 4"])
    def test_header_needs_positive_integer_shape(self, tmp_path, header):
        path = tmp_path / "model.txt"
        path.write_text(f"{header}\n0 0 0 0\n")
        with pytest.raises(ValueError, match="^checkpoint header must be 'd K head' with positive integers d and K, got "):
            load_model(path)


class TestHeadGradient:
    @pytest.mark.parametrize("head", ["sigmoid", "softmax"])
    def test_matches_central_differences(self, head):
        # the gradient of sum(G_f * head(z)) with respect to the logits z
        rng = np.random.default_rng(6)
        model = LinearModel(np.eye(4), np.zeros(4), head)
        Z, G_f = rng.standard_normal((5, 4)), rng.standard_normal((5, 4))
        analytic = head_gradient(model, forward(model, Z), G_f)
        numeric = np.empty_like(Z)
        for idx in np.ndindex(Z.shape):
            step = np.zeros_like(Z)
            step[idx] = 1e-6
            numeric[idx] = ((G_f * forward(model, Z + step)).sum() - (G_f * forward(model, Z - step)).sum()) / 2e-6
        np.testing.assert_allclose(analytic, numeric, rtol=1e-6, atol=1e-9)


def _checkpoint(tmp_path, text):
    path = tmp_path / "model.txt"
    path.write_text(text)
    return path


# Refusals that no other test reaches: each call with tmp_path and its exact ValueError message.
REFUSALS = [
    pytest.param(lambda tmp: init_linear(0, 3, "sigmoid", seed=0), "d and n_labels must be positive", id="init-no-features"),
    pytest.param(lambda tmp: LinearModel(np.zeros((2, 3)), np.zeros(3), "sigmoid"),
                 "weights must be (K, d) with bias (K,), or (C, K, d) with bias (C, K)", id="bias-shape"),
    pytest.param(lambda tmp: LinearModel(np.zeros((2, 3, 4, 5)), np.zeros((2, 3, 4)), "sigmoid"),
                 "weights must be (K, d) with bias (K,), or (C, K, d) with bias (C, K)", id="weights-4d"),
    pytest.param(lambda tmp: LinearModel(np.full((2, 3), np.nan), np.zeros(2), "sigmoid"),
                 "model parameters must be finite", id="non-finite"),
    pytest.param(lambda tmp: load_model(_checkpoint(tmp, "")), "empty checkpoint", id="empty-file"),
    pytest.param(lambda tmp: load_model(_checkpoint(tmp, "# comment only\n\n")), "empty checkpoint", id="comments-only"),
    pytest.param(lambda tmp: load_model(_checkpoint(tmp, "2 3 sigmoid\n1 2 3\n")),
                 "checkpoint declares 3 rows but has 1", id="too-few-rows"),
]  # fmt: skip


@pytest.mark.parametrize("call, message", REFUSALS)
def test_refusal_message(tmp_path, call, message):
    with pytest.raises(ValueError) as info:
        call(tmp_path)
    assert str(info.value) == message

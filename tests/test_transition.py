import warnings

import numpy as np
import pytest
import scipy.sparse as sp

from comlabel.dataset import ComplementaryDataset, make_exclusive_spec, sample_from_generative
from comlabel.loss import score_objective
from comlabel.model import LinearModel, init_linear
from comlabel.transition import (
    correct_and_normalize,
    correlation_matrix,
    estimate_initial_S,
    estimate_transition,
    load_transition_csv,
    save_transition_csv,
    uniform_transition,
    validate_transition,
)


def _cds(cl, K, d=2):
    cl = np.asarray(cl, dtype=np.int64)
    X = sp.csr_matrix(np.random.default_rng(0).standard_normal((cl.shape[0], d)))
    return ComplementaryDataset(X, cl, K)


class TestCorrelation:
    def test_single_instance_counting(self):
        # one instance with cl = 0: candidates are {1, 2, ...}; rows of present
        # candidates are all ones, the absent row falls back to uniform
        K = 4
        with pytest.warns(UserWarning, match="uniform fallback"):
            C = correlation_matrix(_cds([0], K))
        for k in range(1, K):
            for j in range(1, K):
                assert C[k, j] == 1.0
        np.testing.assert_allclose(C[0, 1:], (K - 1) / K)
        assert C[0, 0] == 1.0

    def test_two_instances_hand_counts(self):
        # cls 0 and 1: candidate sets {1,2}, {0,2} (K=3)
        # counts: cand0 in {inst1}, cand1 in {inst0}, cand2 in both
        C = correlation_matrix(_cds([0, 1], 3))
        # C[0,1]: of instances holding cand0 (inst1), none holds cand1 -> 0
        assert C[0, 1] == 0.0
        assert C[0, 2] == 1.0
        assert C[1, 0] == 0.0
        assert C[1, 2] == 1.0
        # cand2 in both instances; cand0 held by one of them
        assert C[2, 0] == 0.5
        assert C[2, 1] == 0.5
        np.testing.assert_allclose(np.diag(C), 1.0)

    def test_uniform_cl_limit(self):
        # single-label data, uniform complementary labels: off-diagonal -> (K-2)/(K-1)
        K = 5
        n = 60000
        rng = np.random.default_rng(7)
        cl = rng.integers(0, K, size=n)
        C = correlation_matrix(_cds(cl, K))
        off = C[~np.eye(K, dtype=bool)]
        # oracle: |cand k| ~ n (K-1)/K, |cand k & cand j| ~ n (K-2)/K
        np.testing.assert_allclose(off, (K - 2) / (K - 1), atol=0.01)

    def test_empty_candidate_row_warns(self):
        with pytest.warns(UserWarning, match="candidates of no instance"):
            C = correlation_matrix(_cds([0, 0, 0], 3))
        np.testing.assert_allclose(C[1, [0, 2]], [0.0, 1.0])

    @pytest.mark.parametrize(
        "cl, K",
        [
            (np.random.default_rng(3).integers(0, 5, 300), 6),  # label 5 is never complementary
            (np.full(40, 2), 4),  # label 2 is the complementary label of every instance
            (np.random.default_rng(4).integers(0, 12, 999), 12),
        ],
    )
    def test_bit_identical_to_candidate_product(self, cl, K):
        cds = _cds(cl, K)
        cand = cds.candidate_matrix().astype(np.float64)
        counts = cand.sum(axis=0)
        empty = counts == 0
        want = np.where(empty[:, None], (K - 1.0) / K, (cand.T @ cand) / np.where(empty, 1.0, counts)[:, None])
        np.fill_diagonal(want, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the empty-pool warning has its own test
            got = correlation_matrix(cds)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


class TestInitialS:
    def test_constant_uniform_predictor(self):
        K, d = 4, 3
        model = LinearModel(np.zeros((K, d)), np.zeros(K), "softmax")
        S = estimate_initial_S(_cds([0, 1, 2, 3], K, d=d), model)
        np.testing.assert_allclose(S, 1.0 / K)

    def test_two_instance_mean(self, monkeypatch):
        # candidate pool of label 0 = both instances, with prescribed outputs
        K, d = 3, 2
        X = np.array([[1.0, 0.0], [0.0, 1.0]])
        targets = np.array([[0.2, 0.8, 0.0], [0.4, 0.2, 0.4]])
        cds = ComplementaryDataset(sp.csr_matrix(X), np.array([2, 1]), K)
        model = LinearModel(np.zeros((K, d)), np.zeros(K), "softmax")
        monkeypatch.setattr("comlabel.transition.forward", lambda m, x: targets)
        S = estimate_initial_S(cds, model)
        np.testing.assert_allclose(S[0], [0.3, 0.5, 0.2])

    def test_empty_pool_warns_and_sets_uniform(self):
        K = 3
        model = init_linear(2, K, "softmax", seed=0)
        with pytest.warns(UserWarning, match="set uniform|uniform"):
            S = estimate_initial_S(_cds([0, 0], K), model)
        np.testing.assert_allclose(S[0], 1.0 / K)

    def test_non_finite_scores_name_the_predictor(self, monkeypatch):
        # logits that overflow give nan softmax scores, which would carry
        # into every row of T whose pool holds the instance
        K, d = 3, 2
        scores = np.full((4, K), 1.0 / K)
        scores[2, 1] = scores[3, 0] = np.nan
        model = LinearModel(np.zeros((K, d)), np.zeros(K), "softmax")
        monkeypatch.setattr("comlabel.transition.forward", lambda m, x: scores)
        with pytest.raises(ValueError, match="^complementary-label predictor gave non-finite scores on instance 2$"):
            estimate_initial_S(_cds([0, 1, 2, 0], K, d=d), model)

    def test_sigmoid_predictor_rejected(self):
        model = init_linear(2, 3, "sigmoid", seed=0)
        with pytest.raises(ValueError, match="softmax"):
            estimate_initial_S(_cds([0, 1], 3), model)

    def test_rows_sum_to_one(self):
        K = 5
        rng = np.random.default_rng(3)
        model = init_linear(4, K, "softmax", seed=1)
        cds = ComplementaryDataset(sp.csr_matrix(rng.standard_normal((50, 4))), rng.integers(0, K, 50), K)
        S = estimate_initial_S(cds, model)
        np.testing.assert_allclose(S.sum(axis=1), 1.0, atol=1e-6)

    def test_permutation_equivariance(self):
        K, d = 4, 3
        rng = np.random.default_rng(9)
        X = rng.standard_normal((30, d))
        cl = rng.integers(0, K, 30)
        model = init_linear(d, K, "softmax", seed=2)
        S = estimate_initial_S(ComplementaryDataset(sp.csr_matrix(X), cl, K), model)
        perm = np.array([2, 0, 3, 1])
        inv = np.argsort(perm)
        # permute label identities: new label perm[k] plays old label k's role
        model_p = LinearModel(model.weights[inv], model.bias[inv], "softmax")
        cl_p = perm[cl]
        S_p = estimate_initial_S(ComplementaryDataset(sp.csr_matrix(X), cl_p, K), model_p)
        np.testing.assert_allclose(S_p, S[np.ix_(inv, inv)], atol=1e-12)

    def test_monte_carlo_oracle_on_generative_sample(self, monkeypatch):
        # feed the exact class-conditional complementary posterior as the
        # predictor; S must then concentrate on the analytic conditional
        # expectation E[p(cl = j | x) | candidate k] within 0.02 at n = 20000
        K, n = 4, 20000
        spec = make_exclusive_spec(K)
        full, comp = sample_from_generative(spec, n, 3, seed=21)
        classes = full.y.argmax(axis=1)
        F = np.full((n, K), 1.0 / (K - 1))
        F[np.arange(n), classes] = 0.0
        model = LinearModel(np.zeros((K, 1)), np.zeros(K), "softmax")
        monkeypatch.setattr("comlabel.transition.forward", lambda m, x: F)
        S = estimate_initial_S(comp, model)
        # analytic oracle by enumeration over the true class c:
        #   p(class) = 1/K; p(candidate k | c) = 1 if c == k else (K-2)/(K-1);
        #   p(cl = j | c) = 0 if j == c else 1/(K-1)
        analytic = np.zeros((K, K))
        for k in range(K):
            num = np.zeros(K)
            den = 0.0
            for c in range(K):
                w = (1.0 / K) * (1.0 if c == k else (K - 2) / (K - 1))
                p = np.full(K, 1.0 / (K - 1))
                p[c] = 0.0
                num += w * p
                den += w
            analytic[k] = num / den
        np.testing.assert_allclose(analytic.sum(axis=1), 1.0, atol=1e-12)
        np.testing.assert_allclose(S, analytic, atol=0.02)


class TestCorrectAndNormalize:
    def test_identity_correction(self):
        S = np.array([[0.2, 0.5, 0.3], [0.4, 0.1, 0.5], [0.3, 0.3, 0.4]])
        T = correct_and_normalize(S, np.eye(3))
        expected = S.copy()
        np.fill_diagonal(expected, 0.0)
        expected /= expected.sum(axis=1, keepdims=True)
        np.testing.assert_allclose(T, expected)
        validate_transition(T)

    def test_hand_example(self):
        S = np.array([[0.0, 0.6, 0.4], [0.5, 0.2, 0.3], [0.1, 0.6, 0.3]])
        C = np.array([[1.0, 0.8, 0.1], [0.8, 1.0, 0.1], [0.1, 0.1, 1.0]])
        M = S @ C.T
        np.testing.assert_allclose(M[0], [0.52, 0.64, 0.46])
        T = correct_and_normalize(S, C)
        np.testing.assert_allclose(T[0], [0.0, 0.64 / 1.10, 0.46 / 1.10])
        np.testing.assert_allclose(T[0, 1], 0.581818, atol=1e-6)
        np.testing.assert_allclose(T[0, 2], 0.418182, atol=1e-6)

    def test_idempotent_with_identity(self):
        T0 = uniform_transition(4)
        T1 = correct_and_normalize(T0, np.eye(4))
        np.testing.assert_allclose(T0, T1, atol=1e-15)

    def test_postconditions_random(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            K = int(rng.integers(3, 9))
            S = rng.random((K, K))
            S /= S.sum(axis=1, keepdims=True)
            C = rng.random((K, K))
            np.fill_diagonal(C, 1.0)
            T = correct_and_normalize(S, C)
            validate_transition(T)

    def test_dead_row_warns(self):
        S = np.zeros((3, 3))
        S[:, 0] = 1.0  # after zeroing the diagonal, row 0 keeps no mass only if C kills it
        C = np.zeros((3, 3))
        np.fill_diagonal(C, 1.0)
        C[0, 0] = 1.0
        # S C^T row 0 = [S00, S01... ] with S row = e0 -> M[0] = [C00*1, C10*1, C20*1] = [1, 0, 0]
        with pytest.warns(UserWarning, match="no off-diagonal mass"):
            T = correct_and_normalize(S, C)
        np.testing.assert_allclose(T[0], [0.0, 0.5, 0.5])
        validate_transition(T)


class TestCorrectionFlattensToUniform:
    """With a constant off-diagonal C = c = (K-2)/(K-1), the population C of
    uniform corruption when every label is the complementary label equally
    often, the correction pulls each row of the uncorrected estimate
    T_nc = correct_and_normalize(S, I) toward the uniform U by a fixed factor:

        T - U = a_k (T_nc - U) / ((K-1)(K-2) + a_k),   a_k = 1 - S[k, k].

    This pins what the estimator does today; it changes on purpose or not at all.
    """

    def test_rows_shrink_toward_uniform_by_the_closed_form(self):
        rng = np.random.default_rng(11)
        for K in range(3, 13):
            C = np.full((K, K), (K - 2) / (K - 1))
            np.fill_diagonal(C, 1.0)
            U = uniform_transition(K)
            for _ in range(500):
                S = rng.dirichlet(np.ones(K), size=K)
                a = 1.0 - np.diagonal(S)[:, None]
                T_nc = correct_and_normalize(S, np.eye(K))
                shrunk = a * (T_nc - U) / ((K - 1) * (K - 2) + a)
                np.testing.assert_allclose(correct_and_normalize(S, C) - U, shrunk, rtol=0, atol=4e-16)


def _composed_residual(T, F, cl):
    """Per-row ||e_cl - F T||^2 and its score gradient: the unclamped
    regulariser of mlcl (its beta = 1 loss less its beta = 0 loss), which sees
    each score row f through the transition as q = T^T f."""
    (v1, g1), (v0, g0) = (score_objective(F, "mlcl", T=T, cl=cl, beta=beta) for beta in (1.0, 0.0))
    return v1 - v0, g1 - g0


class TestApplyTransition:
    def test_uniform_one_hot(self):
        # q = T^T e_1 = (1/3, 0, 1/3, 1/3), and ||e_j - q||^2 = 1 - 2 q_j + ||q||^2
        K = 4
        values, _ = _composed_residual(uniform_transition(K), np.tile(np.eye(K)[1], (K, 1)), np.arange(K))
        np.testing.assert_allclose(values, [2 / 3, 4 / 3, 2 / 3, 2 / 3])

    def test_zero_vector(self):
        # q = 0, so the residual is the one-hot row itself
        T = uniform_transition(3)
        values, G = _composed_residual(T, np.zeros((3, 3)), np.arange(3))
        assert values.tolist() == [1.0, 1.0, 1.0]
        np.testing.assert_array_equal(G, -2.0 * T.T)

    def test_hand_product_may_exceed_one(self):
        # q = T^T (1, 0, 1) = (0.3, 1.3, 0.4) is not clamped: against label 1
        # the residual is (-0.3, -0.3, -0.4)
        T = np.array([[0.0, 0.6, 0.4], [0.5, 0.0, 0.5], [0.3, 0.7, 0.0]])
        values, _ = _composed_residual(T, np.array([[1.0, 0.0, 1.0]]), [1])
        np.testing.assert_allclose(values, [0.34])

    def test_linearity(self):
        # against a one-hot target e the gradient is 2 (f T - e) T^T, affine in f
        rng = np.random.default_rng(23)
        T = uniform_transition(5)
        f, g = rng.random(5), rng.random(5)
        a, b = 0.3, -1.7

        def linear_part(x):
            at_x, at_zero = _composed_residual(T, np.stack([x, np.zeros(5)]), [2, 2])[1]
            return at_x - at_zero

        np.testing.assert_allclose(linear_part(a * f + b * g), a * linear_part(f) + b * linear_part(g), atol=1e-12)

    def test_batch_form(self):
        T = uniform_transition(3)
        rng = np.random.default_rng(1)
        F, cl = rng.random((7, 3)), rng.integers(0, 3, size=7)
        values, G = _composed_residual(T, F, cl)
        for i in range(7):
            np.testing.assert_allclose(values[i], ((np.eye(3)[cl[i]] - T.T @ F[i]) ** 2).sum())
            np.testing.assert_allclose(G[i], _composed_residual(T, F[i : i + 1], cl[i : i + 1])[1][0])


class TestInvertibility:
    def test_uniform_k4_invertible(self):
        # oracle determinant: eigenvalues of (J - I)/3 are 1 and -1/3 (x3)
        np.testing.assert_allclose(np.linalg.det(uniform_transition(4)), 1.0 * (-1.0 / 3.0) ** 3)

    def test_uniform_k3_determinant_oracle(self):
        # brute-force 3x3 determinant by the Leibniz rule
        T = uniform_transition(3)
        det = (
            T[0, 0] * (T[1, 1] * T[2, 2] - T[1, 2] * T[2, 1])
            - T[0, 1] * (T[1, 0] * T[2, 2] - T[1, 2] * T[2, 0])
            + T[0, 2] * (T[1, 0] * T[2, 1] - T[1, 1] * T[2, 0])
        )
        np.testing.assert_allclose(np.linalg.det(T), det, atol=1e-15)
        assert det != 0.0


class TestEndToEnd:
    def test_estimate_transition_contract(self):
        spec = make_exclusive_spec(4)
        _, comp = sample_from_generative(spec, 2000, 3, seed=3)
        model = init_linear(3, 4, "softmax", seed=0)
        T = estimate_transition(comp, model)
        validate_transition(T)
        T2 = estimate_transition(comp, model, use_correlation=False)
        validate_transition(T2)

    def test_csv_roundtrip(self, tmp_path):
        rng = np.random.default_rng(31)
        S = rng.random((6, 6))
        S /= S.sum(axis=1, keepdims=True)
        C = rng.random((6, 6))
        np.fill_diagonal(C, 1.0)
        T = correct_and_normalize(S, C)
        path = tmp_path / "t.csv"
        save_transition_csv(T, path)
        back = load_transition_csv(path)
        np.testing.assert_array_equal(back, T)
        for K in range(3, 13):  # U reads back as 1/(K-1) to the bit
            save_transition_csv(uniform_transition(K), path)
            np.testing.assert_array_equal(load_transition_csv(path), uniform_transition(K))


GOOD_T = "0,0.5,0.5\n0.25,0,0.75\n0.5,0.5,0\n"


class TestLoadTransitionCSV:
    @pytest.mark.parametrize(
        "text,msg",
        [
            ("0,0.5,0.5\n0.25,x,0.75\n0.5,0.5,0\n", "line 2: non-numeric entry"),
            ("0,0.5,0.5\n0.25,,0.75\n0.5,0.5,0\n", "line 2: non-numeric entry"),
            ("0,0.5,0.5\n0.25,0,0.75\n0.5,0.5\n", "line 3: 2 entries, but line 1 has 3"),
            ("0,0.5,0.5\n0.25,0,0.75,0\n0.5,0.5,0\n", "line 2: 4 entries, but line 1 has 3"),
            ("0,0.5,0.5\n\n1.25,0,-0.25\n0.5,0.5,0\n", "line 3: transition matrix has negative entries"),
            ("0.1,0.4,0.5\n0.25,0,0.75\n0.5,0.5,0\n", "line 1: transition matrix diagonal must be exactly zero"),
            ("0,0.5,0.5\n0.25,0,0.75\n0.5,0.4,0\n", "line 3: transition matrix rows must sum to 1"),
            ("0,0.5,0.5\n0.25,0,nan\n0.5,0.5,0\n", "line 2: transition matrix has non-finite entries"),
            ("0,0.5,inf\n0.25,0,0.75\n0.5,0.5,0\n", "line 1: transition matrix has non-finite entries"),
        ],
    )
    def test_bad_file_names_its_line(self, tmp_path, text, msg):
        path = tmp_path / "t.csv"
        path.write_text(text)
        with pytest.raises(ValueError) as err:
            load_transition_csv(path)
        assert str(err.value).startswith(msg)

    def test_not_square(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("0,0.5,0.5\n0.25,0,0.75\n")
        with pytest.raises(ValueError, match="must be square"):
            load_transition_csv(path)

    def test_good_file(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("\n" + GOOD_T + "\n")
        np.testing.assert_array_equal(load_transition_csv(path), [[0, 0.5, 0.5], [0.25, 0, 0.75], [0.5, 0.5, 0]])

    def test_validate_names_the_row(self):
        T = uniform_transition(4)
        T[2, 2] = 0.5
        with pytest.raises(ValueError, match="^row 2: transition matrix diagonal"):
            validate_transition(T)


# Refusals that no other test reaches: each call and its exact ValueError message.
REFUSALS = [
    pytest.param(lambda: validate_transition(np.zeros((2, 3))), "transition matrix must be square", id="not-square"),
    pytest.param(lambda: validate_transition(np.zeros(3)), "transition matrix must be square", id="one-dimensional"),
    pytest.param(lambda: correct_and_normalize(np.eye(3), np.eye(4)),
                 "S and C must be square matrices of the same shape", id="shapes-differ"),
    pytest.param(lambda: correct_and_normalize(np.zeros((2, 3)), np.zeros((2, 3))),
                 "S and C must be square matrices of the same shape", id="not-square-pair"),
]  # fmt: skip


@pytest.mark.parametrize("call, message", REFUSALS)
def test_refusal_message(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message

import numpy as np
import pytest

from comlabel.metrics import MetricsReport, evaluate_all
from comlabel.model import rank_matrix

# ---------------------------------------------------------------------------
# Independent brute-force oracle: plain-python rank recomputation and pair
# enumeration, sharing nothing with the implementation under test.
# ---------------------------------------------------------------------------


def brute_ranks(scores):
    order = sorted(range(len(scores)), key=lambda k: (-scores[k], k))
    ranks = [0] * len(scores)
    for pos, label in enumerate(order):
        ranks[label] = pos + 1
    return ranks


def brute_metrics(scores_list, truth_list):
    n = len(scores_list)
    K = len(scores_list[0])
    ham = rank = one = cov = ap = 0.0
    for scores, y in zip(scores_list, truth_list):
        pred = [1 if s > 0.5 else 0 for s in scores]
        ham += sum(p != t for p, t in zip(pred, y)) / K
        ranks = brute_ranks(scores)
        rel = [k for k in range(K) if y[k] == 1]
        irr = [k for k in range(K) if y[k] == 0]
        bad_pairs = sum(1 for a in rel for b in irr if ranks[a] > ranks[b])
        rank += bad_pairs / (len(rel) * len(irr))
        top = ranks.index(1)
        one += 1 if y[top] == 0 else 0
        cov += (max(ranks[k] for k in rel) - 1) / K
        ap += sum(sum(1 for kk in rel if ranks[kk] <= ranks[k]) / ranks[k] for k in rel) / len(rel)
    return ham / n, rank / n, one / n, cov / n, ap / n


WORKED_SCORES = np.array([[0.9, 0.8, 0.1]])
WORKED_TRUTH = np.array([[1, 0, 1]])


class TestWorkedInstance:
    def test_hamming(self):
        np.testing.assert_allclose(evaluate_all(WORKED_SCORES, WORKED_TRUTH).hamming_loss, 2 / 3)

    def test_ranking(self):
        np.testing.assert_allclose(evaluate_all(WORKED_SCORES, WORKED_TRUTH).ranking_loss, 1 / 2)

    def test_one_error(self):
        assert evaluate_all(WORKED_SCORES, WORKED_TRUTH).one_error == 0.0

    def test_coverage(self):
        np.testing.assert_allclose(evaluate_all(WORKED_SCORES, WORKED_TRUTH).coverage, 2 / 3)

    def test_average_precision(self):
        np.testing.assert_allclose(evaluate_all(WORKED_SCORES, WORKED_TRUTH).average_precision, 5 / 6)

    def test_evaluate_all(self):
        r = evaluate_all(WORKED_SCORES, WORKED_TRUTH)
        np.testing.assert_allclose(
            [r.hamming_loss, r.ranking_loss, r.one_error, r.coverage, r.average_precision],
            [2 / 3, 1 / 2, 0.0, 2 / 3, 5 / 6],
        )


class TestBoundaryCases:
    def test_perfect_predictions(self):
        scores = np.array([[0.9, 0.1, 0.8], [0.2, 0.9, 0.1]])
        truth = np.array([[1, 0, 1], [0, 1, 0]])
        r = evaluate_all(scores, truth)
        assert r.hamming_loss == 0.0
        assert r.ranking_loss == 0.0
        assert r.one_error == 0.0
        assert r.average_precision == 1.0

    def test_fully_inverted(self):
        scores = np.array([[0.1, 0.9, 0.2]])
        truth = np.array([[1, 0, 1]])
        assert evaluate_all(scores, truth).hamming_loss == 1.0

    def test_reversed_ranking(self):
        scores = np.array([[0.1, 0.2, 0.9]])
        truth = np.array([[1, 1, 0]])
        r = evaluate_all(scores, truth)
        assert r.ranking_loss == 1.0
        assert r.one_error == 1.0

    def test_single_relevant_ranked_first(self):
        scores = np.array([[0.9, 0.3, 0.2]])
        truth = np.array([[1, 0, 0]])
        assert evaluate_all(scores, truth).coverage == 0.0

    def test_relevant_ranked_last(self):
        K = 4
        scores = np.array([[0.1, 0.9, 0.8, 0.7]])
        truth = np.array([[1, 0, 0, 0]])
        np.testing.assert_allclose(evaluate_all(scores, truth).coverage, (K - 1) / K)

    def test_empty_evaluation_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            evaluate_all(np.zeros((0, 3)), np.zeros((0, 3)))

    def test_bad_truth_rejected(self):
        with pytest.raises(ValueError, match="empty or full"):
            evaluate_all(np.array([[0.5, 0.5, 0.5]]), np.array([[1, 1, 1]]))

    def test_single_instance_vector_rejected(self):
        # one instance is a batch of one, shape (1, K)
        with pytest.raises(ValueError, match="batch"):
            evaluate_all(np.array([0.9, 0.1, 0.8]), np.array([1, 0, 1]))

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="disagree"):
            evaluate_all(np.zeros((2, 3)), np.ones((3, 3)))

    def test_duplication_invariance(self):
        rng = np.random.default_rng(0)
        S = rng.random((10, 4))
        Y = (rng.random((10, 4)) < 0.5).astype(int)
        Y[Y.sum(1) == 0, 0] = 1
        Y[Y.sum(1) == 4, 3] = 0
        a = evaluate_all(S, Y)
        b = evaluate_all(np.vstack([S, S]), np.vstack([Y, Y]))
        for name in MetricsReport.METRIC_NAMES:
            np.testing.assert_allclose(getattr(a, name), getattr(b, name), atol=1e-14)


class TestOracleEquivalence:
    def test_two_hundred_random_instances(self):
        rng = np.random.default_rng(42)
        for trial in range(200):
            K = int(rng.integers(3, 16))
            n = int(rng.integers(1, 5))
            S = np.round(rng.random((n, K)), 3)  # rounding makes ties frequent
            Y = np.zeros((n, K), dtype=int)
            for i in range(n):
                size = int(rng.integers(1, K))
                Y[i, rng.choice(K, size=size, replace=False)] = 1
            expected = brute_metrics(S.tolist(), Y.tolist())
            r = evaluate_all(S, Y)
            got = (r.hamming_loss, r.ranking_loss, r.one_error, r.coverage, r.average_precision)
            np.testing.assert_allclose(got, expected, atol=1e-12, err_msg=f"trial {trial}")

    def test_individual_ops_match_evaluate_all(self):
        # every criterion is a mean over instances: the batch pass equals the
        # mean of one-instance passes
        rng = np.random.default_rng(43)
        S = rng.random((25, 5))
        Y = (rng.random((25, 5)) < 0.4).astype(int)
        Y[Y.sum(1) == 0, 0] = 1
        Y[Y.sum(1) == 5, 4] = 0
        r = evaluate_all(S, Y)
        singles = [evaluate_all(S[i : i + 1], Y[i : i + 1]) for i in range(25)]
        for name in MetricsReport.METRIC_NAMES:
            np.testing.assert_allclose(getattr(r, name), np.mean([getattr(x, name) for x in singles]), atol=1e-15)


class TestInvariances:
    def test_monotone_transform_invariance(self):
        # rank-based metrics ignore strictly monotone transforms of the scores
        rng = np.random.default_rng(44)
        S = rng.random((15, 5))
        Y = (rng.random((15, 5)) < 0.4).astype(int)
        Y[Y.sum(1) == 0, 0] = 1
        Y[Y.sum(1) == 5, 4] = 0
        S2 = np.exp(3.0 * S) / 50.0
        a, b = evaluate_all(S, Y), evaluate_all(S2, Y)
        for name in ("ranking_loss", "one_error", "coverage", "average_precision"):
            np.testing.assert_allclose(getattr(a, name), getattr(b, name), atol=1e-14)

    def test_hamming_invariant_when_level_set_fixed(self):
        rng = np.random.default_rng(45)
        S = rng.random((15, 5))
        Y = (rng.random((15, 5)) < 0.4).astype(int)
        Y[Y.sum(1) == 0, 0] = 1
        Y[Y.sum(1) == 5, 4] = 0
        # monotone transform fixing 0.5: affine squeeze around 0.5
        S2 = 0.5 + 0.4 * (S - 0.5)
        np.testing.assert_allclose(evaluate_all(S, Y).hamming_loss, evaluate_all(S2, Y).hamming_loss)

    def test_zero_ranking_loss_iff_perfect_ap(self):
        rng = np.random.default_rng(46)
        for _ in range(50):
            K = 5
            S = rng.permutation(K).astype(float) / K  # distinct scores
            Y = np.zeros(K, dtype=int)
            Y[rng.choice(K, size=int(rng.integers(1, K)), replace=False)] = 1
            r = evaluate_all(S[None], Y[None])
            assert (r.ranking_loss == 0.0) == (r.average_precision == 1.0)


def reference_average_precision(scores, truth):
    """Average precision by the per-instance loop that the vectorised pass replaced."""
    ranks = rank_matrix(scores).astype(np.float64)
    rel = np.asarray(truth) == 1
    per_instance = np.empty(len(ranks))
    sequential = np.empty(len(ranks))
    for i in range(len(ranks)):
        r = ranks[i, rel[i]]
        hits_at = (r[:, None] >= r[None, :]).sum(axis=1)  # relevant labels ranked at or above
        per_instance[i] = np.mean(hits_at / r)
        sequential[i] = np.cumsum(hits_at / r)[-1] / r.size
    return float(np.mean(per_instance)), float(np.mean(sequential))


class TestAveragePrecisionReference:
    def test_bit_identical_to_per_instance_loop(self):
        rng = np.random.default_rng(47)
        long_rows = sequential_differs = 0
        for trial in range(3000):
            K = int(rng.integers(3, 41))
            n = int(rng.integers(1, 9))
            S = np.round(rng.random((n, K)), 2)  # ties occur
            Y = np.zeros((n, K), dtype=int)
            for i in range(n):
                Y[i, rng.choice(K, size=int(rng.integers(1, K)), replace=False)] = 1
            long_rows += int((Y.sum(axis=1) >= 8).sum())
            expected, sequential = reference_average_precision(S, Y)
            assert evaluate_all(S, Y).average_precision == expected, f"trial {trial}"
            sequential_differs += sequential != expected
        # rows of 8 or more terms are summed pairwise; a running sum rounds
        # differently on some of them, so these cases can tell the two apart
        assert long_rows >= 3000
        assert sequential_differs > 100


# Refusals that no other test reaches: each call and its exact ValueError message.
REFUSALS = [
    pytest.param(lambda: evaluate_all([[0.5, np.nan, 0.1]], [[1, 0, 0]]), "scores must be finite", id="nan-score"),
    pytest.param(lambda: evaluate_all([[0.5, np.inf, 0.1]], [[1, 0, 0]]), "scores must be finite", id="inf-score"),
    pytest.param(lambda: evaluate_all([[0.5, 0.2, 0.1]], [[1, 2, 0]]), "truth entries must be 0 or 1", id="truth-not-binary"),
]


@pytest.mark.parametrize("call, message", REFUSALS)
def test_refusal_message(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message

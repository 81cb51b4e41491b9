import numpy as np
import pytest
import scipy.sparse as sp

from comlabel.complementary import (
    CorruptionRecord,
    attach_relevant_subset,
    biased_selection_probs,
    cooccurrence_rates,
    corrupt_biased,
    corrupt_uniform,
)
from comlabel.dataset import ComplementaryDataset, MultiLabelDataset, parse_complementary_file, write_complementary_file


def _ds(y, seed=0, d=2):
    y = np.asarray(y, dtype=np.uint8)
    X = sp.csr_matrix(np.random.default_rng(seed).standard_normal((y.shape[0], d)))
    return MultiLabelDataset(X, y)


class TestUniform:
    def test_cl_never_relevant(self):
        rng = np.random.default_rng(0)
        y = (rng.random((300, 6)) < 0.4).astype(np.uint8)
        y[y.sum(1) == 0, 0] = 1
        y[y.sum(1) == 6, 5] = 0
        cds, record = corrupt_uniform(_ds(y), seed=1)
        assert np.all(y[np.arange(300), cds.cl] == 0)
        np.testing.assert_array_equal(record.true_y, y)

    def test_singleton_complement_forced(self):
        # K=3, Y={l0,l1} leaves only l2
        cds, _ = corrupt_uniform(_ds(np.tile([[1, 1, 0]], (20, 1))), seed=3)
        assert np.all(cds.cl == 2)

    def test_two_candidates_each_half(self):
        # K=4, Y={l0,l2}: candidates l1 and l3, each with probability 0.5
        n = 20000
        cds, _ = corrupt_uniform(_ds(np.tile([[1, 0, 1, 0]], (n, 1))), seed=5)
        freq = np.bincount(cds.cl, minlength=4) / n
        assert freq[0] == freq[2] == 0.0
        sigma = np.sqrt(0.25 / n)
        np.testing.assert_allclose(freq[[1, 3]], 0.5, atol=3 * sigma)

    def test_five_candidate_frequencies_in_band(self):
        # n=10000 copies of one instance with five candidates -> each in [0.18, 0.22]
        n = 10000
        y = np.tile([[1, 0, 0, 0, 0, 0]], (n, 1))
        cds, _ = corrupt_uniform(_ds(y), seed=8)
        freq = np.bincount(cds.cl, minlength=6) / n
        assert freq[0] == 0.0
        assert np.all(freq[1:] >= 0.18) and np.all(freq[1:] <= 0.22)

    def test_deterministic(self):
        y = np.tile([[1, 0, 1, 0]], (50, 1))
        a, _ = corrupt_uniform(_ds(y), seed=11)
        b, _ = corrupt_uniform(_ds(y), seed=11)
        np.testing.assert_array_equal(a.cl, b.cl)

    def test_candidate_vector_shape(self):
        cds, _ = corrupt_uniform(_ds(np.tile([[1, 0, 0]], (5, 1))), seed=0)
        cand = cds.candidate_matrix()
        assert np.all(cand.sum(axis=1) == 2)
        assert np.all(cand[np.arange(5), cds.cl] == 0)


class TestCooccurrence:
    def test_hand_counts(self):
        y = np.array([[1, 1, 0], [1, 0, 1], [1, 0, 0], [0, 0, 1]], dtype=np.uint8)
        cooc = cooccurrence_rates(y)
        # label 0 occurs 3 times; label 1 co-occurs with it once
        assert cooc[1, 0] == pytest.approx(1 / 3)
        assert cooc[0, 1] == pytest.approx(1.0)  # label 1 occurs once, always with label 0
        assert cooc[2, 0] == pytest.approx(1 / 3)
        assert cooc[0, 2] == pytest.approx(1 / 2)
        np.testing.assert_allclose(np.diag(cooc), 1.0)


class TestBiased:
    def test_weights_proportional(self):
        # instance Y={0}; candidates 1 and 2 with cooc 0.1 and 0.9 against label 0
        cooc = np.eye(3)
        cooc[1, 0] = 0.1
        cooc[2, 0] = 0.9
        probs = biased_selection_probs(np.array([[1, 0, 0]]), cooc)
        np.testing.assert_allclose(probs[0], [0.0, 0.9, 0.1])

    def test_never_cooccurring_candidate_has_maximal_weight(self):
        # candidate 2 never co-occurs with either relevant label -> weight 1
        cooc = np.eye(4)
        cooc[2, 0] = 0.0
        cooc[2, 1] = 0.0
        cooc[3, 0] = 0.4
        cooc[3, 1] = 0.7
        probs = biased_selection_probs(np.array([[1, 1, 0, 0]]), cooc)
        assert probs[0, 2] == max(probs[0])
        np.testing.assert_allclose(probs[0], [0.0, 0.0, 1.0 / 1.3, 0.3 / 1.3])

    @staticmethod
    def _loop_reference(y, cooc):
        """The per-instance loop the vectorized sampler replaced."""
        probs = np.empty(y.shape)
        for i in range(y.shape[0]):
            rel = np.flatnonzero(y[i])
            w = 1.0 - cooc[:, rel].max(axis=1)
            w[rel] = 0.0
            w = np.maximum(w, 0.0)
            total = w.sum()
            if total <= 0.0:
                w = (1.0 - y[i]).astype(np.float64)
                total = w.sum()
            probs[i] = w / total
        return probs

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_bit_identical_to_loop_reference(self, seed):
        rng = np.random.default_rng(seed)
        K = int(rng.integers(3, 16))
        y = (rng.random((400, K)) < rng.uniform(0.1, 0.6)).astype(np.uint8)
        y[y.sum(1) == 0, 0] = 1
        y[y.sum(1) == K, K - 1] = 0
        y[0] = 0
        y[0, :2] = 1  # labels 0 and 1 always co-occur below, so row 0 falls back to uniform
        cooc = cooccurrence_rates(y)
        cooc[:, :2] = np.maximum(cooc[:, :2], 1.0)
        expected = self._loop_reference(y, cooc)
        assert np.all(expected[0, 2:] == 1.0 / (K - 2))
        assert np.array_equal(biased_selection_probs(y, cooc), expected)

    def test_all_zero_weights_fall_back_to_uniform(self):
        # both candidates fully co-occur with the relevant label
        cooc = np.eye(3)
        cooc[1, 0] = 1.0
        cooc[2, 0] = 1.0
        probs = biased_selection_probs(np.array([[1, 0, 0]]), cooc)
        np.testing.assert_allclose(probs[0], [0.0, 0.5, 0.5])

    def test_end_to_end_matches_self_computed_weights(self):
        rng = np.random.default_rng(2)
        base = np.array([[0, 0, 0, 1]] * 60 + [[0, 1, 0, 1]] * 25 + [[0, 0, 1, 1]] * 15, dtype=np.uint8)
        y = base[rng.permutation(base.shape[0])]
        y = np.tile(y, (200, 1))
        ds = _ds(y, seed=2)
        cds, _ = corrupt_biased(ds, seed=13)
        expected = biased_selection_probs(ds.y, cooccurrence_rates(ds.y))
        pure = np.flatnonzero((ds.y.sum(axis=1) == 1))
        freq = np.bincount(cds.cl[pure], minlength=4) / pure.size
        np.testing.assert_allclose(freq, expected[pure[0]], atol=0.02)

    def test_cl_never_relevant(self):
        rng = np.random.default_rng(5)
        y = (rng.random((500, 5)) < 0.4).astype(np.uint8)
        y[y.sum(1) == 0, 0] = 1
        y[y.sum(1) == 5, 4] = 0
        ds = _ds(y, seed=5)
        cds, _ = corrupt_biased(ds, seed=19)
        assert np.all(ds.y[np.arange(500), cds.cl] == 0)

    def test_deterministic(self):
        y = np.tile([[1, 0, 1, 0]], (40, 1))
        a, _ = corrupt_biased(_ds(y, seed=6), seed=23)
        b, _ = corrupt_biased(_ds(y, seed=6), seed=23)
        np.testing.assert_array_equal(a.cl, b.cl)


class TestAttachRelevant:
    def test_forced_single_choice(self):
        y = np.tile([[0, 1, 0]], (10, 1))
        ds = _ds(y, seed=8)
        cds, record = corrupt_uniform(ds, seed=31)
        out = attach_relevant_subset(cds, record, r=1, seed=37)
        np.testing.assert_array_equal(out.relevant, y)

    def test_uniform_over_two_choices(self):
        n = 10000
        y = np.tile([[1, 0, 0, 1]], (n, 1))
        ds = _ds(y, seed=9)
        cds, record = corrupt_uniform(ds, seed=41)
        out = attach_relevant_subset(cds, record, r=1, seed=43)
        share = out.relevant[:, 0].mean()
        sigma = np.sqrt(0.25 / n)
        assert abs(share - 0.5) <= 3 * sigma

    def test_r_too_large_names_instance(self):
        y = np.array([[1, 1, 0], [0, 1, 0]], dtype=np.uint8)
        ds = _ds(y, seed=10)
        cds, record = corrupt_uniform(ds, seed=47)
        with pytest.raises(ValueError, match="instance 1"):
            attach_relevant_subset(cds, record, r=2, seed=53)

    def test_subset_of_truth(self):
        rng = np.random.default_rng(12)
        y = (rng.random((100, 5)) < 0.5).astype(np.uint8)
        y[y.sum(1) == 0, 0] = 1
        y[y.sum(1) == 5, 4] = 0
        ds = _ds(y, seed=11)
        cds, record = corrupt_uniform(ds, seed=59)
        out = attach_relevant_subset(cds, record, r=1, seed=61)
        assert np.all(out.relevant <= y)
        assert np.all(out.relevant.sum(1) == 1)
        assert np.all(out.relevant[np.arange(100), cds.cl] == 0)


class TestComplementaryIO:
    def test_roundtrip_with_relevant(self, tmp_path):
        rng = np.random.default_rng(21)
        y = (rng.random((30, 4)) < 0.5).astype(np.uint8)
        y[y.sum(1) == 0, 0] = 1
        y[y.sum(1) == 4, 3] = 0
        ds = _ds(y, seed=13, d=7)
        cds, record = corrupt_uniform(ds, seed=67)
        cds = attach_relevant_subset(cds, record, r=1, seed=71)
        path = tmp_path / "comp.txt"
        write_complementary_file(cds, path)
        back = parse_complementary_file(path)
        np.testing.assert_array_equal(back.cl, cds.cl)
        np.testing.assert_array_equal(back.relevant, cds.relevant)
        assert isinstance(back.features, np.ndarray)  # the file stores every cell of the CSR input
        assert np.array_equal(back.features, cds.features.toarray())

    def test_roundtrip_without_relevant(self, tmp_path):
        y = np.tile([[1, 0, 1]], (5, 1))
        cds, _ = corrupt_uniform(_ds(y, seed=14), seed=73)
        path = tmp_path / "comp.txt"
        write_complementary_file(cds, path)
        back = parse_complementary_file(path)
        assert back.relevant is None
        np.testing.assert_array_equal(back.cl, cds.cl)

    def test_relevant_marking_cl_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1 2 3\n1;1 0:1.0\n")
        with pytest.raises(Exception, match="relevant"):
            parse_complementary_file(path)

    def test_invariants_on_type(self):
        X = sp.csr_matrix(np.zeros((2, 2)))
        with pytest.raises(ValueError, match="marks the complementary"):
            ComplementaryDataset(X, np.array([0, 1]), 3, relevant=np.array([[1, 0, 0], [0, 1, 0]]))


def _corrupted(y, seed=0):
    return corrupt_uniform(_ds(y, seed=seed), seed=seed)


# Refusals that no other test reaches: each call and its exact ValueError message.
REFUSALS = [
    pytest.param(lambda: biased_selection_probs(np.array([[1, 0, 0], [0, 0, 0]]), np.eye(3)),
                 "every instance needs a relevant label", id="biased-no-relevant"),
    pytest.param(lambda: attach_relevant_subset(*_corrupted([[1, 0, 0], [0, 1, 0]]), r=0, seed=1),
                 "r must be at least 1", id="relevant-count-zero"),
    pytest.param(lambda: attach_relevant_subset(_corrupted([[1, 0, 0], [0, 1, 0]])[0],
                                                CorruptionRecord(np.array([[1, 0, 0]])), r=1, seed=1),
                 "corruption record does not match the dataset", id="record-mismatch"),
]  # fmt: skip


@pytest.mark.parametrize("call, message", REFUSALS)
def test_refusal_message(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message

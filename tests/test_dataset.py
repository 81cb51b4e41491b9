import numpy as np
import pytest
import scipy.sparse as sp

from comlabel.complementary import parse_complementary_file
from comlabel.dataset import (
    DatasetFormatError,
    FeatureScaler,
    GenerativeSpec,
    LabelSpace,
    MultiLabelDataset,
    PARSE_CHUNK_ROWS,
    enumerate_subsets,
    kfold_split,
    make_exclusive_spec,
    make_uniform_cl_spec,
    normalize_features,
    parse_multilabel_file,
    preprocess_topk_labels,
    sample_from_generative,
    store_features,
    subset_membership,
    uniform_cl_rows,
    write_multilabel_file,
)


def _dense(X):
    return X.toarray() if sp.issparse(X) else X


def _ds(y, d=2, seed=0):
    y = np.asarray(y, dtype=np.uint8)
    rng = np.random.default_rng(seed)
    X = sp.csr_matrix(rng.standard_normal((y.shape[0], d)))
    return MultiLabelDataset(X, y, LabelSpace(y.shape[1]))


class TestInvariants:
    def test_label_space_needs_three_labels(self):
        with pytest.raises(ValueError):
            LabelSpace(2)

    def test_empty_relevance_rejected(self):
        with pytest.raises(ValueError, match="empty or full"):
            _ds([[0, 0, 0], [1, 0, 0]])

    def test_full_relevance_rejected(self):
        with pytest.raises(ValueError, match="empty or full"):
            _ds([[1, 1, 1]])

    def test_y_immutable(self):
        ds = _ds([[1, 0, 1]])
        with pytest.raises(ValueError):
            ds.y[0, 0] = 0


class TestParser:
    def test_basic_file(self, tmp_path):
        path = tmp_path / "data.txt"
        path.write_text("2 3 3\n0,2 0:1.0 2:0.5\n1 1:2.0\n")
        ds = parse_multilabel_file(path)
        assert (ds.n_instances, ds.n_features, ds.n_labels) == (2, 3, 3)
        np.testing.assert_array_equal(ds.y, [[1, 0, 1], [0, 1, 0]])
        dense = ds.features.toarray()
        np.testing.assert_allclose(dense, [[1.0, 0.0, 0.5], [0.0, 2.0, 0.0]])

    def test_full_label_set_rejected(self, tmp_path):
        path = tmp_path / "data.txt"
        path.write_text("1 2 3\n0,1,2 0:1.0\n")
        with pytest.raises(DatasetFormatError, match="full label set"):
            parse_multilabel_file(path)

    def test_empty_label_set_rejected(self, tmp_path):
        path = tmp_path / "data.txt"
        path.write_text("1 2 3\n 0:1.0\n")
        with pytest.raises(DatasetFormatError, match="empty label set"):
            parse_multilabel_file(path)

    @pytest.mark.parametrize(
        "line,msg",
        [
            ("0 0:1.0 0:2.0", "strictly increasing"),
            ("0 2:1.0 1:2.0", "strictly increasing"),
            ("0 5:1.0", "out of range"),
            ("7 0:1.0", "out of range"),
            ("0 0:abc", "bad feature token"),
            ("0,x 0:1.0", "bad label index"),
            ("0 0:", "bad feature token '0:'"),
            ("0 :1.0", "bad feature token ':1.0'"),
            ("0 0:1:2", "bad feature token '0:1:2'"),
            ("0 1:1.0 0:1", "strictly increasing"),
            ("0 0:nan", "non-finite feature value 'nan'"),
            ("0 0:inf", "non-finite feature value 'inf'"),
            pytest.param("0 0:1.0\n" * (PARSE_CHUNK_ROWS + 3) + "0 0:1.0 2:x", "bad feature token '2:x'", id="past-first-chunk"),
            pytest.param("0 0:1.0\n" * (PARSE_CHUNK_ROWS + 3) + "0 0:1.0 1:inf", "non-finite", id="past-first-chunk-inf"),
            pytest.param("0 0:1.0\n" * (PARSE_CHUNK_ROWS + 3) + "0,0 1:1.0", "duplicate label", id="past-first-chunk-label"),
            # a ';' in the last line's label field selects the complementary format
            ("x; 0:1.0", "bad complementary label 'x'"),
            ("3; 0:1.0", "complementary label 3 out of range"),
            ("1;1 0:1.0", "complementary label listed as relevant"),
            ("1;0,x 0:1.0", "bad label index 'x'"),
            ("1; 0:1:2", "bad feature token '0:1:2'"),
            ("1; 0:nan", "non-finite feature value 'nan'"),
            pytest.param("0; 0:1.0\n" * (PARSE_CHUNK_ROWS + 3) + "1; 0:1.0 0:2.0", "strictly increasing", id="cl-past-first-chunk"),
        ],
    )
    def test_malformed_lines_report_line_number(self, tmp_path, line, msg):
        lines = line.split("\n")
        parse = parse_complementary_file if ";" in lines[-1].split(" ")[0] else parse_multilabel_file
        path = tmp_path / "data.txt"
        path.write_text(f"{len(lines)} 3 3\n{line}\n")
        with pytest.raises(DatasetFormatError, match=msg) as err:
            parse(path)
        assert str(err.value).startswith(f"line {len(lines) + 1}:")

    def test_first_offending_line_wins(self, tmp_path):
        # a feature error on line 3 precedes a label error on line 4 of the same chunk
        path = tmp_path / "data.txt"
        path.write_text("3 3 3\n0 0:1.0\n0 0:x\n9 0:1.0\n")
        with pytest.raises(DatasetFormatError, match="line 3: bad feature token"):
            parse_multilabel_file(path)

    @pytest.mark.parametrize(
        "text,dense",
        [
            ("3 3 3\n0,2 0:1.0 1:-2.5 2:0.5\n1 0:3.0 2:1e-300\n2 1:7.0 2:0.1\n", True),  # 8 of 9 cells
            ("3 3 3\n0,2 0:1.0 2:0.5\n1 1:2.0\n2 1:7.0 2:0.1\n", False),  # 5 of 9 cells
        ],
    )
    def test_storage_follows_density(self, tmp_path, text, dense):
        path = tmp_path / "a.txt"
        path.write_text(text)
        ds = parse_multilabel_file(path)
        if dense:
            assert isinstance(ds.features, np.ndarray)
            assert ds.features.dtype == np.float64 and ds.features.flags.c_contiguous
            assert not ds.features.flags.writeable
        else:
            assert sp.issparse(ds.features) and ds.features.format == "csr"
        p1, p2 = tmp_path / "b.txt", tmp_path / "c.txt"
        write_multilabel_file(ds, p1)
        ds2 = parse_multilabel_file(p1)
        write_multilabel_file(ds2, p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert type(ds2.features) is type(ds.features)
        assert np.array_equal(_dense(ds2.features), _dense(ds.features))

    @pytest.mark.parametrize("stored,dense", [(6, True), (5, False)])
    def test_storage_threshold_is_two_thirds(self, stored, dense):
        X = np.zeros((3, 3))
        X.flat[:stored] = 1.0
        for stored_as in (store_features(X.copy()), store_features(sp.csr_matrix(X))):
            assert isinstance(stored_as, np.ndarray) == dense
            assert sp.issparse(stored_as) != dense

    def test_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        y = np.zeros((20, 5), dtype=np.uint8)
        for i in range(20):
            size = rng.integers(1, 5)
            y[i, rng.choice(5, size=size, replace=False)] = 1
        X = sp.random(20, 13, density=0.3, random_state=7, format="csr")
        ds = MultiLabelDataset(X, y, LabelSpace(5))
        p1 = tmp_path / "a.txt"
        p2 = tmp_path / "b.txt"
        write_multilabel_file(ds, p1)
        ds2 = parse_multilabel_file(p1)
        write_multilabel_file(ds2, p2)
        assert p1.read_bytes() == p2.read_bytes()
        np.testing.assert_array_equal(ds.y, ds2.y)
        assert (ds.features != ds2.features).nnz == 0


class TestPreprocess:
    def test_small_label_space_unchanged(self):
        ds = _ds([[1, 0, 1, 0, 0, 0], [0, 1, 0, 0, 1, 0]])
        assert preprocess_topk_labels(ds, 15) is ds

    def test_keeps_most_frequent_labels(self):
        # one-hot rows with strictly decreasing label frequencies: label k gets 20-k rows
        K = 20
        rows = []
        for k in range(K):
            rows += [np.eye(K, dtype=np.uint8)[k]] * (K - k)
        ds = _ds(np.vstack(rows))
        out = preprocess_topk_labels(ds, 15)
        assert out.n_labels == 15
        # rows carrying a dropped label (15..19) vanish; the rest stay one-hot
        assert out.n_instances == sum(K - k for k in range(15))
        np.testing.assert_array_equal(out.y.sum(axis=0), [K - k for k in range(15)])

    def test_tie_broken_toward_lower_index(self):
        y = np.array(
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [1, 1, 0, 0]],
            dtype=np.uint8,
        )
        # counts: 2, 2, 1, 1 -> with max_labels=3 the tie between labels 2 and 3 keeps label 2
        out = preprocess_topk_labels(_ds(y), 3)
        assert out.n_labels == 3
        np.testing.assert_array_equal(out.y.sum(axis=0), [2, 2, 1])

    def test_instance_with_only_rare_labels_removed(self):
        y = np.zeros((6, 4), dtype=np.uint8)
        y[:5, :2] = [[1, 0], [0, 1], [1, 1], [1, 0], [0, 1]]
        y[5, 3] = 1  # only carries the rarest label
        y[0, 2] = 1  # give label 2 one occurrence so counts order is 0,1,2,3
        ds = _ds(y)
        out = preprocess_topk_labels(ds, 3)
        assert out.n_instances == 5
        assert out.n_labels == 3

    def test_retained_counts_bounded_by_input_counts(self):
        rng = np.random.default_rng(11)
        y = (rng.random((60, 9)) < 0.3).astype(np.uint8)
        y[y.sum(1) == 0, 0] = 1
        y[y.sum(1) == 9, -1] = 0
        ds = _ds(y)
        out = preprocess_topk_labels(ds, 5)
        counts_in = ds.y.sum(0).astype(int)
        keep = sorted(sorted(range(9), key=lambda k: (-counts_in[k], k))[:5])
        assert np.all(out.y.sum(0) <= counts_in[keep])
        # every surviving instance's retained labels match the input restriction
        assert out.y.sum() <= ds.y[:, keep].sum()


class TestKfold:
    def test_exact_partition_ten_of_ten(self):
        ds = _ds(np.tile([[1, 0, 1]], (10, 1)))
        folds = kfold_split(ds, 10, seed=4)
        assert all(f.test.n_instances == 1 for f in folds)
        all_test = np.concatenate([f.test_indices for f in folds])
        assert sorted(all_test.tolist()) == list(range(10))

    def test_balanced_remainder(self):
        ds = _ds(np.tile([[1, 0, 1]], (25, 1)))
        sizes = sorted(f.test.n_instances for f in kfold_split(ds, 10, seed=0))
        assert sizes == [2] * 5 + [3] * 5

    def test_deterministic(self):
        ds = _ds(np.tile([[0, 1, 1, 0]], (17, 1)))
        a = kfold_split(ds, 5, seed=9)
        b = kfold_split(ds, 5, seed=9)
        for fa, fb in zip(a, b):
            np.testing.assert_array_equal(fa.test_indices, fb.test_indices)

    def test_disjoint_train_test(self):
        ds = _ds(np.tile([[1, 1, 0]], (13, 1)))
        for f in kfold_split(ds, 4, seed=2):
            assert not set(f.train_indices) & set(f.test_indices)
            assert len(f.train_indices) + len(f.test_indices) == 13

    def test_too_few_instances(self):
        ds = _ds(np.tile([[1, 0, 1]], (3, 1)))
        with pytest.raises(ValueError):
            kfold_split(ds, 4, seed=0)


class TestNormalize:
    def test_constant_column_unchanged(self):
        X = np.column_stack([np.full(5, 3.0), np.arange(5.0)])
        ds = MultiLabelDataset(sp.csr_matrix(X), np.tile([[1, 0, 1]], (5, 1)), LabelSpace(3))
        out, _ = normalize_features(ds)
        np.testing.assert_allclose(out.features[:, 0], 3.0)

    def test_shift_by_mean(self):
        X = np.column_stack([np.array([1.0, 2.0, 3.0]), np.array([0.0, 1.0, 2.0])])
        ds = MultiLabelDataset(sp.csr_matrix(X), np.tile([[0, 1, 1]], (3, 1)), LabelSpace(3))
        out, scaler = normalize_features(ds)
        col = out.features[:, 0]
        np.testing.assert_allclose(col.mean(), 0.0, atol=1e-12)
        np.testing.assert_allclose(scaler.mean[0], 2.0)

    def test_test_fold_uses_train_statistics(self):
        Xtr = np.array([[0.0], [2.0], [4.0], [6.0]])
        Xte = np.array([[10.0], [20.0]])
        ytr = np.tile([[1, 0, 1]], (4, 1))
        yte = np.tile([[1, 0, 1]], (2, 1))
        train = MultiLabelDataset(sp.csr_matrix(Xtr), ytr, LabelSpace(3))
        test = MultiLabelDataset(sp.csr_matrix(Xte), yte, LabelSpace(3))
        _, scaler = normalize_features(train)
        scaled = scaler.apply(test).features
        expected = (Xte - Xtr.mean()) / Xtr.std()
        np.testing.assert_allclose(scaled, expected)


class TestSubsets:
    def test_k3_order(self):
        masks = enumerate_subsets(3)
        as_sets = [tuple(np.flatnonzero(subset_membership(3)[i])) for i in range(len(masks))]
        assert as_sets == [(0,), (1,), (0, 1), (2,), (0, 2), (1, 2)]

    def test_counts(self):
        assert len(enumerate_subsets(3)) == 6
        assert len(enumerate_subsets(4)) == 14

    def test_k13_rejected(self):
        with pytest.raises(ValueError):
            enumerate_subsets(13)


class TestGenerative:
    def test_invalid_probs_rejected(self):
        K = 3
        probs = np.full(6, 1 / 6) * 1.01
        with pytest.raises(ValueError, match="sum to 1"):
            make_uniform_cl_spec(K, probs)

    def test_cl_on_members_rejected(self):
        K = 3
        probs = np.full(6, 1 / 6)
        cl = uniform_cl_rows(K)
        cl[0, 0] = 0.5  # subset {0} must not select label 0
        cl = cl / cl.sum(1, keepdims=True)
        with pytest.raises(ValueError, match="zero on subset members"):
            GenerativeSpec(K, probs, cl)

    def test_degenerate_singleton(self):
        K = 4
        probs = np.zeros(14)
        probs[(1 << 0) - 1] = 1.0
        spec = make_uniform_cl_spec(K, probs)
        full, comp = sample_from_generative(spec, 200, 3, seed=5)
        np.testing.assert_array_equal(full.y, np.tile([1, 0, 0, 0], (200, 1)))
        assert np.all(comp.cl != 0)

    def test_uniform_cl_frequencies_within_3_sigma(self):
        # one subset {l0}; uniform complement over the other K-1 labels
        K = 5
        probs = np.zeros(2**K - 2)
        probs[(1 << 0) - 1] = 1.0
        spec = make_uniform_cl_spec(K, probs)
        n = 10000
        _, comp = sample_from_generative(spec, n, 2, seed=12)
        p = 1.0 / (K - 1)
        sigma = np.sqrt(p * (1 - p) / n)
        freqs = np.bincount(comp.cl, minlength=K) / n
        assert freqs[0] == 0.0
        np.testing.assert_allclose(freqs[1:], p, atol=3 * sigma)

    def test_deterministic(self):
        spec = make_exclusive_spec(4)
        a_full, a_comp = sample_from_generative(spec, 50, 6, seed=3)
        b_full, b_comp = sample_from_generative(spec, 50, 6, seed=3)
        np.testing.assert_array_equal(a_full.y, b_full.y)
        np.testing.assert_array_equal(a_comp.cl, b_comp.cl)
        assert np.array_equal(a_full.features, b_full.features)

    def test_same_distribution_across_seeds(self):
        # cluster centers depend on the spec, not the sampling seed
        spec = make_exclusive_spec(3)
        a_full, _ = sample_from_generative(spec, 2000, 4, seed=1)
        b_full, _ = sample_from_generative(spec, 2000, 4, seed=2)
        for k in range(3):
            ca = np.asarray(a_full.features[a_full.y[:, k] == 1].mean(axis=0)).ravel()
            cb = np.asarray(b_full.features[b_full.y[:, k] == 1].mean(axis=0)).ravel()
            np.testing.assert_allclose(ca, cb, atol=0.25)

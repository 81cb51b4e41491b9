import io
import os
import threading
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

import comlabel.dataset as dataset_module
from comlabel.dataset import (
    ComplementaryDataset,
    DatasetFormatError,
    FeatureScaler,
    GenerativeSpec,
    MultiLabelDataset,
    PARSE_CHUNK_BYTES,
    kfold_split,
    make_exclusive_spec,
    make_uniform_cl_spec,
    normalize_features,
    parse_complementary_file,
    parse_multilabel_file,
    preprocess_topk_labels,
    read_table,
    sample_from_generative,
    stack_gradient,
    stack_scores,
    store_features,
    subset_membership,
    table_lines,
    take_instances,
    uniform_cl_rows,
    write_complementary_file,
    write_multilabel_file,
    write_table,
)
from comlabel.model import init_linear, load_model, save_model
from comlabel.transition import load_transition_csv, uniform_transition


# lines of 8 bytes with the newline, such as "0 0:1.0", that fill one parse
# chunk; longer lines fill it sooner
CHUNK_LINES = PARSE_CHUNK_BYTES // 8
# the same for the reader tests, which shrink the chunk to keep their files small
READER_CHUNK_LINES = 256


def _dense(X):
    return X.toarray() if sp.issparse(X) else X


def _ds(y, d=2, seed=0):
    y = np.asarray(y, dtype=np.uint8)
    rng = np.random.default_rng(seed)
    X = sp.csr_matrix(rng.standard_normal((y.shape[0], d)))
    return MultiLabelDataset(X, y)


class TestInvariants:
    def test_label_space_needs_three_labels(self):
        with pytest.raises(ValueError, match="at least 3 labels, got 2"):
            MultiLabelDataset(np.zeros((1, 2)), [[1, 0]])
        with pytest.raises(ValueError, match="at least 3 labels, got 2"):
            ComplementaryDataset(np.zeros((1, 2)), [0], 2)

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
            pytest.param("0 0:1.0\n" * (CHUNK_LINES + 3) + "0 0:1.0 2:x", "bad feature token '2:x'", id="past-first-chunk"),
            pytest.param("0 0:1.0\n" * (CHUNK_LINES + 3) + "0 0:1.0 1:inf", "non-finite", id="past-first-chunk-inf"),
            pytest.param("0 0:1.0\n" * (CHUNK_LINES + 3) + "0,0 1:1.0", "duplicate label", id="past-first-chunk-label"),
            # a ';' in the last line's label field selects the complementary format
            ("x; 0:1.0", "bad complementary label 'x'"),
            ("3; 0:1.0", "complementary label 3 out of range"),
            ("1;1 0:1.0", "complementary label listed as relevant"),
            ("1;0,x 0:1.0", "bad label index 'x'"),
            ("1; 0:1:2", "bad feature token '0:1:2'"),
            ("1; 0:nan", "non-finite feature value 'nan'"),
            pytest.param("0; 0:1.0\n" * (CHUNK_LINES + 3) + "1; 0:1.0 0:2.0", "strictly increasing", id="cl-past-first-chunk"),
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
    def test_storage_threshold_is_two_thirds(self, tmp_path, stored, dense):
        # the first `stored` of the 9 cells are written, every other one a zero:
        # the parser counts stored tokens, not nonzero values
        want = np.zeros(9)
        want[:stored] = np.arange(stored) % 2
        rows = [" ".join(f"{j}:{want[3 * i + j]:g}" for j in range(3) if 3 * i + j < stored) for i in range(3)]
        path = tmp_path / "a.txt"
        path.write_text("3 3 3\n" + "".join(f"{i} {row}\n" for i, row in enumerate(rows)))
        X = parse_multilabel_file(path).features
        assert isinstance(X, np.ndarray) == dense
        if not dense:
            assert X.nnz == stored
        assert np.array_equal(_dense(X), want.reshape(3, 3))

    @pytest.mark.parametrize("zeros,dense", [("0:0 1:-0.0 2:5.0", True), ("0:-0.0", False)])
    def test_storage_counts_stored_tokens(self, tmp_path, zeros, dense):
        # explicit zero tokens count as stored cells: 6 of 9 stored (4 nonzero) is dense
        path = tmp_path / "a.txt"
        path.write_text(f"3 3 3\n0 {zeros}\n1 0:1.0 1:2.0\n2 2:3.0\n")
        X = parse_multilabel_file(path).features
        assert isinstance(X, np.ndarray) == dense
        if not dense:  # the explicit zero stays stored, with its sign
            assert X.nnz == 4 and X.data[0] == 0.0 and np.signbit(X.data[0])

    def test_given_form_is_kept(self):
        y = np.eye(3, dtype=np.uint8)
        X = np.zeros((3, 3))
        X[0, 0] = 1.0  # 1 of 9 cells stored: an ndarray still, frozen in place
        assert store_features(X) is X and not X.flags.writeable
        assert MultiLabelDataset(X, y).features is X
        full = sp.csr_matrix(np.arange(1, 10).reshape(3, 3))  # every cell stored: CSR still, as float64
        for stored in (store_features(full), MultiLabelDataset(full, y).features):
            assert sp.issparse(stored) and stored.format == "csr" and stored.dtype == np.float64
            assert (stored != full).nnz == 0

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    @pytest.mark.parametrize(
        "text",
        [
            "3 3 3\n0,2 0:1.0 1:-2.5 2:0.5\n1 0:3.0 1:0 2:1e-300\n2 1:7.0 2:0.1\n",  # 8 of 9 stored, one a zero
            "3 3 3\n0,2 0:1.0 2:0\n1 1:2.0\n2 1:7.0 2:0.1\n",  # 5 of 9 stored, one a zero
        ],
    )
    def test_unseekable_file_parses_the_same(self, tmp_path, text):
        # a pipe cannot be rewound to count its tokens first; its matrix is the same
        path, pipe = tmp_path / "a.txt", tmp_path / "pipe"
        path.write_text(text)
        os.mkfifo(pipe)
        writer = threading.Thread(target=pipe.write_text, args=(text,))
        writer.start()
        try:
            piped = parse_multilabel_file(pipe)
        finally:
            writer.join()
        want = parse_multilabel_file(path)
        assert type(piped.features) is type(want.features)
        if sp.issparse(want.features):
            for attr in ("data", "indices", "indptr"):
                assert getattr(piped.features, attr).tobytes() == getattr(want.features, attr).tobytes()
        else:
            assert piped.features.tobytes() == want.features.tobytes()
        assert np.array_equal(piped.y, want.y)

    def test_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        y = np.zeros((20, 5), dtype=np.uint8)
        for i in range(20):
            size = rng.integers(1, 5)
            y[i, rng.choice(5, size=size, replace=False)] = 1
        X = sp.random(20, 13, density=0.3, random_state=7, format="csr")
        ds = MultiLabelDataset(X, y)
        p1 = tmp_path / "a.txt"
        p2 = tmp_path / "b.txt"
        write_multilabel_file(ds, p1)
        ds2 = parse_multilabel_file(p1)
        write_multilabel_file(ds2, p2)
        assert p1.read_bytes() == p2.read_bytes()
        np.testing.assert_array_equal(ds.y, ds2.y)
        assert (ds.features != ds2.features).nnz == 0


# Feature texts for the differential tests, d = 20.
CANONICAL_VALUES = [
    0.0, -0.0, 1.0, 0.1, 1 / 3, -2.5, 123456789.12345679, 9007199254740993.0,
    5e-324, -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,  # subnormals and the smallest normal
    1e-300, 1.7976931348623157e308, -1.7976931348623157e308,  # extremes
]  # fmt: skip
CANONICAL_TEXTS = [
    " ".join(f"{j}:{v:.17g}" for j, v in enumerate(CANONICAL_VALUES)),
    " ".join(f"{j}:{v!r}" for j, v in enumerate(CANONICAL_VALUES)),
    " ".join(f"{j}:{v:.17g}" for j, v in enumerate(np.random.default_rng(8).standard_normal(20) * 10.0 ** np.arange(-10, 10))),
    "0:1. 1:.5 2:1E5 3:1e+005 4:+.5 5:-0 6:+3 7:0.000 8:1e-400 9:00012 00010:7",
    "0:1.0\t1:2.0",  # tabs and runs of spaces
    "0:1.0   1:2.0",
    " \t 0:1.0 \t 1:2.0 \t",
    "",
    "   ",
]
ODD_TEXTS = [
    "1_0:1.0", "0:1_0", "-0:1.0", "+3:1.0", "0:-0", "0:+3",  # Python reads these
    "0x10:1.0", "0:0x10", "3.0:1.0", "1e1:1.0",
    "0:1e999", "0:" + "1" * 400, "0:nan", "0:NaN", "0:Infinity", "0:-inf",
    "0:1e", "0:e1", "0:1.5-2", "0:1..2", "0:.", "0:-",
    "\u0663:1.0", "0:\u0663.\u0665", "0:1.0\u20031:2.0", "0:1.0\xa01:2.0", "0:1.0\x1f1:2.0",  # non-ASCII digits, whitespace
    ":1.0", "0:", "0:1:2", "0::1", "0 :1", "0: 1", "1:1.0 0:2.0", "0:1.0 0:2.0", "25:1.0", "0:1.0 1:x", "x", "0:1.0:",
]  # fmt: skip


def _line_outcome(text, d=20):
    try:
        idx, val = dataset_module._convert_line(text.split(), d, 2)
    except DatasetFormatError as err:
        return str(err)
    return np.array(idx, dtype=np.int32), np.array(val, dtype=np.float64)


def _fuzz_text(rng):
    """A random feature text: up to four tokens, each a run of index
    characters, up to two colons and a run of value characters, apart by runs
    of spaces and tabs.  Both runs draw from the digits, the float characters
    `.eE+-` and one non-ASCII digit."""

    def run(chars, longest):
        return "".join(chars[i] for i in rng.integers(0, len(chars), size=rng.integers(0, longest + 1)))

    text = run(" \t", 2)
    for _ in range(rng.integers(0, 5)):
        text += run("0123456789" * 6 + ".eE+-\u0663", 2) + ":" * rng.choice([0, 1, 1, 1, 1, 1, 1, 2])
        text += run("0123456789" * 2 + ".eE+-\u0663", 5) + run(" \t", 2)
    return text


class TestBulkConversion:
    """The bulk path, one C-level conversion per chunk, against the per-line
    path, Python's int() and float() per token."""

    @pytest.mark.parametrize("text", CANONICAL_TEXTS + ODD_TEXTS)
    def test_bulk_equals_per_line(self, text):
        counts = np.array([text.count(":")])
        bulk = dataset_module._convert_chunk([text], counts, 20)
        line = _line_outcome(text)
        if text in CANONICAL_TEXTS:
            assert bulk is not None, "the bulk path rejected canonical tokens"
        if bulk is not None:  # the bulk path vouches only for what the per-line path accepts
            assert not isinstance(line, str), line
            for got, want in zip(bulk, line):
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "raw,n_tokens,readable",
        [
            (b"0:1.5 2:-3e4\t3:.5  ", 3, True),
            (b"  \t ", 0, True),
            (b"12", 0, False),  # a token without a colon
            (b"0:1 5", 1, False),
            (b"0:1x", 1, False),  # a byte no decimal float holds
            (b"0: 1:2", 2, False),  # an empty value
            (b"0:1 2:", 2, False),
            (b"3.0:1", 1, False),  # an index that is not all digits
            (b"0 :1", 1, False),
        ],
    )
    def test_bulk_structure_checks(self, raw, n_tokens, readable):
        # each case fails one check only; the per-line path decides the rest.
        # n_tokens is the text's colon count, the token count `_convert` passes.
        assert raw.count(b":") == n_tokens
        assert (dataset_module._BULK_TOKENS.fullmatch(raw) is not None) == readable

    def test_random_texts_bulk_equals_per_line(self):
        rng = np.random.default_rng(21)
        accepted = 0
        for _ in range(10_000):
            text = _fuzz_text(rng)
            bulk = dataset_module._convert_chunk([text], np.array([text.count(":")]), 20)
            if bulk is None:
                continue
            accepted += 1
            line = _line_outcome(text)
            assert not isinstance(line, str), (text, line)
            for got, want in zip(bulk, line):
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), text
        assert accepted > 1000  # the texts reach the conversion, not just the grammar check

    @pytest.mark.parametrize("density", [1.0, 0.2])
    def test_written_texts_accepted(self, tmp_path, density):
        rng = np.random.default_rng(22)
        n, d = 300, 12
        X = rng.standard_normal((n, d)) * 10.0 ** rng.integers(-300, 300, size=(n, d))
        X[rng.random((n, d)) >= density] = 0.0
        X[0, :3] = [5e-324, -1.7976931348623157e308, 0.1]
        y = np.tile([[1, 0, 1], [0, 1, 1]], (n // 2, 1))
        path = tmp_path / "a.txt"
        write_multilabel_file(MultiLabelDataset(X, y), path)
        texts = [line.partition(" ")[2] for line in path.read_text(encoding="utf-8").splitlines()[1:]]
        counts = np.array([t.count(":") for t in texts])
        bulk = dataset_module._convert_chunk(texts, counts, d)
        assert bulk is not None
        lines = [dataset_module._convert_line(t.split(), d, 2) for t in texts]
        idx = [i for line_idx, _ in lines for i in line_idx]
        val = [v for _, line_val in lines for v in line_val]
        assert bulk[0].tobytes() == np.array(idx, dtype=np.int32).tobytes()
        assert bulk[1].tobytes() == np.array(val, dtype=np.float64).tobytes()

    def test_bulk_equals_per_line_across_lines(self):
        # one chunk of several lines: indices may restart on each line only
        texts = ["0:1.0 5:2.0", "", "0:3.0", "19:4.0"]
        counts = np.array([t.count(":") for t in texts])
        idx, val = dataset_module._convert_chunk(texts, counts, 20)
        assert idx.tolist() == [0, 5, 0, 19] and val.tolist() == [1.0, 2.0, 3.0, 4.0]
        assert dataset_module._convert_chunk(["0:1.0 5:2.0", "5:3.0 4:1.0"], np.array([2, 2]), 20) is None

    @pytest.mark.parametrize("text", CANONICAL_TEXTS + ODD_TEXTS)
    def test_parse_equals_per_line_parse(self, tmp_path, monkeypatch, text):
        # the same matrix bit for bit, or the same message at the same line
        path = tmp_path / "a.txt"
        path.write_text(f"3 20 3\n0 0:1.0\n1 {text}\n2 3:2.0\n", encoding="utf-8")
        outcomes = []
        for per_line_only in (False, True):
            if per_line_only:
                monkeypatch.setattr(dataset_module, "_convert_chunk", lambda *args: None)
            try:
                ds = parse_multilabel_file(path)
            except DatasetFormatError as err:
                outcomes.append(str(err))
                continue
            X = ds.features
            parts = (X,) if isinstance(X, np.ndarray) else (X.data, X.indices, X.indptr)
            outcomes.append((type(X), [(p.dtype, p.tobytes()) for p in parts], ds.y.tobytes()))
        assert outcomes[0] == outcomes[1]

    @pytest.mark.parametrize("n,d", [(3000, 100), (30, 10000)], ids=["narrow", "wide"])
    def test_peak_memory_bounded_by_the_features(self, tmp_path, n, d):
        # 2.4 MB of dense features either way, at 25 bytes of text per cell.
        # The parse holds the dense matrix and one chunk of text with its
        # compact arrays: about 2.1x here for narrow and wide rows alike.
        # Chunks of 256 whole rows of token strings, concatenated before the
        # dense copy, hold 4.7x on the narrow file and 41x on the wide one.
        rng = np.random.default_rng(0)
        path = tmp_path / "a.txt"
        y = np.tile([[1, 0, 1], [0, 1, 1]], (n // 2, 1))
        write_multilabel_file(MultiLabelDataset(rng.standard_normal((n, d)), y), path)
        tracemalloc.start()
        try:
            ds = parse_multilabel_file(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert isinstance(ds.features, np.ndarray)
        assert peak < 3 * ds.features.nbytes


class TestWriter:
    def test_bytes_of_both_formats(self, tmp_path):
        # values at 17 significant digits; a dense row's zero cells are left
        # out, a CSR row's stored entries are all written, an explicit -0 too
        X = np.array([[0.411057, -2.5, 1e-300], [3.0, 0.0, 0.1], [0.0, 7.0, 2.0]])  # 7 of 9 cells: dense
        ds = MultiLabelDataset(X, [[1, 0, 1], [0, 1, 0], [0, 0, 1]])
        assert isinstance(ds.features, np.ndarray)
        write_multilabel_file(ds, tmp_path / "dense.txt")
        assert (tmp_path / "dense.txt").read_bytes() == (
            b"3 3 3\n0,2 0:0.41105700000000001 1:-2.5 2:1e-300\n1 0:3 2:0.10000000000000001\n2 1:7 2:2\n"
        )
        csr = sp.csr_matrix((np.array([-0.0, 2.5, 1.0]), np.array([1, 0, 4]), np.array([0, 1, 1, 3])), shape=(3, 5))
        cds = ComplementaryDataset(csr, [2, 0, 1], 3, relevant=[[1, 0, 0], [0, 1, 1], [1, 0, 0]])
        assert sp.issparse(cds.features)
        write_complementary_file(cds, tmp_path / "sparse.txt")
        assert (tmp_path / "sparse.txt").read_bytes() == b"3 5 3\n2;0 1:-0\n0;1,2\n1;0 0:2.5 4:1\n"

    def test_peak_memory_below_the_features(self, tmp_path):
        # lines go to the file one at a time: no CSR copy of the dense
        # matrix, no list of all lines and no joined text, each of which
        # alone is larger than the features
        rng = np.random.default_rng(0)
        y = np.tile([[1, 0, 1], [0, 1, 1]], (500, 1))
        ds = MultiLabelDataset(rng.standard_normal((1000, 100)), y)
        tracemalloc.start()
        try:
            write_multilabel_file(ds, tmp_path / "a.txt")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < ds.features.nbytes
        assert np.array_equal(parse_multilabel_file(tmp_path / "a.txt").features, ds.features)


# per format: parser, writer, three valid data lines, one malformed data line, the error a blank data line raises
READER_FORMATS = {
    "multilabel": (parse_multilabel_file, write_multilabel_file, ("0 0:1.0", "1,2 1:2.0", "2 2:3.0"), "0 0:x", "empty label set"),
    "complementary": (
        parse_complementary_file,
        write_complementary_file,
        ("1; 0:1.0", "0; 1:2.0", "2; 2:3.0"),
        "1; 0:x",
        "expected '<cl>;<rel>' label field",
    ),
}


@pytest.fixture(params=sorted(READER_FORMATS))
def reader_format(request):
    return READER_FORMATS[request.param]


def _write_lines_raw(path, lines, sep="\n"):
    # bytes, so that no newline translation happens on the way to the file
    path.write_bytes((sep.join(lines) + sep).encode("utf-8"))


def _parse_outcome(parse, write, path):
    """The error message, or the parsed data as the writer formats it."""
    try:
        parsed = parse(path)
    except DatasetFormatError as err:
        return str(err)
    out = path.with_suffix(".out")
    write(parsed, out)
    return out.read_bytes()


class TestReaderLines:
    """Whole-file behaviour of the reader both formats share: how lines split,
    trailing blank lines, and the line-count check and its precedence."""

    @pytest.fixture(autouse=True)
    def small_chunks(self, monkeypatch):
        monkeypatch.setattr(dataset_module, "PARSE_CHUNK_BYTES", 8 * READER_CHUNK_LINES)

    @pytest.mark.parametrize(
        "declared,found",
        [(3, 2), (1, 2), (2, 3), (1, READER_CHUNK_LINES + 5), (READER_CHUNK_LINES + 5, READER_CHUNK_LINES)],
    )
    def test_count_mismatch(self, tmp_path, reader_format, declared, found):
        parse, _, good, _, _ = reader_format
        path = tmp_path / "d.txt"
        _write_lines_raw(path, [f"{declared} 3 3", *(good[i % 3] for i in range(found))])
        with pytest.raises(DatasetFormatError) as err:
            parse(path)
        assert str(err.value) == f"header declares {declared} instances but file has {found} data lines"

    @pytest.mark.parametrize("sep", ["\n", "\r\n"])
    def test_trailing_blank_lines_dropped(self, tmp_path, reader_format, sep):
        parse, _, good, _, _ = reader_format
        path = tmp_path / "d.txt"
        _write_lines_raw(path, ["3 3 3", *good, "", "   ", "\t", ""], sep)
        assert parse(path).n_instances == 3
        _write_lines_raw(path, ["4 3 3", *good, "", "  "], sep)
        with pytest.raises(DatasetFormatError, match="^header declares 4 instances but file has 3 data lines$"):
            parse(path)

    @pytest.mark.parametrize("blank", ["", "   "])
    def test_blank_line_mid_file(self, tmp_path, reader_format, blank):
        parse, _, good, _, blank_msg = reader_format
        path = tmp_path / "d.txt"
        _write_lines_raw(path, ["4 3 3", good[0], blank, good[1], good[2]])
        with pytest.raises(DatasetFormatError, match=blank_msg) as err:
            parse(path)
        assert str(err.value).startswith("line 3:")

    def test_empty_file(self, tmp_path, reader_format):
        path = tmp_path / "d.txt"
        path.write_bytes(b"")
        with pytest.raises(DatasetFormatError) as err:
            reader_format[0](path)
        assert str(err.value) == "line 1: empty file"

    @pytest.mark.parametrize(
        "declared,layout",
        [
            (3, ["bad", "good"]),  # too few lines, bad line first
            (1, ["good", "bad"]),  # too many lines, all in one chunk
            (1, ["bad"] + ["good"] * (READER_CHUNK_LINES + 5)),  # the surplus shows only past the first chunk
            (READER_CHUNK_LINES + 10, ["good"] * (READER_CHUNK_LINES + 3) + ["bad"]),  # bad line in the last chunk
        ],
    )
    def test_count_error_wins_over_line_error(self, tmp_path, reader_format, declared, layout):
        parse, _, good, bad, _ = reader_format
        path = tmp_path / "d.txt"
        _write_lines_raw(path, [f"{declared} 3 3", *(bad if kind == "bad" else good[0] for kind in layout)])
        with pytest.raises(DatasetFormatError) as err:
            parse(path)
        assert str(err.value) == f"header declares {declared} instances but file has {len(layout)} data lines"

    @pytest.mark.parametrize(
        "text",
        [
            pytest.param("3 3 3\r\n{0}\r\n{1}\r\n{2}\r\n", id="crlf"),
            pytest.param("3 3 3\r{0}\r{1}\r{2}\r", id="cr"),
            pytest.param("3 3 3\n{0}\x0c{1}\n{2}", id="formfeed-inside-line"),
            pytest.param("3 3 3\n{0}\u2028{1}\u2028{2}\n", id="line-separator-inside-line"),
            pytest.param("3 3 3\x0b{0}\x85{1}\r\n{2}\x1e", id="mixed"),
            pytest.param("3 3 3\r\r\n{0}\n{1}\n{2}\n", id="cr-then-crlf"),  # a blank line: 4 data lines
        ],
    )
    def test_lines_split_as_str_splitlines(self, tmp_path, reader_format, text):
        parse, write, good, _, _ = reader_format
        text = text.format(*good)
        path, canonical = tmp_path / "d.txt", tmp_path / "c.txt"
        path.write_bytes(text.encode("utf-8"))
        _write_lines_raw(canonical, text.splitlines())
        assert _parse_outcome(parse, write, path) == _parse_outcome(parse, write, canonical)

    @pytest.mark.parametrize("shift", [-1, 0, 1])
    def test_crlf_straddling_the_read_buffer(self, tmp_path, reader_format, shift):
        parse, _, good, _, _ = reader_format
        # pad the header so that its "\r" lands at the last byte of the first buffer (shift 0)
        header = "3 3 3".ljust(io.DEFAULT_BUFFER_SIZE - 1 + shift)
        path = tmp_path / "d.txt"
        _write_lines_raw(path, [header, *good], "\r\n")
        assert parse(path).n_instances == 3


class TestNumericTables:
    """The one reader and writer of transition CSVs, checkpoints and `convert`'s CSVs."""

    @pytest.mark.parametrize("sep", [",", " "])
    def test_roundtrip_bit_exact(self, tmp_path, sep):
        rng = np.random.default_rng(3)
        rows = rng.standard_normal((5, 4)) * 10.0 ** rng.integers(-300, 300, (5, 4))
        rows[0, :3] = [-0.0, 5e-324, np.nextafter(1.0, 2.0)]
        path = tmp_path / "t.txt"
        write_table(path, "a header", rows, sep)
        (_, header), *numbered = table_lines(path)
        table, numbers = read_table(numbered, None if sep == " " else sep)
        assert header == "a header"
        assert table.tobytes() == rows.tobytes()  # -0.0 and the subnormal included
        assert numbers == [2, 3, 4, 5, 6]

    def test_blank_and_comment_lines_skipped_but_counted(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("# a comment\n\n1,2\n   \n  # indented comment\n3,4\n\t\n")
        assert table_lines(path) == [(3, "1,2"), (6, "3,4")]
        table, numbers = read_table(table_lines(path), ",")
        np.testing.assert_array_equal(table, [[1, 2], [3, 4]])
        assert numbers == [3, 6]

    def test_no_rows(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("\n# only a comment\n")
        table, numbers = read_table(table_lines(path), ",")
        assert table.shape == (0,) and numbers == []

    @pytest.mark.parametrize(
        "lines, error",
        [
            (["1,2", "", "3,x"], "line 3: non-numeric entry in '3,x'"),
            (["1,2", "3,4 # trailing"], "line 2: non-numeric entry in '3,4 # trailing'"),
            (["1,2", "3,"], "line 2: non-numeric entry in '3,'"),
            (["# c", "1,2", "", "3"], "line 4: 1 entries, but line 2 has 2"),
        ],
    )
    def test_bad_line_named(self, tmp_path, lines, error):
        path = tmp_path / "t.csv"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError) as err:
            read_table(table_lines(path), ",")
        assert str(err.value) == error

    def test_transition_csv_skips_comments(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("# T for K = 3\n0,0.5,0.5\n\n# row 2\n0.25,0,-0.25\n0.5,0.5,0\n")
        with pytest.raises(ValueError, match="^line 5: transition matrix has negative entries$"):
            load_transition_csv(path)
        path.write_text("# T for K = 3\n" + "\n".join(",".join(map(repr, r)) for r in uniform_transition(3).tolist()))
        np.testing.assert_array_equal(load_transition_csv(path), uniform_transition(3))

    def test_checkpoint_skips_comments(self, tmp_path):
        model = init_linear(3, 2, "sigmoid", seed=0)
        path = tmp_path / "model.txt"
        save_model(model, path)
        header, *rows = path.read_text().splitlines()
        path.write_text("\n".join(["# a checkpoint", header, "", *rows, "# end"]) + "\n")
        back = load_model(path)
        assert back.weights.tobytes() == model.weights.tobytes() and back.bias.tobytes() == model.bias.tobytes()
        path.write_text("\n".join(["# a checkpoint", header, "", rows[0], "0 0 0"]) + "\n")
        with pytest.raises(ValueError, match="^line 5: 3 entries, but line 4 has 4$"):
            load_model(path)
        path.write_text("\n".join([header, "0 0 0", "", "0 0 0"]) + "\n")
        with pytest.raises(ValueError, match="^line 2: 3 entries, but the header's d \\+ 1 is 4$"):
            load_model(path)


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

    @pytest.mark.parametrize("dense", [True, False])
    def test_splits_are_the_indexed_rows(self, dense):
        rng = np.random.default_rng(5)
        y = np.tile([[1, 0, 1], [0, 1, 1]], (9, 1))
        X = rng.standard_normal((18, 4)) if dense else sp.random(18, 4, density=0.3, random_state=1, format="csr")
        ds = MultiLabelDataset(X, y)
        folds = kfold_split(ds, 4, seed=3)
        assert len(folds) == 4 and folds[-1] is folds[3]
        for _ in range(2):  # the list can be iterated again
            for i, f in enumerate(folds):
                assert f.fold_index == i
                for split, idx in ((f.train, f.train_indices), (f.test, f.test_indices)):
                    want = take_instances(ds, idx)
                    assert type(split.features) is type(want.features)
                    assert np.array_equal(_dense(split.features), _dense(want.features))
                    assert np.array_equal(split.y, want.y) and split.n_labels == want.n_labels

    def test_peak_memory_is_one_fold(self):
        # dense n=1000, d=100: 0.8 MB of features; building all ten folds up
        # front would hold about ten copies of them
        rng = np.random.default_rng(0)
        y = np.tile([[1, 0, 1], [0, 1, 1]], (500, 1))
        ds = MultiLabelDataset(rng.standard_normal((1000, 100)), y)
        feature_bytes = ds.features.nbytes
        tracemalloc.start()
        try:
            for fold in kfold_split(ds, 10, seed=1):  # one fold's rows at a time, as run_cv reads them
                assert fold.train.n_instances == 900
                assert fold.test.n_instances == 100
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * feature_bytes


class TestNormalize:
    def test_constant_column_unchanged(self):
        X = np.column_stack([np.full(5, 3.0), np.arange(5.0)])
        ds = MultiLabelDataset(sp.csr_matrix(X), np.tile([[1, 0, 1]], (5, 1)))
        out, _ = normalize_features(ds)
        np.testing.assert_allclose(out.features[:, 0], 3.0)

    def test_shift_by_mean(self):
        X = np.column_stack([np.array([1.0, 2.0, 3.0]), np.array([0.0, 1.0, 2.0])])
        ds = MultiLabelDataset(sp.csr_matrix(X), np.tile([[0, 1, 1]], (3, 1)))
        out, scaler = normalize_features(ds)
        col = out.features[:, 0]
        np.testing.assert_allclose(col.mean(), 0.0, atol=1e-12)
        np.testing.assert_allclose(scaler.mean[0], 2.0)

    def test_test_fold_uses_train_statistics(self):
        Xtr = np.array([[0.0], [2.0], [4.0], [6.0]])
        Xte = np.array([[10.0], [20.0]])
        ytr = np.tile([[1, 0, 1]], (4, 1))
        yte = np.tile([[1, 0, 1]], (2, 1))
        train = MultiLabelDataset(sp.csr_matrix(Xtr), ytr)
        test = MultiLabelDataset(sp.csr_matrix(Xte), yte)
        _, scaler = normalize_features(train)
        scaled = scaler.apply(test).features
        expected = (Xte - Xtr.mean()) / Xtr.std()
        np.testing.assert_allclose(scaled, expected)


class TestSubsets:
    def test_k3_order(self):
        as_sets = [tuple(np.flatnonzero(row)) for row in subset_membership(3)]
        assert as_sets == [(0,), (1,), (0, 1), (2,), (0, 2), (1, 2)]

    def test_counts(self):
        assert subset_membership(3).shape == (6, 3)
        assert subset_membership(4).shape == (14, 4)

    def test_k13_rejected(self):
        from comlabel.theory import random_generative_spec

        with pytest.raises(ValueError, match="^subset enumeration supports 3 <= K <= 12, got 13$"):
            subset_membership(13)
        with pytest.raises(ValueError, match="^GenerativeSpec requires 3 <= K <= 12$"):
            GenerativeSpec(13, np.ones(2**13 - 2) / (2**13 - 2), np.zeros((2**13 - 2, 13)))
        with pytest.raises(ValueError, match=r"^n_labels must lie in \[3, 12\]$"):
            random_generative_spec(13, np.random.default_rng(0))


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


class TestStackProducts:
    @pytest.mark.parametrize("csr", [False, True], ids=["dense", "csr"])
    def test_each_model_of_a_stack_as_alone(self, csr):
        rng = np.random.default_rng(5)
        dense = rng.standard_normal((30, 7)) * (rng.random((30, 7)) < 0.4)
        X = sp.csr_matrix(dense) if csr else dense
        W = rng.standard_normal((3, 4, 7))
        G = rng.standard_normal((3, 30, 4))
        Z = stack_scores(X, W)
        gW = np.empty_like(W)
        stack_gradient(G, X, gW)
        for c in range(3):
            alone = np.empty((4, 7))
            stack_gradient(G[c], X, alone)
            assert Z[c].tobytes() == stack_scores(X, W[c]).tobytes()
            assert gW[c].tobytes() == alone.tobytes()
        np.testing.assert_allclose(Z, dense @ W.swapaxes(-1, -2), rtol=0, atol=1e-12)
        np.testing.assert_allclose(gW, G.swapaxes(-1, -2) @ dense, rtol=0, atol=1e-12)


def _data_file(tmp_path, text):
    path = tmp_path / "data.txt"
    path.write_text(text)
    return path


# Refusals that no other test reaches: each call with tmp_path, the error
# type it raises and its exact message.
REFUSALS = [
    pytest.param(lambda tmp: parse_multilabel_file(_data_file(tmp, "3 2\n")), DatasetFormatError,
                 "line 1: header must be 'n d K', got '3 2'", id="header-two-fields"),
    pytest.param(lambda tmp: parse_multilabel_file(_data_file(tmp, "0 2 3\n")), DatasetFormatError,
                 "line 1: n and d must be positive, got n=0, d=2", id="header-n-zero"),
    pytest.param(lambda tmp: parse_complementary_file(_data_file(tmp, "1 -1 3\n0; 0:1\n")), DatasetFormatError,
                 "line 1: n and d must be positive, got n=1, d=-1", id="header-d-negative"),
    pytest.param(lambda tmp: parse_multilabel_file(_data_file(tmp, "1 2 2\n0 0:1\n")), DatasetFormatError,
                 "line 1: K must be at least 3, got 2", id="header-two-labels"),
    pytest.param(lambda tmp: store_features(np.ones(3)), ValueError,
                 "features must be a 2-d matrix, got shape (3,)", id="features-1d"),
    pytest.param(lambda tmp: MultiLabelDataset(np.ones((3, 2)), [1, 0, 1]), ValueError,
                 "y must be (n, K), got (3,)", id="y-1d"),
    pytest.param(lambda tmp: MultiLabelDataset(np.ones((2, 2)), [[1, 0, 0]]), ValueError,
                 "features and y disagree on instance count", id="row-count-mismatch"),
    pytest.param(lambda tmp: MultiLabelDataset(np.ones((1, 2)), [[2, 0, 1]]), ValueError,
                 "y entries must be 0 or 1", id="y-not-binary"),
    pytest.param(lambda tmp: ComplementaryDataset(np.ones((2, 2)), [0], 3), ValueError,
                 "cl must be one label index per instance", id="cl-count"),
    pytest.param(lambda tmp: ComplementaryDataset(np.ones((2, 2)), [0, 3], 3), ValueError,
                 "complementary label index out of range [0, 3)", id="cl-out-of-range"),
    pytest.param(lambda tmp: ComplementaryDataset(np.ones((2, 2)), [0, 0], 3, relevant=np.ones((2, 2))), ValueError,
                 "relevant must be (n, 3)", id="relevant-shape"),
    pytest.param(lambda tmp: ComplementaryDataset(np.ones((2, 2)), [0, 0], 3, relevant=[[0, 2, 0], [0, 1, 0]]),
                 ValueError, "relevant entries must be 0 or 1", id="relevant-not-binary"),
    pytest.param(lambda tmp: ComplementaryDataset(np.ones((2, 2)), [0, 0], 3, relevant=[[0, 1, 0], [0, 0, 0]]),
                 ValueError, "each relevant vector needs at least one label", id="relevant-empty"),
    pytest.param(lambda tmp: preprocess_topk_labels(_ds([[1, 0, 0, 1]]), 2), ValueError,
                 "max_labels must be at least 3", id="topk-two"),
    pytest.param(lambda tmp: kfold_split(_ds([[1, 0, 0]] * 4), 1, seed=0), ValueError,
                 "k must be at least 2", id="one-fold"),
    pytest.param(lambda tmp: sample_from_generative(make_exclusive_spec(3), 0, 2, seed=0), ValueError,
                 "n must be at least 1", id="sample-none"),
    pytest.param(lambda tmp: GenerativeSpec(3, np.full(5, 0.2), uniform_cl_rows(3)), ValueError,
                 "subset_probs must have shape (6,)", id="spec-probs-shape"),
    pytest.param(lambda tmp: GenerativeSpec(3, np.full(6, 1 / 6), np.full((6, 4), 0.25)), ValueError,
                 "cl_given_subset must have shape (6, 3)", id="spec-cl-shape"),
    pytest.param(lambda tmp: GenerativeSpec(3, np.full(6, 1 / 6), 2 * uniform_cl_rows(3)), ValueError,
                 "each cl_given_subset row must be nonnegative and sum to 1 within 1e-9", id="spec-cl-rows"),
]  # fmt: skip


@pytest.mark.parametrize("call, error, message", REFUSALS)
def test_refusal_message(tmp_path, call, error, message):
    with pytest.raises(error) as info:
        call(tmp_path)
    assert (type(info.value), str(info.value)) == (error, message)

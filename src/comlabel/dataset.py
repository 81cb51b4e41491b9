"""The two dataset types, their text formats and numeric tables; preprocessing, splitting, synthesis.

A multi-label dataset couples a feature matrix, dense or CSR by
`store_features`, with a binary relevance matrix.  Every relevance row must
name at least one relevant and one irrelevant label, so that a complementary
label always exists.  A complementary dataset couples the same kind of
feature matrix with one complementary label per instance.

The reader streams a file in chunks of at most `PARSE_CHUNK_BYTES` of text.
Each chunk's numbers are converted by one C-level call once one regular
expression has checked the token grammar, and a chunk failing the checks is
redone line by line with `int()` and `float()`, which give the same values
and name the first offending line.
When the file's feature-token count meets the dense rule, chunks are
scattered straight into the dense matrix, by several forked workers when the
file spans several chunks (`workers.run_shares`); otherwise they are
assembled into CSR in the calling process.  SciPy is imported only where a
CSR matrix is built, so dense data needs NumPy alone.
"""

from __future__ import annotations

import io
import math
import mmap
import re
import shutil
import sys
import tempfile
import warnings
from collections.abc import Iterable, Iterator
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, BinaryIO

import numpy as np

from .workers import WorkerExit, run_shares, usable_cpus

if TYPE_CHECKING:
    import scipy.sparse as sp

MIN_LABELS = 3  # label spaces with fewer than 3 classes admit no interesting complement

__all__ = [
    "DatasetFormatError",
    "issparse",
    "store_features",
    "stack_scores",
    "stack_gradient",
    "MultiLabelDataset",
    "ComplementaryDataset",
    "FoldSplit",
    "FeatureScaler",
    "GenerativeSpec",
    "subset_membership",
    "uniform_cl_rows",
    "make_uniform_cl_spec",
    "make_exclusive_spec",
    "parse_multilabel_file",
    "write_multilabel_file",
    "parse_complementary_file",
    "write_complementary_file",
    "table_lines",
    "read_table",
    "write_table",
    "preprocess_topk_labels",
    "kfold_split",
    "normalize_features",
    "sample_rows_categorical",
    "sample_from_generative",
    "take_instances",
]


class DatasetFormatError(ValueError):
    """A data file violates its text format."""


def _check_label_count(n_labels: int) -> None:
    if n_labels < MIN_LABELS:
        raise ValueError(f"label space needs at least {MIN_LABELS} labels, got {n_labels}")


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


def issparse(x) -> bool:
    """Whether `x` is a SciPy sparse matrix or array, decided without
    importing SciPy: one can exist only once `scipy.sparse` is loaded."""
    sparse = sys.modules.get("scipy.sparse")
    return sparse is not None and sparse.issparse(x)


def _csr(*args, **kwargs) -> sp.csr_matrix:
    """`scipy.sparse.csr_matrix(*args, **kwargs)`; SciPy loads here, on the
    first CSR matrix built, and only sparse data builds one."""
    import scipy.sparse

    return scipy.sparse.csr_matrix(*args, **kwargs)


def store_features(X) -> np.ndarray | sp.csr_matrix:
    """Store features as a read-only C-contiguous float64 ndarray when at least
    2/3 of the cells are stored (nonzero), else as float64 CSR: from 2/3 on, 8
    bytes per dense cell cost no more than 12 per CSR entry (value and int32
    column).  A C-contiguous float64 ndarray is frozen in place, like `y`, and
    a frozen one is taken as stored already and returned as is: datasets built
    on another's features keep its storage without counting its cells again,
    and the parser's dense matrix, chosen by its stored-token count, stays
    dense."""
    if isinstance(X, np.ndarray) and X.dtype == np.float64 and X.flags.c_contiguous and not X.flags.writeable:
        return X
    sparse = issparse(X)
    X = _csr(X, dtype=np.float64) if sparse else np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"features must be a 2-d matrix, got shape {X.shape}")
    if not _dense_enough(X.nnz if sparse else np.count_nonzero(X), *X.shape):
        return X if sparse else _csr(X)
    return _freeze(_dense(X))


def _dense_enough(stored: int, n: int, d: int) -> bool:
    return 3 * stored >= 2 * n * d


def _dense(X) -> np.ndarray:
    return X.toarray() if issparse(X) else X


def stack_scores(X, W: np.ndarray) -> np.ndarray:
    """X W^T, (n, K) or (C, n, K), for a batch X, (n, d) dense or CSR, and
    weights W, (K, d) or a stack (C, K, d), each model's bit for bit as
    alone: a dense batch goes through one batched `np.matmul`, one GEMM call
    per model, and a CSR product computes each output column on its own, so
    it takes the stack as one (C*K, d) matrix.  The dense product takes the
    weights as a contiguous (..., d, K) copy: a GEMM on untransposed operands
    is faster, and on batches of up to about 200 rows it may round the last
    bit differently from one on the transposed view."""
    X = X if issparse(X) else np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != W.shape[-1]:
        raise ValueError(f"expected an (n, {W.shape[-1]}) batch of features, got shape {X.shape}")
    if issparse(X):
        Z = np.asarray(X @ W.reshape(-1, W.shape[-1]).T).reshape(X.shape[0], *W.shape[:-1])
        return np.ascontiguousarray(Z.swapaxes(0, -2))
    return np.matmul(X, np.ascontiguousarray(W.swapaxes(-1, -2)))


def stack_gradient(G: np.ndarray, X, out: np.ndarray) -> None:
    """Write G^T X into `out`, (K, d) or (C, K, d), for the (n, K) or
    (C, n, K) G and the batch X of `stack_scores`, each model's bit for bit
    its own, as there: a CSR batch takes the stack as one (n, C*K) matrix."""
    if issparse(X):
        out[...] = np.asarray(G.swapaxes(0, -2).reshape(G.shape[-2], -1).T @ X).reshape(out.shape)
    else:
        np.matmul(G.swapaxes(-1, -2), X, out=out)


@dataclass(frozen=True)
class MultiLabelDataset:
    """Instances with features and full relevance vectors.

    Immutable after construction; safe to share across fold workers.
    """

    features: np.ndarray | sp.csr_matrix
    y: np.ndarray  # (n, K) in {0, 1}

    def __post_init__(self):
        y = np.asarray(self.y, dtype=np.uint8)
        if y.ndim != 2:
            raise ValueError(f"y must be (n, K), got {y.shape}")
        _check_label_count(y.shape[1])
        feats = store_features(self.features)
        object.__setattr__(self, "features", feats)
        if feats.shape[0] != y.shape[0]:
            raise ValueError("features and y disagree on instance count")
        if np.any((y != 0) & (y != 1)):
            raise ValueError("y entries must be 0 or 1")
        sums = y.sum(axis=1)
        bad = np.flatnonzero((sums == 0) | (sums == y.shape[1]))
        if bad.size:
            raise ValueError(f"instance {bad[0]} has an empty or full relevant-label set")
        object.__setattr__(self, "y", _freeze(y))

    @property
    def n_instances(self) -> int:
        return self.y.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    @property
    def n_labels(self) -> int:
        return self.y.shape[1]


@dataclass(frozen=True)
class ComplementaryDataset:
    """Instances carrying one complementary label each.

    `cl[i]` is the complementary label index; the candidate vector is always
    the all-ones vector with that slot zeroed.  `relevant` optionally holds a
    partial relevant-label vector per instance (a nonempty subset of the true
    relevant set, never containing the complementary label).
    """

    features: np.ndarray | sp.csr_matrix
    cl: np.ndarray  # (n,)
    n_labels: int
    relevant: np.ndarray | None = None  # (n, K) in {0, 1}

    def __post_init__(self):
        K = self.n_labels
        _check_label_count(K)
        feats = store_features(self.features)
        object.__setattr__(self, "features", feats)
        cl = np.asarray(self.cl, dtype=np.int64)
        if cl.ndim != 1 or cl.shape[0] != feats.shape[0]:
            raise ValueError("cl must be one label index per instance")
        if cl.size and (cl.min() < 0 or cl.max() >= K):
            raise ValueError(f"complementary label index out of range [0, {K})")
        object.__setattr__(self, "cl", _freeze(cl))
        if self.relevant is not None:
            rel = np.asarray(self.relevant, dtype=np.uint8)
            if rel.shape != (cl.shape[0], K):
                raise ValueError(f"relevant must be (n, {K})")
            if np.any((rel != 0) & (rel != 1)):
                raise ValueError("relevant entries must be 0 or 1")
            if np.any(rel[np.arange(cl.size), cl] != 0):
                raise ValueError("relevant vector marks the complementary label")
            if np.any(rel.sum(axis=1) < 1):
                raise ValueError("each relevant vector needs at least one label")
            object.__setattr__(self, "relevant", _freeze(rel))

    @property
    def n_instances(self) -> int:
        return self.cl.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    def candidate_matrix(self) -> np.ndarray:
        """(n, K) candidate vectors: 1 everywhere except the complementary slot."""
        out = np.ones((self.n_instances, self.n_labels), dtype=np.uint8)
        out[np.arange(self.n_instances), self.cl] = 0
        return out


@dataclass(frozen=True)
class FoldSplit:
    """One train/test partition of a dataset, kept as the dataset and two
    frozen index arrays.  `.train` and `.test` copy their rows out of the
    dataset on each read and cache nothing, so a caller holding one split at a
    time holds one fold's rows."""

    dataset: MultiLabelDataset = field(repr=False)
    fold_index: int
    train_indices: np.ndarray = field(repr=False)
    test_indices: np.ndarray = field(repr=False)

    @property
    def train(self) -> MultiLabelDataset:
        return take_instances(self.dataset, self.train_indices)

    @property
    def test(self) -> MultiLabelDataset:
        return take_instances(self.dataset, self.test_indices)


def take_instances(ds: MultiLabelDataset, idx: np.ndarray) -> MultiLabelDataset:
    """Row-subset a dataset."""
    idx = np.asarray(idx, dtype=np.int64)
    return MultiLabelDataset(ds.features[idx], ds.y[idx])


# ---------------------------------------------------------------------------
# Text formats, one per dataset type
#
#   line 1:      "n d K"
#   lines 2..n+1: "<label field> <idx>:<val> ..." with feature indices strictly
#                 increasing per line.  The multi-label field is a
#                 comma-separated list of 0-based label indices; the
#                 complementary field is "<cl>;<rel>", with <rel> a possibly
#                 empty list of relevant label indices.
# ---------------------------------------------------------------------------

PARSE_CHUNK_BYTES = 1 << 18  # text converted per bulk step; bounds the parser's transient memory

# What the bulk conversion reads: tokens "<digits>:<decimal float characters>"
# apart by spaces or tabs.  Any other text, non-ASCII text included, sends its
# chunk down the per-line path.  Each token is matched in a lookahead and then
# taken by reference, so that no backtracking into it is kept: the match holds
# about 90 bytes per token while it runs, where a plain `(?:<token>)*` holds
# about 340 (CPython 3.11), 3.4 MB on a chunk of 10,000 tokens.
_BULK_TOKENS = re.compile(rb"[ \t]*(?:(?=([0-9]+:[0-9.eE+-]+(?:[ \t]+|\Z)))\1)*")
_COLON_TO_SPACE = bytes.maketrans(b":", b" ")
_EXACT = "{:.17g}"  # 17 significant digits: every float64 reads back to the bit


def _parse_header(line: str) -> tuple[int, int, int]:
    parts = line.split()
    if len(parts) != 3:
        raise DatasetFormatError(f"line 1: header must be 'n d K', got {line!r}")
    try:
        n, d, K = (int(p) for p in parts)
    except ValueError:
        raise DatasetFormatError(f"line 1: header fields must be integers, got {line!r}") from None
    if n < 1 or d < 1:
        raise DatasetFormatError(f"line 1: n and d must be positive, got n={n}, d={d}")
    if K < MIN_LABELS:
        raise DatasetFormatError(f"line 1: K must be at least {MIN_LABELS}, got {K}")
    return n, d, K


def _parse_label_field(text: str, K: int, lineno: int) -> list[int]:
    if text == "":
        return []
    out = []
    for tok in text.split(","):
        try:
            lab = int(tok)
        except ValueError:
            raise DatasetFormatError(f"line {lineno}: bad label index {tok!r}") from None
        if not 0 <= lab < K:
            raise DatasetFormatError(f"line {lineno}: label index {lab} out of range [0, {K})")
        if lab in out:
            raise DatasetFormatError(f"line {lineno}: duplicate label index {lab}")
        out.append(lab)
    return out


def _convert_line(tokens: list[str], d: int, lineno: int) -> tuple[list[int], list[float]]:
    """A line's feature indices and values, converted and checked token by token."""
    idx: list[int] = []
    val: list[float] = []
    for tok in tokens:
        pair = tok.split(":")
        if len(pair) != 2:
            raise DatasetFormatError(f"line {lineno}: bad feature token {tok!r}")
        try:
            i = int(pair[0])
            v = float(pair[1])
        except ValueError:
            raise DatasetFormatError(f"line {lineno}: bad feature token {tok!r}") from None
        if not 0 <= i < d:
            raise DatasetFormatError(f"line {lineno}: feature index {i} out of range [0, {d})")
        if idx and i <= idx[-1]:
            raise DatasetFormatError(f"line {lineno}: feature indices must be strictly increasing")
        if not math.isfinite(v):
            raise DatasetFormatError(f"line {lineno}: non-finite feature value {pair[1]!r}")
        idx.append(i)
        val.append(v)
    return idx, val


def _convert_chunk(texts: list[str], counts: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray] | None:
    """Column indices and values of a chunk of lines' feature texts, holding
    `counts` tokens each, by one C-level conversion; None when the bulk checks
    cannot vouch for the text.  They accept a subset of what `_convert_line`
    accepts, which converts with `int()` and `float()` (so `1_5` reads as 15
    there), and give the values it gives."""
    try:
        raw = " ".join(texts).encode("ascii")
    except UnicodeEncodeError:
        return None
    if _BULK_TOKENS.fullmatch(raw) is None:
        return None
    n_tokens = int(counts.sum())
    if n_tokens == 0:  # fromstring would read a blank text as [-1.0]
        return np.zeros(0, dtype=np.int32), np.zeros(0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)  # older NumPy only warns on a partial read
        try:
            nums = np.fromstring(raw.translate(_COLON_TO_SPACE), sep=" ")
        except (ValueError, DeprecationWarning):
            return None
    if nums.size != 2 * n_tokens:  # a value read as two numbers would misalign the rest
        return None
    idx, val = nums[0::2], nums[1::2]
    # for indices in range, idx + line * (d + 1) increases iff every line's indices do
    key = idx + np.repeat(np.arange(len(texts)) * (d + 1.0), counts)
    if not (np.all(idx < d) and np.all(np.diff(key) > 0) and np.all(np.isfinite(val))):
        return None
    return idx.astype(np.int32), val.copy()


@contextmanager
def _text_lines(raw: BinaryIO) -> Iterator[tuple[str | None, Iterator[str]]]:
    """The first line of the binary file `raw` (None when it is empty) and
    an iterator over the lines after it, split as `str.splitlines()` splits
    the whole text, with trailing blank lines dropped."""
    # newline="" ends physical lines at "\n", "\r" or "\r\n" untranslated;
    # splitlines() then breaks each one at the other separators it knows
    with io.TextIOWrapper(raw, encoding="utf-8", newline="") as f:
        lines = (line for physical in f for line in physical.splitlines())
        yield next(lines, None), _drop_trailing_blanks(lines)


def _drop_trailing_blanks(lines: Iterator[str]) -> Iterator[str]:
    """The lines without the file's trailing blank ones: each run of blank
    lines is held back until a non-blank line follows it."""
    blanks: list[str] = []
    for line in lines:
        if line.strip() == "":
            blanks.append(line)
            continue
        yield from blanks
        blanks.clear()
        yield line


def _chunks(lines: Iterator[str]) -> Iterator[list[str]]:
    """Runs of consecutive lines, each holding at most `PARSE_CHUNK_BYTES` of
    text with its newlines, or a longer line alone."""
    chunk: list[str] = []
    size = 0
    for line in lines:
        if chunk and size + len(line) >= PARSE_CHUNK_BYTES:
            yield chunk
            chunk, size = [], 0
        chunk.append(line)
        size += len(line) + 1
    if chunk:
        yield chunk


def _check_count(n: int, found: int) -> None:
    if found != n:
        raise DatasetFormatError(f"header declares {n} instances but file has {found} data lines")


def _convert(chunk: list[str], start: int, d: int, label_field) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Column indices, values and per-line token counts of the data lines
    `chunk`, the first of them row `start`: in bulk, or when the bulk path
    rejects the chunk, line by line, raising for the first offending line."""
    try:
        texts = [label_field(r, r + 2, line) for r, line in enumerate(chunk, start)]
    except DatasetFormatError:
        pass
    else:
        counts = np.fromiter((t.count(":") for t in texts), dtype=np.int64, count=len(texts))
        if (got := _convert_chunk(texts, counts, d)) is not None:
            return *got, counts
    idx: list[int] = []
    val: list[float] = []
    counts = np.zeros(len(chunk), dtype=np.int64)
    for r, line in enumerate(chunk, start):
        i, v = _convert_line(label_field(r, r + 2, line).split(), d, r + 2)
        idx += i
        val += v
        counts[r - start] = len(i)
    return np.array(idx, dtype=np.int32), np.array(val, dtype=np.float64), counts


def _convert_share(
    lines: Iterator[str], n: int, d: int, label_field, put, r: int, W: int
) -> tuple[int, tuple[int, DatasetFormatError] | None]:
    """Convert the chunks c with c % W == r of the data `lines` that end within
    the first n lines, handing each to put(start row, indices, values, token
    counts), up to the first that fails.  Returns the number of lines and,
    when a chunk failed, its number and its error.  Every share reads every
    line, so each counts them all."""
    read = 0  # data lines in the chunks taken
    failed = None
    for c, chunk in enumerate(_chunks(lines)):
        start, read = read, read + len(chunk)
        # label_field is never called for a row past n: the count check raises
        if failed is None and read <= n and c % W == r:
            try:
                put(start, *_convert(chunk, start, d, label_field))
            except DatasetFormatError as err:
                failed = (c, err)
    return read, failed


def _zeros(n: int, layout: list[tuple[tuple[int, ...], type]]) -> list[np.ndarray]:
    """A zeroed (n, *shape) array of each (shape, dtype) of `layout`, each on
    its own anonymous shared mapping, so that what forked children write into
    them shows in this process too."""
    return [
        np.frombuffer(mmap.mmap(-1, n * math.prod(shape) * np.dtype(dtype).itemsize), dtype).reshape(n, *shape)
        for shape, dtype in layout
    ]


def _parse(path: str | Path, label_layout, label_field_for) -> tuple[np.ndarray | sp.csr_matrix, list[np.ndarray]]:
    """The features and label arrays of the data file at `path`.

    `label_layout(K)` gives each label array's per-row (shape, dtype), and
    `label_field_for(K, *arrays)` a function label_field(row, lineno, line)
    that records a line's label field in those arrays and returns the rest
    of the line, its feature tokens.  A first pass counts the file's colons,
    one per feature token in a valid file, and its `PARSE_CHUNK_BYTES`
    blocks.  When the colons meet the 2/3 rule of `store_features`, each
    chunk goes straight into the frozen dense matrix returned, and W =
    min(usable CPUs, blocks) processes convert the chunks by stride through
    run_shares, writing into arrays on shared mappings: each child
    reopens the file, so only its line count and its first error come back.
    Otherwise this process alone converts the chunks into a CSR matrix with
    every stored token.  A file that cannot be rewound, such as a pipe, is
    first spooled into a temporary file and parsed from there; messages
    still name `path`.  A line count other than n wins over any line error,
    and the lowest-numbered failing chunk raises its first offending line."""
    with ExitStack() as stack:
        raw, source = stack.enter_context(open(path, "rb")), path
        if not raw.seekable():  # a pipe: spool it into a file that can be counted and reopened
            spool = stack.enter_context(tempfile.NamedTemporaryFile())
            shutil.copyfileobj(raw, spool)
            spool.seek(0)
            raw, source = spool.file, spool.name
        colons = [block.count(b":") for block in iter(lambda: raw.read(PARSE_CHUNK_BYTES), b"")]
        raw.seek(0)
        with _text_lines(raw) as (header, body):
            if header is None:
                raise DatasetFormatError("line 1: empty file")
            n, d, K = _parse_header(header)
            dense = _dense_enough(sum(colons), n, d)
            W = min(usable_cpus(), len(colons)) if dense else 1
            arrays = _zeros(n, ([((d,), np.float64)] if dense else []) + label_layout(K))
            X = arrays.pop(0) if dense else None
            label_field = label_field_for(K, *arrays)
            indices, data, counts = [], [], []

            def put(start: int, idx: np.ndarray, val: np.ndarray, row_counts: np.ndarray) -> None:
                if dense:
                    X[np.repeat(np.arange(start, start + len(row_counts)), row_counts), idx] = val
                else:
                    indices.append(idx)
                    data.append(val)
                    counts.append(row_counts)

            def share(r: int) -> tuple[int, tuple[int, DatasetFormatError] | None]:
                if r == 0:
                    return _convert_share(body, n, d, label_field, put, r, W)
                with open(source, "rb") as again, _text_lines(again) as (_, lines):
                    return _convert_share(lines, n, d, label_field, put, r, W)

            outcomes = run_shares(W, share)
    exits = [o for o in outcomes if isinstance(o, WorkerExit)]
    if exits:
        raise RuntimeError(f"parsing {path} failed: {exits[0]}") from exits[0]
    _check_count(n, outcomes[0][0])
    failed = [f for _, f in outcomes if f is not None]
    if failed:
        raise min(failed, key=lambda f: f[0])[1]
    if dense:
        return _freeze(X), arrays
    indptr = np.concatenate([[0], np.cumsum(np.concatenate(counts), dtype=np.int64)])
    return _csr((np.concatenate(data), np.concatenate(indices), indptr), shape=(n, d)), arrays


def table_lines(path: str | Path) -> list[tuple[int, str]]:
    """The line number, counted from 1, and the text of each line of the
    UTF-8 file at `path`, but for blank lines and whole-line # comments."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    return [(lineno, line) for lineno, line in enumerate(lines, 1) if line.strip()[:1] not in ("", "#")]


def read_table(numbered: Iterable[tuple[int, str]], sep: str | None) -> tuple[np.ndarray, list[int]]:
    """The float64 table of (file line, text) pairs from `table_lines`, with
    entries apart by `sep` (None: whitespace), and each row's file line; no
    rows give shape (0,).  An entry that `float()` refuses, or an entry
    count other than the first row's, raises naming its line."""
    rows: list[list[float]] = []
    lines: list[int] = []
    for lineno, line in numbered:
        try:
            row = [float(t) for t in line.split(sep)]
        except ValueError:
            raise ValueError(f"line {lineno}: non-numeric entry in {line!r}") from None
        if rows and len(row) != len(rows[0]):
            raise ValueError(f"line {lineno}: {len(row)} entries, but line {lines[0]} has {len(rows[0])}")
        rows.append(row)
        lines.append(lineno)
    return np.array(rows, dtype=np.float64), lines


def write_table(path: str | Path, header: str | None, rows: np.ndarray, sep: str) -> None:
    """Write `header` unless None, then each row of the 2-d `rows` with
    entries apart by `sep` at 17 significant digits, so that `read_table`
    restores them bit for bit."""
    lines = [sep.join(map(_EXACT.format, row)) for row in np.asarray(rows, dtype=np.float64).tolist()]
    Path(path).write_text("\n".join(lines if header is None else [header, *lines]) + "\n", encoding="utf-8")


def _write_lines(path: str | Path, features, n_labels: int, label_fields) -> None:
    """Write the header and one "<label field> <idx>:<val> ..." line per row: a
    dense row's nonzero cells or a CSR row's stored entries, at 17 significant
    digits so that parsing restores them bit-exactly.  Lines go to the open
    file one at a time, each built from its own row's cells alone."""
    n, d = features.shape
    sparse = issparse(features)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{n} {d} {n_labels}\n")
        for i, text in enumerate(label_fields):
            if sparse:
                span = slice(features.indptr[i], features.indptr[i + 1])
                cols, vals = features.indices[span], features.data[span]
            else:
                cols = np.flatnonzero(features[i])
                vals = features[i, cols]
            fh.write(" ".join([text, *map(("{}:" + _EXACT).format, cols.tolist(), vals.tolist())]) + "\n")


def _multilabel_field(K: int, y: np.ndarray):
    def label_field(row: int, lineno: int, line: str) -> str:
        parts = line.split(None, 1)
        # a leading space means the label field is empty
        if line[:1].isspace() or not parts or ":" in parts[0]:
            text, features = "", line
        else:
            text, features = parts[0], parts[1] if len(parts) == 2 else ""
        labels = _parse_label_field(text, K, lineno)
        if not labels:
            raise DatasetFormatError(f"line {lineno}: instance {row} has an empty label set")
        if len(labels) == K:
            raise DatasetFormatError(f"line {lineno}: instance {row} has the full label set")
        y[row, labels] = 1
        return features

    return label_field


def parse_multilabel_file(path: str | Path) -> MultiLabelDataset:
    """Parse the canonical sparse multi-label text format.

    Raises DatasetFormatError with the offending line number on any
    malformed line, out-of-range index, or empty/full label set.
    """
    feats, (y,) = _parse(path, lambda K: [((K,), np.uint8)], _multilabel_field)
    return MultiLabelDataset(feats, y)


def write_multilabel_file(ds: MultiLabelDataset, path: str | Path) -> None:
    """Serialize to the canonical format; parse() round-trips bit-exactly."""
    _write_lines(path, ds.features, ds.n_labels, (",".join(map(str, np.flatnonzero(r).tolist())) for r in ds.y))


def _complementary_field(K: int, cl: np.ndarray, rel: np.ndarray):
    def label_field(row: int, lineno: int, line: str) -> str:
        parts = line.split(None, 1)
        if not parts or ";" not in parts[0]:
            raise DatasetFormatError(f"line {lineno}: expected '<cl>;<rel>' label field")
        cl_part, _, rel_part = parts[0].partition(";")
        try:
            cl_idx = int(cl_part)
        except ValueError:
            raise DatasetFormatError(f"line {lineno}: bad complementary label {cl_part!r}") from None
        if not 0 <= cl_idx < K:
            raise DatasetFormatError(f"line {lineno}: complementary label {cl_idx} out of range [0, {K})")
        cl[row] = cl_idx
        rel_labels = _parse_label_field(rel_part, K, lineno)
        if cl_idx in rel_labels:
            raise DatasetFormatError(f"line {lineno}: complementary label listed as relevant")
        rel[row, rel_labels] = 1
        return parts[1] if len(parts) == 2 else ""

    return label_field


def parse_complementary_file(path: str | Path) -> ComplementaryDataset:
    feats, (cl, rel) = _parse(path, lambda K: [((), np.int64), ((K,), np.uint8)], _complementary_field)
    has_rel = rel.any(axis=1)
    if has_rel.any() and not has_rel.all():
        missing = int(np.flatnonzero(~has_rel)[0])
        raise DatasetFormatError(f"instance {missing} lacks a relevant label while others carry one")
    return ComplementaryDataset(feats, cl, rel.shape[1], relevant=rel if has_rel.any() else None)


def write_complementary_file(cds: ComplementaryDataset, path: str | Path) -> None:
    rel = [""] * cds.n_instances if cds.relevant is None else (",".join(map(str, np.flatnonzero(r).tolist())) for r in cds.relevant)
    _write_lines(path, cds.features, cds.n_labels, (f"{c};{r}" for c, r in zip(cds.cl.tolist(), rel)))


# ---------------------------------------------------------------------------
# Preprocessing and splitting
# ---------------------------------------------------------------------------


def preprocess_topk_labels(ds: MultiLabelDataset, max_labels: int) -> MultiLabelDataset:
    """Keep the `max_labels` most frequent labels and drop broken instances.

    Ties are broken toward the lower original label index.  Instances whose
    retained label set becomes empty or full are dropped.  Retained labels are
    re-indexed compactly, preserving their original relative order.
    """
    if max_labels < MIN_LABELS:
        raise ValueError(f"max_labels must be at least {MIN_LABELS}")
    K = ds.n_labels
    if K <= max_labels:
        return ds
    counts = ds.y.sum(axis=0).astype(np.int64)
    order = np.lexsort((np.arange(K), -counts))  # frequency desc, index asc
    keep = np.sort(order[:max_labels])
    y_new = ds.y[:, keep]
    sums = y_new.sum(axis=1)
    rows = np.flatnonzero((sums > 0) & (sums < keep.size))
    if rows.size == 0:
        raise ValueError(f"max_labels {max_labels} leaves no instance whose kept label set is neither empty nor full")
    return MultiLabelDataset(ds.features[rows], y_new[rows])


def kfold_split(ds: MultiLabelDataset, k: int, seed: int) -> list[FoldSplit]:
    """Deterministic shuffled k-fold partition; test sizes differ by at most 1.
    No rows are copied here: each split builds its rows when read."""
    if k < 2:
        raise ValueError("k must be at least 2")
    n = ds.n_instances
    if n < k:
        raise ValueError(f"cannot split {n} instances into {k} folds")
    perm = np.random.default_rng(seed).permutation(n)
    base, extra = divmod(n, k)
    folds = []
    start = 0
    for fold_index in range(k):
        size = base + (1 if fold_index < extra else 0)
        test_idx = np.sort(perm[start : start + size])
        train_idx = np.sort(np.concatenate([perm[:start], perm[start + size :]]))
        folds.append(FoldSplit(ds, fold_index, _freeze(train_idx), _freeze(test_idx)))
        start += size
    return folds


@dataclass(frozen=True)
class FeatureScaler:
    """Per-dimension z-scoring statistics fitted on a training split."""

    mean: np.ndarray
    scale: np.ndarray  # 1.0 where the training variance was zero

    def apply(self, ds: MultiLabelDataset) -> MultiLabelDataset:
        return MultiLabelDataset((_dense(ds.features) - self.mean) / self.scale, ds.y)


def normalize_features(ds: MultiLabelDataset) -> tuple[MultiLabelDataset, FeatureScaler]:
    """Z-score each feature dimension; zero-variance dimensions are left alone.

    The returned scaler re-applies the training statistics to test folds.
    """
    X = _dense(ds.features)
    mean = X.mean(axis=0)
    var = np.maximum((X * X).mean(axis=0) - mean**2, 0.0)
    std = np.sqrt(var)
    constant = std <= 1e-12
    scale = np.where(constant, 1.0, std)
    mean = np.where(constant, 0.0, mean)
    scaler = FeatureScaler(mean=_freeze(mean), scale=_freeze(scale))
    return scaler.apply(ds), scaler


# ---------------------------------------------------------------------------
# Explicit generative models over label subsets (small K), used by the theory
# checks and synthetic experiments.
# ---------------------------------------------------------------------------

MAX_ENUM_LABELS = 12  # 2^12 - 2 = 4094 subsets keeps enumeration instant


def subset_membership(n_labels: int) -> np.ndarray:
    """(2^K - 2, K) binary matrix of all nonempty proper label subsets in
    binary counting order: row i marks the members of the subset whose
    bitmask, with label k as bit k, is i + 1."""
    if not MIN_LABELS <= n_labels <= MAX_ENUM_LABELS:
        raise ValueError(f"subset enumeration supports {MIN_LABELS} <= K <= {MAX_ENUM_LABELS}, got {n_labels}")
    masks = np.arange(1, 2**n_labels - 1, dtype=np.int64)
    bits = (masks[:, None] >> np.arange(n_labels)[None, :]) & 1
    return bits.astype(np.uint8)


# Cluster centers of `sample_from_generative` are drawn from (FEATURE_SEED, K, d)
# and scaled so that two centers lie about CLUSTER_SEPARATION apart.
FEATURE_SEED = 0
CLUSTER_SEPARATION = 4.0


@dataclass(frozen=True)
class GenerativeSpec:
    """A fully explicit joint over label subsets and complementary labels.

    `subset_probs[i]` is p(Y = C) for the subset with mask i+1, and
    `cl_given_subset[i, j]` is the probability that label j is drawn as the
    complementary label when Y = C.  Features are sampled as unit-variance
    Gaussian clusters, one center per subset, with centers separated by
    roughly CLUSTER_SEPARATION so near-anchor instances exist.
    """

    n_labels: int
    subset_probs: np.ndarray
    cl_given_subset: np.ndarray

    def __post_init__(self):
        if not MIN_LABELS <= self.n_labels <= MAX_ENUM_LABELS:
            raise ValueError(f"GenerativeSpec requires {MIN_LABELS} <= K <= {MAX_ENUM_LABELS}")
        m = 2**self.n_labels - 2
        probs = np.asarray(self.subset_probs, dtype=np.float64)
        cl = np.asarray(self.cl_given_subset, dtype=np.float64)
        if probs.shape != (m,):
            raise ValueError(f"subset_probs must have shape ({m},)")
        if cl.shape != (m, self.n_labels):
            raise ValueError(f"cl_given_subset must have shape ({m}, {self.n_labels})")
        if np.any(probs < 0) or abs(probs.sum() - 1.0) > 1e-9:
            raise ValueError("subset_probs must be nonnegative and sum to 1 within 1e-9")
        if np.any(cl < 0) or np.any(np.abs(cl.sum(axis=1) - 1.0) > 1e-9):
            raise ValueError("each cl_given_subset row must be nonnegative and sum to 1 within 1e-9")
        members = subset_membership(self.n_labels).astype(bool)
        if np.any(cl[members] != 0.0):
            raise ValueError("cl_given_subset must be zero on subset members")
        object.__setattr__(self, "subset_probs", _freeze(probs))
        object.__setattr__(self, "cl_given_subset", _freeze(cl))

    @property
    def n_subsets(self) -> int:
        return 2**self.n_labels - 2


def uniform_cl_rows(n_labels: int) -> np.ndarray:
    """Complementary-label table that is uniform over each subset's complement."""
    members = subset_membership(n_labels).astype(np.float64)
    comp = 1.0 - members
    return comp / comp.sum(axis=1, keepdims=True)


def make_uniform_cl_spec(n_labels: int, subset_probs: np.ndarray) -> GenerativeSpec:
    return GenerativeSpec(n_labels, subset_probs, uniform_cl_rows(n_labels))


def make_exclusive_spec(n_labels: int) -> GenerativeSpec:
    """Spec whose mass sits evenly on the singleton subsets (mutually exclusive labels)."""
    probs = np.zeros(2**n_labels - 2)
    probs[[(1 << k) - 1 for k in range(n_labels)]] = 1.0 / n_labels
    return make_uniform_cl_spec(n_labels, probs)


def sample_rows_categorical(prob_rows: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Draw one index per row of `prob_rows` using the uniforms `u`."""
    cdf = np.cumsum(prob_rows, axis=1)
    idx = (cdf <= u[:, None]).sum(axis=1)
    return np.minimum(idx, prob_rows.shape[1] - 1)


def sample_from_generative(
    spec: GenerativeSpec, n: int, d: int, seed: int
) -> tuple[MultiLabelDataset, ComplementaryDataset]:
    """Sample n instances: subset from subset_probs, complementary label from
    the subset's row, features from that subset's Gaussian cluster.

    Cluster centers depend only on (spec, d), so samples drawn with different
    seeds come from the same distribution.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    K = spec.n_labels
    members = subset_membership(K)
    rng = np.random.default_rng(seed)
    subset_idx = rng.choice(spec.n_subsets, size=n, p=spec.subset_probs)
    cl = sample_rows_categorical(spec.cl_given_subset[subset_idx], rng.random(n))
    center_rng = np.random.default_rng((FEATURE_SEED, K, d))
    centers = center_rng.standard_normal((spec.n_subsets, d)) * (CLUSTER_SEPARATION / np.sqrt(2.0 * d))
    X = centers[subset_idx] + rng.standard_normal((n, d))
    y = members[subset_idx]
    feats = store_features(X)
    full = MultiLabelDataset(feats, y)
    comp = ComplementaryDataset(feats, cl.astype(np.int64), K)
    return full, comp

"""Multi-label datasets: parsing, validation, preprocessing, splitting, synthesis.

A dataset couples a feature matrix, dense or CSR by `store_features`, with a
binary relevance matrix.  Every relevance row must name at least one relevant
and one irrelevant label, so that a complementary label always exists.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.sparse as sp

MIN_LABELS = 3  # label spaces with fewer than 3 classes admit no interesting complement

__all__ = [
    "DatasetFormatError",
    "LabelSpace",
    "store_features",
    "MultiLabelDataset",
    "FoldSplit",
    "FeatureScaler",
    "GenerativeSpec",
    "enumerate_subsets",
    "subset_membership",
    "uniform_cl_rows",
    "make_uniform_cl_spec",
    "make_exclusive_spec",
    "parse_multilabel_file",
    "write_multilabel_file",
    "preprocess_topk_labels",
    "kfold_split",
    "normalize_features",
    "sample_from_generative",
    "take_instances",
]


class DatasetFormatError(ValueError):
    """A data file violates the sparse multi-label text format."""


@dataclass(frozen=True)
class LabelSpace:
    """The set of class labels, optionally named."""

    n_labels: int
    names: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.n_labels < MIN_LABELS:
            raise ValueError(f"label space needs at least {MIN_LABELS} labels, got {self.n_labels}")
        if self.names is not None and len(self.names) != self.n_labels:
            raise ValueError("names length must equal n_labels")


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


def store_features(X) -> np.ndarray | sp.csr_matrix:
    """Store features as a read-only C-contiguous float64 ndarray when at least
    2/3 of the cells are stored (nonzero), else as float64 CSR: from 2/3 on, 8
    bytes per dense cell cost no more than 12 per CSR entry (value and int32
    column).  A C-contiguous float64 ndarray is frozen in place, like `y`."""
    sparse = sp.issparse(X)
    X = sp.csr_matrix(X, dtype=np.float64) if sparse else np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"features must be a 2-d matrix, got shape {X.shape}")
    if 3 * (X.nnz if sparse else np.count_nonzero(X)) < 2 * X.shape[0] * X.shape[1]:
        return X if sparse else sp.csr_matrix(X)
    return _freeze(_dense(X))


def _dense(X) -> np.ndarray:
    return X.toarray() if sp.issparse(X) else X


@dataclass(frozen=True)
class MultiLabelDataset:
    """Instances with features and full relevance vectors.

    Immutable after construction; safe to share across fold workers.
    """

    features: np.ndarray | sp.csr_matrix
    y: np.ndarray  # (n, K) in {0, 1}
    labels: LabelSpace

    def __post_init__(self):
        feats = store_features(self.features)
        object.__setattr__(self, "features", feats)
        y = np.asarray(self.y, dtype=np.uint8)
        if y.ndim != 2 or y.shape[1] != self.labels.n_labels:
            raise ValueError(f"y must be (n, {self.labels.n_labels}), got {y.shape}")
        if feats.shape[0] != y.shape[0]:
            raise ValueError("features and y disagree on instance count")
        if np.any((y != 0) & (y != 1)):
            raise ValueError("y entries must be 0 or 1")
        sums = y.sum(axis=1)
        bad = np.flatnonzero((sums == 0) | (sums == self.labels.n_labels))
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
        return self.labels.n_labels


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
    """Row-subset a dataset, preserving the label space."""
    idx = np.asarray(idx, dtype=np.int64)
    return MultiLabelDataset(ds.features[idx], ds.y[idx], ds.labels)


# ---------------------------------------------------------------------------
# Canonical sparse text format
#
#   line 1:      "n d K"
#   lines 2..n+1: "<labels> <idx>:<val> ..."  with <labels> a comma-separated
#                 list of 0-based label indices and feature indices strictly
#                 increasing per line.
# ---------------------------------------------------------------------------

PARSE_CHUNK_ROWS = 256  # data lines converted per bulk step; bounds the parser's transient memory


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


def _check_feature_tokens(tokens: list[str], d: int, lineno: int) -> None:
    prev = -1
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
        if i <= prev:
            raise DatasetFormatError(f"line {lineno}: feature indices must be strictly increasing")
        if not np.isfinite(v):
            raise DatasetFormatError(f"line {lineno}: non-finite feature value {pair[1]!r}")
        prev = i


def _convert_tokens(rows: list[list[str]], d: int) -> tuple[np.ndarray, np.ndarray]:
    """Column indices and values of a chunk of lines' feature tokens, checked in
    bulk as `_check_feature_tokens` checks them; ValueError or OverflowError on failure."""
    counts = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))
    n_tokens = int(counts.sum())
    text = " ".join(itertools.chain.from_iterable(rows))
    b = np.frombuffer(text.encode("utf-8"), dtype=np.uint8)
    seps = b[(b == ord(":")) | (b == ord(" "))]
    if seps.size != max(2 * n_tokens - 1, 0) or np.any(seps[0::2] != ord(":")):
        raise ValueError("a feature token does not hold exactly one colon")
    pieces = text.replace(" ", ":").split(":") if n_tokens else []
    idx = np.fromiter(map(int, pieces[0::2]), dtype=np.int64, count=n_tokens)
    val = np.fromiter(map(float, pieces[1::2]), dtype=np.float64, count=n_tokens)
    # for indices in range, idx + line * (d + 1) increases iff every line's indices do
    key = idx + np.repeat(np.arange(len(rows)), counts) * (d + 1)
    if not (np.all((idx >= 0) & (idx < d)) and np.all(np.diff(key) > 0) and np.all(np.isfinite(val))):
        raise ValueError("a feature index or value fails its check")
    return idx.astype(np.int32), val


@contextmanager
def _read_lines(path: str | Path) -> Iterator[tuple[int, int, int, Iterator[str]]]:
    """Open a data file for one pass: the header's (n, d, K) and an iterator over
    its data lines, split as `str.splitlines()` splits the whole text, with
    trailing blank lines dropped."""
    with open(path, encoding="utf-8", newline="") as f:
        # newline="" ends physical lines at "\n", "\r" or "\r\n" untranslated;
        # splitlines() then breaks each one at the other separators it knows
        lines = (line for physical in f for line in physical.splitlines())
        header = next(lines, None)
        if header is None:
            raise DatasetFormatError("line 1: empty file")
        n, d, K = _parse_header(header)
        yield n, d, K, _drop_trailing_blanks(lines)


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


def _check_count(n: int, found: int) -> None:
    if found != n:
        raise DatasetFormatError(f"header declares {n} instances but file has {found} data lines")


def _parse_lines(body: Iterator[str], n: int, d: int, label_field) -> sp.csr_matrix:
    """CSR features of the n data lines, read `PARSE_CHUNK_ROWS` at a time.
    `label_field(row, lineno, line, tokens)` records a line's label field and
    returns its feature tokens; it is never called for a row past n.  A chunk
    that fails a check reruns line by line, raising for the first offending
    line.  A line count other than n wins over any line error, so after a line
    error the rest of the file is counted before either is raised."""
    indices, data, counts = [], [], []
    read = 0  # data lines taken from body
    try:
        while chunk := list(itertools.islice(body, PARSE_CHUNK_ROWS)):
            start, read = read, read + len(chunk)
            if read > n:  # the count check below raises once the rest is counted
                break
            try:
                rows = [label_field(r, r + 2, line, line.split()) for r, line in enumerate(chunk, start)]
                idx, val = _convert_tokens(rows, d)
            except (ValueError, OverflowError):  # DatasetFormatError is a ValueError
                idx = None
            if idx is None:
                for r, line in enumerate(chunk, start):
                    _check_feature_tokens(label_field(r, r + 2, line, line.split()), d, r + 2)
                raise AssertionError("bulk feature checks rejected lines the line-by-line checks accept")
            indices.append(idx)
            data.append(val)
            counts.extend(map(len, rows))
    except DatasetFormatError:
        _check_count(n, read + sum(1 for _ in body))
        raise
    _check_count(n, read + sum(1 for _ in body))
    indptr = np.concatenate([[0], np.cumsum(counts, dtype=np.int64)])
    return sp.csr_matrix((np.concatenate(data), np.concatenate(indices), indptr), shape=(n, d))


def _write_lines(path: str | Path, features, n_labels: int, label_fields) -> None:
    """Write the header and one "<label field> <idx>:<val> ..." line per row: a
    dense row's nonzero cells or a CSR row's stored entries, at 17 significant
    digits so that parsing restores them bit-exactly."""
    X = sp.csr_matrix(features)  # a dense matrix's stored entries are its nonzero cells
    out = [f"{X.shape[0]} {X.shape[1]} {n_labels}"]
    for i, text in enumerate(label_fields):
        span = slice(X.indptr[i], X.indptr[i + 1])
        out.append(" ".join([text] + [f"{j}:{v:.17g}" for j, v in zip(X.indices[span].tolist(), X.data[span].tolist())]))
    Path(path).write_text("\n".join(out) + "\n", encoding="utf-8")


def parse_multilabel_file(path: str | Path) -> MultiLabelDataset:
    """Parse the canonical sparse multi-label text format.

    Raises DatasetFormatError with the offending line number on any
    malformed line, out-of-range index, or empty/full label set.
    """
    with _read_lines(path) as (n, d, K, body):
        y = np.zeros((n, K), dtype=np.uint8)

        def label_field(row: int, lineno: int, line: str, tokens: list[str]) -> list[str]:
            # a leading space means the label field is empty
            if line[:1].isspace() or not tokens or ":" in tokens[0]:
                text, feat_tokens = "", tokens
            else:
                text, feat_tokens = tokens[0], tokens[1:]
            labels = _parse_label_field(text, K, lineno)
            if not labels:
                raise DatasetFormatError(f"line {lineno}: instance {row} has an empty label set")
            if len(labels) == K:
                raise DatasetFormatError(f"line {lineno}: instance {row} has the full label set")
            y[row, labels] = 1
            return feat_tokens

        feats = _parse_lines(body, n, d, label_field)
    return MultiLabelDataset(feats, y, LabelSpace(K))


def write_multilabel_file(ds: MultiLabelDataset, path: str | Path) -> None:
    """Serialize to the canonical format; parse() round-trips bit-exactly."""
    _write_lines(path, ds.features, ds.n_labels, (",".join(map(str, np.flatnonzero(r).tolist())) for r in ds.y))


# ---------------------------------------------------------------------------
# Preprocessing and splitting
# ---------------------------------------------------------------------------


def preprocess_topk_labels(ds: MultiLabelDataset, max_labels: int = 15) -> MultiLabelDataset:
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
    if keep.size < MIN_LABELS:
        raise ValueError("fewer than 3 labels survive filtering")
    y_new = ds.y[:, keep]
    sums = y_new.sum(axis=1)
    rows = np.flatnonzero((sums > 0) & (sums < keep.size))
    if rows.size == 0:
        raise ValueError("no instances survive label filtering")
    return MultiLabelDataset(ds.features[rows], y_new[rows], LabelSpace(int(keep.size)))


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
        return MultiLabelDataset((_dense(ds.features) - self.mean) / self.scale, ds.y, ds.labels)


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


def enumerate_subsets(n_labels: int) -> np.ndarray:
    """All nonempty proper label subsets as bitmasks, in binary counting order.

    Label k corresponds to bit k.  The subset at position i has mask i + 1.
    """
    if not MIN_LABELS <= n_labels <= MAX_ENUM_LABELS:
        raise ValueError(f"subset enumeration supports {MIN_LABELS} <= K <= {MAX_ENUM_LABELS}, got {n_labels}")
    return np.arange(1, 2**n_labels - 1, dtype=np.int64)


def subset_membership(n_labels: int) -> np.ndarray:
    """(2^K - 2, K) binary matrix: row i marks the members of subset mask i+1."""
    masks = enumerate_subsets(n_labels)
    bits = (masks[:, None] >> np.arange(n_labels)[None, :]) & 1
    return bits.astype(np.uint8)


@dataclass(frozen=True)
class GenerativeSpec:
    """A fully explicit joint over label subsets and complementary labels.

    `subset_probs[i]` is p(Y = C) for the subset with mask i+1, and
    `cl_given_subset[i, j]` is the probability that label j is drawn as the
    complementary label when Y = C.  Features are sampled as unit-variance
    Gaussian clusters, one center per subset, with centers separated by
    roughly `cluster_separation` so near-anchor instances exist.
    """

    n_labels: int
    subset_probs: np.ndarray
    cl_given_subset: np.ndarray
    cluster_separation: float = 4.0
    feature_seed: int = 0

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

    def label_marginals(self) -> np.ndarray:
        """p(y^k = 1) for each label k."""
        return subset_membership(self.n_labels).astype(np.float64).T @ self.subset_probs


def uniform_cl_rows(n_labels: int) -> np.ndarray:
    """Complementary-label table that is uniform over each subset's complement."""
    members = subset_membership(n_labels).astype(np.float64)
    comp = 1.0 - members
    return comp / comp.sum(axis=1, keepdims=True)


def make_uniform_cl_spec(n_labels: int, subset_probs: np.ndarray, **kwargs) -> GenerativeSpec:
    return GenerativeSpec(n_labels, subset_probs, uniform_cl_rows(n_labels), **kwargs)


def make_exclusive_spec(n_labels: int, singleton_probs: np.ndarray | None = None, **kwargs) -> GenerativeSpec:
    """Spec whose mass sits on singleton subsets only (mutually exclusive labels)."""
    K = n_labels
    probs = np.zeros(2**K - 2)
    if singleton_probs is None:
        singleton_probs = np.full(K, 1.0 / K)
    singleton_probs = np.asarray(singleton_probs, dtype=np.float64)
    for k in range(K):
        probs[(1 << k) - 1] = singleton_probs[k]
    return make_uniform_cl_spec(K, probs, **kwargs)


def _sample_rows_categorical(prob_rows: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Draw one index per row of `prob_rows` using the uniforms `u`."""
    cdf = np.cumsum(prob_rows, axis=1)
    idx = (cdf <= u[:, None]).sum(axis=1)
    return np.minimum(idx, prob_rows.shape[1] - 1)


def sample_from_generative(
    spec: GenerativeSpec, n: int, d: int, seed: int
) -> tuple[MultiLabelDataset, "ComplementaryDataset"]:
    """Sample n instances: subset from subset_probs, complementary label from
    the subset's row, features from that subset's Gaussian cluster.

    Cluster centers depend only on (spec, d), so samples drawn with different
    seeds come from the same distribution.
    """
    from .complementary import ComplementaryDataset

    if n < 1:
        raise ValueError("n must be at least 1")
    K = spec.n_labels
    members = subset_membership(K)
    rng = np.random.default_rng(seed)
    subset_idx = rng.choice(spec.n_subsets, size=n, p=spec.subset_probs)
    cl = _sample_rows_categorical(spec.cl_given_subset[subset_idx], rng.random(n))
    center_rng = np.random.default_rng((spec.feature_seed, K, d))
    centers = center_rng.standard_normal((spec.n_subsets, d)) * (spec.cluster_separation / np.sqrt(2.0 * d))
    X = centers[subset_idx] + rng.standard_normal((n, d))
    y = members[subset_idx]
    feats = store_features(X)
    full = MultiLabelDataset(feats, y, LabelSpace(K))
    comp = ComplementaryDataset(feats, cl.astype(np.int64), LabelSpace(K))
    return full, comp

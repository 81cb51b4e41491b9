"""Complementary-label generation: uniform and co-occurrence-biased samplers.

Ground-truth relevance vectors are retained only inside CorruptionRecord,
for evaluation and for the biased sampler; training code paths receive the
ComplementaryDataset, which never carries full supervision.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .dataset import (
    DatasetFormatError,
    LabelSpace,
    MultiLabelDataset,
    _freeze,
    _parse_label_field,
    _parse_lines,
    _read_lines,
    _sample_rows_categorical,
    _write_lines,
    store_features,
)

if TYPE_CHECKING:
    import scipy.sparse as sp

__all__ = [
    "ComplementaryDataset",
    "CorruptionRecord",
    "corrupt_uniform",
    "corrupt_biased",
    "attach_relevant_subset",
    "cooccurrence_rates",
    "biased_selection_probs",
    "parse_complementary_file",
    "write_complementary_file",
]


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
    labels: LabelSpace
    relevant: np.ndarray | None = None  # (n, K) in {0, 1}

    def __post_init__(self):
        feats = store_features(self.features)
        object.__setattr__(self, "features", feats)
        cl = np.asarray(self.cl, dtype=np.int64)
        K = self.labels.n_labels
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

    @property
    def n_labels(self) -> int:
        return self.labels.n_labels

    def candidate_matrix(self) -> np.ndarray:
        """(n, K) candidate vectors: 1 everywhere except the complementary slot."""
        out = np.ones((self.n_instances, self.n_labels), dtype=np.uint8)
        out[np.arange(self.n_instances), self.cl] = 0
        return out


@dataclass(frozen=True)
class CorruptionRecord:
    """Provenance of a corruption run; holds ground truth for evaluation only."""

    mode: str
    seed: int
    true_y: np.ndarray  # (n, K)

    def __post_init__(self):
        if self.mode not in ("uniform", "biased"):
            raise ValueError(f"unknown corruption mode {self.mode!r}")
        object.__setattr__(self, "true_y", _freeze(np.asarray(self.true_y, dtype=np.uint8)))


def _finish(ds: MultiLabelDataset, cl: np.ndarray, mode: str, seed: int):
    if np.any(ds.y[np.arange(ds.n_instances), cl] == 1):
        raise AssertionError("sampler produced a relevant label as complementary")
    cds = ComplementaryDataset(ds.features, cl, ds.labels)
    return cds, CorruptionRecord(mode=mode, seed=seed, true_y=ds.y)


def corrupt_uniform(ds: MultiLabelDataset, seed: int) -> tuple[ComplementaryDataset, CorruptionRecord]:
    """Draw each instance's complementary label uniformly from its irrelevant labels."""
    rng = np.random.default_rng(seed)
    weights = (1.0 - ds.y).astype(np.float64)
    probs = weights / weights.sum(axis=1, keepdims=True)
    cl = _sample_rows_categorical(probs, rng.random(ds.n_instances))
    return _finish(ds, cl, "uniform", seed)


def cooccurrence_rates(y: np.ndarray) -> np.ndarray:
    """cooc[j, k] = |{i: y_i^j = 1 and y_i^k = 1}| / |{i: y_i^k = 1}|.

    Columns for labels that never occur are left at zero.
    """
    y = np.asarray(y, dtype=np.float64)
    counts = y.sum(axis=0)
    joint = y.T @ y
    with np.errstate(invalid="ignore", divide="ignore"):
        cooc = np.where(counts > 0, joint / counts, 0.0)
    return cooc


def biased_selection_probs(y: np.ndarray, cooc: np.ndarray) -> np.ndarray:
    """Per-instance complementary-label selection probabilities.

    Candidate j gets weight 1 - max over the instance's relevant labels k of
    cooc(j, k), so labels that rarely co-occur with the relevant set are
    preferred.  An instance whose candidate weights all vanish falls back to a
    uniform draw over its candidates.
    """
    y = np.asarray(y)
    rel = y != 0
    if not np.all(rel.any(axis=1)):
        raise ValueError("every instance needs a relevant label")
    top = np.full(y.shape, -np.inf)  # top[i, j] = max over relevant k of cooc[j, k]
    for k in range(y.shape[1]):
        top[rel[:, k]] = np.maximum(top[rel[:, k]], cooc[:, k])
    w = np.maximum(np.where(rel, 0.0, 1.0 - top), 0.0)
    empty = w.sum(axis=1) <= 0.0
    w[empty] = 1.0 - y[empty]  # no weight left: uniform over the candidates
    return w / w.sum(axis=1, keepdims=True)


def corrupt_biased(ds: MultiLabelDataset, seed: int) -> tuple[ComplementaryDataset, CorruptionRecord]:
    """Draw complementary labels biased toward candidates that rarely co-occur
    with the instance's relevant labels, using this dataset's own ground-truth
    co-occurrence rates."""
    rng = np.random.default_rng(seed)
    probs = biased_selection_probs(ds.y, cooccurrence_rates(ds.y))
    cl = _sample_rows_categorical(probs, rng.random(ds.n_instances))
    return _finish(ds, cl, "biased", seed)


def attach_relevant_subset(
    cds: ComplementaryDataset, record: CorruptionRecord, r: int, seed: int
) -> ComplementaryDataset:
    """Equip every instance with a uniformly chosen size-r subset of its true
    relevant labels (r=1 reproduces the one-relevant-label setting)."""
    if r < 1:
        raise ValueError("r must be at least 1")
    y = record.true_y
    if y.shape != (cds.n_instances, cds.n_labels):
        raise ValueError("corruption record does not match the dataset")
    sizes = y.sum(axis=1)
    short = np.flatnonzero(sizes < r)
    if short.size:
        raise ValueError(f"instance {short[0]} has only {int(sizes[short[0]])} relevant labels, need {r}")
    rng = np.random.default_rng(seed)
    rel = np.zeros_like(y)
    for i in range(cds.n_instances):
        members = np.flatnonzero(y[i])
        chosen = rng.choice(members, size=r, replace=False)
        rel[i, chosen] = 1
    return ComplementaryDataset(cds.features, cds.cl, cds.labels, relevant=rel)


# ---------------------------------------------------------------------------
# Complementary text format
#
#   line 1:      "n d K"
#   lines 2..n+1: "<cl>;<rel> <idx>:<val> ..." with <rel> a possibly empty
#                 comma-separated list of relevant label indices.
# ---------------------------------------------------------------------------


def parse_complementary_file(path: str | Path) -> ComplementaryDataset:
    with _read_lines(path) as (n, d, K, stored, body):
        cl = np.zeros(n, dtype=np.int64)
        rel = np.zeros((n, K), dtype=np.uint8)

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

        feats = _parse_lines(body, n, d, stored, label_field)
    has_rel = rel.any(axis=1)
    if has_rel.any() and not has_rel.all():
        missing = int(np.flatnonzero(~has_rel)[0])
        raise DatasetFormatError(f"instance {missing} lacks a relevant label while others carry one")
    return ComplementaryDataset(feats, cl, LabelSpace(K), relevant=rel if has_rel.any() else None)


def write_complementary_file(cds: ComplementaryDataset, path: str | Path) -> None:
    rel = [""] * cds.n_instances if cds.relevant is None else (",".join(map(str, np.flatnonzero(r).tolist())) for r in cds.relevant)
    _write_lines(path, cds.features, cds.n_labels, (f"{c};{r}" for c, r in zip(cds.cl.tolist(), rel)))

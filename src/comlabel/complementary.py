"""Complementary-label generation: uniform and co-occurrence-biased samplers.

Ground-truth relevance vectors are retained only inside CorruptionRecord,
for evaluation and for the biased sampler; training code paths receive the
ComplementaryDataset, which never carries full supervision.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import ComplementaryDataset, MultiLabelDataset, sample_rows_categorical

__all__ = [
    "CorruptionRecord",
    "corrupt_uniform",
    "corrupt_biased",
    "attach_relevant_subset",
    "cooccurrence_rates",
    "biased_selection_probs",
]


@dataclass(frozen=True)
class CorruptionRecord:
    """The ground truth of a corruption run, for evaluation only: the
    corrupted dataset's frozen relevance matrix."""

    true_y: np.ndarray  # (n, K)


def _finish(ds: MultiLabelDataset, cl: np.ndarray):
    if np.any(ds.y[np.arange(ds.n_instances), cl] == 1):
        raise AssertionError("sampler produced a relevant label as complementary")
    return ComplementaryDataset(ds.features, cl, ds.n_labels), CorruptionRecord(ds.y)


def corrupt_uniform(ds: MultiLabelDataset, seed: int) -> tuple[ComplementaryDataset, CorruptionRecord]:
    """Draw each instance's complementary label uniformly from its irrelevant labels."""
    rng = np.random.default_rng(seed)
    weights = (1.0 - ds.y).astype(np.float64)
    probs = weights / weights.sum(axis=1, keepdims=True)
    cl = sample_rows_categorical(probs, rng.random(ds.n_instances))
    return _finish(ds, cl)


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
    cl = sample_rows_categorical(probs, rng.random(ds.n_instances))
    return _finish(ds, cl)


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
    return ComplementaryDataset(cds.features, cds.cl, cds.n_labels, relevant=rel)

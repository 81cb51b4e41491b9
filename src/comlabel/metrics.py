"""The five multi-label evaluation criteria.

`evaluate_all` computes all five from raw score vectors and ground-truth
relevance vectors in one deterministic ranking pass (descending score, ties
to the lower label index), so every value is reproducible bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import predict_labels, rank_matrix

__all__ = ["MetricsReport", "evaluate_all"]


@dataclass(frozen=True)
class MetricsReport:
    hamming_loss: float
    ranking_loss: float
    one_error: float
    coverage: float
    average_precision: float
    n_evaluated: int

    METRIC_NAMES = ("hamming_loss", "ranking_loss", "one_error", "coverage", "average_precision")


def _validated(scores, truth) -> tuple[np.ndarray, np.ndarray]:
    S = np.atleast_2d(np.asarray(scores, dtype=np.float64))
    Y = np.atleast_2d(np.asarray(truth))
    if S.shape != Y.shape:
        raise ValueError(f"scores {S.shape} and truth {Y.shape} disagree")
    if S.shape[0] == 0:
        raise ValueError("empty evaluation")
    if not np.all(np.isfinite(S)):
        raise ValueError("scores must be finite")
    if np.any((Y != 0) & (Y != 1)):
        raise ValueError("truth entries must be 0 or 1")
    sums = Y.sum(axis=1)
    bad = np.flatnonzero((sums == 0) | (sums == Y.shape[1]))
    if bad.size:
        raise ValueError(f"instance {bad[0]} has an empty or full truth vector")
    return S, Y.astype(np.float64)


def evaluate_all(scores, truth) -> MetricsReport:
    """All five criteria with a single ranking pass per instance."""
    S, Y = _validated(scores, truth)
    ranks = rank_matrix(S).astype(np.float64)
    rel = Y == 1
    n, K = Y.shape

    pred = predict_labels(S)
    ham = float(np.mean(pred != Y.astype(np.uint8)))

    below = ranks[:, :, None] > ranks[:, None, :]  # below[i, a, b]: label a ranks below label b
    counts = rel.sum(axis=1)
    reversed_pairs = (below & rel[:, :, None] & ~rel[:, None, :]).sum(axis=(1, 2))
    rank_loss = float(np.mean(reversed_pairs / (counts * (K - counts))))

    top = np.argmin(ranks, axis=1)
    one_err = float(np.mean(Y[np.arange(n), top] == 0))

    deepest = np.where(rel, ranks, -np.inf).max(axis=1)
    cov = float(np.mean((deepest - 1.0) / K))

    # Precision at each relevant label's rank, packed left in label order, so
    # row i's terms are terms[i, :counts[i]].  Each row is averaged by one
    # reduction over exactly its terms, which gives the bits of np.mean on
    # that row alone; a running sum would round differently.
    hits = 1 + (below & rel[:, None, :]).sum(axis=2)  # relevant labels ranked at or above
    terms = np.take_along_axis(hits / ranks, np.argsort(~rel, axis=1, kind="stable"), axis=1)
    ap_terms = np.empty(n)
    for m in range(1, K):
        np.copyto(ap_terms, np.add.reduce(terms[:, :m], axis=1) / m, where=counts == m)
    ap = float(np.mean(ap_terms))

    return MetricsReport(ham, rank_loss, one_err, cov, ap, n_evaluated=n)

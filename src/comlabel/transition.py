"""Class-transition matrix estimation from complementary labels.

Two-step procedure: average a softmax complementary-label predictor over each
candidate-conditioned instance pool to get an initial matrix, then correct it
with the candidate co-occurrence matrix, zero the diagonal, and row-normalize.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dataset import ComplementaryDataset, read_table, table_lines, write_table
from .model import LinearModel, forward

__all__ = [
    "correlation_matrix",
    "estimate_initial_S",
    "correct_and_normalize",
    "check_invertible",
    "uniform_transition",
    "estimate_transition",
    "TransitionDiagnostics",
    "validate_transition",
    "save_transition_csv",
    "load_transition_csv",
]

_ZERO_ROW_TOL = 1e-12
ROW_SUM_TOL = 1e-9  # how far a transition row's sum may stray from 1
NEAR_SINGULAR = 1e-8  # smallest singular value below which T is flagged near-singular


def validate_transition(T: np.ndarray, lines: list[int] | None = None) -> None:
    """Assert the row-stochastic zero-diagonal contract: finite non-negative
    entries, an exactly zero diagonal and rows summing to 1 within
    ROW_SUM_TOL.  The error names the first offending row, as its entry of
    `lines` (the file line of each row) when given."""
    T = np.asarray(T)
    if T.ndim != 2 or T.shape[0] != T.shape[1]:
        raise ValueError("transition matrix must be square")
    _reject_rows(~np.isfinite(T).all(axis=1), "has non-finite entries", lines)
    _reject_rows((T < 0).any(axis=1), "has negative entries", lines)
    _reject_rows(np.diagonal(T) != 0.0, "diagonal must be exactly zero", lines)
    _reject_rows(np.abs(T.sum(axis=1) - 1.0) > ROW_SUM_TOL, "rows must sum to 1", lines)


def _reject_rows(bad: np.ndarray, what: str, lines: list[int] | None) -> None:
    if bad.any():
        row = int(np.flatnonzero(bad)[0])
        where = f"line {lines[row]}" if lines is not None else f"row {row}"
        raise ValueError(f"{where}: transition matrix {what}")


def uniform_transition(n_labels: int) -> np.ndarray:
    """The uniform off-diagonal transition matrix, 1/(K-1) everywhere off-diagonal."""
    T = np.full((n_labels, n_labels), 1.0 / (n_labels - 1))
    np.fill_diagonal(T, 0.0)
    return T


def correlation_matrix(cds: ComplementaryDataset) -> np.ndarray:
    """Co-occurrence rates of candidate labels.

    C[k, j] is the fraction of instances holding candidate k that also hold
    candidate j; the diagonal is fixed at 1.  A label that is the complementary
    label of every instance has an empty pool, and its row falls back to the
    uniform value (K-1)/K off-diagonal with a warning.

    Every label but `cl` is a candidate, so with c_k instances whose `cl` is
    k, C[k, j] = (n - c_k - c_j) / (n - c_k): the rates depend on how often
    each label is the complementary one and on nothing else.
    """
    K = cds.n_labels
    c = np.bincount(cds.cl, minlength=K)
    counts = (cds.n_instances - c).astype(np.float64)  # instances holding candidate k
    joint = counts[:, None] - c  # instances holding candidates k and j, for j != k
    empty = counts == 0
    C = np.where(empty[:, None], (K - 1.0) / K, joint / np.where(empty, 1.0, counts)[:, None])
    np.fill_diagonal(C, 1.0)
    if np.any(empty):
        warnings.warn(
            f"labels {np.flatnonzero(empty).tolist()} are candidates of no instance; "
            "their correlation rows use the uniform fallback"
        )
    return C


def estimate_initial_S(cds: ComplementaryDataset, cl_predictor: LinearModel) -> np.ndarray:
    """Average the complementary-label predictor over each candidate pool.

    Row k is the mean softmax output over instances whose candidate set
    contains label k.  An empty pool yields a uniform row with a warning.
    Non-finite scores, from logits that overflow, are rejected naming the
    first instance that has one.
    """
    if cl_predictor.head != "softmax":
        raise ValueError("the complementary-label predictor must use the softmax head")
    K = cds.n_labels
    cand = cds.candidate_matrix().astype(np.float64)
    counts = cand.sum(axis=0)
    F = forward(cl_predictor, cds.features)
    bad = ~np.isfinite(F).all(axis=1)
    if bad.any():
        first = int(np.flatnonzero(bad)[0])
        raise ValueError(f"complementary-label predictor gave non-finite scores on instance {first}")
    S = cand.T @ F
    empty = counts == 0
    S = np.where(empty[:, None], 1.0 / K, S / np.where(empty, 1.0, counts)[:, None])
    if np.any(empty):
        warnings.warn(
            f"labels {np.flatnonzero(empty).tolist()} appear as the complementary label of every "
            "instance; their initial-transition rows are set uniform"
        )
    return S


def correct_and_normalize(S: np.ndarray, C: np.ndarray) -> np.ndarray:
    """Correct the initial matrix by candidate correlations: S C^T, then zero
    the diagonal and row-normalize.

    Zeroing precedes normalization so the relative off-diagonal mass is kept.
    Rows whose corrected mass vanishes become uniform off-diagonal with a
    warning.
    """
    S = np.asarray(S, dtype=np.float64)
    C = np.asarray(C, dtype=np.float64)
    if S.shape != C.shape or S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise ValueError("S and C must be square matrices of the same shape")
    K = S.shape[0]
    M = S @ C.T
    np.fill_diagonal(M, 0.0)
    sums = M.sum(axis=1)
    dead = sums <= _ZERO_ROW_TOL
    if np.any(dead):
        warnings.warn(f"rows {np.flatnonzero(dead).tolist()} had no off-diagonal mass; set uniform")
        M[dead] = 1.0 / (K - 1)
        M[dead, np.flatnonzero(dead)] = 0.0  # keep the diagonal at zero
        sums = M.sum(axis=1)
    T = M / sums[:, None]
    np.fill_diagonal(T, 0.0)
    return T


@dataclass(frozen=True)
class TransitionDiagnostics:
    determinant: float
    smallest_singular_value: float
    condition: float
    near_singular: bool


def check_invertible(T: np.ndarray) -> TransitionDiagnostics:
    """Report determinant and conditioning; flag near-singularity below NEAR_SINGULAR."""
    T = np.asarray(T, dtype=np.float64)
    det = float(np.linalg.det(T))
    s = np.linalg.svd(T, compute_uv=False)
    smallest = float(s[-1])
    condition = float(s[0] / s[-1]) if smallest > 0 else np.inf
    return TransitionDiagnostics(
        determinant=det,
        smallest_singular_value=smallest,
        condition=condition,
        near_singular=smallest < NEAR_SINGULAR,
    )


def estimate_transition(
    cds: ComplementaryDataset,
    cl_predictor: LinearModel,
    use_correlation: bool = True,
) -> np.ndarray:
    """Full two-step estimate; with use_correlation=False the correlation
    correction is skipped and the initial matrix is zero-diagonal row-normalized
    directly (the no-correlation ablation)."""
    S = estimate_initial_S(cds, cl_predictor)
    C = correlation_matrix(cds) if use_correlation else np.eye(cds.n_labels)
    return correct_and_normalize(S, C)


def save_transition_csv(T: np.ndarray, path: str | Path) -> None:
    """K rows of K comma-separated decimals at 17 significant digits, so the
    matrix reads back bit for bit."""
    write_table(path, None, T, ",")


def load_transition_csv(path: str | Path) -> np.ndarray:
    """Read a transition CSV, skipping blank lines and # comments, and check it as
    `validate_transition` does; each error names the offending line of the file."""
    T, lines = read_table(table_lines(path), ",")
    if T.ndim != 2 or T.shape[0] != T.shape[1]:
        raise ValueError(f"transition CSV must be square, got {T.shape}")
    validate_transition(T, lines=lines)
    return T

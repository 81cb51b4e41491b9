"""Linear scoring models with sigmoid (multi-label) and softmax heads."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dataset import read_table, stack_scores, table_lines, write_table

HEADS = ("sigmoid", "softmax")

__all__ = [
    "LinearModel",
    "init_linear",
    "forward",
    "head_gradient",
    "predict_labels",
    "rank_matrix",
    "save_model",
    "load_model",
]


@dataclass
class LinearModel:
    """z = Wx + b squashed through the configured head.

    The head is fixed at construction; parameters are mutated only by the
    trainer, so forward passes on a frozen model are safe concurrently.  Every
    training steps a stack of C >= 1 models held in one: weights (C, K, d)
    and bias (C, K), scored together.  The models it returns are 2-D, and
    their weights and bias may be views of the training's parameter buffer.
    """

    weights: np.ndarray  # (K, d), or (C, K, d) for a stack
    bias: np.ndarray  # (K,), or (C, K)
    head: str

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.bias = np.asarray(self.bias, dtype=np.float64)
        if self.head not in HEADS:
            raise ValueError(f"head must be one of {HEADS}, got {self.head!r}")
        if self.weights.ndim not in (2, 3) or self.bias.shape != self.weights.shape[:-1]:
            raise ValueError("weights must be (K, d) with bias (K,), or (C, K, d) with bias (C, K)")
        if not (np.all(np.isfinite(self.weights)) and np.all(np.isfinite(self.bias))):
            raise ValueError("model parameters must be finite")

    @property
    def n_labels(self) -> int:
        return self.weights.shape[-2]

    @property
    def n_features(self) -> int:
        return self.weights.shape[-1]


def init_linear(d: int, n_labels: int, head: str, seed: int) -> LinearModel:
    """Zero bias, Gaussian weights with scale 1/sqrt(d)."""
    if d < 1 or n_labels < 1:
        raise ValueError("d and n_labels must be positive")
    rng = np.random.default_rng(seed)
    W = rng.normal(0.0, 1.0 / np.sqrt(d), size=(n_labels, d))
    return LinearModel(W, np.zeros(n_labels), head)


def sigmoid(z: np.ndarray) -> np.ndarray:
    """The logistic function by `scipy.special.expit`'s own formula,
    1 / (1 + exp(-z)), in NumPy.  Below z = -709.78, exp(-z) overflows to inf
    and the result is 0.0, as expit's is; that overflow is not reported."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-z))


def softmax(z: np.ndarray) -> np.ndarray:
    # the row maxima come from a (K, ...) copy: NumPy reduces one long axis
    # much faster than many K-long rows, and a maximum is exact in any order
    z = z - np.ascontiguousarray(np.moveaxis(z, -1, 0)).max(axis=0)[..., None]
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def head_gradient(model: LinearModel, F: np.ndarray, G_f: np.ndarray) -> np.ndarray:
    """dL/dz for the logits z of the model's scores F = head(z), given dL/dF."""
    if model.head == "sigmoid":
        return G_f * F * (1.0 - F)
    return F * (G_f - (G_f * F).sum(axis=-1, keepdims=True))


def forward(model: LinearModel, X) -> np.ndarray:
    """Score a batch, (n, d) dense or sparse, through `stack_scores`: scores in
    [0, 1], (n, K), or (C, n, K) for a stack of C models, each model's bit for
    bit its own.  The sigmoid head is `sigmoid`, in NumPy alone: where NumPy's
    `exp` is not the C library's (builds with AVX-512 kernels), its scores can
    differ from `scipy.special.expit` by a few ulp; reruns on one machine stay
    bit-identical."""
    Z = stack_scores(X, model.weights) + model.bias[..., None, :]
    return sigmoid(Z) if model.head == "sigmoid" else softmax(Z)


def predict_labels(scores: np.ndarray) -> np.ndarray:
    """Threshold at 0.5, strictly: a score of exactly 0.5 is not predicted."""
    return (np.asarray(scores) > 0.5).astype(np.uint8)


def rank_matrix(scores: np.ndarray) -> np.ndarray:
    """1-based ranks of an (n, K) batch of scores, per instance: descending
    score, ties to the lower label index."""
    scores = np.asarray(scores, dtype=np.float64)
    order = np.argsort(-scores, axis=1, kind="stable")
    ranks = np.empty_like(order)
    np.put_along_axis(ranks, order, np.arange(1, scores.shape[1] + 1)[None, :], axis=1)
    return ranks


# Checkpoint format: header "d K head", then K lines of d+1 decimals
# (weight row then bias entry) at 17 significant digits for exact round-trip;
# blank lines and whole-line # comments are skipped.


def save_model(model: LinearModel, path: str | Path) -> None:
    header = f"{model.n_features} {model.n_labels} {model.head}"
    write_table(path, header, np.column_stack([model.weights, model.bias]), " ")


def load_model(path: str | Path) -> LinearModel:
    numbered = table_lines(path)
    if not numbered:
        raise ValueError("empty checkpoint")
    (_, header), rows = numbered[0], numbered[1:]
    parts = header.split()
    if len(parts) != 3 or not all(p.isdecimal() and int(p) > 0 for p in parts[:2]):
        raise ValueError(f"checkpoint header must be 'd K head' with positive integers d and K, got {header!r}")
    d, K, head = int(parts[0]), int(parts[1]), parts[2]
    if len(rows) < K:
        raise ValueError(f"checkpoint declares {K} rows but has {len(rows)}")
    if len(rows) > K:
        raise ValueError(f"checkpoint declares {K} rows, but line {rows[K][0]} follows them")
    table, lines = read_table(rows, None)
    if table.shape[1] != d + 1:
        raise ValueError(f"line {lines[0]}: {table.shape[1]} entries, but the header's d + 1 is {d + 1}")
    bad = np.flatnonzero(~np.isfinite(table).all(axis=1))
    if bad.size:
        raise ValueError(f"line {lines[bad[0]]}: non-finite entry in {rows[bad[0]][1]!r}")
    return LinearModel(np.ascontiguousarray(table[:, :d]), table[:, d].copy(), head)

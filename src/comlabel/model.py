"""Linear scoring models with sigmoid (multi-label) and softmax heads."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dataset import issparse

HEADS = ("sigmoid", "softmax")

__all__ = [
    "LinearModel",
    "init_linear",
    "forward",
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
    and bias (C, K), scored together.  The models it returns are 2-D.
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
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def forward(model: LinearModel, X) -> np.ndarray:
    """Score a batch, (n, d) dense or sparse; scores lie in [0, 1] and are
    (n, K), or (C, n, K) for a stack of C models.

    Each model of a stack is scored bit for bit as it would be alone: dense
    batches go through one batched `np.matmul`, which makes each model's own
    GEMM call, and a CSR product computes every output column on its own, so
    the stack's weights are multiplied as one (C*K, d) matrix.

    The sigmoid head is `sigmoid`, computed with NumPy alone.  Where NumPy's
    `exp` is not the C library's (builds with AVX-512 kernels), its scores
    can differ from `scipy.special.expit` by a few ulp; reruns on one machine
    stay bit-identical."""
    X = X if issparse(X) else np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.n_features:
        raise ValueError(f"expected an (n, {model.n_features}) batch of features, got shape {X.shape}")
    W = model.weights
    if issparse(X):
        Z = np.asarray(X @ W.reshape(-1, W.shape[-1]).T).reshape(X.shape[0], *W.shape[:-1])
        Z = np.ascontiguousarray(Z.swapaxes(0, -2))
    else:
        Z = np.matmul(X, W.swapaxes(-1, -2))
    Z = Z + model.bias[..., None, :]
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
# (weight row then bias entry) at 17 significant digits for exact round-trip.


def save_model(model: LinearModel, path: str | Path) -> None:
    lines = [f"{model.n_features} {model.n_labels} {model.head}"]
    for k in range(model.n_labels):
        vals = list(model.weights[k]) + [model.bias[k]]
        lines.append(" ".join(f"{v:.17g}" for v in vals))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_model(path: str | Path) -> LinearModel:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines:
        raise ValueError("empty checkpoint")
    parts = lines[0].split()
    if len(parts) != 3 or not all(p.isdecimal() and int(p) > 0 for p in parts[:2]):
        raise ValueError(f"checkpoint header must be 'd K head' with positive integers d and K, got {lines[0]!r}")
    d, K, head = int(parts[0]), int(parts[1]), parts[2]
    if len(lines) < K + 1:
        raise ValueError(f"checkpoint declares {K} rows but has {len(lines) - 1}")
    if len(lines) > K + 1:
        raise ValueError(f"checkpoint declares {K} rows, but line {K + 2} follows them")
    W = np.empty((K, d))
    b = np.empty(K)
    for k in range(K):
        vals = np.array([float(t) for t in lines[k + 1].split()])
        if vals.shape[0] != d + 1:
            raise ValueError(f"checkpoint row {k} has {vals.shape[0]} values, expected {d + 1}")
        W[k] = vals[:d]
        b[k] = vals[d]
    return LinearModel(W, b, head)

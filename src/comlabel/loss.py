"""Loss functions and their analytic gradients.

One score-level core, `score_objective`, returns every row's loss value
together with its gradient with respect to the scores F; `batch_objective`
chains that gradient through the model head to parameter space.  Log
arguments are clamped to [CLAMP_EPS, 1 - CLAMP_EPS] and the clamp is part of
the differentiated graph (its derivative is zero outside the interior), so
analytic and finite-difference gradients agree away from clamp boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import issparse
from .model import LinearModel, forward

__all__ = [
    "CLAMP_EPS",
    "LOSS_KINDS",
    "score_objective",
    "batch_objective",
    "gradient_check",
    "GradientCheckReport",
]


CLAMP_EPS = 1e-12


def _clip(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Clamped values and the interior mask (where the clamp is inactive)."""
    interior = (p > CLAMP_EPS) & (p < 1.0 - CLAMP_EPS)
    return np.clip(p, CLAMP_EPS, 1.0 - CLAMP_EPS), interior


LOSS_KINDS = ("bce_supervised", "mlcl", "clrl", "ce_softmax")


def _bce(P: np.ndarray, Y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row sums of the binary cross entropy of probabilities P against
    targets Y, and its derivative with respect to P."""
    Pc, interior = _clip(P)
    values = -(Y * np.log(Pc) + (1.0 - Y) * np.log(1.0 - Pc)).sum(axis=-1)
    grad = ((1.0 - Y) / (1.0 - Pc) - Y / Pc) * interior
    return values, grad


def score_objective(
    F: np.ndarray,
    kind: str,
    *,
    y: np.ndarray | None = None,
    cl: np.ndarray | None = None,
    relevant: np.ndarray | None = None,
    T: np.ndarray | None = None,
    beta: float = 1.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-row loss values of the batch of scores F (n x K) and dL/dF.

    F may also be a stack (C, n, K) of C models' scores on one batch, with T
    then a stack (C, K, K) of their transition matrices; every product is a
    batched `np.matmul`, one BLAS call per model, so each model's values and
    gradient are those of its own (n, K) batch, bit for bit.

    `cl` holds one complementary label index per row; ybar is its one-hot
    row.  The losses, per row f with q = T^T f:
    * bce_supervised: BCE of f against the relevance vector y;
    * ce_softmax: -log f[cl] for softmax scores;
    * mlcl: BCE of q against ybar (q is clamped, not renormalised) plus
      beta * ||ybar - q||^2 (unclamped); beta = 0 drops the regulariser;
    * clrl: the BCE of q against ybar plus ||relevant - f||^2 over all
      coordinates.
    """
    if kind not in LOSS_KINDS:
        raise ValueError(f"unknown loss kind {kind!r}")
    F = np.asarray(F, dtype=np.float64)
    if F.ndim not in (2, 3):
        raise ValueError(f"scores must be an (n, K) batch or a (C, n, K) stack, got shape {F.shape}")
    if kind == "bce_supervised":
        return _bce(F, np.asarray(y, dtype=np.float64))
    if kind == "ce_softmax":
        rows, cl = np.arange(F.shape[-2]), np.asarray(cl, dtype=np.int64)
        # a stack's gathered scores come out strided; a contiguous copy keeps
        # each candidate's mean on the pairwise summation of its own batch
        p, interior = _clip(np.ascontiguousarray(F[..., rows, cl]))
        G = np.zeros_like(F)
        G[..., rows, cl] = -interior.astype(np.float64) / p
        return -np.log(p), G
    if kind == "clrl" and relevant is None:
        raise ValueError("clrl loss requires relevant-label vectors")
    T = np.asarray(T, dtype=np.float64)
    Ybar = np.eye(F.shape[-1])[np.asarray(cl, dtype=np.int64)]
    Q = F @ T
    values, g_q = _bce(Q, Ybar)
    G = g_q @ T.swapaxes(-1, -2)
    if kind == "mlcl":
        R = Ybar - Q
        return values + beta * (R**2).sum(axis=-1), G + beta * (-2.0 * R @ T.swapaxes(-1, -2))
    R = np.asarray(relevant, dtype=np.float64) - F
    return values + (R**2).sum(axis=-1), G - 2.0 * R


# ---------------------------------------------------------------------------
# Batch objective: mean loss over a batch with parameter-space gradients.
# ---------------------------------------------------------------------------


def _chain_head(model: LinearModel, F: np.ndarray, G_f: np.ndarray) -> np.ndarray:
    """Gradient with respect to the logits, given dL/dF."""
    if model.head == "sigmoid":
        return G_f * F * (1.0 - F)
    inner = (G_f * F).sum(axis=-1, keepdims=True)
    return F * (G_f - inner)


def batch_objective(model: LinearModel, X, kind: str, **targets) -> tuple[float | np.ndarray, np.ndarray, np.ndarray]:
    """Mean loss over the batch X and its gradients (dW, db); `kind` and the
    keyword `targets` are those of `score_objective`.  For a stack of C
    models the mean is a (C,) array and the gradients are stacked like the
    parameters, each model's bit for bit its own."""
    F = forward(model, X)
    values, G_f = score_objective(F, kind, **targets)
    G_z = _chain_head(model, F, G_f) / F.shape[-2]
    if issparse(X):  # one (n, C*K) product, as in `forward`
        G_flat = G_z.swapaxes(0, -2).reshape(G_z.shape[-2], -1)
        gW = np.asarray(G_flat.T @ X).reshape(model.weights.shape)
    else:
        gW = np.matmul(G_z.swapaxes(-1, -2), X)
    gb = G_z.sum(axis=-2)
    return values.mean(axis=-1), gW, gb


# ---------------------------------------------------------------------------
# Finite-difference audit
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GradientCheckReport:
    max_rel_error: float
    worst_param: str
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_rel_error <= self.tolerance


def gradient_check(
    model: LinearModel,
    X,
    kind: str,
    tolerance: float = 1e-4,
    fd_eps: float = 1e-5,
    **loss_kwargs,
) -> GradientCheckReport:
    """Compare analytic parameter gradients against central finite differences.

    Checks every weight and bias coordinate; the worst coordinate is named in
    the report so a corrupted gradient is easy to localize.  A coordinate that
    misses the tolerance is measured again at a 100x smaller step before it
    counts, because a step that straddles a clamp boundary differences across
    the kink in the loss.
    """

    def rel_error(arr: np.ndarray, idx: tuple, analytic: float, step: float) -> float:
        orig = arr[idx]
        arr[idx] = orig + step
        up = batch_objective(model, X, kind, **loss_kwargs)[0]
        arr[idx] = orig - step
        down = batch_objective(model, X, kind, **loss_kwargs)[0]
        arr[idx] = orig
        numeric = (up - down) / (2.0 * step)
        return abs(numeric - analytic) / max(abs(numeric), abs(analytic), 1e-8)

    _, gW, gb = batch_objective(model, X, kind, **loss_kwargs)
    worst = ("", 0.0)
    for arr, grad, name in ((model.weights, gW, "W"), (model.bias, gb, "b")):
        for idx in np.ndindex(arr.shape):
            rel = rel_error(arr, idx, grad[idx], fd_eps)
            if rel > tolerance:
                rel = rel_error(arr, idx, grad[idx], fd_eps / 100)
            if rel > worst[1]:
                worst = (f"{name}[{', '.join(map(str, idx))}]", rel)
    return GradientCheckReport(max_rel_error=worst[1], worst_param=worst[0], tolerance=tolerance)

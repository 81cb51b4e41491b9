"""Loss functions and their analytic gradients.

Every per-instance loss returns the value together with its gradient with
respect to the score vector f; the batch helpers chain that gradient through
the model head to parameter space.  Log arguments are clamped to
[eps, 1 - eps] and the clamp is part of the differentiated graph (its
derivative is zero outside the interior), so analytic and finite-difference
gradients agree away from clamp boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import issparse
from .model import LinearModel, forward

__all__ = [
    "ClampPolicy",
    "DEFAULT_CLAMP",
    "LossValue",
    "one_hot",
    "bce_supervised",
    "cl_bce",
    "cl_mse",
    "mlcl_loss",
    "clrl_loss",
    "ce_softmax",
    "batch_objective",
    "gradient_check",
    "GradientCheckReport",
]


@dataclass(frozen=True)
class ClampPolicy:
    """Log-domain safety margin for probabilities."""

    epsilon: float = 1e-12

    def __post_init__(self):
        if not 0.0 < self.epsilon < 0.5:
            raise ValueError("epsilon must lie in (0, 0.5)")

    def clip(self, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Clamped values and the interior mask (where the clamp is inactive)."""
        p = np.asarray(p, dtype=np.float64)
        interior = (p > self.epsilon) & (p < 1.0 - self.epsilon)
        return np.clip(p, self.epsilon, 1.0 - self.epsilon), interior


DEFAULT_CLAMP = ClampPolicy()


@dataclass(frozen=True)
class LossValue:
    value: float
    grad_scores: np.ndarray  # dL/df, length K


def one_hot(index: int, n_labels: int) -> np.ndarray:
    v = np.zeros(n_labels)
    v[index] = 1.0
    return v


def _as_batch(a) -> np.ndarray:
    return np.atleast_2d(np.asarray(a, dtype=np.float64))


# ---------------------------------------------------------------------------
# Vectorized cores: rows of F against rows of targets.
# ---------------------------------------------------------------------------


def _bce_core(P: np.ndarray, Y: np.ndarray, clamp: ClampPolicy) -> tuple[np.ndarray, np.ndarray]:
    """Elementwise binary cross entropy of probabilities P against targets Y.

    Returns per-instance values and dL/dP.
    """
    Pc, interior = clamp.clip(P)
    values = -(Y * np.log(Pc) + (1.0 - Y) * np.log(1.0 - Pc)).sum(axis=1)
    grad = ((1.0 - Y) / (1.0 - Pc) - Y / Pc) * interior
    return values, grad


def _cl_bce_batch(T, F, Ybar, clamp):
    Q = F @ T
    values, gq = _bce_core(Q, Ybar, clamp)
    return values, gq @ T.T


def _cl_mse_batch(T, F, Ybar):
    R = Ybar - F @ T
    values = (R**2).sum(axis=1)
    return values, -2.0 * R @ T.T


def _ce_softmax_batch(F, cl_idx, clamp):
    n = F.shape[0]
    p = F[np.arange(n), cl_idx]
    pc, interior = clamp.clip(p)
    values = -np.log(pc)
    G = np.zeros_like(F)
    G[np.arange(n), cl_idx] = -interior.astype(np.float64) / pc
    return values, G


# ---------------------------------------------------------------------------
# Per-instance operations
# ---------------------------------------------------------------------------


def bce_supervised(f: np.ndarray, y: np.ndarray, clamp: ClampPolicy = DEFAULT_CLAMP) -> LossValue:
    """Binary cross entropy of sigmoid scores against the full relevance vector."""
    values, grad = _bce_core(_as_batch(f), _as_batch(y), clamp)
    return LossValue(float(values[0]), grad[0])


def cl_bce(T: np.ndarray, f: np.ndarray, ybar: np.ndarray, clamp: ClampPolicy = DEFAULT_CLAMP) -> LossValue:
    """Complementary BCE: scores are mapped through the transition (q = T^T f)
    and q is treated as the complementary-label probability vector."""
    values, grad = _cl_bce_batch(np.asarray(T, dtype=np.float64), _as_batch(f), _as_batch(ybar), clamp)
    return LossValue(float(values[0]), grad[0])


def cl_mse(T: np.ndarray, f: np.ndarray, ybar: np.ndarray) -> LossValue:
    """Squared-error regularizer ||ybar - T^T f||^2; no clamping."""
    values, grad = _cl_mse_batch(np.asarray(T, dtype=np.float64), _as_batch(f), _as_batch(ybar))
    return LossValue(float(values[0]), grad[0])


def mlcl_loss(
    T: np.ndarray, f: np.ndarray, ybar: np.ndarray, beta: float = 1.0, clamp: ClampPolicy = DEFAULT_CLAMP
) -> LossValue:
    """Complementary BCE plus beta times the squared-error regularizer."""
    if beta < 0:
        raise ValueError("beta must be nonnegative")
    a = cl_bce(T, f, ybar, clamp)
    b = cl_mse(T, f, ybar)
    return LossValue(a.value + beta * b.value, a.grad_scores + beta * b.grad_scores)


def clrl_loss(
    T: np.ndarray, f: np.ndarray, ybar: np.ndarray, ytilde: np.ndarray, clamp: ClampPolicy = DEFAULT_CLAMP
) -> LossValue:
    """Complementary BCE plus a squared-error pull of the scores toward the
    known relevant labels, ||ytilde - f||^2, over all coordinates."""
    ytilde = np.asarray(ytilde, dtype=np.float64)
    f = np.asarray(f, dtype=np.float64)
    a = cl_bce(T, f, ybar, clamp)
    r = ytilde - f
    return LossValue(a.value + float((r**2).sum()), a.grad_scores - 2.0 * r)


def ce_softmax(fbar: np.ndarray, ybar: np.ndarray, clamp: ClampPolicy = DEFAULT_CLAMP) -> LossValue:
    """Cross entropy of a softmax output against the complementary label."""
    fbar = _as_batch(fbar)
    cl_idx = np.asarray([int(np.argmax(ybar))])
    values, grad = _ce_softmax_batch(fbar, cl_idx, clamp)
    return LossValue(float(values[0]), grad[0])


# ---------------------------------------------------------------------------
# Batch objective: mean loss over a batch with parameter-space gradients.
# ---------------------------------------------------------------------------

LOSS_KINDS = ("bce_supervised", "cl_bce", "cl_mse", "mlcl", "clrl", "ce_softmax")


def _chain_head(model: LinearModel, F: np.ndarray, G_f: np.ndarray) -> np.ndarray:
    """Gradient with respect to the logits, given dL/dF."""
    if model.head == "sigmoid":
        return G_f * F * (1.0 - F)
    inner = (G_f * F).sum(axis=1, keepdims=True)
    return F * (G_f - inner)


def batch_objective(
    model: LinearModel,
    X,
    kind: str,
    *,
    y: np.ndarray | None = None,
    cl: np.ndarray | None = None,
    ybar: np.ndarray | None = None,
    relevant: np.ndarray | None = None,
    T: np.ndarray | None = None,
    beta: float = 1.0,
    clamp: ClampPolicy = DEFAULT_CLAMP,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Mean loss over the batch and its gradients (dW, db).

    `kind` selects the loss; `cl` holds complementary label indices where
    needed (or `ybar` their one-hot rows, which training loops build once),
    `y` full relevance targets, `relevant` partial relevant vectors.
    """
    if kind not in LOSS_KINDS:
        raise ValueError(f"unknown loss kind {kind!r}")
    F = forward(model, X)
    F = np.atleast_2d(F)
    n, K = F.shape

    if kind == "bce_supervised":
        values, G_f = _bce_core(F, np.asarray(y, dtype=np.float64), clamp)
    elif kind == "ce_softmax":
        values, G_f = _ce_softmax_batch(F, np.asarray(cl, dtype=np.int64), clamp)
    else:
        T = np.asarray(T, dtype=np.float64)
        Ybar = np.eye(K)[np.asarray(cl, dtype=np.int64)] if ybar is None else ybar
        if kind == "cl_bce":
            values, G_f = _cl_bce_batch(T, F, Ybar, clamp)
        elif kind == "cl_mse":
            values, G_f = _cl_mse_batch(T, F, Ybar)
        elif kind == "mlcl":
            v1, g1 = _cl_bce_batch(T, F, Ybar, clamp)
            v2, g2 = _cl_mse_batch(T, F, Ybar)
            values, G_f = v1 + beta * v2, g1 + beta * g2
        else:  # clrl
            if relevant is None:
                raise ValueError("clrl loss requires relevant-label vectors")
            Rel = np.asarray(relevant, dtype=np.float64)
            v1, g1 = _cl_bce_batch(T, F, Ybar, clamp)
            R = Rel - F
            values = v1 + (R**2).sum(axis=1)
            G_f = g1 - 2.0 * R

    G_z = _chain_head(model, F, G_f) / n
    Xm = X.tocsr() if issparse(X) else np.atleast_2d(np.asarray(X, dtype=np.float64))
    gW = np.asarray(G_z.T @ Xm)
    gb = G_z.sum(axis=0)
    return float(values.mean()), gW, gb


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
    the report so a corrupted gradient is easy to localize.
    """

    def value_at(m: LinearModel) -> float:
        return batch_objective(m, X, kind, **loss_kwargs)[0]

    _, gW, gb = batch_objective(model, X, kind, **loss_kwargs)
    worst = ("", 0.0)
    W, b = model.weights, model.bias
    for (arr, grad, name) in ((W, gW, "W"), (b, gb, "b")):
        it = np.ndindex(arr.shape)
        for idx in it:
            orig = arr[idx]
            arr[idx] = orig + fd_eps
            up = value_at(model)
            arr[idx] = orig - fd_eps
            down = value_at(model)
            arr[idx] = orig
            numeric = (up - down) / (2.0 * fd_eps)
            denom = max(abs(numeric), abs(grad[idx]), 1e-8)
            rel = abs(numeric - grad[idx]) / denom
            if rel > worst[1]:
                worst = (f"{name}[{', '.join(map(str, idx))}]", rel)
    return GradientCheckReport(max_rel_error=worst[1], worst_param=worst[0], tolerance=tolerance)

"""Loss functions and their analytic gradients.

The losses see scores alone.  One score-level core, `score_objective`,
returns every row's loss value together with its gradient with respect to
the scores F; `batch_objective` takes that gradient to parameter space
through `model.head_gradient` and `dataset.stack_gradient`.  Log
arguments are clamped to [CLAMP_EPS, 1 - CLAMP_EPS] and the clamp is part of
the differentiated graph (its derivative is zero outside the interior), so
analytic and finite-difference gradients agree away from clamp boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import stack_gradient
from .model import LinearModel, forward, head_gradient

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


def _bce(P: np.ndarray, pos: np.ndarray, with_values: bool) -> tuple[np.ndarray | None, np.ndarray]:
    """Row sums of the binary cross entropy of probabilities P against the
    0/1 targets whose 1s are the mask `pos`, and its derivative with respect
    to P.  A 0/1 target selects one of the two log terms, so each cell takes
    one log and one divide; the result is bit for bit that of the two-term
    form -(y log p + (1 - y) log(1 - p))."""
    Pc, interior = _clip(P)
    sel = np.where(pos, Pc, 1.0 - Pc)
    grad = np.where(pos, -1.0, 1.0) / sel * interior
    return (-np.log(sel).sum(axis=-1) if with_values else None), grad


def score_objective(
    F: np.ndarray,
    kind: str,
    *,
    y: np.ndarray | None = None,
    cl: np.ndarray | None = None,
    relevant: np.ndarray | None = None,
    T: np.ndarray | None = None,
    beta: float = 1.0,
    with_values: bool = True,
) -> tuple[np.ndarray | None, np.ndarray]:
    """Per-row loss values of the batch of scores F (n x K) and dL/dF; with
    `with_values` false the values are not computed and come back as None.

    F may also be a stack (C, n, K) of C models' scores on one batch, with T
    then a stack (C, K, K) of their transition matrices; every product is a
    batched `np.matmul`, one BLAS call per model, so each model's values and
    gradient are those of its own (n, K) batch, bit for bit.

    `cl` holds one complementary label index in [0, K) per row; ybar is its
    one-hot row.  The losses, per row f with q = T^T f:
    * bce_supervised: BCE of f against the relevance vector y, whose
      entries must be 0 or 1;
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
        y = np.asarray(y, dtype=np.float64)
        pos = y == 1.0
        binary = pos | (y == 0.0)
        if not binary.all():
            index = tuple(int(i) for i in np.argwhere(~binary)[0])
            raise ValueError(f"bce_supervised targets must be 0 or 1, got y{list(index)} = {float(y[index])!r}")
        return _bce(F, pos, with_values)
    cl = np.asarray(cl, dtype=np.int64)
    outside = np.flatnonzero((cl < 0) | (cl >= F.shape[-1]))
    if outside.size:
        raise ValueError(f"complementary labels must lie in [0, {F.shape[-1]}), got cl[{outside[0]}] = {cl[outside[0]]}")
    if kind == "ce_softmax":
        rows = np.arange(F.shape[-2])
        # a stack's gathered scores come out strided; a contiguous copy keeps
        # each candidate's mean on the pairwise summation of its own batch
        p, interior = _clip(np.ascontiguousarray(F[..., rows, cl]))
        G = np.zeros_like(F)
        G[..., rows, cl] = -interior.astype(np.float64) / p
        return (-np.log(p) if with_values else None), G
    if kind == "clrl" and relevant is None:
        raise ValueError("clrl loss requires relevant-label vectors")
    T = np.asarray(T, dtype=np.float64)
    Tt = np.ascontiguousarray(T.swapaxes(-1, -2))  # both gradient products take a contiguous T^T
    ybar = np.eye(F.shape[-1], dtype=bool)[cl]  # the one-hot rows, as a mask
    Q = F @ T
    values, g_q = _bce(Q, ybar, with_values)
    G = g_q @ Tt
    if kind == "mlcl":
        R = ybar - Q
        if with_values:
            values = values + beta * (R**2).sum(axis=-1)
        return values, G + beta * (-2.0 * R @ Tt)
    R = np.asarray(relevant, dtype=np.float64) - F
    if with_values:
        values = values + (R**2).sum(axis=-1)
    return values, G - 2.0 * R


# ---------------------------------------------------------------------------
# Batch objective: mean loss over a batch with parameter-space gradients.
# ---------------------------------------------------------------------------


def batch_objective(
    model: LinearModel, X, kind: str, *, with_values: bool = True, out: np.ndarray | None = None, **targets
) -> tuple[float | np.ndarray | None, np.ndarray, np.ndarray]:
    """Mean loss over the batch X and its gradients (dW, db); `kind`, the
    keyword `targets` and `with_values` are those of `score_objective`, and
    without values the mean is None.  For a stack of C models the mean is a
    (C,) array and the gradients are stacked like the parameters, each
    model's bit for bit its own.

    dW and db are views of one array that holds each model's weight rows with
    its bias as a last column, (..., K, d+1): `out` when given, else a new one.
    """
    F = forward(model, X)
    values, G_f = score_objective(F, kind, with_values=with_values, **targets)
    G_z = head_gradient(model, F, G_f) / F.shape[-2]
    d = model.n_features
    if out is None:
        out = np.empty(model.bias.shape + (d + 1,))
    gW, gb = out[..., :d], out[..., d]
    stack_gradient(G_z, X, gW)
    G_z.sum(axis=-2, out=gb)
    return (values.mean(axis=-1) if with_values else None), gW, gb


# ---------------------------------------------------------------------------
# Finite-difference audit
# ---------------------------------------------------------------------------

GRADIENT_TOLERANCE = 1e-4  # largest relative error gradient_check passes
FD_EPS = 1e-5  # gradient_check's central-difference step


@dataclass(frozen=True)
class GradientCheckReport:
    max_rel_error: float
    worst_param: str
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_rel_error <= self.tolerance


def gradient_check(model: LinearModel, X, kind: str, **loss_kwargs) -> GradientCheckReport:
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
            rel = rel_error(arr, idx, grad[idx], FD_EPS)
            if rel > GRADIENT_TOLERANCE:
                rel = rel_error(arr, idx, grad[idx], FD_EPS / 100)
            if rel > worst[1]:
                worst = (f"{name}[{', '.join(map(str, idx))}]", rel)
    return GradientCheckReport(max_rel_error=worst[1], worst_param=worst[0], tolerance=GRADIENT_TOLERANCE)

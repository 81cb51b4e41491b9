"""Adam optimization and the training loops.

Training is a pure function of (data, config, seed): the model init, the
epoch shuffles, and the update arithmetic are all driven by the config seed,
so reruns at a fixed BLAS thread count are bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dataset import ComplementaryDataset
from .dataset import MultiLabelDataset
from .loss import batch_objective
from .model import LinearModel, init_linear
from .transition import validate_transition

__all__ = [
    "TrainConfig",
    "AdamState",
    "NonFiniteGradientError",
    "init_adam",
    "adam_step",
    "TrainResult",
    "train_cl_predictor",
    "train_mlcl",
    "train_supervised",
    "train_clrl",
]

LEARNING_RATE_GRID = (1e-1, 1e-2, 1e-3)
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-2
    weight_decay: float = 1e-4
    batch_size: int = 256
    epochs: int = 200
    beta: float = 1.0
    seed: int = 0

    def __post_init__(self):
        # each check passes only on good values, since nan fails every comparison
        if not 0 < self.learning_rate < np.inf:
            raise ValueError(f"learning_rate must be positive and finite, got {self.learning_rate!r}")
        for name in ("weight_decay", "beta"):
            if not 0 <= getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be nonnegative and finite, got {getattr(self, name)!r}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be positive, got {self.batch_size!r}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be nonnegative, got {self.epochs!r}")


class NonFiniteGradientError(RuntimeError):
    """A gradient turned non-finite; the step is aborted with diagnostics."""


@dataclass
class AdamState:
    # one first and one second moment array per parameter, and the step count
    m: list[np.ndarray]
    v: list[np.ndarray]
    t: int = 0


def init_adam(params: list[np.ndarray]) -> AdamState:
    return AdamState(m=[np.zeros_like(p) for p in params], v=[np.zeros_like(p) for p in params])


def adam_step(
    params: list[np.ndarray],
    grads: list[np.ndarray],
    state: AdamState,
    cfg: TrainConfig,
) -> tuple[list[np.ndarray], AdamState]:
    """One bias-corrected Adam update with coupled L2 weight decay, written
    into the arrays of `params` and `state`, which are returned:

        g' = g + wd * p;  m = b1 * m + (1 - b1) * g';  v = b2 * v + (1 - b2) * g' * g'
        p = p - lr * (m / (1 - b1**t)) / (sqrt(v / (1 - b2**t)) + eps)

    Weight decay is added to the gradient before the moment updates.  Every
    gradient is checked before anything is written.
    """
    if not len(params) == len(grads) == len(state.m) == len(state.v):
        raise ValueError("params, grads, and state shapes disagree")
    for i, g in enumerate(grads):
        if not np.all(np.isfinite(g)):
            bad = np.argwhere(~np.isfinite(np.asarray(g)))[0]
            raise NonFiniteGradientError(
                f"non-finite gradient in parameter {i} at index {tuple(int(x) for x in bad)} (step {state.t + 1})"
            )
    state.t += 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    for p, g, m, v in zip(params, grads, state.m, state.v):
        g = g + cfg.weight_decay * p
        m[...] = b1 * m + (1.0 - b1) * g
        v[...] = b2 * v + (1.0 - b2) * g * g
        p -= cfg.learning_rate * (m / (1.0 - b1**state.t)) / (np.sqrt(v / (1.0 - b2**state.t)) + ADAM_EPS)
    return params, state


@dataclass
class TrainResult:
    model: LinearModel
    epoch_losses: list[float] = field(default_factory=list)


def _run_loop(ds, head: str, cfg: TrainConfig, kind: str, per_instance: dict, **fixed) -> TrainResult:
    """Shared minibatch loop for the loss `kind`.  Each batch gets the rows of
    the `per_instance` arrays it covers; the `fixed` arguments, prepared once
    per training call, go to every batch unchanged."""
    model = init_linear(ds.n_features, ds.n_labels, head, cfg.seed)
    params = [model.weights, model.bias]  # updated in place
    state = init_adam(params)
    shuffle_rng = np.random.default_rng((cfg.seed, 0xB0))
    curve: list[float] = []
    for _ in range(cfg.epochs):
        perm = shuffle_rng.permutation(ds.n_instances)
        epoch_loss = 0.0
        for start in range(0, ds.n_instances, cfg.batch_size):
            idx = perm[start : start + cfg.batch_size]
            rows = {name: a[idx] for name, a in per_instance.items()}
            value, gW, gb = batch_objective(model, ds.features[idx], kind, **rows, **fixed)
            adam_step(params, [gW, gb], state, cfg)
            epoch_loss += value * idx.size
        curve.append(epoch_loss / ds.n_instances)
    return TrainResult(model=model, epoch_losses=curve)


def train_cl_predictor(cds: ComplementaryDataset, cfg: TrainConfig) -> TrainResult:
    """Softmax predictor of the complementary label, trained with cross entropy."""
    return _run_loop(cds, "softmax", cfg, "ce_softmax", {"cl": cds.cl})


def train_mlcl(cds: ComplementaryDataset, T: np.ndarray, cfg: TrainConfig) -> TrainResult:
    """Sigmoid multi-label classifier trained on the transition-composed loss
    (complementary BCE plus cfg.beta times the squared-error regularizer)."""
    validate_transition(T)
    return _run_loop(cds, "sigmoid", cfg, "mlcl", {"cl": cds.cl}, T=np.asarray(T, dtype=np.float64), beta=cfg.beta)


def train_supervised(ds: MultiLabelDataset, cfg: TrainConfig) -> TrainResult:
    """Fully supervised sigmoid classifier under binary cross entropy."""
    return _run_loop(ds, "sigmoid", cfg, "bce_supervised", {"y": ds.y.astype(np.float64)})


def train_clrl(cds: ComplementaryDataset, T: np.ndarray, cfg: TrainConfig) -> TrainResult:
    """Training from one complementary label plus a partial relevant vector."""
    if cds.relevant is None:
        raise ValueError("clrl training requires relevant-label vectors on every instance")
    validate_transition(T)
    per_instance = {"cl": cds.cl, "relevant": cds.relevant.astype(np.float64)}
    return _run_loop(cds, "sigmoid", cfg, "clrl", per_instance, T=np.asarray(T, dtype=np.float64))

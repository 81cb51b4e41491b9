"""Adam optimization and the training loop.

Training is a pure function of (data, config, seed): the model init, the
epoch shuffles, and the update arithmetic are all driven by the config seed,
so reruns at a fixed BLAS thread count are bit-identical.

Every training is one loop over a stack of C >= 1 candidate models, one
per rate of cfg.learning_rates, stepped in lockstep on a leading candidate
axis; each model comes out bit for bit as its own training at that rate
would leave it, and a trainer returns one TrainResult per rate.  The rates
default to the grid LEARNING_RATE_GRID; a caller that wants one model sets
one rate, DEFAULT_LEARNING_RATE where it has no other.  A non-finite
gradient in any candidate fails the whole training; to learn which rate
fails first, train the rates one at a time.  A trainer called with
`curve=False` computes no loss value, only gradients, and its results carry
no curve.
"""

from __future__ import annotations

from collections.abc import Sequence
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
DEFAULT_LEARNING_RATE = 1e-2  # the one rate trained where none is selected
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass(frozen=True)
class TrainConfig:
    """The training hyperparameters.  A training trains one model per rate of
    `learning_rates`, by default the grid to select from; one rate gives one
    model."""

    learning_rates: tuple[float, ...] = LEARNING_RATE_GRID
    weight_decay: float = 1e-4
    batch_size: int = 256
    epochs: int = 200
    beta: float = 1.0
    seed: int = 0

    def __post_init__(self):
        # each check passes only on good values, since nan fails every comparison
        if not self.learning_rates:
            raise ValueError("learning_rates must hold at least one rate")
        for lr in self.learning_rates:
            if not 0 < lr < np.inf:
                raise ValueError(f"learning_rates must be positive and finite, got {lr!r}")
        for name in ("weight_decay", "beta"):
            if not 0 <= getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be nonnegative and finite, got {getattr(self, name)!r}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be positive, got {self.batch_size!r}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be nonnegative, got {self.epochs!r}")


class NonFiniteGradientError(RuntimeError):
    """A gradient, or after the last step a parameter, turned non-finite; the
    training is aborted with diagnostics."""


@dataclass
class AdamState:
    # the first and second moments, shaped like the parameter buffer, and the step count
    m: np.ndarray
    v: np.ndarray
    t: int = 0


def init_adam(P: np.ndarray) -> AdamState:
    return AdamState(m=np.zeros_like(P), v=np.zeros_like(P))


def adam_step(
    P: np.ndarray,
    G: np.ndarray,
    state: AdamState,
    cfg: TrainConfig,
    learning_rates: np.ndarray,
    named: Sequence[np.ndarray] | None = None,
) -> tuple[np.ndarray, AdamState]:
    """One bias-corrected Adam update with coupled L2 weight decay, written
    into the parameter buffer P and the arrays of `state`, which are returned:

        g' = g + wd * p;  m = b1 * m + (1 - b1) * g';  v = b2 * v + (1 - b2) * g' * g'
        p = p - lr * (m / (1 - b1**t)) / (sqrt(v / (1 - b2**t)) + eps)

    Weight decay is added to the gradient before the moment updates.  P and
    its gradient G carry a leading axis of C candidates, and candidate c
    steps at `learning_rates[c]`, a (C,) array.  G is checked before anything
    is written; the error names the first parameter with a non-finite entry,
    and that entry's index within its candidate.  Views `named` that cover G
    (by default G itself) count the parameters, so the one buffer can hold
    several named parameters.
    """
    if not np.isfinite(G).all():
        i, g = next((i, g) for i, g in enumerate((G,) if named is None else named) if not np.isfinite(g).all())
        bad = np.argwhere(~np.isfinite(g))[0][1:]  # the leading coordinate is the candidate's
        raise NonFiniteGradientError(
            f"non-finite gradient in parameter {i} at index {tuple(int(x) for x in bad)} (step {state.t + 1})"
        )
    state.t += 1
    b1, b2, m, v = ADAM_BETA1, ADAM_BETA2, state.m, state.v
    lr = learning_rates.reshape((-1,) + (1,) * (P.ndim - 1))
    g = G + cfg.weight_decay * P
    m *= b1
    m += (1.0 - b1) * g
    v *= b2
    v += (1.0 - b2) * g * g
    P -= lr * (m / (1.0 - b1**state.t)) / (np.sqrt(v / (1.0 - b2**state.t)) + ADAM_EPS)
    return P, state


@dataclass
class TrainResult:
    model: LinearModel
    epoch_losses: list[float] = field(default_factory=list)


def _run_loop(
    ds, head: str, cfg: TrainConfig, kind: str, per_instance: dict, curve: bool, T=None, **fixed
) -> list[TrainResult]:
    """The minibatch loop for the loss `kind`, one candidate per rate of
    cfg.learning_rates.  Each batch gets the rows of the `per_instance`
    arrays it covers; the `fixed` arguments, prepared once per training
    call, go to every batch unchanged.  T, when given, is a (K, K) matrix
    shared by every candidate or a (C, K, K) stack, one per candidate, where
    K is the data's label count; each is checked.  With `curve` false no
    loss value is computed and every result's `epoch_losses` is empty.

    Every candidate starts from the one initialisation, and all step in
    lockstep on the same batches: the parameters, the Adam moments and T
    carry a leading candidate axis.  The parameters are one (C, K, d+1)
    buffer, each model's weight rows with its bias as a last column; W and b
    are views of it, the gradients fill one buffer of the same shape, and
    Adam steps the whole buffer at once.
    """
    rates = np.array(cfg.learning_rates, dtype=np.float64)
    if T is not None:
        T = np.asarray(T, dtype=np.float64)
        if T.shape[-2:] != (ds.n_labels, ds.n_labels):
            raise ValueError(f"transition has shape {T.shape}, but the data have {ds.n_labels} labels")
        fixed["T"] = np.broadcast_to(T, (rates.size, *T.shape[-2:]))
        for t in fixed["T"]:
            validate_transition(t)
    d = ds.n_features
    init = init_linear(d, ds.n_labels, head, cfg.seed)
    P = np.repeat(np.concatenate([init.weights, init.bias[:, None]], axis=1)[None], rates.size, axis=0)
    G = np.empty_like(P)
    model = LinearModel(P[..., :d], P[..., d], head)  # views: Adam's updates of P reach the model
    state = init_adam(P)
    shuffle_rng = np.random.default_rng((cfg.seed, 0xB0))
    losses = []
    # a diverging step overflows quietly: the next gradient check, or the
    # parameter check after the last step, reports it
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(cfg.epochs):
            perm = shuffle_rng.permutation(ds.n_instances)
            epoch_loss = np.zeros(rates.size)
            for start in range(0, ds.n_instances, cfg.batch_size):
                idx = perm[start : start + cfg.batch_size]
                rows = {name: a[idx] for name, a in per_instance.items()}
                value, gW, gb = batch_objective(model, ds.features[idx], kind, with_values=curve, out=G, **rows, **fixed)
                adam_step(P, G, state, cfg, rates, named=(gW, gb))
                if curve:
                    epoch_loss += value * idx.size
            if curve:
                losses.append(epoch_loss / ds.n_instances)
    if not np.isfinite(P).all():
        raise NonFiniteGradientError(f"non-finite parameters after step {state.t}")
    return [
        TrainResult(LinearModel(P[c, :, :d], P[c, :, d], head), [float(e[c]) for e in losses])
        for c in range(rates.size)
    ]


def train_cl_predictor(cds: ComplementaryDataset, cfg: TrainConfig, curve: bool = True) -> list[TrainResult]:
    """Softmax predictor of the complementary label, trained with cross entropy."""
    return _run_loop(cds, "softmax", cfg, "ce_softmax", {"cl": cds.cl}, curve)


def train_mlcl(cds: ComplementaryDataset, T: np.ndarray, cfg: TrainConfig, curve: bool = True) -> list[TrainResult]:
    """Sigmoid multi-label classifier trained on the transition-composed loss
    (complementary BCE plus cfg.beta times the squared-error regularizer)."""
    return _run_loop(cds, "sigmoid", cfg, "mlcl", {"cl": cds.cl}, curve, T=T, beta=cfg.beta)


def train_supervised(ds: MultiLabelDataset, cfg: TrainConfig, curve: bool = True) -> list[TrainResult]:
    """Fully supervised sigmoid classifier under binary cross entropy."""
    return _run_loop(ds, "sigmoid", cfg, "bce_supervised", {"y": ds.y.astype(np.float64)}, curve)


def train_clrl(cds: ComplementaryDataset, T: np.ndarray, cfg: TrainConfig, curve: bool = True) -> list[TrainResult]:
    """Training from one complementary label plus a partial relevant vector."""
    if cds.relevant is None:
        raise ValueError("clrl training requires relevant-label vectors on every instance")
    per_instance = {"cl": cds.cl, "relevant": cds.relevant.astype(np.float64)}
    return _run_loop(cds, "sigmoid", cfg, "clrl", per_instance, curve, T=T)

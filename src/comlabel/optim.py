"""Adam optimization and the training loop.

Training is a pure function of (data, config, seed): the model init, the
epoch shuffles, and the update arithmetic are all driven by the config seed,
so reruns at a fixed BLAS thread count are bit-identical.

Every training is one loop over a stack of C >= 1 candidate models, one
per learning rate, stepped in lockstep on a leading candidate axis; each
model comes out bit for bit as its own training at that rate would leave it.
A trainer given `learning_rates` returns one TrainResult per rate; without
them it trains at cfg.learning_rate alone, as a one-candidate stack, and
returns that model's TrainResult.  A non-finite gradient in any candidate
fails the whole training; to learn which rate fails first, train the rates
one at a time.  A trainer called with `curve=False` computes no loss value,
only gradients, and its results carry no curve.
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
    learning_rates: np.ndarray,
    named: Sequence[np.ndarray] | None = None,
) -> tuple[list[np.ndarray], AdamState]:
    """One bias-corrected Adam update with coupled L2 weight decay, written
    into the arrays of `params` and `state`, which are returned:

        g' = g + wd * p;  m = b1 * m + (1 - b1) * g';  v = b2 * v + (1 - b2) * g' * g'
        p = p - lr * (m / (1 - b1**t)) / (sqrt(v / (1 - b2**t)) + eps)

    Weight decay is added to the gradient before the moment updates.  Every
    array carries a leading axis of C candidates, and candidate c steps at
    `learning_rates[c]`, a (C,) array.  Every gradient is checked before
    anything is written; the error names the first parameter with a
    non-finite entry, and that entry's index within its candidate.  Views
    `named` that cover `grads` (by default `grads` itself) count the
    parameters, so one buffer can hold several named parameters.
    """
    if not len(params) == len(grads) == len(state.m) == len(state.v):
        raise ValueError("params, grads, and state shapes disagree")
    if not all(np.isfinite(g).all() for g in grads):
        i, g = next((i, g) for i, g in enumerate(grads if named is None else named) if not np.isfinite(g).all())
        bad = np.argwhere(~np.isfinite(g))[0][1:]  # the leading coordinate is the candidate's
        raise NonFiniteGradientError(
            f"non-finite gradient in parameter {i} at index {tuple(int(x) for x in bad)} (step {state.t + 1})"
        )
    state.t += 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    for p, g, m, v in zip(params, grads, state.m, state.v):
        lr = learning_rates.reshape((-1,) + (1,) * (p.ndim - 1))
        g = g + cfg.weight_decay * p
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        p -= lr * (m / (1.0 - b1**state.t)) / (np.sqrt(v / (1.0 - b2**state.t)) + ADAM_EPS)
    return params, state


@dataclass
class TrainResult:
    model: LinearModel
    epoch_losses: list[float] = field(default_factory=list)


Rates = Sequence[float] | None


def _run_loop(
    ds, head: str, cfg: TrainConfig, kind: str, per_instance: dict, rates: np.ndarray, curve: bool, **fixed
) -> list[TrainResult]:
    """The minibatch loop for the loss `kind`.  Each batch gets the rows of
    the `per_instance` arrays it covers; the `fixed` arguments, prepared once
    per training call, go to every batch unchanged.  With `curve` false no
    loss value is computed and every result's `epoch_losses` is empty.

    One candidate per entry of `rates` starts from the one initialisation,
    and all step in lockstep on the same batches: the parameters, the Adam
    moments and a `fixed` T, (C, K, K), carry a leading candidate axis.  The
    parameters are one (C, K, d+1) buffer, each model's weight rows with its
    bias as a last column; W and b are views of it, the gradients fill one
    buffer of the same shape, and Adam steps the whole buffer at once.
    """
    d = ds.n_features
    init = init_linear(d, ds.n_labels, head, cfg.seed)
    P = np.repeat(np.concatenate([init.weights, init.bias[:, None]], axis=1)[None], rates.size, axis=0)
    G = np.empty_like(P)
    model = LinearModel(P[..., :d], P[..., d], head)  # views: Adam's updates of P reach the model
    state = init_adam([P])
    shuffle_rng = np.random.default_rng((cfg.seed, 0xB0))
    losses = []
    for _ in range(cfg.epochs):
        perm = shuffle_rng.permutation(ds.n_instances)
        epoch_loss = np.zeros(rates.size)
        for start in range(0, ds.n_instances, cfg.batch_size):
            idx = perm[start : start + cfg.batch_size]
            rows = {name: a[idx] for name, a in per_instance.items()}
            value, gW, gb = batch_objective(model, ds.features[idx], kind, with_values=curve, out=G, **rows, **fixed)
            adam_step([P], [G], state, cfg, rates, named=(gW, gb))
            if curve:
                epoch_loss += value * idx.size
        if curve:
            losses.append(epoch_loss / ds.n_instances)
    return [
        TrainResult(LinearModel(P[c, :, :d], P[c, :, d], head), [float(e[c]) for e in losses])
        for c in range(rates.size)
    ]


def _train(
    ds, head: str, cfg: TrainConfig, kind: str, per_instance: dict, learning_rates: Rates, curve: bool, T=None, **fixed
):
    """Run `_run_loop` at `learning_rates`, with T, when given, a checked
    (C, K, K) stack, and return its results.  Without rates, train at
    cfg.learning_rate alone, as a stack of one with T (K, K) stacked, and
    return its one TrainResult: the one place a training is single or
    stacked."""
    single = learning_rates is None
    rates = np.array([cfg.learning_rate] if single else learning_rates, dtype=np.float64)
    if T is not None:
        T = np.asarray(T, dtype=np.float64)
        fixed["T"] = T[None] if single else T
        for t in fixed["T"]:
            validate_transition(t)
    results = _run_loop(ds, head, cfg, kind, per_instance, rates, curve, **fixed)
    return results[0] if single else results


def train_cl_predictor(
    cds: ComplementaryDataset, cfg: TrainConfig, learning_rates: Rates = None, curve: bool = True
) -> TrainResult | list[TrainResult]:
    """Softmax predictor of the complementary label, trained with cross entropy."""
    return _train(cds, "softmax", cfg, "ce_softmax", {"cl": cds.cl}, learning_rates, curve)


def train_mlcl(
    cds: ComplementaryDataset, T: np.ndarray, cfg: TrainConfig, learning_rates: Rates = None, curve: bool = True
) -> TrainResult | list[TrainResult]:
    """Sigmoid multi-label classifier trained on the transition-composed loss
    (complementary BCE plus cfg.beta times the squared-error regularizer)."""
    return _train(cds, "sigmoid", cfg, "mlcl", {"cl": cds.cl}, learning_rates, curve, T=T, beta=cfg.beta)


def train_supervised(
    ds: MultiLabelDataset, cfg: TrainConfig, learning_rates: Rates = None, curve: bool = True
) -> TrainResult | list[TrainResult]:
    """Fully supervised sigmoid classifier under binary cross entropy."""
    return _train(ds, "sigmoid", cfg, "bce_supervised", {"y": ds.y.astype(np.float64)}, learning_rates, curve)


def train_clrl(
    cds: ComplementaryDataset, T: np.ndarray, cfg: TrainConfig, learning_rates: Rates = None, curve: bool = True
) -> TrainResult | list[TrainResult]:
    """Training from one complementary label plus a partial relevant vector."""
    if cds.relevant is None:
        raise ValueError("clrl training requires relevant-label vectors on every instance")
    per_instance = {"cl": cds.cl, "relevant": cds.relevant.astype(np.float64)}
    return _train(cds, "sigmoid", cfg, "clrl", per_instance, learning_rates, curve, T=T)

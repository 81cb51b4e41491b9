"""Adam optimization and the training loop.

Training is a pure function of (data, config, seed): the model init, the
epoch shuffles, and the update arithmetic are all driven by the config seed,
so reruns at a fixed BLAS thread count are bit-identical.

Every trainer also takes `learning_rates`: it then trains one model per
rate in lockstep, on a leading candidate axis, and each model comes out bit
for bit as its own training at that rate would leave it.  It returns their
`Lockstep` outcome in place of one TrainResult.
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
    """A gradient turned non-finite; the step is aborted with diagnostics.
    `candidate` is the position of the failing model in a lockstep stack."""

    def __init__(self, message: str, candidate: int = 0):
        super().__init__(message)
        self.candidate = candidate


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
    learning_rates: np.ndarray | None = None,
) -> tuple[list[np.ndarray], AdamState]:
    """One bias-corrected Adam update with coupled L2 weight decay, written
    into the arrays of `params` and `state`, which are returned:

        g' = g + wd * p;  m = b1 * m + (1 - b1) * g';  v = b2 * v + (1 - b2) * g' * g'
        p = p - lr * (m / (1 - b1**t)) / (sqrt(v / (1 - b2**t)) + eps)

    Weight decay is added to the gradient before the moment updates.  With
    `learning_rates`, C rates, every array carries a leading axis of C
    candidates and candidate c steps at rate c; otherwise lr is
    cfg.learning_rate.  Every gradient is checked before anything is
    written; the error names the first candidate with a non-finite entry,
    and its parameter and index within that candidate.
    """
    if not len(params) == len(grads) == len(state.m) == len(state.v):
        raise ValueError("params, grads, and state shapes disagree")
    if not all(np.isfinite(g).all() for g in grads):
        stacks = grads if learning_rates is not None else [g[None] for g in grads]  # (C, ...) each
        finite = np.array([np.isfinite(g).reshape(len(g), -1).all(axis=1) for g in stacks])  # (param, C)
        c = int(np.flatnonzero(~finite.all(axis=0))[0])
        i = int(np.flatnonzero(~finite[:, c])[0])
        bad = np.argwhere(~np.isfinite(stacks[i][c]))[0]
        raise NonFiniteGradientError(
            f"non-finite gradient in parameter {i} at index {tuple(int(x) for x in bad)} (step {state.t + 1})", c
        )
    state.t += 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    for p, g, m, v in zip(params, grads, state.m, state.v):
        lr = cfg.learning_rate if learning_rates is None else learning_rates.reshape((-1,) + (1,) * (p.ndim - 1))
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


# A lockstep training's outcome: the results of the candidates that finished,
# in order, and the error that stopped the next one, or None.
Lockstep = tuple[list[TrainResult], NonFiniteGradientError | None]
Rates = Sequence[float] | None


def _run_loop(
    ds, head: str, cfg: TrainConfig, kind: str, per_instance: dict, learning_rates: Rates = None, **fixed
) -> TrainResult | Lockstep:
    """The minibatch loop for the loss `kind`.  Each batch gets the rows of
    the `per_instance` arrays it covers; the `fixed` arguments, prepared once
    per training call, go to every batch unchanged.  Returns a TrainResult.

    With `learning_rates`, C rates, C candidates start from the one
    initialisation and step in lockstep on the same batches: the parameters,
    the Adam moments and a `fixed` T, then (C, K, K), carry a leading
    candidate axis.  A candidate whose gradient turns non-finite stops there
    with its error, and so does every candidate after it, since a run
    through the rates in order would not reach them; those before it run on.
    Returns their Lockstep outcome.
    """
    model = init_linear(ds.n_features, ds.n_labels, head, cfg.seed)
    rates, error = None, None
    if learning_rates is not None:
        rates = np.array(learning_rates, dtype=np.float64)
        model = LinearModel(*(np.repeat(p[None], rates.size, axis=0) for p in (model.weights, model.bias)), head)
    W, b = model.weights, model.bias  # updated in place, through the views of any later model
    params = [W, b]
    state = init_adam(params)
    shuffle_rng = np.random.default_rng((cfg.seed, 0xB0))
    curve = []
    for _ in range(cfg.epochs):
        perm = shuffle_rng.permutation(ds.n_instances)
        epoch_loss = np.zeros(np.shape(rates))
        for start in range(0, ds.n_instances, cfg.batch_size):
            idx = perm[start : start + cfg.batch_size]
            rows = {name: a[idx] for name, a in per_instance.items()}
            value, gW, gb = batch_objective(model, ds.features[idx], kind, **rows, **fixed)
            try:
                adam_step(params, [gW, gb], state, cfg, rates)
            except NonFiniteGradientError as exc:
                if rates is None:
                    raise
                error, live = exc, exc.candidate
                if live == 0:
                    return [], error
                model = LinearModel(model.weights[:live], model.bias[:live], head)
                params = [model.weights, model.bias]
                state.m, state.v = [m[:live] for m in state.m], [v[:live] for v in state.v]
                rates, value, gW, gb = rates[:live], value[:live], gW[:live], gb[:live]
                epoch_loss = epoch_loss[:live]
                if "T" in fixed:
                    fixed["T"] = fixed["T"][:live]
                adam_step(params, [gW, gb], state, cfg, rates)
            epoch_loss += value * idx.size
        curve.append(epoch_loss / ds.n_instances)
    if rates is None:
        return TrainResult(model=model, epoch_losses=[float(e) for e in curve])
    results = [
        TrainResult(LinearModel(W[c], b[c], head), [float(e[c]) for e in curve]) for c in range(rates.size)
    ]
    return results, error


def _transitions(T, learning_rates: Rates) -> np.ndarray:
    """T as float64 and checked; with `learning_rates`, a stack (C, K, K) of
    one matrix per rate."""
    T = np.asarray(T, dtype=np.float64)
    for t in T if learning_rates is not None else [T]:
        validate_transition(t)
    return T


def train_cl_predictor(
    cds: ComplementaryDataset, cfg: TrainConfig, learning_rates: Rates = None
) -> TrainResult | Lockstep:
    """Softmax predictor of the complementary label, trained with cross entropy."""
    return _run_loop(cds, "softmax", cfg, "ce_softmax", {"cl": cds.cl}, learning_rates)


def train_mlcl(
    cds: ComplementaryDataset, T: np.ndarray, cfg: TrainConfig, learning_rates: Rates = None
) -> TrainResult | Lockstep:
    """Sigmoid multi-label classifier trained on the transition-composed loss
    (complementary BCE plus cfg.beta times the squared-error regularizer)."""
    T = _transitions(T, learning_rates)
    return _run_loop(cds, "sigmoid", cfg, "mlcl", {"cl": cds.cl}, learning_rates, T=T, beta=cfg.beta)


def train_supervised(ds: MultiLabelDataset, cfg: TrainConfig, learning_rates: Rates = None) -> TrainResult | Lockstep:
    """Fully supervised sigmoid classifier under binary cross entropy."""
    return _run_loop(ds, "sigmoid", cfg, "bce_supervised", {"y": ds.y.astype(np.float64)}, learning_rates)


def train_clrl(
    cds: ComplementaryDataset, T: np.ndarray, cfg: TrainConfig, learning_rates: Rates = None
) -> TrainResult | Lockstep:
    """Training from one complementary label plus a partial relevant vector."""
    if cds.relevant is None:
        raise ValueError("clrl training requires relevant-label vectors on every instance")
    T = _transitions(T, learning_rates)
    per_instance = {"cl": cds.cl, "relevant": cds.relevant.astype(np.float64)}
    return _run_loop(cds, "sigmoid", cfg, "clrl", per_instance, learning_rates, T=T)

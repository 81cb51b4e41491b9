"""Experiment orchestration: cross-validated runs, ablations, sweeps, and
theory checks, reporting CSV only.

The transition matrix is read from a file or estimated on the training fold
alone; test folds feed nothing but the final evaluation.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .complementary import attach_relevant_subset, corrupt_biased, corrupt_uniform
from .dataset import (
    MIN_LABELS,
    ComplementaryDataset,
    FoldSplit,
    MultiLabelDataset,
    kfold_split,
    make_exclusive_spec,
    normalize_features,
    parse_multilabel_file,
    preprocess_topk_labels,
    sample_from_generative,
)
from .metrics import MetricsReport, evaluate_all
from .model import LinearModel, forward
from .optim import DEFAULT_LEARNING_RATE, TrainConfig, TrainResult, train_cl_predictor, train_clrl, train_mlcl, train_supervised
from .theory import (
    corollary3_bound,
    grid_scenarios,
    random_generative_spec,
    random_posterior,
    scenario_distortion,
    theorem1_gap,
)
from .transition import estimate_transition, uniform_transition
from .workers import WorkerExit, run_shares, usable_cpus

__all__ = [
    "RunConfig",
    "AggregateReport",
    "TheoryCheckFailure",
    "corrupt",
    "estimate_step",
    "fit_regime",
    "run_cv",
    "run_ablation",
    "sweep_beta",
    "run_clrl",
    "run_theory",
    "consistency_experiment",
    "write_report",
    "write_sweep_csv",
    "write_clrl_csv",
    "write_curve",
    "write_theory_csv",
]

CORRUPTION_MODES = ("uniform", "biased")
REGIMES = ("cl", "clrl", "supervised")
CONSISTENCY_GAP = 0.05  # largest test hamming-loss gap the consistency check accepts
# the consistency check's exclusive-label sample and its training
CONSISTENCY_LABELS, CONSISTENCY_FEATURES, CONSISTENCY_TRAIN, CONSISTENCY_TEST = 5, 10, 5000, 1000
CONSISTENCY_SEED, CONSISTENCY_EPOCHS = 7, 200


@dataclass(frozen=True)
class RunConfig:
    """One cross-validated run.

    One rate in train.learning_rates trains every fold at it; several (by
    default the grid {1e-1, 1e-2, 1e-3}) are trained in lockstep on a 10%
    validation split of each training fold (stratified by complementary
    label), and the fold is fitted at the one with the best average
    precision.  transition=None estimates T on each training fold; a (K, K)
    matrix, such as one read from a file or uniform_transition(K), is the T
    every fold uses, so it cannot be combined with no_correlation, which
    changes the estimate.  The matrix takes no part in comparing configs.
    The squared-error regulariser is dropped by train.beta = 0.
    """

    data_path: str | Path
    corruption: str = "uniform"
    regime: str = "cl"
    folds: int = 10
    max_labels: int = 15
    normalize: bool = False
    train: TrainConfig = field(default_factory=TrainConfig)
    no_correlation: bool = False
    transition: np.ndarray | None = field(default=None, compare=False)
    relevant_count: int = 1

    def __post_init__(self):
        if self.corruption not in CORRUPTION_MODES:
            raise ValueError(f"corruption must be one of {CORRUPTION_MODES}")
        if self.regime not in REGIMES:
            raise ValueError(f"regime must be one of {REGIMES}")
        if self.folds < 2:
            raise ValueError(f"folds must be at least 2, got {self.folds!r}")
        if self.max_labels < MIN_LABELS:
            raise ValueError(f"max_labels must be at least {MIN_LABELS}, got {self.max_labels!r}")
        if self.relevant_count < 1:
            raise ValueError(f"relevant_count must be at least 1, got {self.relevant_count!r}")
        if self.no_correlation and self.transition is not None:
            raise ValueError("no_correlation changes the estimate of T, so it cannot take a transition")


@dataclass(frozen=True)
class AggregateReport:
    """Per-fold metric reports with mean and sample (n-1) standard deviation."""

    fold_reports: tuple[MetricsReport, ...]

    def __post_init__(self):
        if not self.fold_reports:
            raise ValueError("empty fold list")

    def mean(self, name: str) -> float:
        return float(np.mean([getattr(r, name) for r in self.fold_reports]))

    def std(self, name: str) -> float:
        vals = [getattr(r, name) for r in self.fold_reports]
        return float(np.std(vals, ddof=1)) if len(vals) > 1 else 0.0

    def summary(self) -> dict[str, tuple[float, float]]:
        return {name: (self.mean(name), self.std(name)) for name in MetricsReport.METRIC_NAMES}


# ---------------------------------------------------------------------------
# Fold pipeline
# ---------------------------------------------------------------------------


def corrupt(ds: MultiLabelDataset, mode: str, seed: int, relevant: int | None = None) -> ComplementaryDataset:
    """Give each instance one complementary label drawn by the `mode` sampler;
    with `relevant`, also attach that many of its true labels, drawn from a
    seed offset from `seed`."""
    cds, record = (corrupt_uniform if mode == "uniform" else corrupt_biased)(ds, seed)
    if relevant is not None:
        cds = attach_relevant_subset(cds, record, relevant, seed + 0xA7)
    return cds


def _stratified_validation_split(cds: ComplementaryDataset, fraction: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Hold out `fraction` of instances, stratified by complementary label."""
    rng = np.random.default_rng(seed)
    val: list[int] = []
    for label in range(cds.n_labels):
        members = np.flatnonzero(cds.cl == label)
        if members.size == 0:
            continue
        take = max(1, int(round(members.size * fraction))) if members.size > 1 else 0
        chosen = rng.permutation(members)[:take]
        val.extend(int(i) for i in chosen)
    val_idx = np.sort(np.asarray(val, dtype=np.int64))
    train_idx = np.setdiff1d(np.arange(cds.n_instances), val_idx)
    return train_idx, val_idx


def _subset_cds(cds: ComplementaryDataset, idx: np.ndarray) -> ComplementaryDataset:
    rel = None if cds.relevant is None else cds.relevant[idx]
    return ComplementaryDataset(cds.features[idx], cds.cl[idx], cds.n_labels, relevant=rel)


def estimate_step(
    cds: ComplementaryDataset, base: TrainConfig, no_correlation: bool = False, curve: bool = False
) -> tuple[np.ndarray, list[TrainResult]]:
    """Step one of the method at each of base.learning_rates: the CL
    predictor, then T estimated from it, with the correlation correction
    unless `no_correlation`.  Returns the (C, K, K) stack of estimates and the
    predictors' results."""
    predictors = train_cl_predictor(cds, base, curve)
    T = np.stack([estimate_transition(cds, r.model, use_correlation=not no_correlation) for r in predictors])
    return T, predictors


def fit_regime(
    data, regime: str, base: TrainConfig, transition: np.ndarray | None = None, no_correlation: bool = False, curve: bool = False
) -> tuple[list[TrainResult], np.ndarray | None]:
    """Train `regime` on `data` at each of base.learning_rates, stepping the
    rates in lockstep, and return the results with the T they trained
    through.  supervised trains on a MultiLabelDataset and has no T; cl and
    clrl train on a ComplementaryDataset through `transition` when given,
    else through estimate_step's estimates from `data`.  A failure at any
    rate fails the whole call."""
    if regime == "supervised":
        return train_supervised(data, base, curve), None
    T = transition if transition is not None else estimate_step(data, base, no_correlation)[0]
    return (train_mlcl if regime == "cl" else train_clrl)(data, T, base, curve), T


def _train_grid(
    cds: ComplementaryDataset, train_ds: MultiLabelDataset, cfg: RunConfig, base: TrainConfig
) -> list[LinearModel]:
    """The fold's models from fit_regime in the configured regime; nothing
    here reads a loss curve, so none is computed."""
    data = train_ds if cfg.regime == "supervised" else cds
    return [r.model for r in fit_regime(data, cfg.regime, base, cfg.transition, cfg.no_correlation)[0]]


def select_learning_rate(
    cds: ComplementaryDataset, train_ds: MultiLabelDataset, cfg: RunConfig, base: TrainConfig
) -> float:
    """Pick the rate of base.learning_rates with the best validation average
    precision, or DEFAULT_LEARNING_RATE when the fold is too small to split.

    The validation slice's ground truth comes from the fold's fully labeled
    half; it serves model selection only and never enters training.  If the
    lockstep training fails, the rates are trained and scored one at a time,
    in order, and the first to fail alone raises its error; if none does,
    the lockstep's error is raised.
    """
    fit_idx, val_idx = _stratified_validation_split(cds, 0.1, base.seed + 0x5E1)
    if val_idx.size == 0 or fit_idx.size == 0:
        return DEFAULT_LEARNING_RATE
    fit_cds = _subset_cds(cds, fit_idx)
    # cds carries train_ds's features, so fit_cds already holds the fit rows
    fit_ds = MultiLabelDataset(fit_cds.features, train_ds.y[fit_idx])
    val_X, val_y = train_ds.features[val_idx], train_ds.y[val_idx]

    def score(model: LinearModel) -> float:
        return evaluate_all(forward(model, val_X), val_y).average_precision

    try:
        aps = [score(model) for model in _train_grid(fit_cds, fit_ds, cfg, base)]
    except Exception:
        for lr in base.learning_rates:
            (model,) = _train_grid(fit_cds, fit_ds, cfg, replace(base, learning_rates=(lr,)))
            score(model)
        raise
    best_lr, best_ap = None, -np.inf
    for lr, ap in zip(base.learning_rates, aps):
        if ap > best_ap:
            best_lr, best_ap = lr, ap
    return best_lr


def fit_fold(train_ds: MultiLabelDataset, cfg: RunConfig, fold_index: int):
    """Fit one fold from its training split alone.

    Returns (model, scaler); the scaler is None unless feature normalization
    is on.  Nothing here ever sees a test instance, which is what makes the
    leakage audit in the test suite a structural fact rather than a hope.
    """
    scaler = None
    if cfg.normalize:
        train_ds, scaler = normalize_features(train_ds)
    fold_seed = cfg.train.seed + fold_index
    tcfg = replace(cfg.train, seed=fold_seed)

    cds = corrupt(train_ds, cfg.corruption, fold_seed, cfg.relevant_count if cfg.regime == "clrl" else None)

    if len(tcfg.learning_rates) > 1:
        tcfg = replace(tcfg, learning_rates=(select_learning_rate(cds, train_ds, cfg, tcfg),))
    (model,) = _train_grid(cds, train_ds, cfg, tcfg)
    return model, scaler


def _run_fold(fold: FoldSplit, cfg: RunConfig) -> MetricsReport:
    model, scaler = fit_fold(fold.train, cfg, fold.fold_index)
    test_ds = scaler.apply(fold.test) if scaler is not None else fold.test
    return evaluate_all(forward(model, test_ds.features), test_ds.y)


def check_relevant_count(ds: MultiLabelDataset, relevant_count: int) -> None:
    """Refuse a relevant_count above the label count of some instance of
    `ds`, a data set after label filtering."""
    sizes = ds.y.sum(axis=1)
    short = np.flatnonzero(sizes < relevant_count)
    if short.size:
        i = short[0]
        raise ValueError(f"relevant_count must be at most the {sizes[i]} labels of instance {i} after label filtering, got {relevant_count}")


def _load_and_fold(cfg: RunConfig) -> list[FoldSplit]:
    ds = parse_multilabel_file(cfg.data_path)
    ds = preprocess_topk_labels(ds, cfg.max_labels)
    if ds.n_instances < cfg.folds:
        n = ds.n_instances
        raise ValueError(f"folds must be at most the {n} instances left after label filtering, got {cfg.folds}")
    if cfg.transition is not None and cfg.transition.shape != (ds.n_labels, ds.n_labels):
        shape, K = cfg.transition.shape, ds.n_labels
        raise ValueError(f"transition has shape {shape}, but {cfg.data_path} has {K} labels after label filtering")
    check_relevant_count(ds, cfg.relevant_count)
    return kfold_split(ds, cfg.folds, cfg.train.seed)


def _fit_share(folds: list[FoldSplit], cfg: RunConfig) -> dict[int, MetricsReport | Exception]:
    """Each fold's report by fold index, in order, up to and including the
    first fold that fails, which maps to its exception."""
    results: dict[int, MetricsReport | Exception] = {}
    for fold in folds:
        try:
            results[fold.fold_index] = _run_fold(fold, cfg)
        except Exception as exc:
            results[fold.fold_index] = exc
            break
    return results


def _cross_validate(folds: list[FoldSplit], cfg: RunConfig) -> AggregateReport:
    """Fit and score cfg on each fold; a fold's error is raised as `fold N failed: ...`.

    W = min(usable_cpus(), len(folds)) processes share the folds by stride
    through run_shares: this one fits folds 0, W, 2W, ... and a forked child
    fits each other share.  Each share stops at its first failure, and the
    lowest-numbered failing fold is raised, with its exception as the cause,
    as a serial loop would; a child that exits without a result fails its
    share's first fold.
    """
    W = min(usable_cpus(), len(folds))
    results: dict[int, MetricsReport | Exception] = {}
    for share, outcome in enumerate(run_shares(W, lambda r: _fit_share(folds[r::W], cfg))):
        results.update({folds[share].fold_index: outcome} if isinstance(outcome, WorkerExit) else outcome)
    reports = []
    for fold in folds:  # a share's folds after its failure have no result, but come after that failure
        outcome = results[fold.fold_index]
        if isinstance(outcome, Exception):
            raise RuntimeError(f"fold {fold.fold_index} failed: {outcome}") from outcome
        reports.append(outcome)
    return AggregateReport(tuple(reports))


def run_cv(cfg: RunConfig) -> AggregateReport:
    """Cross-validate the configured pipeline; corruption, transition
    estimation, and training all see the training fold only."""
    return _cross_validate(_load_and_fold(cfg), cfg)


def run_ablation(cfg: RunConfig) -> dict[str, AggregateReport]:
    """The full pipeline and its two single-component ablations, run in this
    order on one set of folds: drop the correlation correction, or drop the
    squared-error regularizer (beta = 0)."""
    folds = _load_and_fold(cfg)
    return {
        "full": _cross_validate(folds, cfg),
        "no_correlation": _cross_validate(folds, replace(cfg, no_correlation=True)),
        "no_mse": _cross_validate(folds, replace(cfg, train=replace(cfg.train, beta=0.0))),
    }


def sweep_beta(cfg: RunConfig, betas) -> list[tuple[float, AggregateReport]]:
    """One cross-validated run per trade-off value, all on one set of folds;
    every value's config is built, and so checked, before the data is read."""
    configs = [replace(cfg, train=replace(cfg.train, beta=float(beta))) for beta in betas]
    folds = _load_and_fold(cfg)
    return [(c.train.beta, _cross_validate(folds, c)) for c in configs]


def run_clrl(cfg: RunConfig) -> dict[str, AggregateReport]:
    """The three-way comparison: complementary-only, complementary plus one
    relevant label, and fully supervised, on identical folds."""
    folds = _load_and_fold(cfg)
    return {regime: _cross_validate(folds, replace(cfg, regime=regime)) for regime in REGIMES}


# ---------------------------------------------------------------------------
# Theory checks
# ---------------------------------------------------------------------------


class TheoryCheckFailure(AssertionError):
    """A theory inequality failed; the message carries the scenario dump."""


@dataclass(frozen=True)
class TheoryRow:
    scenario: str
    lhs: float
    rhs: float


def consistency_experiment() -> dict[str, float]:
    """Train twin models on one synthetic exclusive-label sample: the
    transition-composed loss with the sample's true transition, the uniform
    one, versus full supervision, and report the test hamming-loss gap."""
    spec = make_exclusive_spec(CONSISTENCY_LABELS)
    train_full, train_comp = sample_from_generative(spec, CONSISTENCY_TRAIN, CONSISTENCY_FEATURES, CONSISTENCY_SEED)
    test_full, _ = sample_from_generative(spec, CONSISTENCY_TEST, CONSISTENCY_FEATURES, CONSISTENCY_SEED + 1)
    tcfg = TrainConfig(learning_rates=(1e-2,), epochs=CONSISTENCY_EPOCHS, seed=CONSISTENCY_SEED)
    (mlcl,), _ = fit_regime(train_comp, "cl", tcfg, uniform_transition(CONSISTENCY_LABELS))
    (sup,), _ = fit_regime(train_full, "supervised", tcfg)
    ham_mlcl = evaluate_all(forward(mlcl.model, test_full.features), test_full.y).hamming_loss
    ham_sup = evaluate_all(forward(sup.model, test_full.features), test_full.y).hamming_loss
    return {
        "hamming_mlcl": ham_mlcl,
        "hamming_supervised": ham_sup,
        "gap": abs(ham_mlcl - ham_sup),
    }


def run_theory(seed: int = 0, n_trials: int = 100, consistency: bool = True) -> list[TheoryRow]:
    """Run every theory invariant and return one row per check.

    Any failed inequality raises TheoryCheckFailure with the offending
    scenario's full table.  A negative n_trials is refused before any check.
    """
    if n_trials < 0:
        raise ValueError(f"n_trials must be at least 0, got {n_trials}")
    rows: list[TheoryRow] = []
    rng = np.random.default_rng(seed)

    for trial in range(n_trials):
        K = int(rng.integers(3, 6))
        spec = random_generative_spec(K, rng)
        post = random_posterior(spec, rng)
        j = int(rng.integers(K))
        lhs, rhs = theorem1_gap(spec, post, j)
        if not lhs >= rhs - 1e-12:
            raise TheoryCheckFailure(
                f"subset-exact probability fell below its exclusive-event bound: lhs={lhs!r} rhs={rhs!r} "
                f"K={K} j={j} probs={spec.subset_probs.tolist()} cl={spec.cl_given_subset.tolist()} "
                f"posterior={post.tolist()}"
            )
        rows.append(TheoryRow(f"theorem1_trial{trial:03d}_K{K}_j{j}", lhs, rhs))

    xis = [f"{v / 10}" for v in range(3, 11)]
    for sc in grid_scenarios(xis, ms=(2, 3, 4)):
        lhs = scenario_distortion(sc)
        rhs = corollary3_bound(sc)
        if not lhs >= rhs:
            raise TheoryCheckFailure(f"distortion bound failed: l_j={lhs!r} bound={rhs!r} scenario={sc!r}")
        name = f"distortion_{sc.kind}_xi{float(sc.xi):.2f}_p{float(sc.p_cl):.4f}"
        rows.append(TheoryRow(name, float(lhs), float(rhs)))

    if consistency:
        result = consistency_experiment()
        if not result["gap"] <= CONSISTENCY_GAP:
            raise TheoryCheckFailure(f"consistency gap {result['gap']:.4f} exceeds {CONSISTENCY_GAP}: {result!r}")
        rows.append(TheoryRow(f"consistency_K{CONSISTENCY_LABELS}_n{CONSISTENCY_TRAIN}", result["gap"], CONSISTENCY_GAP))
    return rows


# ---------------------------------------------------------------------------
# CSV reporting
# ---------------------------------------------------------------------------


def _format(v: float) -> str:
    return f"{v:.12g}"


def _write_rows(rows, path: str | Path) -> None:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    Path(path).write_text(buf.getvalue(), encoding="utf-8")


def _mean_std(report: AggregateReport, name: str) -> list[str]:
    return [_format(report.mean(name)), _format(report.std(name))]


def write_report(report: AggregateReport, path: str | Path) -> None:
    """Deterministic CSV: the five metrics' mean/std, then one row per fold."""
    names = MetricsReport.METRIC_NAMES
    summary = ([name, *_mean_std(report, name)] for name in names)
    folds = ([i, *(_format(getattr(r, name)) for name in names)] for i, r in enumerate(report.fold_reports))
    _write_rows([["metric", "mean", "std"], *summary, ["fold", *names], *folds], path)


def write_sweep_csv(rows: list[tuple[float, AggregateReport]], path: str | Path) -> None:
    """sweep_beta's table: one row per trade-off value, with each metric's mean and std."""
    names = MetricsReport.METRIC_NAMES
    table = [["beta", *(f"{name}_{stat}" for name in names for stat in ("mean", "std"))]]
    for beta, rep in rows:
        table.append([_format(beta), *(v for name in names for v in _mean_std(rep, name))])
    _write_rows(table, path)


def write_clrl_csv(reports: dict[str, AggregateReport], path: str | Path) -> None:
    """run_clrl's table: each metric's mean and std per regime, supervised first."""
    variants = ("supervised", "cl", "clrl")
    rows = ([v, name, *_mean_std(reports[v], name)] for v in variants for name in MetricsReport.METRIC_NAMES)
    _write_rows([["variant", "metric", "mean", "std"], *rows], path)


def write_curve(curve: list[float], path: str | Path) -> None:
    """A training's loss per epoch."""
    _write_rows([["epoch", "loss"], *([i, _format(v)] for i, v in enumerate(curve))], path)


def write_theory_csv(rows: list[TheoryRow], path: str | Path) -> None:
    body = ([r.scenario, _format(r.lhs), _format(r.rhs), 1] for r in rows)  # run_theory returns passed rows only
    _write_rows([["scenario", "lhs", "rhs", "pass"], *body], path)

"""Experiment orchestration: cross-validated runs, ablations, sweeps, and
theory checks, reporting CSV only.

The transition matrix is read from a file or estimated on the training fold
alone; test folds feed nothing but the final evaluation.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field, replace
from functools import cached_property
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
from .optim import LEARNING_RATE_GRID, TrainConfig, train_cl_predictor, train_clrl, train_mlcl, train_supervised
from .theory import (
    corollary3_bound,
    grid_scenarios,
    random_generative_spec,
    random_posterior,
    scenario_distortion,
    theorem1_gap,
)
from .transition import estimate_transition, load_transition_csv, uniform_transition, validate_transition

__all__ = [
    "RunConfig",
    "AggregateReport",
    "TheoryCheckFailure",
    "corrupt",
    "run_cv",
    "run_ablation",
    "sweep_beta",
    "run_clrl",
    "run_theory",
    "consistency_experiment",
    "write_report",
    "read_report",
    "write_theory_csv",
]

CORRUPTION_MODES = ("uniform", "biased")
REGIMES = ("cl", "clrl", "supervised")
CONSISTENCY_GAP = 0.05  # largest test hamming-loss gap the consistency check accepts


@dataclass(frozen=True)
class RunConfig:
    """One cross-validated run.

    learning_rate=None selects from the grid {1e-1, 1e-2, 1e-3} on a 10%
    validation split of each training fold (stratified by complementary
    label), scored by average precision.  transition_path=None estimates T
    on each training fold; a path gives the matrix every fold uses, so it
    cannot be combined with no_correlation, which changes the estimate.
    The squared-error regulariser is dropped by train.beta = 0.
    """

    data_path: str | Path
    corruption: str = "uniform"
    regime: str = "cl"
    folds: int = 10
    max_labels: int = 15
    normalize: bool = False
    learning_rate: float | None = None
    train: TrainConfig = field(default_factory=TrainConfig)
    no_correlation: bool = False
    transition_path: str | Path | None = None
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
        if self.no_correlation and self.transition_path is not None:
            raise ValueError("no_correlation changes the estimate of T, so it cannot take a transition_path")

    @cached_property
    def transition(self) -> np.ndarray:
        """The matrix at `transition_path`, read and checked on first use."""
        return load_transition_csv(self.transition_path)


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


def _train_grid(
    cds: ComplementaryDataset, train_ds: MultiLabelDataset, cfg: RunConfig, base: TrainConfig, rates: tuple[float, ...]
) -> tuple[list[LinearModel], Exception | None]:
    """The configured regime trained at each of `rates`, every training
    stepping the rates in lockstep, with each model bit for bit that of its
    rate alone: the CL predictor, T estimated from it (or read from the
    transition file), then the classifier.

    Returns the models of the rates before the first to fail, and its error
    or None.  The rates run one at a time raise the error of the earliest
    rate to fail at any stage, so a failing rate drops out with the rates
    after it, and those before it go on: a later stage may fail one of them.
    """
    if cfg.regime == "supervised":
        results, failure = train_supervised(train_ds, base, rates)
        return [r.model for r in results], failure
    failure = None
    if cfg.transition_path is not None:
        Ts = [cfg.transition] * len(rates)
    else:
        predictors, failure = train_cl_predictor(cds, base, rates)
        Ts = []
        for result in predictors:
            try:
                T = estimate_transition(cds, result.model, use_correlation=not cfg.no_correlation)
                validate_transition(T)  # the check train_mlcl makes, failing this rate alone
            except Exception as exc:
                failure = exc
                break
            Ts.append(T)
        if not Ts:
            return [], failure
    train = train_mlcl if cfg.regime == "cl" else train_clrl
    results, error = train(cds, np.stack(Ts), base, rates[: len(Ts)])
    return [r.model for r in results], error or failure


def select_learning_rate(
    cds: ComplementaryDataset, train_ds: MultiLabelDataset, cfg: RunConfig, base: TrainConfig
) -> float:
    """Pick the grid learning rate with the best validation average precision.

    The validation slice's ground truth comes from the fold's fully labeled
    half; it serves model selection only and never enters training.  If a
    grid rate fails, the error of the earliest one is raised once the rates
    before it are scored.
    """
    fit_idx, val_idx = _stratified_validation_split(cds, 0.1, base.seed + 0x5E1)
    if val_idx.size == 0 or fit_idx.size == 0:
        return base.learning_rate
    fit_cds = _subset_cds(cds, fit_idx)
    # cds carries train_ds's features, so fit_cds already holds the fit rows
    fit_ds = MultiLabelDataset(fit_cds.features, train_ds.y[fit_idx])
    val_X = train_ds.features[val_idx]
    val_y = train_ds.y[val_idx]
    models, failure = _train_grid(fit_cds, fit_ds, cfg, base, LEARNING_RATE_GRID)
    aps = [evaluate_all(forward(model, val_X), val_y).average_precision for model in models]
    if failure is not None:
        raise failure
    best_lr, best_ap = None, -np.inf
    for lr, ap in zip(LEARNING_RATE_GRID, aps):
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

    if cfg.learning_rate is not None:
        tcfg = replace(tcfg, learning_rate=cfg.learning_rate)
    else:
        tcfg = replace(tcfg, learning_rate=select_learning_rate(cds, train_ds, cfg, tcfg))

    models, failure = _train_grid(cds, train_ds, cfg, tcfg, (tcfg.learning_rate,))
    if failure is not None:
        raise failure
    return models[0], scaler


def _run_fold(fold: FoldSplit, cfg: RunConfig) -> MetricsReport:
    model, scaler = fit_fold(fold.train, cfg, fold.fold_index)
    test_ds = scaler.apply(fold.test) if scaler is not None else fold.test
    return evaluate_all(forward(model, test_ds.features), test_ds.y)


def _load_and_fold(cfg: RunConfig) -> list[FoldSplit]:
    ds = parse_multilabel_file(cfg.data_path)
    ds = preprocess_topk_labels(ds, cfg.max_labels)
    return kfold_split(ds, cfg.folds, cfg.train.seed)


def run_cv(cfg: RunConfig) -> AggregateReport:
    """Cross-validate the configured pipeline; corruption, transition
    estimation, and training all see the training fold only.  A transition
    file is read and checked once, before the data."""
    if cfg.transition_path is not None:
        cfg.transition  # read and check the file before the data
    reports = []
    for fold in _load_and_fold(cfg):
        try:
            reports.append(_run_fold(fold, cfg))
        except Exception as exc:
            raise RuntimeError(f"fold {fold.fold_index} failed: {exc}") from exc
    return AggregateReport(tuple(reports))


def run_ablation(cfg: RunConfig) -> dict[str, AggregateReport]:
    """The full pipeline and its two single-component ablations, run in this
    order: drop the correlation correction, or drop the squared-error
    regularizer (beta = 0)."""
    return {
        "full": run_cv(cfg),
        "no_correlation": run_cv(replace(cfg, no_correlation=True)),
        "no_mse": run_cv(replace(cfg, train=replace(cfg.train, beta=0.0))),
    }


def sweep_beta(cfg: RunConfig, betas) -> list[tuple[float, AggregateReport]]:
    """One cross-validated run per trade-off value; every value's config is
    built, and so checked, before the first run."""
    configs = [replace(cfg, train=replace(cfg.train, beta=float(beta))) for beta in betas]
    return [(c.train.beta, run_cv(c)) for c in configs]


def run_clrl(cfg: RunConfig) -> dict[str, AggregateReport]:
    """The three-way comparison: complementary-only, complementary plus one
    relevant label, and fully supervised, on identical folds."""
    return {
        "cl": run_cv(replace(cfg, regime="cl")),
        "clrl": run_cv(replace(cfg, regime="clrl")),
        "supervised": run_cv(replace(cfg, regime="supervised")),
    }


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
    passed: bool


def consistency_experiment(
    n_labels: int = 5,
    n_train: int = 5000,
    n_test: int = 1000,
    n_features: int = 10,
    seed: int = 7,
    epochs: int = 200,
) -> dict[str, float]:
    """Train twin models on one synthetic exclusive-label sample: the
    transition-composed loss with the sample's true transition, the uniform
    one, versus full supervision, and report the test hamming-loss gap."""
    spec = make_exclusive_spec(n_labels)
    train_full, train_comp = sample_from_generative(spec, n_train, n_features, seed)
    test_full, _ = sample_from_generative(spec, n_test, n_features, seed + 1)
    tcfg = TrainConfig(learning_rate=1e-2, epochs=epochs, seed=seed)
    T = uniform_transition(n_labels)
    mlcl_model = train_mlcl(train_comp, T, tcfg).model
    sup_model = train_supervised(train_full, tcfg).model
    ham_mlcl = evaluate_all(forward(mlcl_model, test_full.features), test_full.y).hamming_loss
    ham_sup = evaluate_all(forward(sup_model, test_full.features), test_full.y).hamming_loss
    return {
        "hamming_mlcl": ham_mlcl,
        "hamming_supervised": ham_sup,
        "gap": abs(ham_mlcl - ham_sup),
    }


def run_theory(seed: int = 0, n_trials: int = 100, consistency: bool = True) -> list[TheoryRow]:
    """Run every theory invariant and return one row per check.

    Any failed inequality raises TheoryCheckFailure with the offending
    scenario's full table.
    """
    rows: list[TheoryRow] = []
    rng = np.random.default_rng(seed)

    for trial in range(n_trials):
        K = int(rng.integers(3, 6))
        spec = random_generative_spec(K, rng)
        post = random_posterior(spec, rng)
        j = int(rng.integers(K))
        lhs, rhs = theorem1_gap(spec, post, j)
        ok = lhs >= rhs - 1e-12
        rows.append(TheoryRow(f"theorem1_trial{trial:03d}_K{K}_j{j}", lhs, rhs, ok))
        if not ok:
            raise TheoryCheckFailure(
                f"subset-exact probability fell below its exclusive-event bound: lhs={lhs!r} rhs={rhs!r} "
                f"K={K} j={j} probs={spec.subset_probs.tolist()} cl={spec.cl_given_subset.tolist()} "
                f"posterior={post.tolist()}"
            )

    xis = [f"{v / 10}" for v in range(3, 11)]
    for sc in grid_scenarios(xis, ms=(2, 3, 4)):
        lhs = scenario_distortion(sc)
        rhs = corollary3_bound(sc)
        ok = lhs >= rhs
        rows.append(
            TheoryRow(f"distortion_{sc.kind}_xi{float(sc.xi):.2f}_p{float(sc.p_cl):.4f}", float(lhs), float(rhs), ok)
        )
        if not ok:
            raise TheoryCheckFailure(f"distortion bound failed: l_j={lhs!r} bound={rhs!r} scenario={sc!r}")

    if consistency:
        result = consistency_experiment()
        ok = result["gap"] <= CONSISTENCY_GAP
        rows.append(TheoryRow("consistency_K5_n5000", result["gap"], CONSISTENCY_GAP, ok))
        if not ok:
            raise TheoryCheckFailure(f"consistency gap {result['gap']:.4f} exceeds {CONSISTENCY_GAP}: {result!r}")
    return rows


# ---------------------------------------------------------------------------
# CSV reporting
# ---------------------------------------------------------------------------


def _format(v: float) -> str:
    return f"{v:.12g}"


def report_to_csv(report: AggregateReport) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["metric", "mean", "std"])
    for name in MetricsReport.METRIC_NAMES:
        w.writerow([name, _format(report.mean(name)), _format(report.std(name))])
    w.writerow(["fold", *MetricsReport.METRIC_NAMES])
    for i, r in enumerate(report.fold_reports):
        w.writerow([i, *(_format(getattr(r, name)) for name in MetricsReport.METRIC_NAMES)])
    return buf.getvalue()


def write_report(report: AggregateReport, path: str | Path) -> None:
    """Deterministic CSV: the five metrics' mean/std, then one row per fold."""
    Path(path).write_text(report_to_csv(report), encoding="utf-8")


def read_report(path: str | Path) -> AggregateReport:
    """Parse a report written by write_report back into fold reports."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    reader = list(csv.reader(lines))
    header = ["fold", *MetricsReport.METRIC_NAMES]
    try:
        split = reader.index(header)
    except ValueError:
        raise ValueError("not a report CSV: fold block missing") from None
    folds = []
    for row in reader[split + 1 :]:
        vals = [float(v) for v in row[1:]]
        folds.append(MetricsReport(*vals))
    return AggregateReport(tuple(folds))


def write_theory_csv(rows: list[TheoryRow], path: str | Path) -> None:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["scenario", "lhs", "rhs", "pass"])
    for r in rows:
        w.writerow([r.scenario, _format(r.lhs), _format(r.rhs), int(r.passed)])
    Path(path).write_text(buf.getvalue(), encoding="utf-8")

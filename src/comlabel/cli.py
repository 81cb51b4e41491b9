"""Command-line interface.

Subcommands: corrupt, estimate-t, train, eval, cv, ablate, sweep-beta, clrl,
theory-check, convert.  Flags override values from an optional flat
"key = value" config file; unknown config keys are rejected.
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

import numpy as np

from .complementary import attach_relevant_subset, corrupt_biased, corrupt_uniform, parse_complementary_file, write_complementary_file
from .dataset import LabelSpace, MultiLabelDataset, parse_multilabel_file, preprocess_topk_labels, write_multilabel_file
from .experiment import (
    AggregateReport,
    RunConfig,
    TheoryCheckFailure,
    run_ablation,
    run_clrl,
    run_cv,
    run_theory,
    sweep_beta,
    write_report,
    write_theory_csv,
)
from .metrics import MetricsReport, evaluate_all
from .model import forward, load_model, save_model
from .optim import TrainConfig, train_cl_predictor, train_clrl, train_mlcl, train_supervised
from .transition import estimate_transition, load_transition_csv, save_transition_csv

CONFIG_TYPES = {
    "data": str,
    "mode": str,
    "regime": str,
    "seed": int,
    "lr": float,
    "epochs": int,
    "batch": int,
    "beta": float,
    "betas": str,
    "folds": int,
    "max_labels": int,
    "relevant": int,
    "weight_decay": float,
    "out": str,
    "model_in": str,
    "model_out": str,
    "transition_in": str,
    "transition_out": str,
    "curve_out": str,
    "normalize_features": str,
    "trials": int,
}

# The allowed values of the keys whose flags take `choices`; a config file is held to them too.
CONFIG_CHOICES = {
    "mode": ("uniform", "biased"),
    "regime": ("cl", "clrl", "supervised"),
    "normalize_features": ("on", "off"),
}

DEFAULTS = {
    "mode": "uniform",
    "regime": "cl",
    "seed": 0,
    "epochs": 200,
    "batch": 256,
    "beta": 1.0,
    "betas": "0.1,0.3,0.5,0.8,1",
    "folds": 10,
    "max_labels": 15,
    "weight_decay": 1e-4,
    "normalize_features": "off",
    "trials": 100,
}


def load_config_file(path: str) -> dict:
    """Flat `key = value` lines; blank lines and #-comments allowed."""
    values = {}
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise SystemExit(f"config {path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = (t.strip() for t in line.partition("="))
        if key not in CONFIG_TYPES:
            raise SystemExit(f"config {path}:{lineno}: unknown key {key!r}")
        try:
            values[key] = CONFIG_TYPES[key](value)
        except ValueError:
            raise SystemExit(f"config {path}:{lineno}: bad value for {key}: {value!r}") from None
        choices = CONFIG_CHOICES.get(key)
        if choices and values[key] not in choices:
            raise SystemExit(f"config {path}:{lineno}: {key} must be one of {', '.join(choices)}, got {value!r}")
    return values


def _shared_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--config", help="flat key = value config file; flags override it")
    p.add_argument("--data", help="input data file")
    p.add_argument("--mode", choices=CONFIG_CHOICES["mode"], help="corruption mode")
    p.add_argument("--seed", type=int)
    p.add_argument("--lr", type=float, help="learning rate; omit to select from {1e-1,1e-2,1e-3}")
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch", type=int)
    p.add_argument("--beta", type=float, help="trade-off weight of the squared-error regularizer")
    p.add_argument("--folds", type=int)
    p.add_argument("--max-labels", dest="max_labels", type=int)
    p.add_argument("--weight-decay", dest="weight_decay", type=float)
    p.add_argument("--out", help="output path")
    p.add_argument("--transition-in", dest="transition_in")
    p.add_argument("--transition-out", dest="transition_out")
    p.add_argument("--curve-out", dest="curve_out", help="per-epoch training-loss CSV")
    p.add_argument("--normalize-features", dest="normalize_features", choices=CONFIG_CHOICES["normalize_features"])
    return p


def build_parser() -> argparse.ArgumentParser:
    shared = _shared_parser()
    parser = argparse.ArgumentParser(prog="comlabel", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("corrupt", parents=[shared], help="replace full labels with complementary labels")
    p.add_argument("--relevant", type=int, help="also attach this many true relevant labels per instance")

    p = sub.add_parser("estimate-t", parents=[shared], help="estimate the transition matrix from complementary data")
    p.add_argument("--no-correlation", action="store_true", help="skip the correlation correction")

    p = sub.add_parser("train", parents=[shared], help="train one model on one data file")
    p.add_argument("--regime", choices=CONFIG_CHOICES["regime"])
    p.add_argument("--model-out", dest="model_out")

    p = sub.add_parser("eval", parents=[shared], help="evaluate a checkpoint on fully labeled data")
    p.add_argument("--model-in", dest="model_in", required=True)

    sub.add_parser("cv", parents=[shared], help="cross-validated pipeline")

    sub.add_parser("ablate", parents=[shared], help="cv plus the two single-component ablations")

    p = sub.add_parser("sweep-beta", parents=[shared], help="cv once per trade-off value")
    p.add_argument("--betas", help="comma-separated trade-off values")

    p = sub.add_parser("clrl", parents=[shared], help="compare cl, cl+relevant, and supervised")
    p.add_argument("--relevant", type=int)

    p = sub.add_parser("theory-check", parents=[shared], help="run the numerical theory checks")
    p.add_argument("--trials", type=int)
    p.add_argument("--skip-consistency", action="store_true", help="skip the synthetic twin-training check")

    p = sub.add_parser("convert", parents=[shared], help="dense CSV feature/label matrices to the canonical format")
    p.add_argument("--features-csv", dest="features_csv", required=True)
    p.add_argument("--labels-csv", dest="labels_csv", required=True)
    return parser


def _resolve(args: argparse.Namespace) -> argparse.Namespace:
    config = load_config_file(args.config) if getattr(args, "config", None) else {}
    for key, value in config.items():
        if getattr(args, key, None) is None and hasattr(args, key):
            setattr(args, key, value)
    for key, value in DEFAULTS.items():
        if getattr(args, key, None) is None and hasattr(args, key):
            setattr(args, key, value)
    return args


def _require(args, *names):
    for name in names:
        if getattr(args, name, None) is None:
            raise SystemExit(f"--{name.replace('_', '-')} is required for {args.command}")


def _train_config(args, lr_fallback: float = 1e-2) -> TrainConfig:
    return TrainConfig(
        learning_rate=args.lr if args.lr is not None else lr_fallback,
        weight_decay=args.weight_decay,
        batch_size=args.batch,
        epochs=args.epochs,
        beta=args.beta,
        seed=args.seed,
    )


def _run_config(args) -> RunConfig:
    relevant = getattr(args, "relevant", None)  # of the commands built on run_cv, only clrl takes --relevant
    return RunConfig(
        data_path=args.data,
        corruption=args.mode,
        regime=getattr(args, "regime", None) or "cl",
        folds=args.folds,
        max_labels=args.max_labels,
        normalize=args.normalize_features == "on",
        learning_rate=args.lr,
        train=_train_config(args),
        transition_source="load" if args.transition_in else "estimate",
        transition_path=args.transition_in,
        relevant_count=1 if relevant is None else relevant,
    )


def _write_curve(curve: list[float], path: str) -> None:
    lines = ["epoch,loss"] + [f"{i},{v:.12g}" for i, v in enumerate(curve)]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _print_summary(tag: str, report: AggregateReport) -> None:
    parts = [f"{name}={mean:.4f}±{std:.4f}" for name, (mean, std) in report.summary().items()]
    print(f"{tag}: " + " ".join(parts))


def cmd_corrupt(args) -> int:
    _require(args, "data", "out")
    ds = preprocess_topk_labels(parse_multilabel_file(args.data), args.max_labels)
    corrupt = corrupt_uniform if args.mode == "uniform" else corrupt_biased
    cds, record = corrupt(ds, args.seed)
    if args.relevant is not None:
        cds = attach_relevant_subset(cds, record, args.relevant, args.seed + 0xA7)
    write_complementary_file(cds, args.out)
    print(f"wrote {cds.n_instances} complementary-labeled instances to {args.out}")
    return 0


def cmd_estimate_t(args) -> int:
    _require(args, "data", "transition_out")
    cds = parse_complementary_file(args.data)
    result = train_cl_predictor(cds, _train_config(args))
    T = estimate_transition(cds, result.model, use_correlation=not args.no_correlation)
    save_transition_csv(T, args.transition_out)
    if args.curve_out:
        _write_curve(result.epoch_losses, args.curve_out)
    print(f"wrote {T.shape[0]}x{T.shape[1]} transition matrix to {args.transition_out}")
    return 0


def cmd_train(args) -> int:
    _require(args, "data")
    out = args.model_out or args.out
    if out is None:
        raise SystemExit("--model-out (or --out) is required for train")
    tcfg = _train_config(args)
    if args.regime == "supervised":
        ds = parse_multilabel_file(args.data)
        result = train_supervised(ds, tcfg)
    else:
        cds = parse_complementary_file(args.data)
        if args.transition_in:
            T = load_transition_csv(args.transition_in)
        else:
            predictor = train_cl_predictor(cds, tcfg).model
            T = estimate_transition(cds, predictor)
        if args.transition_out:
            save_transition_csv(T, args.transition_out)
        result = train_clrl(cds, T, tcfg) if args.regime == "clrl" else train_mlcl(cds, T, tcfg)
    save_model(result.model, out)
    if args.curve_out:
        _write_curve(result.epoch_losses, args.curve_out)
    print(f"trained {args.regime} model for {tcfg.epochs} epochs; checkpoint at {out}")
    return 0


def cmd_eval(args) -> int:
    _require(args, "data", "out")
    ds = parse_multilabel_file(args.data)
    model = load_model(args.model_in)
    report = AggregateReport((evaluate_all(forward(model, ds.features), ds.y),))
    write_report(report, args.out)
    _print_summary("eval", report)
    return 0


def cmd_cv(args) -> int:
    _require(args, "data", "out")
    report = run_cv(_run_config(args))
    write_report(report, args.out)
    _print_summary("cv", report)
    return 0


def cmd_ablate(args) -> int:
    _require(args, "data", "out")
    cfg = _run_config(args)
    full = run_cv(cfg)
    variants = run_ablation(cfg)
    base = Path(args.out)
    write_report(full, base)
    for name, rep in variants.items():
        path = base.with_name(base.stem + f".{name}" + base.suffix)
        write_report(rep, path)
        _print_summary(name, rep)
    _print_summary("full", full)
    return 0


def cmd_sweep_beta(args) -> int:
    _require(args, "data", "out")
    betas = [float(t) for t in str(args.betas).split(",") if t.strip()]
    rows = sweep_beta(_run_config(args), betas)
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        header = ["beta"]
        for name in MetricsReport.METRIC_NAMES:
            header += [f"{name}_mean", f"{name}_std"]
        w.writerow(header)
        for beta, rep in rows:
            row = [f"{beta:.12g}"]
            for name in MetricsReport.METRIC_NAMES:
                row += [f"{rep.mean(name):.12g}", f"{rep.std(name):.12g}"]
            w.writerow(row)
    for beta, rep in rows:
        _print_summary(f"beta={beta}", rep)
    return 0


def cmd_clrl(args) -> int:
    _require(args, "data", "out")
    reports = run_clrl(_run_config(args))
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["variant", "metric", "mean", "std"])
        for variant in ("supervised", "cl", "clrl"):
            for name in MetricsReport.METRIC_NAMES:
                w.writerow([variant, name, f"{reports[variant].mean(name):.12g}", f"{reports[variant].std(name):.12g}"])
    for variant in ("supervised", "cl", "clrl"):
        _print_summary(variant, reports[variant])
    return 0


def cmd_theory_check(args) -> int:
    try:
        rows = run_theory(seed=args.seed, n_trials=args.trials, consistency=not args.skip_consistency)
    except TheoryCheckFailure as exc:
        print(f"FAIL: {exc}", file=sys.stderr)
        return 1
    if args.out:
        write_theory_csv(rows, args.out)
    passed = sum(r.passed for r in rows)
    print(f"theory checks: {passed}/{len(rows)} passed")
    return 0 if passed == len(rows) else 1


def cmd_convert(args) -> int:
    _require(args, "out")
    X = np.atleast_2d(np.genfromtxt(args.features_csv, delimiter=","))
    Y = np.atleast_2d(np.genfromtxt(args.labels_csv, delimiter=","))
    if X.shape[0] != Y.shape[0]:
        raise SystemExit(f"feature rows ({X.shape[0]}) and label rows ({Y.shape[0]}) disagree")
    ds = MultiLabelDataset(X, Y.astype(np.uint8), LabelSpace(Y.shape[1]))
    write_multilabel_file(ds, args.out)
    print(f"wrote {ds.n_instances} instances ({ds.n_features} features, {ds.n_labels} labels) to {args.out}")
    return 0


COMMANDS = {
    "corrupt": cmd_corrupt,
    "estimate-t": cmd_estimate_t,
    "train": cmd_train,
    "eval": cmd_eval,
    "cv": cmd_cv,
    "ablate": cmd_ablate,
    "sweep-beta": cmd_sweep_beta,
    "clrl": cmd_clrl,
    "theory-check": cmd_theory_check,
    "convert": cmd_convert,
}


def main(argv=None) -> int:
    args = _resolve(build_parser().parse_args(argv))
    return COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface.

Subcommands: corrupt, estimate-t, train, eval, cv, ablate, sweep-beta, clrl,
theory-check, convert.  Flags override values from an optional flat
"key = value" config file; unknown config keys are rejected.
"""

from __future__ import annotations

import argparse
import csv
import sys
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .dataset import (
    MultiLabelDataset,
    parse_complementary_file,
    parse_multilabel_file,
    preprocess_topk_labels,
    write_complementary_file,
    write_multilabel_file,
)
from .experiment import (
    CORRUPTION_MODES,
    REGIMES,
    AggregateReport,
    RunConfig,
    TheoryCheckFailure,
    corrupt,
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
from .optim import DEFAULT_LEARNING_RATE, LEARNING_RATE_GRID, TrainConfig
from .optim import train_cl_predictor, train_clrl, train_mlcl, train_supervised
from .transition import estimate_transition, load_transition_csv, save_transition_csv


class Option(NamedTuple):
    """One command-line option, declared once: its dest (the flag is
    `--dest` with dashes), the subcommands that take it, its value type
    (None for an on/off flag), the default that applies when neither a flag
    nor the config file sets it, help, its choices, and whether a config
    file may set it.  Every subcommand also takes --config."""

    dest: str
    commands: tuple[str, ...]
    type: type | None = str
    default: object = None
    help: str | None = None
    choices: tuple[str, ...] | None = None
    config: bool = True


CV = ("cv", "ablate", "sweep-beta", "clrl")  # the subcommands built on run_cv
TRAINING = ("estimate-t", "train", *CV)

OPTIONS = (
    Option("data", ("corrupt", "eval", *TRAINING), help="input data file"),
    Option("mode", ("corrupt", *CV), default=RunConfig.corruption, help="corruption mode", choices=CORRUPTION_MODES),
    Option("seed", ("corrupt", "theory-check", *TRAINING), int, TrainConfig.seed),
    Option("lr", TRAINING, float, help=f"learning rate; without it, estimate-t and train use {DEFAULT_LEARNING_RATE} "
           f"and the cross-validated commands select one per fold from {{{', '.join(map(str, LEARNING_RATE_GRID))}}}"),
    Option("epochs", TRAINING, int, TrainConfig.epochs),
    Option("batch", TRAINING, int, TrainConfig.batch_size),
    Option("beta", ("train", "cv", "ablate", "clrl"), float, TrainConfig.beta, "trade-off weight of the squared-error regularizer"),
    Option("folds", CV, int, RunConfig.folds),
    Option("max_labels", ("corrupt", *CV), int, RunConfig.max_labels),
    Option("weight_decay", TRAINING, float, TrainConfig.weight_decay),
    Option("out", ("corrupt", "eval", *CV, "theory-check", "convert"), help="output path"),
    # ablate's no_correlation row estimates T, so it takes no transition file
    Option("transition_in", ("train", "cv", "sweep-beta", "clrl")),
    Option("transition_out", ("estimate-t", "train")),
    Option("curve_out", ("estimate-t", "train"), help="per-epoch training-loss CSV"),
    Option("normalize_features", CV, default="off", choices=("on", "off")),
    Option("relevant", ("corrupt", "clrl"), int, help="also attach this many true relevant labels per instance"),
    Option("no_correlation", ("estimate-t",), None, help="skip the correlation correction", config=False),
    Option("regime", ("train",), default=RunConfig.regime, choices=REGIMES),
    Option("model_out", ("train",)),
    Option("model_in", ("eval",)),
    Option("betas", ("sweep-beta",), default="0.1,0.3,0.5,0.8,1", help="comma-separated trade-off values"),
    Option("trials", ("theory-check",), int, 100),
    Option("skip_consistency", ("theory-check",), None, help="skip the synthetic twin-training check", config=False),
    Option("features_csv", ("convert",), config=False),
    Option("labels_csv", ("convert",), config=False),
)

CONFIG_OPTIONS = {o.dest: o for o in OPTIONS if o.config}
SUPERVISED_UNREAD = ("beta", "transition_in", "transition_out")  # read only by train's complementary regimes
# The flag that sets each field TrainConfig and RunConfig check on the options'
# values, and run_cv checks against the data (folds, max_labels, transition);
# each check's message begins with the field's name.
CHECKED_FLAGS = {
    "learning_rates": "--lr",
    "weight_decay": "--weight-decay",
    "beta": "--beta",
    "batch_size": "--batch",
    "epochs": "--epochs",
    "folds": "--folds",
    "max_labels": "--max-labels",
    "relevant_count": "--relevant",
    "transition": "--transition-in",
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
        option = CONFIG_OPTIONS.get(key)
        if option is None:
            raise SystemExit(f"config {path}:{lineno}: unknown key {key!r}")
        try:
            values[key] = option.type(value)
        except ValueError:
            raise SystemExit(f"config {path}:{lineno}: bad value for {key}: {value!r}") from None
        if option.choices and values[key] not in option.choices:
            raise SystemExit(f"config {path}:{lineno}: {key} must be one of {', '.join(option.choices)}, got {value!r}")
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="comlabel", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, summary) in COMMANDS.items():
        p = sub.add_parser(command, help=summary)
        p.add_argument("--config", help="flat key = value config file; flags override it")
        for o in OPTIONS:
            if command not in o.commands:
                continue
            flag = "--" + o.dest.replace("_", "-")
            if o.type is None:
                p.add_argument(flag, dest=o.dest, action="store_true", help=o.help)
            else:
                p.add_argument(flag, dest=o.dest, type=o.type, choices=o.choices, help=o.help)
    return parser


def _resolve(args: argparse.Namespace) -> argparse.Namespace:
    """Fill each option the flags left unset from the config file, else its
    default.  A config key that the subcommand does not take is rejected, and
    so is an option that the resolved regime of `train` does not read."""
    config = load_config_file(args.config) if args.config else {}
    for key in config:
        commands = CONFIG_OPTIONS[key].commands
        if args.command not in commands:
            raise SystemExit(f"config {args.config}: {key} is taken only by {', '.join(commands)}, not by {args.command}")
    if args.command == "train" and (args.regime or config.get("regime")) == "supervised":
        for name in SUPERVISED_UNREAD:
            if getattr(args, name) is not None:
                raise SystemExit(f"--{name.replace('_', '-')} is not read by train --regime supervised")
            if name in config:
                raise SystemExit(f"config {args.config}: {name} is not read by train --regime supervised")
    for o in OPTIONS:
        if args.command in o.commands and getattr(args, o.dest) is None:
            setattr(args, o.dest, config.get(o.dest, o.default))
    return args


def _require(args, *names):
    for name in names:
        if getattr(args, name, None) is None:
            raise SystemExit(f"--{name.replace('_', '-')} is required for {args.command}")


@contextmanager
def _exit_on_bad_value(flag: str | None = None):
    """Exit with the message of a check that fails inside, naming `flag` (or
    a file), or else the flag that sets the checked config field; a value
    error from no such check, such as a data file's, propagates."""
    try:
        yield
    except ValueError as exc:
        name = flag or CHECKED_FLAGS.get(str(exc).partition(" ")[0])
        if name is None:
            raise
        raise SystemExit(f"{name}: {exc}") from None


def _train_config(args) -> TrainConfig:
    # without --lr, the cross-validated commands select from the grid and the others train one model
    default = LEARNING_RATE_GRID if args.command in CV else (DEFAULT_LEARNING_RATE,)
    return TrainConfig(
        learning_rates=default if args.lr is None else (args.lr,),
        weight_decay=args.weight_decay,
        batch_size=args.batch,
        epochs=args.epochs,
        beta=getattr(args, "beta", TrainConfig.beta),  # estimate-t and sweep-beta take no --beta
        seed=args.seed,
    )


def _transition_in(args) -> np.ndarray | None:
    """The checked matrix at --transition-in, read before any data; None without the option."""
    path = getattr(args, "transition_in", None)  # ablate takes no --transition-in
    if path is None:
        return None
    with _exit_on_bad_value(path):
        return load_transition_csv(path)


def _run_config(args) -> RunConfig:
    relevant = getattr(args, "relevant", None)  # of the commands built on run_cv, only clrl takes --relevant
    return RunConfig(
        data_path=args.data,
        corruption=args.mode,
        folds=args.folds,
        max_labels=args.max_labels,
        normalize=args.normalize_features == "on",
        train=_train_config(args),
        transition=_transition_in(args),
        relevant_count=RunConfig.relevant_count if relevant is None else relevant,
    )


def _write_curve(curve: list[float], path: str) -> None:
    lines = ["epoch,loss"] + [f"{i},{v:.12g}" for i, v in enumerate(curve)]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _print_summary(tag: str, report: AggregateReport) -> None:
    parts = [f"{name}={mean:.4f}±{std:.4f}" for name, (mean, std) in report.summary().items()]
    print(f"{tag}: " + " ".join(parts))


def cmd_corrupt(args) -> int:
    _require(args, "data", "out")
    relevant = RunConfig.relevant_count if args.relevant is None else args.relevant
    # RunConfig checks the values corrupt shares with run_cv
    RunConfig(args.data, args.mode, max_labels=args.max_labels, relevant_count=relevant)
    ds = preprocess_topk_labels(parse_multilabel_file(args.data), args.max_labels)
    cds = corrupt(ds, args.mode, args.seed, args.relevant)
    write_complementary_file(cds, args.out)
    print(f"wrote {cds.n_instances} complementary-labeled instances to {args.out}")
    return 0


def cmd_estimate_t(args) -> int:
    _require(args, "data", "transition_out")
    cfg = _train_config(args)
    cds = parse_complementary_file(args.data)
    (result,) = train_cl_predictor(cds, cfg, curve=bool(args.curve_out))
    T = estimate_transition(cds, result.model, use_correlation=not args.no_correlation)
    save_transition_csv(T, args.transition_out)
    if args.curve_out:
        _write_curve(result.epoch_losses, args.curve_out)
    print(f"wrote {T.shape[0]}x{T.shape[1]} transition matrix to {args.transition_out}")
    return 0


def cmd_train(args) -> int:
    _require(args, "data", "model_out")
    tcfg = _train_config(args)
    T = _transition_in(args)
    if args.regime == "supervised":
        ds = parse_multilabel_file(args.data)
        (result,) = train_supervised(ds, tcfg, curve=bool(args.curve_out))
    else:
        cds = parse_complementary_file(args.data)
        if T is None:
            (predictor,) = train_cl_predictor(cds, tcfg, curve=False)
            T = estimate_transition(cds, predictor.model)
        train = train_clrl if args.regime == "clrl" else train_mlcl
        (result,) = train(cds, T, tcfg, curve=bool(args.curve_out))
        if args.transition_out:
            save_transition_csv(T, args.transition_out)
    save_model(result.model, args.model_out)
    if args.curve_out:
        _write_curve(result.epoch_losses, args.curve_out)
    print(f"trained {args.regime} model for {tcfg.epochs} epochs; checkpoint at {args.model_out}")
    return 0


def cmd_eval(args) -> int:
    _require(args, "data", "out", "model_in")
    ds = parse_multilabel_file(args.data)
    with _exit_on_bad_value(args.model_in):
        model = load_model(args.model_in)
    if (model.n_features, model.n_labels) != (ds.n_features, ds.n_labels):
        raise SystemExit(
            f"{args.model_in}: checkpoint has {model.n_features} features and {model.n_labels} labels, "
            f"but {args.data} has {ds.n_features} features and {ds.n_labels} labels"
        )
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
    reports = run_ablation(_run_config(args))
    base = Path(args.out)
    for name, rep in reports.items():
        path = base if name == "full" else base.with_name(base.stem + f".{name}" + base.suffix)
        write_report(rep, path)
    for name in ("no_correlation", "no_mse", "full"):
        _print_summary(name, reports[name])
    return 0


def cmd_sweep_beta(args) -> int:
    _require(args, "data", "out")
    cfg = _run_config(args)
    betas = []
    for token in filter(None, (t.strip() for t in args.betas.split(","))):
        try:
            beta = float(token)
        except ValueError:
            raise SystemExit(f"--betas: {token!r} is not a number") from None
        with _exit_on_bad_value("--betas"):
            replace(cfg.train, beta=beta)  # TrainConfig checks the value
        betas.append(beta)
    if not betas:
        raise SystemExit(f"--betas: no trade-off value in {args.betas!r}")
    rows = sweep_beta(cfg, betas)
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
    print(f"theory checks: {len(rows)}/{len(rows)} passed")
    return 0


def cmd_convert(args) -> int:
    _require(args, "out", "features_csv", "labels_csv")
    X = np.genfromtxt(args.features_csv, delimiter=",", ndmin=2)
    Y = np.genfromtxt(args.labels_csv, delimiter=",", ndmin=2)
    if X.shape[0] != Y.shape[0]:
        raise SystemExit(f"feature rows ({X.shape[0]}) and label rows ({Y.shape[0]}) disagree")
    # genfromtxt reads a missing value as nan, and astype(uint8) would truncate 0.5 to 0
    bad = np.flatnonzero(~np.isfinite(X).all(axis=1))
    if bad.size:
        raise SystemExit(f"{args.features_csv}: row {bad[0] + 1}: missing or non-finite feature value")
    bad = np.flatnonzero(~np.isin(Y, (0, 1)).all(axis=1))
    if bad.size:
        raise SystemExit(f"{args.labels_csv}: row {bad[0] + 1}: labels must be 0 or 1")
    ds = MultiLabelDataset(X, Y.astype(np.uint8))
    write_multilabel_file(ds, args.out)
    print(f"wrote {ds.n_instances} instances ({ds.n_features} features, {ds.n_labels} labels) to {args.out}")
    return 0


COMMANDS = {
    "corrupt": (cmd_corrupt, "replace full labels with complementary labels"),
    "estimate-t": (cmd_estimate_t, "estimate the transition matrix from complementary data"),
    "train": (cmd_train, "train one model on one data file"),
    "eval": (cmd_eval, "evaluate a checkpoint on fully labeled data"),
    "cv": (cmd_cv, "cross-validated pipeline"),
    "ablate": (cmd_ablate, "cv plus the two single-component ablations"),
    "sweep-beta": (cmd_sweep_beta, "cv once per trade-off value"),
    "clrl": (cmd_clrl, "compare cl, cl+relevant, and supervised"),
    "theory-check": (cmd_theory_check, "run the numerical theory checks"),
    "convert": (cmd_convert, "dense CSV feature/label matrices to the canonical format"),
}


def main(argv=None) -> int:
    try:
        args = _resolve(build_parser().parse_args(argv))
        with _exit_on_bad_value():
            return COMMANDS[args.command][0](args)
    except FileNotFoundError as exc:
        if exc.filename is None:
            raise
        raise SystemExit(f"{exc.filename}: {exc.strerror}") from None


if __name__ == "__main__":
    sys.exit(main())

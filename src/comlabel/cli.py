"""Command-line interface.

Subcommands: corrupt, estimate-t, train, eval, cv, ablate, sweep-beta, clrl,
theory-check, convert.  Flags override values from an optional flat
"key = value" config file; unknown config keys are rejected.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .dataset import (
    DatasetFormatError,
    MultiLabelDataset,
    parse_complementary_file,
    parse_multilabel_file,
    preprocess_topk_labels,
    read_table,
    table_lines,
    write_complementary_file,
    write_multilabel_file,
)
from .experiment import (
    CORRUPTION_MODES,
    REGIMES,
    AggregateReport,
    RunConfig,
    TheoryCheckFailure,
    check_relevant_count,
    corrupt,
    estimate_step,
    fit_regime,
    run_ablation,
    run_clrl,
    run_cv,
    run_theory,
    sweep_beta,
    write_clrl_csv,
    write_curve,
    write_report,
    write_sweep_csv,
    write_theory_csv,
)
from .metrics import evaluate_all
from .model import forward, load_model, save_model
from .optim import DEFAULT_LEARNING_RATE, LEARNING_RATE_GRID, TrainConfig
from .transition import load_transition_csv, save_transition_csv


class Option(NamedTuple):
    """One command-line option, declared once: its dest (the flag is
    `--dest` with dashes), the subcommands that take it, its value type
    (None for an on/off flag), the default that applies when neither a flag
    nor the config file sets it, help, its choices, whether a config file
    may set it, the subcommands that require it, the config field whose
    check (a message that begins with the field's name) names this flag,
    whether it is a path the command writes, and the regimes of `train`
    that read it.  Every subcommand also takes --config."""

    dest: str
    commands: tuple[str, ...]
    type: type | None = str
    default: object = None
    help: str | None = None
    choices: tuple[str, ...] | None = None
    config: bool = True
    required_by: tuple[str, ...] = ()
    checked: str | None = None
    output: bool = False
    regimes: tuple[str, ...] = REGIMES

    @property
    def flag(self) -> str:
        return "--" + self.dest.replace("_", "-")


CV = ("cv", "ablate", "sweep-beta", "clrl")  # the subcommands built on run_cv
TRAINING = ("estimate-t", "train", *CV)
COMPLEMENTARY = ("cl", "clrl")  # train's regimes that train through a transition matrix

OPTIONS = (
    Option("data", ("corrupt", "eval", *TRAINING), help="input data file", required_by=("corrupt", "eval", *TRAINING)),
    Option("mode", ("corrupt", *CV), default=RunConfig.corruption, help="corruption mode", choices=CORRUPTION_MODES),
    Option("seed", ("corrupt", "theory-check", *TRAINING), int, TrainConfig.seed),
    Option("lr", TRAINING, float, help=f"learning rate; without it, estimate-t and train use {DEFAULT_LEARNING_RATE} "
           f"and the cross-validated commands select one per fold from {{{', '.join(map(str, LEARNING_RATE_GRID))}}}",
           checked="learning_rates"),
    Option("epochs", TRAINING, int, TrainConfig.epochs, checked="epochs"),
    Option("batch", TRAINING, int, TrainConfig.batch_size, checked="batch_size"),
    # of train's regimes, only cl fits the squared-error term
    Option("beta", ("train", "cv", "ablate", "clrl"), float, TrainConfig.beta, "trade-off weight of the squared-error regularizer",
           checked="beta", regimes=("cl",)),
    Option("folds", CV, int, RunConfig.folds, checked="folds"),
    Option("max_labels", ("corrupt", *CV), int, RunConfig.max_labels, checked="max_labels"),
    Option("weight_decay", TRAINING, float, TrainConfig.weight_decay, checked="weight_decay"),
    Option("out", ("corrupt", "eval", *CV, "theory-check", "convert"), help="output path",
           required_by=("corrupt", "eval", *CV, "convert"), output=True),
    # ablate's no_correlation row estimates T, so it takes no transition file
    Option("transition_in", ("train", "cv", "sweep-beta", "clrl"), checked="transition", regimes=COMPLEMENTARY),
    Option("transition_out", ("estimate-t", "train"), required_by=("estimate-t",), output=True, regimes=COMPLEMENTARY),
    Option("curve_out", ("estimate-t", "train"), help="per-epoch training-loss CSV", output=True),
    Option("normalize_features", CV, default="off", choices=("on", "off")),
    Option("relevant", ("corrupt", "clrl"), int, help="also attach this many true relevant labels per instance",
           checked="relevant_count"),
    Option("no_correlation", ("estimate-t",), None, help="skip the correlation correction", config=False),
    Option("regime", ("train",), default=RunConfig.regime, choices=REGIMES),
    Option("model_out", ("train",), required_by=("train",), output=True),
    Option("model_in", ("eval",), required_by=("eval",)),
    Option("betas", ("sweep-beta",), default="0.1,0.3,0.5,0.8,1", help="comma-separated trade-off values"),
    Option("trials", ("theory-check",), int, 100, checked="n_trials"),
    Option("skip_consistency", ("theory-check",), None, help="skip the synthetic twin-training check", config=False),
    Option("features_csv", ("convert",), config=False, required_by=("convert",)),
    Option("labels_csv", ("convert",), config=False, required_by=("convert",)),
)

CONFIG_OPTIONS = {o.dest: o for o in OPTIONS if o.config}


def load_config_file(path: str) -> dict:
    """Flat `key = value` lines; blank lines and #-comments allowed."""
    values = {}
    for lineno, raw in table_lines(path):
        if "=" not in raw:
            raise SystemExit(f"config {path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = (t.strip() for t in raw.partition("="))
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
            if o.type is None:
                p.add_argument(o.flag, dest=o.dest, action="store_true", help=o.help)
            else:
                p.add_argument(o.flag, dest=o.dest, type=o.type, choices=o.choices, help=o.help)
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
    regime = (args.regime or config.get("regime", RunConfig.regime)) if args.command == "train" else None
    for o in OPTIONS:
        if args.command not in o.commands:
            continue
        if regime and regime not in o.regimes:
            if getattr(args, o.dest) is not None:
                raise SystemExit(f"{o.flag} is not read by train --regime {regime}")
            if o.dest in config:
                raise SystemExit(f"config {args.config}: {o.dest} is not read by train --regime {regime}")
        if getattr(args, o.dest) is None:
            setattr(args, o.dest, config.get(o.dest, o.default))
    return args


def _check_output_dirs(args) -> None:
    """Exit as writing would, before any input is read, on an output path
    whose directory does not exist."""
    for o in OPTIONS:
        path = getattr(args, o.dest, None) if o.output else None
        if path is not None and not Path(path).parent.is_dir():
            raise SystemExit(f"{path}: No such file or directory")


@contextmanager
def _exit_on_bad_value(flag: str | None = None):
    """Exit with the message of a check that fails inside, naming `flag` (or
    a file), or else the flag that sets the checked config field; a value
    error from no such check, such as a data file's, propagates."""
    try:
        yield
    except ValueError as exc:
        field = str(exc).partition(" ")[0]
        name = flag or next((o.flag for o in OPTIONS if o.checked == field), None)
        if name is None:
            raise
        raise SystemExit(f"{name}: {exc}") from None


def _read_csv(path: str) -> tuple[np.ndarray, list[int]]:
    """The CSV's table and each row's file line; a CSV that does not read as one exits naming it."""
    with _exit_on_bad_value(path):
        table, lines = read_table(table_lines(path), ",")
    if not lines:
        raise SystemExit(f"{path}: no rows")
    return table, lines


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


def _data_kind(args) -> str:
    """The command, and the kind of data file it reads at --data."""
    command = f"train --regime {args.regime}" if args.command == "train" else args.command
    complementary = args.command == "estimate-t" or (args.command == "train" and args.regime in COMPLEMENTARY)
    return f"{command} reads a {'complementary-label' if complementary else 'multi-label'} file"


def _print_summary(tag: str, report: AggregateReport) -> None:
    parts = [f"{name}={mean:.4f}±{std:.4f}" for name, (mean, std) in report.summary().items()]
    print(f"{tag}: " + " ".join(parts))


def cmd_corrupt(args) -> int:
    relevant = RunConfig.relevant_count if args.relevant is None else args.relevant
    # RunConfig checks the values corrupt shares with run_cv
    RunConfig(args.data, args.mode, max_labels=args.max_labels, relevant_count=relevant)
    ds = preprocess_topk_labels(parse_multilabel_file(args.data), args.max_labels)
    check_relevant_count(ds, relevant)
    cds = corrupt(ds, args.mode, args.seed, args.relevant)
    write_complementary_file(cds, args.out)
    print(f"wrote {cds.n_instances} complementary-labeled instances to {args.out}")
    return 0


def cmd_estimate_t(args) -> int:
    cfg = _train_config(args)
    cds = parse_complementary_file(args.data)
    (T,), (result,) = estimate_step(cds, cfg, args.no_correlation, curve=bool(args.curve_out))
    save_transition_csv(T, args.transition_out)
    if args.curve_out:
        write_curve(result.epoch_losses, args.curve_out)
    print(f"wrote {T.shape[0]}x{T.shape[1]} transition matrix to {args.transition_out}")
    return 0


def cmd_train(args) -> int:
    tcfg = _train_config(args)
    T = _transition_in(args)
    parse = parse_multilabel_file if args.regime == "supervised" else parse_complementary_file
    data = parse(args.data)
    if args.regime == "clrl" and data.relevant is None:
        raise SystemExit(f"{args.data}: train --regime clrl needs relevant labels, which corrupt --relevant N writes")
    (result,), T = fit_regime(data, args.regime, tcfg, T, curve=bool(args.curve_out))
    if args.transition_out:  # an estimated T is a stack of one
        save_transition_csv(T.reshape(T.shape[-2:]), args.transition_out)
    save_model(result.model, args.model_out)
    if args.curve_out:
        write_curve(result.epoch_losses, args.curve_out)
    print(f"trained {args.regime} model for {tcfg.epochs} epochs; checkpoint at {args.model_out}")
    return 0


def cmd_eval(args) -> int:
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
    report = run_cv(_run_config(args))
    write_report(report, args.out)
    _print_summary("cv", report)
    return 0


def cmd_ablate(args) -> int:
    reports = run_ablation(_run_config(args))
    base = Path(args.out)
    for name, rep in reports.items():
        path = base if name == "full" else base.with_name(base.stem + f".{name}" + base.suffix)
        write_report(rep, path)
    for name in ("no_correlation", "no_mse", "full"):
        _print_summary(name, reports[name])
    return 0


def cmd_sweep_beta(args) -> int:
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
    write_sweep_csv(rows, args.out)
    for beta, rep in rows:
        _print_summary(f"beta={beta}", rep)
    return 0


def cmd_clrl(args) -> int:
    reports = run_clrl(_run_config(args))
    write_clrl_csv(reports, args.out)
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
    (X, x_lines), (Y, y_lines) = _read_csv(args.features_csv), _read_csv(args.labels_csv)
    if X.shape[0] != Y.shape[0]:
        raise SystemExit(f"feature rows ({X.shape[0]}) and label rows ({Y.shape[0]}) disagree")
    # each check names its first bad row by its file line; astype(uint8) would truncate 0.5 to 0
    for path, lines, bad, what in (
        (args.features_csv, x_lines, ~np.isfinite(X).all(axis=1), "non-finite feature value"),
        (args.labels_csv, y_lines, ~np.isin(Y, (0, 1)).all(axis=1), "labels must be 0 or 1"),
        (args.labels_csv, y_lines, np.isin(Y.sum(axis=1), (0, Y.shape[1])), "no label or every label is 1"),
    ):
        if bad.any():
            raise SystemExit(f"{path}: line {lines[np.flatnonzero(bad)[0]]}: {what}")
    with _exit_on_bad_value(args.labels_csv):  # too few label columns
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
        _check_output_dirs(args)
        for o in OPTIONS:
            if args.command in o.required_by and getattr(args, o.dest) is None:
                raise SystemExit(f"{o.flag} is required for {args.command}")
        with _exit_on_bad_value():
            try:
                return COMMANDS[args.command][0](args)
            except DatasetFormatError as exc:  # of the files a command reads, only --data is a data file
                raise SystemExit(f"{args.data}: {exc} ({_data_kind(args)})") from None
    except FileNotFoundError as exc:
        if exc.filename is None:
            raise
        raise SystemExit(f"{exc.filename}: {exc.strerror}") from None


if __name__ == "__main__":
    sys.exit(main())

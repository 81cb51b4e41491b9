"""Every subcommand's options and the config keys, held to a snapshot.

`cli_options.json` records, per subcommand, each option's flag strings, dest,
argparse default, choices, help, value type (null for an on/off flag) and
whether argparse requires it; the values every option holds after the config
merge when no flag is given; and the keys a config file may set, with their
types.  Two differences from the snapshot are expected: --model-in,
--features-csv and --labels-csv are checked after the config merge rather
than by argparse, and --relevant carries corrupt's help string on clrl too.
The snapshot was taken when every subcommand took every shared option;
`DROPPED` lists the (subcommand, option) slots removed since, each one that
its subcommand never read or that had no effect there, so they are missing
from both the options and the resolved values.
"""

import argparse
import copy
import json
from pathlib import Path

import pytest

from comlabel import cli

SNAPSHOT = json.loads(Path(__file__).with_name("cli_options.json").read_text(encoding="utf-8"))
CHECKED_AFTER_MERGE = ("model_in", "features_csv", "labels_csv")
UNTRAINED = ("lr", "epochs", "batch", "beta", "weight_decay", "transition_in", "transition_out", "curve_out")
NOT_CV = ("folds", "normalize_features")
DROPPED = {
    "corrupt": (*UNTRAINED, *NOT_CV),
    "estimate-t": ("mode", "beta", "folds", "max_labels", "out", "transition_in", "normalize_features"),
    "train": ("mode", "folds", "max_labels", "out", "normalize_features"),
    "eval": ("mode", "seed", "max_labels", *UNTRAINED, *NOT_CV),
    "cv": ("transition_out", "curve_out"),
    "ablate": ("transition_in", "transition_out", "curve_out"),
    "sweep-beta": ("beta", "transition_out", "curve_out"),
    "clrl": ("transition_out", "curve_out"),
    "theory-check": ("data", "mode", "max_labels", *UNTRAINED, *NOT_CV),
    "convert": ("data", "mode", "seed", "max_labels", *UNTRAINED, *NOT_CV),
}


def _subparsers():
    parser = cli.build_parser()
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return parser, action


def _describe(command):
    parser, action = _subparsers()
    options = [
        {
            "option_strings": a.option_strings,
            "dest": a.dest,
            "default": a.default,
            "choices": list(a.choices) if a.choices else None,
            "help": a.help,
            "takes_value": a.nargs != 0,
            "required": a.required,
            "type": (a.type or str).__name__ if a.nargs != 0 else None,
        }
        for a in action.choices[command]._actions
        if not isinstance(a, argparse._HelpAction)
    ]
    resolved = vars(cli._resolve(parser.parse_args([command])))
    for key in ("command", *CHECKED_AFTER_MERGE):
        resolved.pop(key, None)
    summary = next(c.help for c in action._choices_actions if c.dest == command)
    return {"help": summary, "resolved": resolved, "options": options}


def _expected(command):
    spec = copy.deepcopy(SNAPSHOT["commands"][command])
    relevant_help = next(o["help"] for o in SNAPSHOT["commands"]["corrupt"]["options"] if o["dest"] == "relevant")
    spec["options"] = [o for o in spec["options"] if o["dest"] not in DROPPED[command]]
    for dest in DROPPED[command]:
        del spec["resolved"][dest]
    for o in spec["options"]:
        if o["dest"] in CHECKED_AFTER_MERGE:
            o["required"] = False
        if o["dest"] == "relevant":
            o["help"] = relevant_help
    return spec


def test_same_subcommands_in_order():
    assert list(_subparsers()[1].choices) == list(cli.COMMANDS)
    assert sorted(cli.COMMANDS) == sorted(SNAPSHOT["commands"])


@pytest.mark.parametrize("command", sorted(SNAPSHOT["commands"]))
def test_options_match_snapshot(command):
    assert _describe(command) == _expected(command)


def test_seventy_two_slots_dropped():
    slots = {command: len(_describe(command)["options"]) for command in cli.COMMANDS}
    assert sum(len(d) for d in DROPPED.values()) == 72
    assert slots == {
        "corrupt": 7, "estimate-t": 10, "train": 13, "eval": 4, "cv": 14,
        "ablate": 13, "sweep-beta": 14, "clrl": 15, "theory-check": 5, "convert": 4,
    }  # fmt: skip
    assert sum(slots.values()) == 99


def test_config_keys_match_snapshot():
    assert {key: o.type.__name__ for key, o in cli.CONFIG_OPTIONS.items()} == SNAPSHOT["config_keys"]


@pytest.mark.parametrize("key", ["config", "no_correlation", "skip_consistency", "features_csv", "labels_csv"])
def test_flag_only_options_rejected_in_config(key, tmp_path):
    cfgfile = tmp_path / "c.cfg"
    cfgfile.write_text(f"{key} = x\n")
    with pytest.raises(SystemExit, match="unknown key"):
        cli.load_config_file(cfgfile)

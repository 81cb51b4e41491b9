"""Tests generated from the facts each `cli.OPTIONS` entry declares, so a new
option is covered by declaring it."""

import re

import pytest

from comlabel.cli import OPTIONS, main
from comlabel.experiment import REGIMES


def run(*argv):
    return main([str(a) for a in argv])


def _id(value):
    return getattr(value, "dest", value)


@pytest.fixture(scope="module")
def relevant_file(data_file, tmp_path_factory):
    """Complementary data with one relevant label per instance, which every complementary regime trains on."""
    path = tmp_path_factory.mktemp("declarations") / "comp.txt"
    run("corrupt", "--data", data_file, "--out", path, "--relevant", "1")
    return path


@pytest.mark.parametrize("command, option", [(c, o) for o in OPTIONS for c in o.required_by], ids=_id)
def test_required_option_named(command, option, tmp_path):
    # the other required options name files that do not exist, so a command that read one first would name it
    argv = [command]
    for o in OPTIONS:
        if command in o.required_by and o is not option:
            argv += [o.flag, tmp_path / f"{o.dest}.txt"]
    with pytest.raises(SystemExit, match=f"^{option.flag} is required for {command}$"):
        run(*argv)
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "regime, option", [(r, o) for o in OPTIONS if "train" in o.commands for r in REGIMES if r not in o.regimes], ids=_id
)
def test_train_regime_refuses_unread_option(regime, option, data_file, relevant_file, tmp_path):
    # the data would train in this regime, so only the refusal keeps the checkpoint from being written
    data = data_file if regime == "supervised" else relevant_file
    model_path = tmp_path / "m.txt"
    cfgfile = tmp_path / "c.cfg"
    cfgfile.write_text(f"regime = {regime}\n{option.dest} = 1\n")
    for extra, named in (
        (["--regime", regime, option.flag, "1"], re.escape(option.flag)),
        (["--config", cfgfile], re.escape(f"config {cfgfile}: {option.dest}")),
    ):
        with pytest.raises(SystemExit, match=f"^{named} is not read by train --regime {regime}$"):
            run("train", "--data", data, "--model-out", model_path, "--epochs", "1", *extra)
    assert not model_path.exists()

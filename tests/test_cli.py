import argparse
import csv
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import comlabel
from comlabel.cli import COMMANDS, OPTIONS, _resolve, build_parser, load_config_file, main
from comlabel.dataset import (
    DatasetFormatError,
    MultiLabelDataset,
    parse_complementary_file,
    parse_multilabel_file,
    write_multilabel_file,
)
from comlabel.metrics import MetricsReport
from comlabel.model import load_model
from comlabel.optim import TrainConfig, train_cl_predictor
from comlabel.transition import (
    estimate_transition,
    load_transition_csv,
    save_transition_csv,
    uniform_transition,
    validate_transition,
)


def run(*argv):
    return main([str(a) for a in argv])


def fold_rows(report_path):
    """A report CSV's per-fold rows: those after its `fold,<metric>...` header."""
    rows = list(csv.reader(Path(report_path).read_text().splitlines()))
    return rows[rows.index(["fold", *MetricsReport.METRIC_NAMES]) + 1 :]


class TestCorrupt:
    def test_writes_complementary_file(self, data_file, tmp_path, capsys):
        out = tmp_path / "comp.txt"
        assert run("corrupt", "--data", data_file, "--out", out, "--seed", "3") == 0
        cds = parse_complementary_file(out)
        assert cds.n_instances == 150
        assert cds.relevant is None
        assert "150" in capsys.readouterr().out

    def test_biased_with_relevant(self, data_file, tmp_path):
        out = tmp_path / "comp.txt"
        assert run("corrupt", "--data", data_file, "--out", out, "--mode", "biased", "--relevant", "1") == 0
        cds = parse_complementary_file(out)
        assert cds.relevant is not None
        assert np.all(cds.relevant.sum(axis=1) == 1)

    def test_deterministic(self, data_file, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        run("corrupt", "--data", data_file, "--out", a, "--seed", "9")
        run("corrupt", "--data", data_file, "--out", b, "--seed", "9")
        assert a.read_bytes() == b.read_bytes()


class TestEstimateT:
    def test_writes_transition_csv(self, data_file, tmp_path):
        comp = tmp_path / "comp.txt"
        run("corrupt", "--data", data_file, "--out", comp, "--seed", "1")
        tfile = tmp_path / "T.csv"
        assert run("estimate-t", "--data", comp, "--transition-out", tfile, "--epochs", "20") == 0
        T = load_transition_csv(tfile)
        validate_transition(T)

    def test_transition_file_gives_the_checkpoint_of_its_estimate(self, data_file, tmp_path):
        # the file holds T to the bit, so training through it is training through the estimate
        comp = tmp_path / "comp.txt"
        run("corrupt", "--data", data_file, "--out", comp, "--seed", "3")
        fit = ("--epochs", "20", "--lr", "0.01", "--seed", "3")
        tfile = tmp_path / "T.csv"
        run("estimate-t", "--data", comp, "--transition-out", tfile, *fit)
        run("train", "--data", comp, "--model-out", tmp_path / "own.txt", *fit)
        run("train", "--data", comp, "--transition-in", tfile, "--model-out", tmp_path / "read.txt", *fit)
        assert (tmp_path / "read.txt").read_bytes() == (tmp_path / "own.txt").read_bytes()

    @pytest.mark.parametrize("no_correlation", [False, True])
    def test_writes_the_estimate_of_its_predictor(self, data_file, tmp_path, no_correlation):
        comp = tmp_path / "comp.txt"
        run("corrupt", "--data", data_file, "--out", comp, "--seed", "3")
        flag = ["--no-correlation"] if no_correlation else []
        run("estimate-t", "--data", comp, "--transition-out", tmp_path / "T.csv", "--epochs", "20", "--seed", "3", *flag)
        cds = parse_complementary_file(comp)
        (predictor,) = train_cl_predictor(cds, TrainConfig(learning_rates=(1e-2,), epochs=20, seed=3), curve=False)
        T = estimate_transition(cds, predictor.model, use_correlation=not no_correlation)
        save_transition_csv(T, tmp_path / "want.csv")
        assert (tmp_path / "T.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


class TestCurveOut:
    """The loss curves `--curve-out` writes, at 12 significant digits: the
    bytes of the two-term BCE formula's values, which the one-log form
    reproduces bit for bit."""

    CURVES = {
        "estimate-t": ("2.05140889863", "1.94572224561", "1.86321278008", "1.78762692402"),
        "cl": ("4.03853121296", "3.90141769598", "3.77745578637", "3.67521261902"),
        "clrl": ("4.10857100709", "3.958380805", "3.81917670785", "3.69817948872"),
        "supervised": ("3.38261210714", "3.2129682496", "3.06612462505", "2.9307349969"),
    }

    @pytest.mark.parametrize("command", list(CURVES))
    def test_bytes(self, data_file, tmp_path, command):
        comp = tmp_path / "comp.txt"
        run("corrupt", "--data", data_file, "--out", comp, "--seed", "2", "--relevant", "1")
        fit = ("--epochs", "4", "--seed", "3", "--batch", "64", "--curve-out", tmp_path / "curve.csv")
        if command == "estimate-t":
            run("estimate-t", "--data", comp, "--transition-out", tmp_path / "T.csv", *fit)
        else:
            data = data_file if command == "supervised" else comp
            run("train", "--data", data, "--regime", command, "--model-out", tmp_path / "m.txt", *fit)
        want = "epoch,loss\n" + "".join(f"{i},{v}\n" for i, v in enumerate(self.CURVES[command]))
        assert (tmp_path / "curve.csv").read_text() == want


class TestTrainEval:
    def test_train_then_eval(self, data_file, tmp_path):
        comp = tmp_path / "comp.txt"
        run("corrupt", "--data", data_file, "--out", comp, "--seed", "2")
        model_path = tmp_path / "model.txt"
        curve = tmp_path / "curve.csv"
        tfile = tmp_path / "T.csv"
        assert (
            run(
                "train", "--data", comp, "--model-out", model_path,
                "--epochs", "30", "--curve-out", curve, "--transition-out", tfile,
            )
            == 0
        )
        model = load_model(model_path)
        assert model.head == "sigmoid"
        lines = curve.read_text().splitlines()
        assert lines[0] == "epoch,loss" and len(lines) == 31
        report_path = tmp_path / "eval.csv"
        assert run("eval", "--data", data_file, "--model-in", model_path, "--out", report_path) == 0
        assert len(fold_rows(report_path)) == 1

    @pytest.mark.parametrize("features, labels", [(5, 4), (6, 3)])
    def test_eval_rejects_checkpoint_of_other_shape(self, data_file, tmp_path, features, labels):
        model_path = tmp_path / "sup.txt"
        run("train", "--data", data_file, "--regime", "supervised", "--model-out", model_path, "--epochs", "1")
        X = np.random.default_rng(0).standard_normal((10, features))
        other = tmp_path / "other.txt"
        write_multilabel_file(MultiLabelDataset(X, np.eye(labels, dtype=np.uint8)[np.arange(10) % labels]), other)
        out = tmp_path / "eval.csv"
        want = f"sup.txt: checkpoint has 6 features and 4 labels, but .*other.txt has {features} features and {labels} labels$"
        with pytest.raises(SystemExit, match=want):
            run("eval", "--data", other, "--model-in", model_path, "--out", out)
        assert not out.exists()

    @pytest.mark.parametrize("entry, what", [("x", "non-numeric"), ("inf", "non-finite")])
    def test_eval_names_checkpoint_line_of_bad_entry(self, data_file, tmp_path, entry, what):
        model_path = tmp_path / "sup.txt"
        model_path.write_text("6 2 sigmoid\n" + "0 " * 6 + "0\n" + "0 " * 6 + f"{entry}\n")
        out = tmp_path / "eval.csv"
        with pytest.raises(SystemExit, match=f"sup.txt: line 3: {what} entry in '0 0 0 0 0 0 {entry}'$"):
            run("eval", "--data", data_file, "--model-in", model_path, "--out", out)
        assert not out.exists()

    def test_train_supervised(self, data_file, tmp_path):
        model_path = tmp_path / "sup.txt"
        assert run("train", "--data", data_file, "--regime", "supervised", "--model-out", model_path, "--epochs", "10") == 0
        assert load_model(model_path).head == "sigmoid"

    def test_train_clrl_via_relevant_file(self, data_file, tmp_path):
        comp = tmp_path / "comp.txt"
        run("corrupt", "--data", data_file, "--out", comp, "--relevant", "1", "--seed", "4")
        model_path = tmp_path / "clrl.txt"
        assert run("train", "--data", comp, "--regime", "clrl", "--model-out", model_path, "--epochs", "10") == 0

    @pytest.mark.parametrize("name, value", [("beta", "0.5"), ("transition_in", "T.csv"), ("transition_out", "T.csv")])
    def test_supervised_refuses_transition_options(self, name, value, data_file, tmp_path):
        # the supervised regime fits no transition-composed loss, so it would ignore them
        model_path = tmp_path / "sup.txt"
        flag = "--" + name.replace("_", "-")
        cfgfile = tmp_path / "c.cfg"
        cfgfile.write_text(f"regime = supervised\n{name} = {value}\n")
        for extra, named in (
            (["--regime", "supervised", flag, value], flag),
            (["--config", cfgfile], rf"c\.cfg: {name}"),
        ):
            with pytest.raises(SystemExit, match=f"{named} is not read by train --regime supervised"):
                run("train", "--data", data_file, "--model-out", model_path, "--epochs", "1", *extra)
        assert not model_path.exists()

    def test_clrl_refuses_beta(self, data_file, tmp_path):
        # the clrl loss has no squared-error term: its checkpoints were byte-identical at --beta 0 and 5
        comp = tmp_path / "comp.txt"
        run("corrupt", "--data", data_file, "--out", comp, "--relevant", "1")
        model_path = tmp_path / "clrl.txt"
        cfgfile = tmp_path / "c.cfg"
        cfgfile.write_text("regime = clrl\nbeta = 5\n")
        for extra, named in (
            (["--regime", "clrl", "--beta", "5"], "--beta"),
            (["--config", cfgfile], f"config {cfgfile}: beta"),
        ):
            with pytest.raises(SystemExit, match=f"^{re.escape(named)} is not read by train --regime clrl$"):
                run("train", "--data", comp, "--model-out", model_path, "--epochs", "3", *extra)
        assert not model_path.exists()

    def test_clrl_without_relevant_labels_names_file(self, data_file, tmp_path, monkeypatch):
        import comlabel.optim as optim

        monkeypatch.setattr(optim, "_run_loop", lambda *a, **kw: pytest.fail("a model was trained"))
        comp = tmp_path / "comp.txt"
        run("corrupt", "--data", data_file, "--out", comp)
        model_path = tmp_path / "clrl.txt"
        with pytest.raises(SystemExit, match=f"^{re.escape(str(comp))}: .* corrupt --relevant N"):
            run("train", "--data", comp, "--regime", "clrl", "--model-out", model_path)
        assert not model_path.exists()

    def test_train_with_transition_in(self, data_file, tmp_path):
        comp = tmp_path / "comp.txt"
        run("corrupt", "--data", data_file, "--out", comp, "--seed", "5")
        tfile = tmp_path / "T.csv"
        run("estimate-t", "--data", comp, "--transition-out", tfile, "--epochs", "10")
        model_path = tmp_path / "m.txt"
        assert run("train", "--data", comp, "--transition-in", tfile, "--model-out", model_path, "--epochs", "10") == 0

    @pytest.mark.parametrize("regime", ["cl", "clrl"])
    def test_transition_out_is_the_matrix_trained_through(self, data_file, tmp_path, regime):
        # read from --transition-in or estimated, T is written as the one K x K matrix
        comp = tmp_path / "comp.txt"
        run("corrupt", "--data", data_file, "--out", comp, "--seed", "5", "--relevant", "1")
        fit = ("--epochs", "5", "--seed", "2")
        a, b, c = tmp_path / "A.csv", tmp_path / "B.csv", tmp_path / "C.csv"
        run("estimate-t", "--data", comp, "--transition-out", a, *fit)
        train = ("train", "--data", comp, "--regime", regime, "--model-out", tmp_path / "m.txt", *fit)
        assert run(*train, "--transition-in", a, "--transition-out", b) == 0
        assert b.read_bytes() == a.read_bytes()
        assert run(*train, "--transition-out", c) == 0
        assert c.read_bytes() == a.read_bytes()


class TestCV:
    def test_cv_writes_report(self, data_file, tmp_path):
        out = tmp_path / "cv.csv"
        assert (
            run("cv", "--data", data_file, "--folds", "3", "--epochs", "15", "--lr", "0.01", "--out", out) == 0
        )
        assert len(fold_rows(out)) == 3

    def test_bad_transition_file_fails_before_training(self, data_file, tmp_path, monkeypatch):
        import comlabel.experiment as experiment

        def no_training(*args, **kwargs):
            raise AssertionError("a fold was fitted before the transition file was checked")

        monkeypatch.setattr(experiment, "fit_fold", no_training)
        tfile = tmp_path / "t.csv"
        tfile.write_text("0,0.5,0.25,0.25\n0.5,0,0.25,0.25\n0.5,0.25,0,0.25\n0.5,0.25,0.5,0\n")
        with pytest.raises(SystemExit, match=f"^{re.escape(str(tfile))}: line 4: transition matrix rows must sum to 1"):
            run("cv", "--data", data_file, "--folds", "3", "--epochs", "5", "--lr", "0.01",
                "--transition-in", tfile, "--out", tmp_path / "cv.csv")  # fmt: skip

    @pytest.mark.parametrize("command", ["sweep-beta", "clrl", "train"])
    def test_bad_transition_file_named_before_training(self, command, data_file, tmp_path, monkeypatch):
        import comlabel.optim as optim

        def no_training(*args, **kwargs):
            raise AssertionError("a model was trained before the transition file was checked")

        out = tmp_path / "out"
        if command == "train":  # train reads complementary labels
            run("corrupt", "--data", data_file, "--out", tmp_path / "comp.txt", "--seed", "1")
            argv = ("--data", tmp_path / "comp.txt", "--model-out", out)
        else:
            argv = ("--data", data_file, "--out", out)
        monkeypatch.setattr(optim, "_run_loop", no_training)
        tfile = tmp_path / "t.csv"
        tfile.write_text("0,1,x\n")
        with pytest.raises(SystemExit, match=f"^{re.escape(str(tfile))}: line 1: non-numeric entry in '0,1,x'$"):
            run(command, *argv, "--transition-in", tfile, "--epochs", "1")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["cv", "sweep-beta", "clrl", "train"])
    def test_transition_of_other_label_count_named(self, command, data_file, tmp_path, monkeypatch):
        import comlabel.optim as optim

        def no_model(*args, **kwargs):
            raise AssertionError("a model was initialised before the transition's size was checked")

        tfile = tmp_path / "T5.csv"
        save_transition_csv(uniform_transition(5), tfile)  # the data have 4 labels
        out, t_out = tmp_path / "out", tmp_path / "T_out.csv"
        if command == "train":
            run("corrupt", "--data", data_file, "--out", tmp_path / "comp.txt", "--seed", "1")
            argv = ("--data", tmp_path / "comp.txt", "--model-out", out, "--transition-out", t_out)
            where = "the data have 4 labels$"
        else:
            argv = ("--data", data_file, "--out", out)
            where = f"{re.escape(str(data_file))} has 4 labels after label filtering$"
        monkeypatch.setattr(optim, "init_linear", no_model)
        with pytest.raises(SystemExit, match=rf"^--transition-in: transition has shape \(5, 5\), but {where}"):
            run(command, *argv, "--transition-in", tfile, "--epochs", "1", "--lr", "0.01")
        assert not out.exists() and not t_out.exists()

    @pytest.mark.parametrize("command", ["cv", "sweep-beta", "clrl"])
    def test_transition_file_read_once(self, command, data_file, tmp_path, monkeypatch):
        # not again per variant, fold or rate
        tfile = tmp_path / "T.csv"
        save_transition_csv(uniform_transition(4), tfile)
        reads = []
        read_text = Path.read_text

        def spy(path, *args, **kwargs):
            if path == tfile:
                reads.append(path)
            return read_text(path, *args, **kwargs)

        monkeypatch.setattr(Path, "read_text", spy)
        betas = ("--betas", "0,0.5,1") if command == "sweep-beta" else ()
        fit = ("--folds", "2", "--epochs", "2", "--lr", "0.01")
        assert run(command, "--data", data_file, "--transition-in", tfile, *fit, *betas, "--out", tmp_path / "o.csv") == 0
        assert len(reads) == 1

    @pytest.mark.parametrize("command", ["cv", "corrupt"])
    def test_no_row_left_by_max_labels_named(self, command, tmp_path, monkeypatch):
        import comlabel.experiment as experiment

        monkeypatch.setattr(experiment, "fit_fold", lambda *a: pytest.fail("a fold was fitted"))
        # the three most frequent labels are all of each row's or none of them
        y = [[1, 1, 1, 0]] * 3 + [[0, 0, 0, 1]] * 2
        data = tmp_path / "five.txt"
        write_multilabel_file(MultiLabelDataset(np.eye(5, 3), np.array(y, dtype=np.uint8)), data)
        out = tmp_path / "out"
        fit = ("--lr", "0.01") if command == "cv" else ()
        with pytest.raises(SystemExit, match="^--max-labels: max_labels 3 leaves no instance "):
            run(command, "--data", data, "--max-labels", "3", *fit, "--out", out)
        assert not out.exists()

    @pytest.mark.parametrize("command", ["cv", "sweep-beta"])
    def test_more_folds_than_rows_named(self, command, tmp_path, monkeypatch):
        import comlabel.experiment as experiment

        def no_training(*args, **kwargs):
            raise AssertionError("a fold was fitted")

        monkeypatch.setattr(experiment, "fit_fold", no_training)
        # eight rows; keeping the four most frequent labels leaves one row with
        # no label and one with all four, and both are dropped
        y = [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 1, 0, 0], [0, 0, 0, 1, 0],
             [1, 1, 0, 0, 0], [0, 0, 1, 1, 0], [0, 0, 0, 0, 1], [1, 1, 1, 1, 0]]  # fmt: skip
        data = tmp_path / "small.txt"
        write_multilabel_file(MultiLabelDataset(np.eye(8, 3), np.array(y, dtype=np.uint8)), data)
        out = tmp_path / "out.csv"
        with pytest.raises(SystemExit, match="^--folds: folds must be at most the 6 instances left after label filtering, got 10$"):
            run(command, "--data", data, "--max-labels", "4", "--folds", "10", "--lr", "0.01", "--out", out)
        assert not out.exists()

    def test_ablate_writes_three_reports(self, data_file, tmp_path, monkeypatch):
        import comlabel.cli as cli

        def no_run_cv(cfg):
            raise AssertionError("ablate ran run_cv beside run_ablation")

        monkeypatch.setattr(cli, "run_cv", no_run_cv)  # run_ablation's rows are every report ablate writes
        out = tmp_path / "ab.csv"
        assert run("ablate", "--data", data_file, "--folds", "2", "--epochs", "10", "--lr", "0.01", "--out", out) == 0
        assert out.exists()
        assert (tmp_path / "ab.no_correlation.csv").exists()
        assert (tmp_path / "ab.no_mse.csv").exists()

    def test_sweep_beta(self, data_file, tmp_path):
        out = tmp_path / "sweep.csv"
        assert (
            run(
                "sweep-beta", "--data", data_file, "--folds", "2", "--epochs", "10",
                "--lr", "0.01", "--betas", "0.5,1", "--out", out,
            )
            == 0
        )
        lines = out.read_text().splitlines()
        assert lines[0].startswith("beta,hamming_loss_mean")
        assert len(lines) == 3

    @pytest.mark.parametrize("betas, token", [(" ", "' '"), ("0.1,x", "'x'")])
    def test_sweep_beta_bad_betas_rejected(self, data_file, tmp_path, betas, token):
        out = tmp_path / "sweep.csv"
        with pytest.raises(SystemExit, match=f"^--betas: .*{token}"):
            run("sweep-beta", "--data", data_file, "--folds", "2", "--epochs", "1", "--lr", "0.01", "--betas", betas, "--out", out)
        assert not out.exists()

    def test_sweep_beta_non_finite_beta_fails_before_training(self, data_file, tmp_path, monkeypatch):
        import comlabel.experiment as experiment

        def no_training(cfg):
            raise AssertionError("the data were read before every beta was checked")

        monkeypatch.setattr(experiment, "_load_and_fold", no_training)
        out = tmp_path / "sweep.csv"
        with pytest.raises(SystemExit, match="^--betas: beta must be nonnegative and finite, got nan$"):
            run("sweep-beta", "--data", data_file, "--folds", "2", "--epochs", "1", "--lr", "0.01", "--betas", "0.1,nan", "--out", out)
        assert not out.exists()

    def test_clrl_comparison(self, data_file, tmp_path):
        out = tmp_path / "clrl.csv"
        assert run("clrl", "--data", data_file, "--folds", "2", "--epochs", "10", "--lr", "0.01", "--out", out) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "variant,metric,mean,std"
        assert len(lines) == 1 + 3 * 5


class TestRelevantCount:
    # --relevant defaults to 1 only when absent; 0 is rejected, not run as 1
    @pytest.mark.parametrize(
        "command,msg", [("corrupt", "relevant_count must be at least 1"), ("clrl", "relevant_count must be at least 1")]
    )
    def test_zero_rejected(self, data_file, tmp_path, command, msg):
        out = tmp_path / "out.txt"
        cv_flags = ("--folds", "2", "--epochs", "2", "--lr", "0.01") if command == "clrl" else ()
        # both commands exit with RunConfig's message
        with pytest.raises(SystemExit, match=f"^--relevant: {msg}, got 0$"):
            run(command, "--data", data_file, "--relevant", "0", *cv_flags, "--out", out)
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag, value, msg",
        [("--relevant", "0", "relevant_count must be at least 1"), ("--max-labels", "2", "max_labels must be at least 3")],
    )
    def test_corrupt_checks_before_reading_data(self, tmp_path, flag, value, msg):
        with pytest.raises(SystemExit, match=f"^{flag}: {msg}, got {value}$"):
            run("corrupt", "--data", tmp_path / "missing.txt", flag, value, "--out", tmp_path / "out.txt")

    def test_zero_from_config_rejected(self, data_file, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("relevant = 0\n")
        with pytest.raises(SystemExit, match="^--relevant: relevant_count must be at least 1, got 0$"):
            run("clrl", "--config", cfg, "--data", data_file, "--out", tmp_path / "out.csv")

    @pytest.mark.parametrize("command", ["clrl", "corrupt"])
    def test_more_than_a_row_keeps_named_before_any_fit(self, command, data_file, tmp_path, monkeypatch):
        import comlabel.experiment as experiment

        fits = []
        fit_fold = experiment.fit_fold
        monkeypatch.setattr(experiment, "fit_fold", lambda *a: fits.append(a) or fit_fold(*a))
        sizes = parse_multilabel_file(data_file).y.sum(axis=1)  # 1 or 2 labels per row; max_labels keeps all 4
        first = int(np.flatnonzero(sizes < 3)[0])
        out = tmp_path / "out"
        cv_flags = ("--folds", "3", "--epochs", "1", "--lr", "0.01") if command == "clrl" else ()
        msg = f"must be at most the {sizes[first]} labels of instance {first} after label filtering, got 3"
        with pytest.raises(SystemExit, match=f"^--relevant: relevant_count {msg}$"):
            run(command, "--data", data_file, "--relevant", "3", *cv_flags, "--out", out)
        assert fits == []
        assert not out.exists()


class TestBadTrainingValue:
    # a value TrainConfig or RunConfig rejects, from a flag, exits naming the
    # flag and the value before anything is trained
    @pytest.mark.parametrize(
        "command, flag, value",
        [(c, "--lr", "nan") for c in ("cv", "ablate", "sweep-beta", "clrl", "train", "estimate-t")]
        + [(c, "--weight-decay", "inf") for c in ("cv", "ablate", "sweep-beta", "clrl", "train", "estimate-t")]
        + [(c, "--beta", "nan") for c in ("cv", "ablate", "clrl", "train")]
        + [("train", "--batch", "0"), ("estimate-t", "--epochs", "-1"), ("cv", "--folds", "1")]
        + [(c, "--max-labels", "2") for c in ("cv", "ablate", "sweep-beta", "clrl")],
    )
    def test_exits_before_training(self, command, flag, value, data_file, tmp_path, monkeypatch):
        import comlabel.optim as optim

        def no_training(*args, **kwargs):
            raise AssertionError("a model was trained before the value was checked")

        monkeypatch.setattr(optim, "_run_loop", no_training)
        out = {"train": "--model-out", "estimate-t": "--transition-out"}.get(command, "--out")
        with pytest.raises(SystemExit, match=rf"^{flag}: \w+ must be [ \w]+, got {value}$"):
            run(command, "--data", data_file, flag, value, out, tmp_path / "out")
        assert not (tmp_path / "out").exists()


class TestDivergedTraining:
    """A training whose gradient turns non-finite exits with the error's own
    message, which names the fold under cross-validation, and writes nothing."""

    @pytest.mark.parametrize(
        "command, output, prefix",
        [("train", "--model-out", ""), ("estimate-t", "--transition-out", ""), ("cv", "--out", "fold 0 failed: ")],
        ids=["train", "estimate-t", "cv"],
    )
    def test_exits_with_message(self, command, output, prefix, data_file, tmp_path):
        data = data_file
        if command != "cv":
            data = tmp_path / "comp.txt"
            run("corrupt", "--data", data_file, "--out", data, "--seed", "0")
        out = tmp_path / "out"
        with pytest.warns(RuntimeWarning):  # Adam's step divides inf by inf before the gradient is checked
            with pytest.raises(SystemExit) as info:
                run(command, "--data", data, "--lr", "1e300", "--epochs", "5", output, out)
        want = rf"{prefix}non-finite gradient in parameter \d+ at index \(\d+, \d+\) \(step \d+\)"
        assert re.fullmatch(want, info.value.code)
        assert not out.exists()


class TestDataFileError:
    """A data file that the command cannot read exits with its path, the
    parser's own message and the kind of file the command reads, and no
    output is written."""

    @pytest.fixture(scope="class")
    def files(self, data_file, tmp_path_factory):
        d = tmp_path_factory.mktemp("kinds")
        run("corrupt", "--data", data_file, "--out", d / "comp.txt", "--seed", "0")
        run("train", "--regime", "supervised", "--data", data_file, "--model-out", d / "model.txt", "--epochs", "1")
        (d / "header.txt").write_text("x 2 4\n0 0:1.0\n")
        (d / "short.txt").write_text("2 3 3\n0 0:1.0\n")
        return {"multi-label": data_file, "complementary": d / "comp.txt", "model": d / "model.txt",
                "header": d / "header.txt", "short": d / "short.txt"}

    @pytest.mark.parametrize(
        "argv, data, output, reads",
        [
            (("estimate-t",), "multi-label", "--transition-out", "estimate-t reads a complementary-label"),
            (("train", "--regime", "cl"), "multi-label", "--model-out", "train --regime cl reads a complementary-label"),
            (("train", "--regime", "clrl"), "multi-label", "--model-out", "train --regime clrl reads a complementary-label"),
            (("train", "--regime", "supervised"), "complementary", "--model-out", "train --regime supervised reads a multi-label"),
            (("corrupt",), "complementary", "--out", "corrupt reads a multi-label"),
            (("eval", "--model-in", "model"), "complementary", "--out", "eval reads a multi-label"),
            *((("cv", "--lr", "0.01"), data, "--out", "cv reads a multi-label") for data in ("header", "short")),
            *(((command, "--epochs", "1"), "header", "--out", f"{command} reads a multi-label")
              for command in ("ablate", "sweep-beta", "clrl")),
        ],
        ids=["estimate-t", "train-cl", "train-clrl", "train-supervised", "corrupt", "eval", "cv-header", "cv-short",
             "ablate", "sweep-beta", "clrl"],
    )
    def test_exit_names_file_and_kind(self, files, tmp_path, argv, data, output, reads):
        reader = parse_complementary_file if "complementary" in reads else parse_multilabel_file
        with pytest.raises(DatasetFormatError) as parsed:
            reader(files[data])
        argv = [files.get(a, a) for a in argv]  # "model" stands for a checkpoint of the data's shape
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as info:
            run(*argv, "--data", files[data], output, out)
        assert str(info.value) == f"{files[data]}: {parsed.value} ({reads} file)"
        assert not out.exists()


class TestTheoryCheck:
    def test_passes_and_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "theory.csv"
        code = run("theory-check", "--trials", "10", "--skip-consistency", "--out", out)
        assert code == 0
        assert "passed" in capsys.readouterr().out
        assert out.read_text().splitlines()[0] == "scenario,lhs,rhs,pass"

    def test_failed_check_exits_1(self, tmp_path, capsys, monkeypatch):
        import comlabel.experiment as experiment

        monkeypatch.setattr(experiment, "corollary3_bound", lambda sc: 2)  # no distortion reaches 2
        out = tmp_path / "theory.csv"
        assert run("theory-check", "--trials", "2", "--skip-consistency", "--out", out) == 1
        assert capsys.readouterr().err.startswith("FAIL: distortion bound failed: ")
        assert not out.exists()

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_negative_trials_refused_before_any_check(self, source, tmp_path, monkeypatch):
        import comlabel.experiment as experiment

        def no_check(*args):
            raise AssertionError("a theory check ran before --trials was checked")

        for check in ("theorem1_gap", "scenario_distortion", "consistency_experiment"):
            monkeypatch.setattr(experiment, check, no_check)
        cfgfile = tmp_path / "theory.cfg"
        cfgfile.write_text("trials = -5\n")
        trials = ("--trials", "-5") if source == "flag" else ("--config", cfgfile)
        out = tmp_path / "theory.csv"
        with pytest.raises(SystemExit, match="^--trials: n_trials must be at least 0, got -5$"):
            run("theory-check", *trials, "--out", out)
        assert not out.exists()


@pytest.mark.parametrize("missing, argv", [
    ("missing.txt", "cv --data missing.txt --lr 0.01"),
    ("nofile.csv", "cv --data DATA --transition-in nofile.csv --lr 0.01"),
    ("nofile", "eval --data DATA --model-in nofile"),
    ("nocfg", "cv --config nocfg --data DATA --lr 0.01"),
    ("nox.csv", "convert --features-csv nox.csv --labels-csv noy.csv"),
    ("noy.csv", "convert --features-csv X.csv --labels-csv noy.csv"),
])  # fmt: skip
def test_missing_input_file_named(missing, argv, data_file, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "X.csv").write_text("0.5,1\n")
    with pytest.raises(SystemExit, match=f"^{re.escape(missing)}: No such file or directory$"):
        run(*(data_file if a == "DATA" else a for a in argv.split()), "--out", "out.csv")
    assert not (tmp_path / "out.csv").exists()


OUTPUT_OPTIONS = ("out", "model_out", "transition_out", "curve_out")


@pytest.mark.parametrize(
    "command, option", [(c, o.dest) for o in OPTIONS if o.dest in OUTPUT_OPTIONS for c in o.commands]
)
def test_missing_output_directory_named_before_any_input(command, option, tmp_path, monkeypatch):
    # every input is missing too, so a command that read one first would name it instead
    monkeypatch.setattr("comlabel.cli.run_theory", lambda **kw: pytest.fail("theory-check ran"))
    takes = {o.dest for o in OPTIONS if command in o.commands}
    argv = [command]
    for dest in sorted(takes & {"data", "model_in", "features_csv", "labels_csv", *OUTPUT_OPTIONS[:3]}):
        argv += ["--" + dest.replace("_", "-"), tmp_path / f"{dest}.txt"]
    missing = tmp_path / "nodir" / "o.csv"
    with pytest.raises(SystemExit, match=f"^{re.escape(str(missing))}: No such file or directory$"):
        run(*argv, "--" + option.replace("_", "-"), missing)
    assert not list(tmp_path.iterdir())


class TestConvert:
    def test_csv_pair_to_canonical(self, tmp_path):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((6, 3))
        Y = np.array([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 0], [0, 1, 1], [1, 0, 1]])
        np.savetxt(tmp_path / "X.csv", X, delimiter=",")
        np.savetxt(tmp_path / "Y.csv", Y, delimiter=",", fmt="%d")
        out = tmp_path / "data.txt"
        assert run("convert", "--features-csv", tmp_path / "X.csv", "--labels-csv", tmp_path / "Y.csv", "--out", out) == 0
        ds = parse_multilabel_file(out)
        np.testing.assert_array_equal(ds.y, Y)
        assert isinstance(ds.features, np.ndarray)  # dense rows are stored dense
        np.testing.assert_allclose(ds.features, X, atol=1e-15)

    @staticmethod
    def _convert(tmp_path, features, labels):
        (tmp_path / "X.csv").write_text(features)
        (tmp_path / "Y.csv").write_text(labels)
        return run("convert", "--features-csv", tmp_path / "X.csv", "--labels-csv", tmp_path / "Y.csv", "--out", tmp_path / "data.txt")

    def test_one_feature_column(self, tmp_path):
        assert self._convert(tmp_path, "0.5\n1.5\n2.5\n", "1,0,0\n0,1,0\n0,0,1\n") == 0
        np.testing.assert_array_equal(parse_multilabel_file(tmp_path / "data.txt").features, [[0.5], [1.5], [2.5]])

    @pytest.mark.parametrize(
        "features, labels, error",
        [
            ("1,2\n3,\n5,6\n", "1,0,0\n0,1,0\n0,0,1\n", r"X\.csv: line 2: non-numeric entry in '3,'$"),
            ("1,2\n3,4\n5,6\n", "1,0,0\n0,1,0\n0,0.5,1\n", r"Y\.csv: line 3: labels must be 0 or 1"),
            ("1,2\n3\n5,6\n", "1,0,0\n0,1,0\n0,0,1\n", r"X\.csv: line 2: 1 entries, but line 1 has 2$"),
            ("1,2\n3,4\n5,6\n", "1,0,0\n0,0,0\n0,0,1\n", r"Y\.csv: line 2: no label or every label is 1$"),
            ("1,2\n3,4\n5,6\n", "1,0,0\n0,1,0\n1,1,1\n", r"Y\.csv: line 3: no label or every label is 1$"),
            ("1,2\n3,4\n5,6\n", "1,0\n0,1\n1,0\n", r"Y\.csv: label space needs at least 3 labels, got 2$"),
            # blank lines and whole-line # comments are skipped, but count as file lines
            ("1,2\n\n3,\n5,6\n", "1,0,0\n0,1,0\n0,0,1\n", r"X\.csv: line 3: non-numeric entry in '3,'$"),
            ("# x, y\n1,2\n\n3,4\n5\n", "1,0,0\n0,1,0\n0,0,1\n", r"X\.csv: line 5: 1 entries, but line 2 has 2$"),
            ("1,2\n3,4\n5,6\n", "1,0,0\n\n0,x,0\n0,0,1\n", r"Y\.csv: line 3: non-numeric entry in '0,x,0'$"),
            ("1,2\n\n3,nan\n5,6\n", "1,0,0\n0,1,0\n0,0,1\n", r"X\.csv: line 3: non-finite feature value$"),
            ("1,2\n3,4\n5,6\n", "\n1,0,0\n# two\n0,1,0\n1,1,1\n", r"Y\.csv: line 5: no label or every label is 1$"),
            ("1,2\n3,4 # note\n5,6\n", "1,0,0\n0,1,0\n0,0,1\n", r"X\.csv: line 2: non-numeric entry in '3,4 # note'$"),
        ],
        ids=["missing-feature", "fractional-label", "ragged-features", "no-label", "every-label", "two-labels",
             "blank-then-missing", "comment-then-ragged", "bad-label", "non-finite-feature", "comment-then-every-label",
             "trailing-comment"],  # fmt: skip
    )
    def test_bad_value_rejected_with_row(self, tmp_path, features, labels, error):
        with pytest.raises(SystemExit, match=error):
            self._convert(tmp_path, features, labels)
        assert not (tmp_path / "data.txt").exists()

    @pytest.mark.parametrize("empty", ["X.csv", "Y.csv"])
    def test_empty_csv_named_without_warning(self, tmp_path, empty):
        # in a fresh interpreter, so that a warning would reach stderr as it does for a user
        (tmp_path / "X.csv").write_text("1,2\n3,4\n5,6\n")
        (tmp_path / "Y.csv").write_text("1,0,0\n0,1,0\n0,0,1\n")
        (tmp_path / empty).write_text("")
        argv = ["convert", "--features-csv", tmp_path / "X.csv", "--labels-csv", tmp_path / "Y.csv", "--out", tmp_path / "data.txt"]
        entry = "import sys; from comlabel.cli import main; sys.exit(main(sys.argv[1:]))"
        env = dict(os.environ, PYTHONPATH=str(Path(comlabel.__file__).resolve().parents[1]))
        done = subprocess.run([sys.executable, "-c", entry, *map(str, argv)], capture_output=True, text=True, env=env, timeout=120)
        assert (done.returncode, done.stdout, done.stderr) == (1, "", f"{tmp_path / empty}: no rows\n")
        assert not (tmp_path / "data.txt").exists()


class TestConfigFile:
    def test_values_used_and_flags_override(self, data_file, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("epochs = 10\nfolds = 2\nlr = 0.01\nseed = 2\n")
        out = tmp_path / "cv.csv"
        assert run("cv", "--config", cfgfile, "--data", data_file, "--out", out, "--folds", "3") == 0
        assert len(fold_rows(out)) == 3  # flag overrides config's folds=2

    def test_unknown_key_rejected(self, tmp_path):
        cfgfile = tmp_path / "bad.cfg"
        cfgfile.write_text("learning_speed = 3\n")
        with pytest.raises(SystemExit, match="unknown key"):
            load_config_file(cfgfile)

    def test_bad_value_rejected(self, tmp_path):
        cfgfile = tmp_path / "bad.cfg"
        cfgfile.write_text("epochs = soon\n")
        with pytest.raises(SystemExit, match="bad value"):
            load_config_file(cfgfile)

    @pytest.mark.parametrize(
        "key, value, command",
        [("mode", "uniformm", "corrupt"), ("regime", "supervisd", "train"), ("normalize_features", "yes", "cv")],
    )
    def test_value_outside_choices_rejected(self, key, value, command, data_file, tmp_path):
        # the value a flag's choices would refuse is refused from a file too, before anything runs
        cfgfile = tmp_path / "typo.cfg"
        cfgfile.write_text(f"# a comment\n{key} = {value}\n")
        out = tmp_path / "out"
        out_flag = "--model-out" if command == "train" else "--out"
        with pytest.raises(SystemExit, match=rf"typo\.cfg:2: {key} must be one of .*'{value}'"):
            run(command, "--config", cfgfile, "--data", data_file, out_flag, out)
        assert not out.exists()

    @pytest.mark.parametrize(
        "key, value, takers", [("regime", "supervised", "train"), ("relevant", "3", "corrupt, clrl"), ("betas", "9", "sweep-beta")]
    )
    def test_key_the_command_does_not_take_rejected(self, key, value, takers, data_file, tmp_path):
        cfgfile = tmp_path / "c.cfg"
        cfgfile.write_text(f"{key} = {value}\n")
        out = tmp_path / "cv.csv"
        with pytest.raises(SystemExit, match=rf"c\.cfg: {key} is taken only by {takers}, not by cv"):
            run("cv", "--config", cfgfile, "--data", data_file, "--out", out, "--epochs", "1", "--folds", "2", "--lr", "0.01")
        assert not out.exists()

    def test_model_in_from_config_satisfies_eval(self, data_file, tmp_path):
        model_path = tmp_path / "sup.txt"
        run("train", "--data", data_file, "--regime", "supervised", "--model-out", model_path, "--epochs", "2")
        cfgfile = tmp_path / "eval.cfg"
        cfgfile.write_text(f"model_in = {model_path}\n")
        out = tmp_path / "eval.csv"
        assert run("eval", "--config", cfgfile, "--data", data_file, "--out", out) == 0
        assert len(fold_rows(out)) == 1

    @pytest.mark.parametrize(
        "command, extra, flag",
        [("eval", ("--data", "data.txt"), "--model-in"), ("convert", ("--labels-csv", "Y.csv"), "--features-csv")],
    )
    def test_missing_value_named_after_merge(self, command, extra, flag, tmp_path):
        out = tmp_path / "out"
        with pytest.raises(SystemExit, match=f"{flag} is required for {command}"):
            run(command, "--out", out, *extra)
        assert not out.exists()

    def test_comments_and_blanks_allowed(self, tmp_path):
        cfgfile = tmp_path / "ok.cfg"
        cfgfile.write_text("# a comment\n\nepochs = 7\n")
        assert load_config_file(cfgfile) == {"epochs": 7}


@pytest.fixture(scope="module")
def inputs(data_file, tmp_path_factory):
    """Every input file some subcommand reads, made from the fixture data."""
    d = tmp_path_factory.mktemp("inputs")
    run("corrupt", "--data", data_file, "--out", d / "comp.txt", "--seed", "1")
    run("train", "--data", data_file, "--regime", "supervised", "--model-out", d / "model.txt", "--epochs", "2")
    ds = parse_multilabel_file(data_file)
    np.savetxt(d / "X.csv", ds.features, delimiter=",")
    np.savetxt(d / "Y.csv", ds.y, delimiter=",", fmt="%d")
    return d


def _argv(command, data, d):
    fit = ("--epochs", "2", "--lr", "0.01")
    cv = ("--data", data, "--out", d / f"{command}.csv", "--folds", "2", *fit)
    return {
        "corrupt": ("--data", data, "--out", d / "c.txt", "--relevant", "1"),
        "estimate-t": ("--data", d / "comp.txt", "--transition-out", d / "T.csv", *fit),
        "train": ("--data", d / "comp.txt", "--model-out", d / "m.txt", *fit),
        "eval": ("--data", data, "--model-in", d / "model.txt", "--out", d / "eval.csv"),
        "cv": cv,
        "ablate": cv,
        "sweep-beta": (*cv, "--betas", "1"),
        "clrl": cv,
        "theory-check": ("--trials", "2", "--skip-consistency"),
        "convert": ("--features-csv", d / "X.csv", "--labels-csv", d / "Y.csv", "--out", d / "conv.txt"),
    }[command]


@pytest.mark.parametrize("command", list(COMMANDS))
def test_every_accepted_option_is_read(command, data_file, inputs):
    # an option a subcommand accepts but never reads is one that cannot change its output
    args = _resolve(build_parser().parse_args([command, *map(str, _argv(command, data_file, inputs))]))
    read = set()

    class Recorder(argparse.Namespace):
        def __getattribute__(self, name):
            value = super().__getattribute__(name)
            read.add(name)
            return value

    assert COMMANDS[command][0](Recorder(**vars(args))) == 0
    accepted = set(vars(args)) - {"command", "config"}
    assert accepted == read & accepted


def _readme_command_lines():
    text = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    return [shlex.split(line)[1:] for line in text.replace("\\\n", " ").splitlines() if line.startswith("comlabel ")]


@pytest.mark.parametrize("argv", _readme_command_lines(), ids=lambda argv: argv[0])
def test_readme_command_line_parses(argv):
    build_parser().parse_args(argv)


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


# Refusals that no other test reaches in this process: each call with tmp_path
# and its exact SystemExit message, in which TMP stands for tmp_path.
REFUSALS = [
    pytest.param(lambda tmp: load_config_file(_write(tmp, "run.cfg", "# epochs\n\nepochs 7\n")),
                 "config TMP/run.cfg:3: expected 'key = value', got 'epochs 7'", id="config-line-without-equals"),
    pytest.param(lambda tmp: TestConvert._convert(tmp, "1,2\n3,4\n5,6\n", "1,0,0\n0,1,0\n"),
                 "feature rows (3) and label rows (2) disagree", id="convert-row-counts"),
    pytest.param(lambda tmp: TestConvert._convert(tmp, "1,2\n3,4\n", "# no rows\n\n"), "TMP/Y.csv: no rows", id="convert-comments-only"),
]  # fmt: skip


@pytest.mark.parametrize("call, message", REFUSALS)
def test_refusal_message(tmp_path, call, message):
    with pytest.raises(SystemExit) as info:
        call(tmp_path)
    assert str(info.value) == message.replace("TMP", str(tmp_path))
    assert not (tmp_path / "data.txt").exists()

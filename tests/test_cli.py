import numpy as np
import pytest

from comlabel.cli import load_config_file, main
from comlabel.dataset import make_uniform_cl_spec, parse_complementary_file, sample_from_generative, write_multilabel_file
from comlabel.experiment import read_report
from comlabel.model import load_model
from comlabel.transition import load_transition_csv, validate_transition


@pytest.fixture(scope="module")
def data_file(tmp_path_factory):
    K = 4
    n_subsets = 2**K - 2
    probs = np.zeros(n_subsets)
    for k in range(K):
        probs[(1 << k) - 1] = 0.7 / K
    probs[(1 << 0 | 1 << 1) - 1] = 0.3
    full, _ = sample_from_generative(make_uniform_cl_spec(K, probs), 150, 6, seed=50)
    path = tmp_path_factory.mktemp("cli") / "data.txt"
    write_multilabel_file(full, path)
    return path


def run(*argv):
    return main([str(a) for a in argv])


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
        rep = read_report(report_path)
        assert len(rep.fold_reports) == 1

    def test_train_supervised(self, data_file, tmp_path):
        model_path = tmp_path / "sup.txt"
        assert run("train", "--data", data_file, "--regime", "supervised", "--model-out", model_path, "--epochs", "10") == 0
        assert load_model(model_path).head == "sigmoid"

    def test_train_clrl_via_relevant_file(self, data_file, tmp_path):
        comp = tmp_path / "comp.txt"
        run("corrupt", "--data", data_file, "--out", comp, "--relevant", "1", "--seed", "4")
        model_path = tmp_path / "clrl.txt"
        assert run("train", "--data", comp, "--regime", "clrl", "--model-out", model_path, "--epochs", "10") == 0

    def test_train_with_transition_in(self, data_file, tmp_path):
        comp = tmp_path / "comp.txt"
        run("corrupt", "--data", data_file, "--out", comp, "--seed", "5")
        tfile = tmp_path / "T.csv"
        run("estimate-t", "--data", comp, "--transition-out", tfile, "--epochs", "10")
        model_path = tmp_path / "m.txt"
        assert run("train", "--data", comp, "--transition-in", tfile, "--model-out", model_path, "--epochs", "10") == 0


class TestCV:
    def test_cv_writes_report(self, data_file, tmp_path):
        out = tmp_path / "cv.csv"
        assert (
            run("cv", "--data", data_file, "--folds", "3", "--epochs", "15", "--lr", "0.01", "--out", out) == 0
        )
        rep = read_report(out)
        assert len(rep.fold_reports) == 3

    def test_bad_transition_file_fails_before_training(self, data_file, tmp_path, monkeypatch):
        import comlabel.experiment as experiment

        def no_training(*args, **kwargs):
            raise AssertionError("a fold was fitted before the transition file was checked")

        monkeypatch.setattr(experiment, "fit_fold", no_training)
        tfile = tmp_path / "t.csv"
        tfile.write_text("0,0.5,0.25,0.25\n0.5,0,0.25,0.25\n0.5,0.25,0,0.25\n0.5,0.25,0.5,0\n")
        with pytest.raises(ValueError, match="^line 4: transition matrix rows must sum to 1"):
            run("cv", "--data", data_file, "--folds", "3", "--epochs", "5", "--lr", "0.01",
                "--transition-in", tfile, "--out", tmp_path / "cv.csv")  # fmt: skip

    def test_ablate_writes_three_reports(self, data_file, tmp_path):
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

    def test_clrl_comparison(self, data_file, tmp_path):
        out = tmp_path / "clrl.csv"
        assert run("clrl", "--data", data_file, "--folds", "2", "--epochs", "10", "--lr", "0.01", "--out", out) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "variant,metric,mean,std"
        assert len(lines) == 1 + 3 * 5


class TestRelevantCount:
    # --relevant defaults to 1 only when absent; 0 is rejected, not run as 1
    @pytest.mark.parametrize(
        "command,msg", [("corrupt", "r must be at least 1"), ("clrl", "relevant_count must be at least 1")]
    )
    def test_zero_rejected(self, data_file, tmp_path, command, msg):
        out = tmp_path / "out.txt"
        with pytest.raises(ValueError, match=msg):
            run(command, "--data", data_file, "--relevant", "0", "--folds", "2", "--epochs", "2", "--lr", "0.01", "--out", out)
        assert not out.exists()

    def test_zero_from_config_rejected(self, data_file, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("relevant = 0\n")
        with pytest.raises(ValueError, match="relevant_count must be at least 1"):
            run("clrl", "--config", cfg, "--data", data_file, "--out", tmp_path / "out.csv")


class TestTheoryCheck:
    def test_passes_and_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "theory.csv"
        code = run("theory-check", "--trials", "10", "--skip-consistency", "--out", out)
        assert code == 0
        assert "passed" in capsys.readouterr().out
        assert out.read_text().splitlines()[0] == "scenario,lhs,rhs,pass"


class TestConvert:
    def test_csv_pair_to_canonical(self, tmp_path):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((6, 3))
        Y = np.array([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 0], [0, 1, 1], [1, 0, 1]])
        np.savetxt(tmp_path / "X.csv", X, delimiter=",")
        np.savetxt(tmp_path / "Y.csv", Y, delimiter=",", fmt="%d")
        out = tmp_path / "data.txt"
        assert run("convert", "--features-csv", tmp_path / "X.csv", "--labels-csv", tmp_path / "Y.csv", "--out", out) == 0
        from comlabel.dataset import parse_multilabel_file

        ds = parse_multilabel_file(out)
        np.testing.assert_array_equal(ds.y, Y)
        assert isinstance(ds.features, np.ndarray)  # dense rows are stored dense
        np.testing.assert_allclose(ds.features, X, atol=1e-15)


class TestConfigFile:
    def test_values_used_and_flags_override(self, data_file, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("epochs = 10\nfolds = 2\nlr = 0.01\nseed = 2\n")
        out = tmp_path / "cv.csv"
        assert run("cv", "--config", cfgfile, "--data", data_file, "--out", out, "--folds", "3") == 0
        rep = read_report(out)
        assert len(rep.fold_reports) == 3  # flag overrides config's folds=2

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
        with pytest.raises(SystemExit, match=rf"typo\.cfg:2: {key} must be one of .*'{value}'"):
            run(command, "--config", cfgfile, "--data", data_file, "--out", out, "--epochs", "1", "--folds", "2", "--lr", "0.01")
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
        assert len(read_report(out).fold_reports) == 1

    @pytest.mark.parametrize(
        "command, extra, flag", [("eval", (), "--model-in"), ("convert", ("--labels-csv", "Y.csv"), "--features-csv")]
    )
    def test_missing_value_named_after_merge(self, command, extra, flag, data_file, tmp_path):
        out = tmp_path / "out"
        with pytest.raises(SystemExit, match=f"{flag} is required for {command}"):
            run(command, "--data", data_file, "--out", out, *extra)
        assert not out.exists()

    def test_comments_and_blanks_allowed(self, tmp_path):
        cfgfile = tmp_path / "ok.cfg"
        cfgfile.write_text("# a comment\n\nepochs = 7\n")
        assert load_config_file(cfgfile) == {"epochs": 7}

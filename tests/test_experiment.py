import re
from dataclasses import fields, replace

import numpy as np
import pytest

import comlabel.experiment as experiment_module
from comlabel.dataset import (
    MultiLabelDataset,
    make_uniform_cl_spec,
    parse_multilabel_file,
    sample_from_generative,
    write_multilabel_file,
)
from comlabel.experiment import (
    AggregateReport,
    RunConfig,
    fit_fold,
    read_report,
    run_ablation,
    run_clrl,
    run_cv,
    run_theory,
    sweep_beta,
    write_report,
    write_theory_csv,
)
from comlabel.metrics import MetricsReport
from comlabel.optim import LEARNING_RATE_GRID, NonFiniteGradientError, TrainConfig
from comlabel.theory import random_generative_spec, random_posterior
from comlabel.transition import correct_and_normalize, estimate_initial_S, estimate_transition
from comlabel.model import init_linear


def correlated_spec(K=5):
    """A spec with strong pairwise mass so the correlation correction matters."""
    n_subsets = 2**K - 2
    probs = np.zeros(n_subsets)
    for k in range(K):
        probs[(1 << k) - 1] = 0.6 / K
    probs[(1 << 0 | 1 << 1) - 1] = 0.25
    probs[(1 << 2 | 1 << 3) - 1] = 0.15
    return make_uniform_cl_spec(K, probs)


@pytest.fixture(scope="module")
def data_file(tmp_path_factory):
    full, _ = sample_from_generative(correlated_spec(), 240, 8, seed=100)
    path = tmp_path_factory.mktemp("data") / "synth.txt"
    write_multilabel_file(full, path)
    return path


def report_bytes(report, tmp_path):
    """The bytes that write_report writes for `report`."""
    path = tmp_path / "report.csv"
    write_report(report, path)
    return path.read_bytes()


def quick_config(data_file, rates=(1e-2,), **kw):
    """A short run at `rates`, one fixed rate unless told otherwise."""
    defaults = dict(
        data_path=data_file,
        corruption="uniform",
        folds=3,
        train=TrainConfig(epochs=25, seed=11),
    )
    defaults.update(kw)
    defaults["train"] = replace(defaults["train"], learning_rates=rates)
    return RunConfig(**defaults)


class TestRunCV:
    def test_report_shape_and_ranges(self, data_file):
        report = run_cv(quick_config(data_file))
        assert len(report.fold_reports) == 3
        for name in MetricsReport.METRIC_NAMES:
            assert 0.0 <= report.mean(name) <= 1.0
            assert report.std(name) >= 0.0

    def test_deterministic_csv_bytes(self, data_file, tmp_path):
        cfg = quick_config(data_file)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_report(run_cv(cfg), p1)
        write_report(run_cv(cfg), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_biased_mode_runs(self, data_file):
        report = run_cv(quick_config(data_file, corruption="biased"))
        assert len(report.fold_reports) == 3

    def test_normalization_path(self, data_file):
        report = run_cv(quick_config(data_file, normalize=True))
        assert len(report.fold_reports) == 3

    def test_learning_rate_grid_selection(self, data_file):
        cfg = quick_config(data_file, LEARNING_RATE_GRID, folds=2, train=TrainConfig(epochs=8, seed=3))
        report = run_cv(cfg)
        assert len(report.fold_reports) == 2

    def test_grid_fit_split_copied_once(self, data_file, monkeypatch):
        # the lockstep grid training sees the fit rows once, shared by both
        # views and paired with their own labels
        import comlabel.experiment as experiment
        from comlabel.complementary import corrupt_uniform

        train_ds = parse_multilabel_file(data_file)
        cds, _ = corrupt_uniform(train_ds, seed=4)
        seen, real = [], experiment._train_grid

        def spy(fit_cds, fit_ds, *args):
            seen.append((fit_cds, fit_ds))
            return real(fit_cds, fit_ds, *args)

        monkeypatch.setattr(experiment, "_train_grid", spy)
        cfg = quick_config(data_file, LEARNING_RATE_GRID)
        experiment.select_learning_rate(cds, train_ds, cfg, TrainConfig(epochs=2, seed=3))
        assert len(seen) == 1
        for fit_cds, fit_ds in seen:
            assert fit_ds.features is fit_cds.features
            rows = [np.flatnonzero((train_ds.features == r).all(axis=1)) for r in fit_ds.features]
            assert all(len(m) == 1 for m in rows)
            np.testing.assert_array_equal(fit_ds.y, train_ds.y[np.concatenate(rows)])

    def test_beats_random_scores(self, data_file):
        # chance-level average precision here is ~0.46; the full pipeline at
        # the standard epoch budget sits far above it
        report = run_cv(quick_config(data_file, train=TrainConfig(epochs=200, seed=11)))
        assert report.mean("average_precision") > 0.55


class TestNoCurve:
    """A training asked for no loss curve computes no loss value and
    leaves its models as they are with one."""

    @pytest.mark.parametrize("features", ["dense", "csr"])
    @pytest.mark.parametrize("rates", [(1e-2,), (1e-1, 1e-2, 1e-3)], ids=["alone", "lockstep"])
    @pytest.mark.parametrize("trainer", ["cl_predictor", "mlcl", "clrl", "supervised"])
    def test_models_bit_equal_and_curve_empty(self, data_file, trainer, rates, features):
        import scipy.sparse as sp

        from comlabel.experiment import corrupt
        from comlabel.optim import train_cl_predictor, train_clrl, train_mlcl, train_supervised
        from comlabel.transition import uniform_transition

        train_ds = parse_multilabel_file(data_file)
        if features == "csr":
            X = np.where(np.abs(train_ds.features) < 0.5, 0.0, train_ds.features)
            train_ds = MultiLabelDataset(sp.csr_matrix(X), train_ds.y)
        cds = corrupt(train_ds, "biased", 3, relevant=1)
        T = uniform_transition(cds.n_labels)
        T = T if len(rates) == 1 else np.stack([T] * len(rates))
        cfg = TrainConfig(learning_rates=rates, epochs=3, batch_size=50, seed=5)

        def train(curve):
            if trainer == "cl_predictor":
                return train_cl_predictor(cds, cfg, curve)
            if trainer == "supervised":
                return train_supervised(train_ds, cfg, curve)
            return (train_mlcl if trainer == "mlcl" else train_clrl)(cds, T, cfg, curve)

        kept, skipped = train(True), train(False)
        assert len(kept) == len(skipped) == len(rates)
        for a, b in zip(kept, skipped):
            assert a.model.weights.tobytes() == b.model.weights.tobytes()
            assert a.model.bias.tobytes() == b.model.bias.tobytes()
            assert len(a.epoch_losses) == cfg.epochs and b.epoch_losses == []

    @pytest.mark.parametrize("regime", ["cl", "clrl", "supervised"])
    def test_run_cv_computes_no_loss_value(self, data_file, monkeypatch, regime):
        import comlabel.loss as loss

        asked, real = [], loss.score_objective

        def spy(F, kind, **kw):
            values, G = real(F, kind, **kw)
            asked.append(values is not None)
            return values, G

        monkeypatch.setattr(loss, "score_objective", spy)
        run_cv(quick_config(data_file, LEARNING_RATE_GRID, regime=regime, train=TrainConfig(epochs=2, seed=3)))
        assert asked and not any(asked)


class TestFoldFailure:
    @pytest.mark.parametrize(
        "rates,cpus",
        [
            pytest.param((1e-2,), 2, id="fixed_lr"),
            pytest.param(LEARNING_RATE_GRID, 2, id="grid"),
            pytest.param((1e-2,), 4, id="fixed_lr-4cpus"),
            pytest.param(LEARNING_RATE_GRID, 4, id="grid-4cpus"),
        ],
    )
    def test_error_names_fold_and_keeps_cause(self, data_file, monkeypatch, cpu_set, rates, cpus):
        import comlabel.experiment as experiment

        cpu_set(cpus)  # of the 3 folds, fold 2 trains in this process at 2 CPUs and in a forked child at 4
        cfg = quick_config(data_file, rates, train=TrainConfig(epochs=2, seed=11))
        orig = experiment.train_mlcl

        def diverging_on_fold_2(cds, T, tcfg, *rest):
            if tcfg.seed == cfg.train.seed + 2:  # each fold trains with seed + fold index
                raise NonFiniteGradientError(f"non-finite gradient in parameter 0 at index (0, 0) (rates {tcfg.learning_rates})")
            return orig(cds, T, tcfg, *rest)

        monkeypatch.setattr(experiment, "train_mlcl", diverging_on_fold_2)
        with pytest.raises(RuntimeError) as info:
            run_cv(cfg)
        # a failed grid is rerun one rate at a time, and its first rate, failing alone, is raised
        message = f"non-finite gradient in parameter 0 at index (0, 0) (rates {rates[:1]})"
        assert str(info.value) == f"fold 2 failed: {message}"
        assert type(info.value.__cause__) is NonFiniteGradientError
        assert str(info.value.__cause__) == message


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestDivergence:
    """Three exclusive classes in the plane, and ten rows far out along one
    axis.  Those rows saturate every head, so they add no gradient, until the
    predictor's weights grow enough for their logits to overflow (NumPy
    warns of the overflow and of the inf - inf that follows).  Only the lr
    1e-1 predictor gets there within the epochs."""

    @pytest.fixture(scope="class")
    def far_rows(self, tmp_path_factory):
        rng = np.random.default_rng(1)
        angles = np.array([0.0, 2.0, 4.0]) * np.pi / 3
        directions = np.stack([np.cos(angles), np.sin(angles)], axis=1)
        y = rng.integers(0, 3, 120)
        X = directions[y] * rng.uniform(0.5, 1.5, (120, 1))
        X[:10], y[:10] = [-1e308, 0.0], 1
        path = tmp_path_factory.mktemp("diverge") / "far.txt"
        write_multilabel_file(MultiLabelDataset(X, np.eye(3, dtype=np.uint8)[y]), path)
        return path

    def test_grid_divergence_names_fold(self, far_rows):
        cfg = quick_config(far_rows, LEARNING_RATE_GRID, train=TrainConfig(epochs=10, batch_size=16, seed=3))
        message = "fold 1 failed: non-finite gradient in parameter 0 at index (0, 0) (step 22)"
        with pytest.raises(RuntimeError) as info:
            run_cv(cfg)
        assert str(info.value) == message
        assert isinstance(info.value.__cause__, NonFiniteGradientError)

    def test_fixed_lr_divergence_names_fold(self, far_rows):
        cfg = quick_config(far_rows, (1e-1,), train=TrainConfig(epochs=10, batch_size=16, seed=3))
        message = "fold 1 failed: non-finite gradient in parameter 0 at index (0, 0) (step 20)"
        with pytest.raises(RuntimeError) as info:
            run_cv(cfg)
        assert str(info.value) == message
        assert isinstance(info.value.__cause__, NonFiniteGradientError)

    def test_overflowing_predictor_named(self, far_rows):
        # fewer, larger batches: the lr 1e-1 predictor's logits overflow on the
        # far rows before any gradient does, and the grid fails that rate
        cfg = quick_config(far_rows, LEARNING_RATE_GRID, train=TrainConfig(epochs=6, batch_size=32, seed=3))
        message = "fold 1 failed: complementary-label predictor gave non-finite scores on instance 0"
        with pytest.raises(RuntimeError) as info:
            run_cv(cfg)
        assert str(info.value) == message
        assert isinstance(info.value.__cause__, ValueError)

    @pytest.mark.parametrize("learning_rate", [1e-2, 1e-3])
    def test_smaller_rates_converge(self, far_rows, learning_rate):
        cfg = quick_config(far_rows, (learning_rate,), train=TrainConfig(epochs=10, batch_size=16, seed=3))
        assert len(run_cv(cfg).fold_reports) == 3


class TestEmptyCandidatePool:
    """Every row is relevant to all labels but label 2, so label 2 is every
    instance's complementary label and no instance's candidate: both pool
    fallbacks fire in every fold, and the run still completes."""

    @pytest.fixture(scope="class")
    def one_label_never_relevant(self, tmp_path_factory):
        rng = np.random.default_rng(12)
        y = np.tile([1, 1, 0, 1], (60, 1))
        path = tmp_path_factory.mktemp("pool") / "all_but_one.txt"
        write_multilabel_file(MultiLabelDataset(rng.standard_normal((60, 5)), y), path)
        return path

    @pytest.mark.parametrize("rates", [(1e-2,), LEARNING_RATE_GRID], ids=["fixed_lr", "grid"])
    def test_run_completes_with_both_fallbacks(self, one_label_never_relevant, rates):
        cfg = quick_config(one_label_never_relevant, rates, train=TrainConfig(epochs=5, seed=3))
        with pytest.warns(UserWarning) as caught:
            report = run_cv(cfg)
        messages = {str(w.message) for w in caught}
        assert any(m.startswith("labels [2] are candidates of no instance") for m in messages), messages
        assert any(m.startswith("labels [2] appear as the complementary label of every instance") for m in messages), messages
        for name in MetricsReport.METRIC_NAMES:
            assert np.isfinite(report.mean(name))


class TestEmptyValidationSplit:
    def test_selection_falls_back_to_one_hundredth(self, monkeypatch):
        # each label is the complementary label of at most one row, so the
        # stratified split holds out no row and nothing is trained to select
        import comlabel.experiment as experiment
        from comlabel.dataset import ComplementaryDataset

        def no_training(*args):
            raise AssertionError("a rate was trained with no row to score it on")

        monkeypatch.setattr(experiment, "_train_grid", no_training)
        X = np.random.default_rng(3).standard_normal((3, 5))
        train_ds = MultiLabelDataset(X, np.array([[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1]]))
        cds = ComplementaryDataset(X, np.array([3, 0, 1]), 4)
        cfg = quick_config("unused", LEARNING_RATE_GRID)
        assert experiment.select_learning_rate(cds, train_ds, cfg, cfg.train) == 1e-2


class TestLeakageAudit:
    def test_test_fold_never_consumed(self, data_file):
        # two datasets that agree on fold 0's training rows and differ on its
        # test rows, split with the same seed, must fit bit-identical models
        from comlabel.dataset import kfold_split

        cfg = quick_config(data_file)
        clean = parse_multilabel_file(data_file)
        test_rows = kfold_split(clean, 3, cfg.train.seed)[0].test_indices
        X = np.array(clean.features)
        y = clean.y.copy()
        X[test_rows] = np.random.default_rng(7).standard_normal((test_rows.size, X.shape[1])) * 100.0
        y[test_rows] = 1 - y[test_rows]  # the complement of a nonempty proper subset is one too
        garbled = MultiLabelDataset(X, y)

        fold_a = kfold_split(clean, 3, cfg.train.seed)[0]
        fold_b = kfold_split(garbled, 3, cfg.train.seed)[0]
        assert np.array_equal(fold_a.test_indices, fold_b.test_indices)
        assert not np.array_equal(fold_a.test.features, fold_b.test.features)
        assert not np.array_equal(fold_a.test.y, fold_b.test.y)
        model_a, _ = fit_fold(fold_a.train, cfg, fold_a.fold_index)
        model_b, _ = fit_fold(fold_b.train, cfg, fold_b.fold_index)
        assert model_a.weights.tobytes() == model_b.weights.tobytes()
        assert model_a.bias.tobytes() == model_b.bias.tobytes()


class TestTransitionFile:
    def test_read_once_per_run(self, data_file, tmp_path, monkeypatch):
        import comlabel.cli as cli
        import comlabel.experiment as experiment
        from comlabel.transition import save_transition_csv

        rng = np.random.default_rng(2)
        T = rng.random((5, 5))
        np.fill_diagonal(T, 0.0)
        save_transition_csv(T / T.sum(axis=1, keepdims=True), tmp_path / "t.csv")
        reads, runs = [], []
        load = cli.load_transition_csv
        monkeypatch.setattr(cli, "load_transition_csv", lambda path: reads.append(path) or load(path))
        monkeypatch.setattr(cli, "run_cv", lambda cfg: runs.append(cfg) or run_cv(cfg))
        out = tmp_path / "cv.csv"
        # the flags of quick_config(data_file, LEARNING_RATE_GRID)
        cli.main(["cv", "--data", str(data_file), "--folds", "3", "--epochs", "25", "--seed", "11",
                  "--transition-in", str(tmp_path / "t.csv"), "--out", str(out)])  # fmt: skip
        assert len(reads) == 1  # not once per fold and grid candidate
        (cfg,) = runs
        assert cfg == quick_config(str(data_file), LEARNING_RATE_GRID)  # the matrix takes no part in comparing
        assert not hasattr(experiment, "load_transition_csv")  # the run reads no transition file
        # the same bytes as folds fitted one by one, each on a config of its own
        by_fold = AggregateReport(tuple(experiment._run_fold(f, replace(cfg)) for f in experiment._load_and_fold(cfg)))
        assert len(reads) == 1
        assert out.read_bytes() == report_bytes(by_fold, tmp_path)

    def test_transition_of_other_label_count_named_before_any_fold(self, data_file, monkeypatch):
        import comlabel.experiment as experiment
        from comlabel.transition import uniform_transition

        monkeypatch.setattr(experiment, "fit_fold", lambda *a: pytest.fail("a fold was fitted"))
        cfg = quick_config(data_file, transition=uniform_transition(4))
        want = rf"^transition has shape \(4, 4\), but {re.escape(str(data_file))} has 5 labels after label filtering$"
        with pytest.raises(ValueError, match=want):
            run_cv(cfg)


class TestAblation:
    def test_no_correlation_skips_only_the_correction(self):
        spec = correlated_spec()
        _, comp = sample_from_generative(spec, 400, 8, seed=5)
        predictor = init_linear(8, 5, "softmax", seed=1)
        S = estimate_initial_S(comp, predictor)
        T_off = estimate_transition(comp, predictor, use_correlation=False)
        np.testing.assert_allclose(T_off, correct_and_normalize(S, np.eye(5)), atol=1e-12)

    def test_two_variant_reports(self, data_file, monkeypatch):
        # the full run and its two variants, in that order, each cross-validated on the same folds
        import comlabel.experiment as experiment

        runs = []
        real = experiment._cross_validate
        monkeypatch.setattr(experiment, "_cross_validate", lambda folds, c: runs.append((folds, c)) or real(folds, c))
        cfg = quick_config(data_file)
        out = run_ablation(cfg)
        assert list(out) == ["full", "no_correlation", "no_mse"]
        no_mse = replace(cfg, train=replace(cfg.train, beta=0.0))
        assert [c for _, c in runs] == [cfg, replace(cfg, no_correlation=True), no_mse]
        assert all(folds is runs[0][0] for folds, _ in runs)
        for rep in out.values():
            assert len(rep.fold_reports) == 3

    def test_flags_off_identical_to_run_cv(self, data_file, tmp_path):
        cfg = quick_config(data_file)
        a = run_cv(cfg)
        b = run_cv(cfg)
        assert report_bytes(a, tmp_path) == report_bytes(b, tmp_path)


class TestTablesShareOneSplit:
    """Each table parses, filters and splits its data once, and each of its
    variants reports the bytes of its own run_cv."""

    @staticmethod
    def _table(name, cfg):
        """The table's call and its variants' configs, in the table's order."""
        if name == "ablate":
            no_correlation, no_mse = replace(cfg, no_correlation=True), replace(cfg, train=replace(cfg.train, beta=0.0))
            return lambda: run_ablation(cfg), {"full": cfg, "no_correlation": no_correlation, "no_mse": no_mse}
        if name == "sweep-beta":
            swept = {b: replace(cfg, train=replace(cfg.train, beta=b)) for b in (0.0, 0.5, 2.0)}
            return lambda: dict(sweep_beta(cfg, list(swept))), swept
        return lambda: run_clrl(cfg), {r: replace(cfg, regime=r) for r in ("cl", "clrl", "supervised")}

    @pytest.mark.parametrize("name", ["ablate", "sweep-beta", "clrl"])
    def test_one_parse_and_each_variant_its_own_run(self, data_file, monkeypatch, tmp_path, name):
        import comlabel.experiment as experiment

        cfg = quick_config(data_file, folds=2, train=TrainConfig(epochs=8, seed=11))
        table, variants = self._table(name, cfg)
        parses = []
        parse = experiment.parse_multilabel_file
        monkeypatch.setattr(experiment, "parse_multilabel_file", lambda path: parses.append(path) or parse(path))
        reports = table()
        assert parses == [data_file]
        assert list(reports) == list(variants)
        for key, variant in variants.items():
            assert report_bytes(reports[key], tmp_path) == report_bytes(run_cv(variant), tmp_path), key


class TestSweep:
    def test_single_beta_equals_run_cv(self, data_file, tmp_path):
        cfg = quick_config(data_file)
        table = sweep_beta(cfg, [1.0])
        assert len(table) == 1
        beta, rep = table[0]
        assert beta == 1.0
        assert report_bytes(rep, tmp_path) == report_bytes(run_cv(cfg), tmp_path)


class TestClrlComparison:
    def test_three_reports(self, data_file):
        out = run_clrl(quick_config(data_file, folds=2, train=TrainConfig(epochs=20, seed=7)))
        assert set(out) == {"cl", "clrl", "supervised"}

    def test_clrl_improves_on_cl(self, data_file):
        out = run_clrl(quick_config(data_file, folds=2, train=TrainConfig(epochs=60, seed=7)))
        assert out["clrl"].mean("average_precision") >= out["cl"].mean("average_precision") - 0.02


class TestReportIO:
    def _report(self):
        folds = tuple(
            MetricsReport(0.1 * i, 0.2, 0.3, 0.4, 0.5 + 0.01 * i) for i in range(4)
        )
        return AggregateReport(folds)

    def test_roundtrip_12_digits(self, tmp_path):
        rep = self._report()
        path = tmp_path / "r.csv"
        write_report(rep, path)
        back = read_report(path)
        for a, b in zip(rep.fold_reports, back.fold_reports):
            for name in MetricsReport.METRIC_NAMES:
                np.testing.assert_allclose(getattr(a, name), getattr(b, name), rtol=1e-11)

    def test_deterministic_bytes(self, tmp_path):
        rep = self._report()
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_report(rep, p1)
        write_report(rep, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_empty_fold_list_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            AggregateReport(())

    def test_std_uses_sample_denominator(self):
        rep = self._report()
        vals = [r.hamming_loss for r in rep.fold_reports]
        np.testing.assert_allclose(rep.std("hamming_loss"), np.std(vals, ddof=1))


class TestTheoryRunner:
    def test_all_rows_pass(self, tmp_path):
        rows = run_theory(seed=1, n_trials=20, consistency=False)
        assert rows
        path = tmp_path / "theory.csv"
        write_theory_csv(rows, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "scenario,lhs,rhs,pass"
        assert len(lines) == len(rows) + 1
        assert all(line.endswith(",1") for line in lines[1:])  # every row returned has passed

    def test_failed_check_raises(self, monkeypatch):
        import comlabel.experiment as experiment

        monkeypatch.setattr(experiment, "corollary3_bound", lambda sc: 2)  # no distortion reaches 2
        with pytest.raises(experiment.TheoryCheckFailure, match="^distortion bound failed: "):
            run_theory(seed=1, n_trials=2, consistency=False)

    def test_negative_trial_count_refused(self):
        with pytest.raises(ValueError, match="^n_trials must be at least 0, got -1$"):
            run_theory(n_trials=-1)


class TestConfigValidation:
    def test_bad_corruption(self, data_file):
        with pytest.raises(ValueError):
            RunConfig(data_path=data_file, corruption="adversarial")

    def test_no_correlation_takes_no_transition_file(self, data_file):
        # a read T would make the no_correlation run the full run under another name
        from comlabel.transition import uniform_transition

        with pytest.raises(ValueError, match="^no_correlation changes the estimate of T, so it cannot take a transition$"):
            RunConfig(data_path=data_file, no_correlation=True, transition=uniform_transition(5))

    def test_no_regulariser_switch_but_beta(self):
        assert "no_mse" not in {f.name for f in fields(RunConfig)}

    def test_rates_set_only_by_the_training_config(self):
        # one place sets what a run trains at: train.learning_rates, by default the grid
        assert not {"learning_rate", "learning_rates"} & {f.name for f in fields(RunConfig)}
        assert RunConfig(data_path="unused", train=TrainConfig(epochs=5)).train.learning_rates == LEARNING_RATE_GRID


def _theory_with(monkeypatch, name, result):
    """run_theory over one trial with `name` stubbed to return `result`."""
    monkeypatch.setattr(experiment_module, name, lambda *args: result)
    return run_theory(seed=3, n_trials=1)


def _theorem1_failure(seed):
    """What run_theory(seed) raises on its first trial when theorem1_gap gives (0.0, 1.0)."""
    rng = np.random.default_rng(seed)
    K = int(rng.integers(3, 6))
    spec = random_generative_spec(K, rng)
    post = random_posterior(spec, rng)
    j = int(rng.integers(K))
    return (
        f"subset-exact probability fell below its exclusive-event bound: lhs=0.0 rhs=1.0 K={K} j={j} "
        f"probs={spec.subset_probs.tolist()} cl={spec.cl_given_subset.tolist()} posterior={post.tolist()}"
    )


def _not_a_report(tmp_path):
    path = tmp_path / "r.csv"
    path.write_text("variant,metric,mean,std\n")
    return read_report(path)


# Refusals that no other test reaches: each call with tmp_path and monkeypatch,
# the error type it raises and its exact message.
REFUSALS = [
    pytest.param(lambda tmp, mp: RunConfig(data_path="unused", regime="semi"), ValueError,
                 "regime must be one of ('cl', 'clrl', 'supervised')", id="regime"),
    pytest.param(lambda tmp, mp: _not_a_report(tmp), ValueError, "not a report CSV: fold block missing", id="not-a-report"),
    pytest.param(lambda tmp, mp: _theory_with(mp, "theorem1_gap", (0.0, 1.0)), experiment_module.TheoryCheckFailure,
                 _theorem1_failure(3), id="theorem1-failure"),
    pytest.param(lambda tmp, mp: _theory_with(mp, "consistency_experiment", {"gap": 0.5}),
                 experiment_module.TheoryCheckFailure, "consistency gap 0.5000 exceeds 0.05: {'gap': 0.5}",
                 id="consistency-failure"),
]  # fmt: skip


@pytest.mark.parametrize("call, error, message", REFUSALS)
def test_refusal_message(tmp_path, monkeypatch, call, error, message):
    with pytest.raises(error) as info:
        call(tmp_path, monkeypatch)
    assert (type(info.value), str(info.value)) == (error, message)


def test_consistency_row_closes_the_theory_checks():
    rows = run_theory(seed=0, n_trials=0)
    row = rows[-1]
    assert (row.scenario, row.rhs) == ("consistency_K5_n5000", 0.05)
    assert 0.0 <= row.lhs <= row.rhs
    assert [r.scenario for r in rows[:-1]] == [r.scenario for r in run_theory(seed=0, n_trials=0, consistency=False)]

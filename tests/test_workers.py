"""Folds fitted in forked workers: the same reports and the same errors as
one process, and no child left behind."""

import os
import signal
import time
from dataclasses import replace

import numpy as np
import pytest

import comlabel.experiment as experiment
from comlabel.cli import main
from comlabel.dataset import MultiLabelDataset, make_uniform_cl_spec, sample_from_generative, write_multilabel_file
from comlabel.experiment import RunConfig, run_ablation, run_clrl, run_cv, sweep_beta
from comlabel.optim import LEARNING_RATE_GRID, NonFiniteGradientError, TrainConfig

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="workers above 1 need os.fork")


def assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forks(monkeypatch):
    """The number of os.fork calls made by this process."""
    calls = []
    fork = os.fork

    def counting():
        calls.append(None)
        return fork()

    monkeypatch.setattr(os, "fork", counting)
    return calls


@pytest.fixture(autouse=True)
def deadline():
    """Fail a test that waits for more than 60 s instead of hanging the run."""

    def expire(signum, frame):
        raise TimeoutError("the call was still waiting after 60 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


@pytest.fixture(scope="module")
def sparse_file(tmp_path_factory):
    """130 instances, 5 labels, 100 features about 4% stored: one noisy
    column per label beside sparse noise, so the parser builds CSR."""
    K = 5
    probs = np.zeros(2**K - 2)
    for k in range(K):
        probs[(1 << k) - 1] = 0.8 / K
    probs[(1 << 0 | 1 << 2) - 1] = 0.2
    full, _ = sample_from_generative(make_uniform_cl_spec(K, probs), 130, 2, seed=60)
    rng = np.random.default_rng(61)
    X = np.where(rng.random((130, 100)) < 0.03, rng.random((130, 100)), 0.0)
    X[:, :K] += full.y * rng.uniform(0.5, 1.5, (130, K))
    path = tmp_path_factory.mktemp("sparse") / "sparse.txt"
    write_multilabel_file(MultiLabelDataset(X, full.y), path)
    return path


def dense_grid(data_file, sparse_file):
    return RunConfig(data_path=data_file, folds=5, train=TrainConfig(learning_rates=LEARNING_RATE_GRID, epochs=3, seed=4))


def sparse_fixed(data_file, sparse_file):
    return RunConfig(data_path=sparse_file, folds=5, train=TrainConfig(learning_rates=(1e-2,), epochs=4, seed=5))


# each command and the number of cross-validations it runs
COMMANDS = {
    "run_cv": (run_cv, 1),
    "run_ablation": (run_ablation, 3),
    "sweep_beta": (lambda cfg: sweep_beta(cfg, (0.0, 0.5)), 2),
    "run_clrl": (run_clrl, 3),
}


class TestIdentity:
    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize("config", [dense_grid, sparse_fixed])
    def test_two_workers_equal_one(self, command, config, data_file, sparse_file, forks):
        run, cross_validations = COMMANDS[command]
        cfg = config(data_file, sparse_file)
        serial = run(cfg)
        assert_no_child()
        assert forks == []
        shared = run(replace(cfg, workers=2))
        assert_no_child()
        assert len(forks) == cross_validations
        assert shared == serial  # every metric of every fold, bit for bit

    def test_more_workers_than_folds(self, data_file, forks):
        cfg = RunConfig(data_path=data_file, folds=2, train=TrainConfig(learning_rates=(1e-2,), epochs=2))
        shared = run_cv(replace(cfg, workers=5))
        assert_no_child()
        assert len(forks) == 1  # one child per fold beyond this process's own
        assert shared == run_cv(cfg)


def failing_folds(monkeypatch, cfg, folds):
    """Make train_mlcl fail on `folds`; returns the errors raised in this process."""
    raised = []
    train_mlcl = experiment.train_mlcl

    def diverging(cds, T, tcfg, *rest):
        if tcfg.seed - cfg.train.seed in folds:  # each fold trains with seed + fold index
            raised.append(NonFiniteGradientError(f"non-finite gradient in parameter 0 at index (0, 0) (step {tcfg.seed})"))
            raise raised[-1]
        return train_mlcl(cds, T, tcfg, *rest)

    monkeypatch.setattr(experiment, "train_mlcl", diverging)
    return raised


class TestFailure:
    def test_lowest_failing_fold_raised_across_processes(self, data_file, monkeypatch):
        cfg = RunConfig(data_path=data_file, folds=3, train=TrainConfig(learning_rates=(1e-2,), epochs=2, seed=11), workers=2)
        raised = failing_folds(monkeypatch, cfg, {1, 2})  # fold 1 in the child, fold 2 in this process
        with pytest.raises(RuntimeError) as info:
            run_cv(cfg)
        assert_no_child()
        message = "non-finite gradient in parameter 0 at index (0, 0) (step 12)"
        assert str(info.value) == f"fold 1 failed: {message}"
        assert isinstance(info.value.__cause__, NonFiniteGradientError)
        assert str(info.value.__cause__) == message
        assert [str(e) for e in raised] == ["non-finite gradient in parameter 0 at index (0, 0) (step 13)"]

    def test_same_error_as_one_worker(self, data_file, monkeypatch):
        cfg = RunConfig(data_path=data_file, folds=5, train=TrainConfig(learning_rates=LEARNING_RATE_GRID, epochs=2, seed=11))
        failing_folds(monkeypatch, cfg, {3, 4})  # both in the child's share 1, 3 and this process's 0, 2, 4
        errors = []
        for workers in (1, 2):
            with pytest.raises(RuntimeError) as info:
                run_cv(replace(cfg, workers=workers))
            assert_no_child()
            errors.append((str(info.value), type(info.value.__cause__), str(info.value.__cause__)))
        assert errors[0] == errors[1]
        assert errors[0][0].startswith("fold 3 failed: non-finite gradient")

    def test_worker_exit_named(self, data_file, monkeypatch):
        cfg = RunConfig(data_path=data_file, folds=3, train=TrainConfig(learning_rates=(1e-2,), epochs=2), workers=2)
        run_fold = experiment._run_fold
        monkeypatch.setattr(experiment, "_run_fold", lambda fold, c: os._exit(3) if fold.fold_index == 1 else run_fold(fold, c))
        with pytest.raises(RuntimeError, match=r"^fold 1 failed: worker exited with status 3$"):
            run_cv(cfg)
        assert_no_child()

    def test_interrupted_caller_kills_workers(self, data_file, monkeypatch):
        cfg = RunConfig(data_path=data_file, folds=3, train=TrainConfig(learning_rates=(1e-2,), epochs=2), workers=2)

        def run_fold(fold, c):
            if fold.fold_index == 0:
                raise KeyboardInterrupt
            time.sleep(120)  # the child's share: it is killed, not waited for

        monkeypatch.setattr(experiment, "_run_fold", run_fold)
        start = time.perf_counter()
        with pytest.raises(KeyboardInterrupt):
            run_cv(cfg)
        assert time.perf_counter() - start < 30
        assert_no_child()


class TestChecks:
    def test_zero_workers_refused(self):
        with pytest.raises(ValueError, match=r"^workers must be at least 1, got 0$"):
            RunConfig(data_path="unused", workers=0)

    def test_workers_without_fork_refused_before_reading(self, tmp_path, monkeypatch):
        monkeypatch.delattr(os, "fork")
        RunConfig(data_path="unused", workers=1)
        with pytest.raises(ValueError, match=r"^workers must be 1 where os.fork is missing, got 2$"):
            run_cv(RunConfig(data_path=tmp_path / "missing.txt", workers=2))

    def test_workers_take_no_part_in_comparing(self):
        assert RunConfig(data_path="d", workers=2) == RunConfig(data_path="d")


class TestCommandLine:
    def cv(self, data_file, out):
        assert main(["cv", "--data", str(data_file), "--out", str(out), "--folds", "3", "--epochs", "2", "--lr", "0.01"]) == 0
        assert_no_child()
        return out.read_bytes()

    def test_workers_follow_cpu_set(self, data_file, tmp_path, monkeypatch, forks):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        serial = self.cv(data_file, tmp_path / "one.csv")
        assert forks == []
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        assert self.cv(data_file, tmp_path / "two.csv") == serial
        assert len(forks) == 1

    def test_without_fork_runs_serially(self, data_file, tmp_path, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        shared = self.cv(data_file, tmp_path / "two.csv")
        monkeypatch.delattr(os, "fork")
        assert self.cv(data_file, tmp_path / "one.csv") == shared

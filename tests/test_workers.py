"""Folds fitted and dense files parsed in forked workers: the same reports,
the same data and the same errors as one process, and no child left
behind.  The fold pool holds one process per usable CPU, at most one per
fold, and the parse pool at most one per `PARSE_CHUNK_BYTES` block of the
file, so the tests set the CPU set through conftest's `cpu_set`: two CPUs,
unless a test sets another count."""

import io
import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import replace

import numpy as np
import pytest

import comlabel.dataset as dataset
import comlabel.experiment as experiment
from comlabel.cli import main
from comlabel.dataset import (
    ComplementaryDataset,
    DatasetFormatError,
    MultiLabelDataset,
    kfold_split,
    make_uniform_cl_spec,
    normalize_features,
    parse_complementary_file,
    parse_multilabel_file,
    preprocess_topk_labels,
    sample_from_generative,
    write_complementary_file,
    write_multilabel_file,
)
from comlabel.experiment import RunConfig, fit_fold, run_ablation, run_clrl, run_cv, sweep_beta, write_report
from comlabel.metrics import evaluate_all
from comlabel.model import forward
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
def two_cpus(cpu_set):
    """Two CPUs whatever conftest's default, so that this file's counts hold."""
    cpu_set(2)


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
    def test_two_workers_equal_one(self, command, config, data_file, sparse_file, forks, cpu_set):
        run, cross_validations = COMMANDS[command]
        cfg = config(data_file, sparse_file)
        cpu_set(1)
        serial = run(cfg)
        assert_no_child()
        assert forks == []
        cpu_set(2)
        shared = run(cfg)
        assert_no_child()
        assert len(forks) == cross_validations
        assert shared == serial  # every metric of every fold, bit for bit

    def test_more_workers_than_folds(self, data_file, forks, cpu_set):
        cfg = RunConfig(data_path=data_file, folds=2, train=TrainConfig(learning_rates=(1e-2,), epochs=2))
        cpu_set(5)
        shared = run_cv(cfg)
        assert_no_child()
        assert len(forks) == 1  # one child per fold beyond this process's own
        cpu_set(1)
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
        cfg = RunConfig(data_path=data_file, folds=3, train=TrainConfig(learning_rates=(1e-2,), epochs=2, seed=11))
        raised = failing_folds(monkeypatch, cfg, {1, 2})  # fold 1 in the child, fold 2 in this process
        with pytest.raises(RuntimeError) as info:
            run_cv(cfg)
        assert_no_child()
        message = "non-finite gradient in parameter 0 at index (0, 0) (step 12)"
        assert str(info.value) == f"fold 1 failed: {message}"
        assert isinstance(info.value.__cause__, NonFiniteGradientError)
        assert str(info.value.__cause__) == message
        assert [str(e) for e in raised] == ["non-finite gradient in parameter 0 at index (0, 0) (step 13)"]

    def test_same_error_as_one_worker(self, data_file, monkeypatch, cpu_set):
        cfg = RunConfig(data_path=data_file, folds=5, train=TrainConfig(learning_rates=LEARNING_RATE_GRID, epochs=2, seed=11))
        failing_folds(monkeypatch, cfg, {3, 4})  # both in the child's share 1, 3 and this process's 0, 2, 4
        errors = []
        for cpus in (1, 2):
            cpu_set(cpus)
            with pytest.raises(RuntimeError) as info:
                run_cv(cfg)
            assert_no_child()
            errors.append((str(info.value), type(info.value.__cause__), str(info.value.__cause__)))
        assert errors[0] == errors[1]
        assert errors[0][0].startswith("fold 3 failed: non-finite gradient")

    def test_worker_exit_named(self, data_file, monkeypatch):
        cfg = RunConfig(data_path=data_file, folds=3, train=TrainConfig(learning_rates=(1e-2,), epochs=2))
        run_fold = experiment._run_fold
        monkeypatch.setattr(experiment, "_run_fold", lambda fold, c: os._exit(3) if fold.fold_index == 1 else run_fold(fold, c))
        with pytest.raises(RuntimeError, match=r"^fold 1 failed: worker exited with status 3$"):
            run_cv(cfg)
        assert_no_child()

    def test_interrupted_caller_kills_workers(self, data_file, monkeypatch):
        cfg = RunConfig(data_path=data_file, folds=3, train=TrainConfig(learning_rates=(1e-2,), epochs=2))

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


class TestSerial:
    """Where a fork is missing or unsafe, a cross-validation runs in this
    process alone, with the reports of two processes."""

    @pytest.fixture
    def cfg(self, data_file):
        return RunConfig(data_path=data_file, folds=3, train=TrainConfig(learning_rates=(1e-2,), epochs=2))

    def test_while_another_thread_runs(self, cfg, forks):
        release = threading.Event()
        host = threading.Thread(target=release.wait, args=(60,))
        host.start()
        try:
            threaded = run_cv(cfg)
        finally:
            release.set()
            host.join(60)
        assert not host.is_alive()
        assert forks == []
        assert run_cv(cfg) == threaded
        assert len(forks) == 1
        assert_no_child()

    def test_without_fork(self, cfg, monkeypatch, forks):
        shared = run_cv(cfg)
        assert len(forks) == 1
        monkeypatch.delattr(os, "fork")
        assert run_cv(cfg) == shared
        assert_no_child()


class TestCommandLine:
    def cv(self, data_file, out):
        assert main(["cv", "--data", str(data_file), "--out", str(out), "--folds", "3", "--epochs", "2", "--lr", "0.01"]) == 0
        assert_no_child()
        return out.read_bytes()

    def test_workers_follow_cpu_set(self, data_file, tmp_path, forks, cpu_set):
        cpu_set(1)
        serial = self.cv(data_file, tmp_path / "one.csv")
        assert forks == []
        cpu_set(2)
        assert self.cv(data_file, tmp_path / "two.csv") == serial
        assert len(forks) == 1

    def test_without_fork_runs_serially(self, data_file, tmp_path, monkeypatch):
        shared = self.cv(data_file, tmp_path / "two.csv")
        monkeypatch.delattr(os, "fork")
        assert self.cv(data_file, tmp_path / "one.csv") == shared


class TestNormalizedFeatures:
    """`cv --normalize-features on` z-scores each fold by its training
    split's statistics, on a dense and on a sparse file."""

    @pytest.mark.parametrize("kind", ["dense", "sparse"])
    def test_folds_scored_by_training_scaler(self, kind, data_file, sparse_file, tmp_path, forks, cpu_set):
        path = data_file if kind == "dense" else sparse_file
        argv = ["cv", "--data", str(path), "--folds", "3", "--epochs", "2", "--lr", "0.01", "--normalize-features"]
        cpu_set(1)
        assert main([*argv, "on", "--out", str(tmp_path / "one.csv")]) == 0
        assert forks == []
        cpu_set(2)
        assert main([*argv, "on", "--out", str(tmp_path / "two.csv")]) == 0
        assert len(forks) == 1
        assert_no_child()
        assert (tmp_path / "two.csv").read_bytes() == (tmp_path / "one.csv").read_bytes()
        assert main([*argv, "off", "--out", str(tmp_path / "off.csv")]) == 0
        assert (tmp_path / "off.csv").read_bytes() != (tmp_path / "one.csv").read_bytes()

        # the CLI's run, fold by fold: a model fitted on the z-scored training split scores the test split z-scored by its scaler
        cfg = RunConfig(data_path=path, folds=3, normalize=True, train=TrainConfig(learning_rates=(0.01,), epochs=2))
        report = run_cv(cfg)
        write_report(report, tmp_path / "library.csv")
        assert (tmp_path / "library.csv").read_bytes() == (tmp_path / "one.csv").read_bytes()
        ds = preprocess_topk_labels(parse_multilabel_file(path), cfg.max_labels)
        for fold, got in zip(kfold_split(ds, cfg.folds, cfg.train.seed), report.fold_reports, strict=True):
            train, scaler = normalize_features(fold.train)
            model, _ = fit_fold(train, replace(cfg, normalize=False), fold.fold_index)
            test = scaler.apply(fold.test)
            assert got == evaluate_all(forward(model, test.features), test.y)


# The parse tests shrink the chunk, so that files of a few lines span
# several chunks and each share converts some of them.
PARSE_CHUNK = 64

# per format: parser, writer, three dense data lines (d = 3), and malformed data lines
PARSE_FORMATS = {
    "multilabel": (
        parse_multilabel_file,
        write_multilabel_file,
        ("0 0:1.0 1:2.0 2:3.0", "1,2 0:4.0 1:5.0 2:6.0", "2 0:7.0 1:8.5 2:9.0"),
        (
            "0 0:1.0 0:2.0 2:3.0", "0 2:1.0 1:2.0 0:3.0", "0 0:1.0 1:2.0 5:1.0", "7 0:1.0 1:2.0 2:3.0",
            "0 0:abc 1:2.0 2:3.0", "0,x 0:1.0 1:2.0 2:3.0", "0 0: 1:2.0 2:3.0", "0 :1.0 1:2.0 2:3.0",
            "0 0:1:2 1:2.0 2:3.0", "0 0:nan 1:2.0 2:3.0", "0 0:1.0 1:inf 2:3.0", "0,0 0:1.0 1:2.0 2:3.0",
            " 0:1.0 1:2.0 2:3.0", "0,1,2 0:1.0 1:2.0 2:3.0", "", "   ",
        ),
    ),
    "complementary": (
        parse_complementary_file,
        write_complementary_file,
        ("1; 0:1.0 1:2.0 2:3.0", "0; 0:4.0 1:5.0 2:6.0", "2; 0:7.0 1:8.5 2:9.0"),
        (
            "x; 0:1.0 1:2.0 2:3.0", "3; 0:1.0 1:2.0 2:3.0", "1;1 0:1.0 1:2.0 2:3.0", "1;0,x 0:1.0 1:2.0 2:3.0",
            "1; 0:1:2 1:2.0 2:3.0", "1; 0:nan 1:2.0 2:3.0", "1; 0:1.0 0:2.0 2:3.0", "0 0:1.0 1:2.0 2:3.0",
            "1;0 0:1.0 1:2.0 2:3.0", "", "   ",
        ),
    ),
}


def _text(good, header, lines, sep="\n"):
    """A data file's text: the header, then `lines`, where an int i stands for good line i % 3."""
    return sep.join([header, *(good[x % 3] if isinstance(x, int) else x for x in lines)]) + sep


def _parse_cases():
    """(format, id, text) of each parse outcome checked at one and two CPUs:
    the whole-file cases of test_dataset.py's TestReaderLines and each
    malformed line of its parse-error tests, on dense rows."""
    for name, (_, _, good, bad) in PARSE_FORMATS.items():
        rows = list(range(40))
        cases = {
            "valid": _text(good, "40 3 3", rows),
            "crlf": _text(good, "40 3 3", rows, "\r\n"),
            "cr": _text(good, "40 3 3", rows, "\r"),
            "mixed-separators": "40 3 3\x0b" + "".join(good[i % 3] + "\x85\u2028\x0c\r\n\x1e"[i % 6] for i in rows),
            "cr-then-crlf": "40 3 3\r\r\n" + _text(good, good[0], rows[1:])[:-1],  # a blank first data line
            "crlf-straddling-the-read-buffer": _text(good, "40 3 3".ljust(io.DEFAULT_BUFFER_SIZE - 1), rows, "\r\n"),
            "trailing-blanks": _text(good, "40 3 3", [*rows, "", "   ", "\t", ""]),
            "trailing-blanks-crlf": _text(good, "40 3 3", [*rows, "", "  "], "\r\n"),
            "too-few-after-trailing-blanks": _text(good, "41 3 3", [*rows, "", "  "]),
            "blank-mid-file": _text(good, "40 3 3", [*rows[:20], "", *rows[21:]]),
        }
        for declared, found in [(3, 2), (1, 2), (2, 3), (1, 40), (45, 40)]:
            cases[f"declared-{declared}-found-{found}"] = _text(good, f"{declared} 3 3", rows[:found])
        # each line count error wins over a line error
        for declared, at in [(45, 0), (1, 1), (1, 0), (45, 39)]:
            cases[f"declared-{declared}-bad-at-{at}"] = _text(good, f"{declared} 3 3", [*rows[:at], bad[4], *rows[at + 1 :]])
        for i, line in enumerate(bad):
            for at in (0, 13, 17, 39):  # chunks of this share and of the other one
                cases[f"bad-{i}-at-{at}"] = _text(good, "40 3 3", [*rows[:at], line, *rows[at + 1 :]])
        for first, second in [(4, 8), (8, 12), (12, 16), (30, 35)]:  # the lower line raises, whichever share holds it
            cases[f"bad-at-{first}-and-{second}"] = _text(good, "40 3 3", [*rows[:first], bad[1], *rows[first + 1 : second], bad[0], *rows[second + 1 :]])
        for case, text in cases.items():
            yield pytest.param(name, text, id=f"{name}-{case}")


def _outcome(parse, write, path):
    """The error message, or the parsed data as the writer formats it."""
    try:
        parsed = parse(path)
    except DatasetFormatError as err:
        return str(err)
    out = path.with_suffix(".out")
    write(parsed, out)
    return out.read_bytes()


def _blocks(path):
    return -(-path.stat().st_size // dataset.PARSE_CHUNK_BYTES)


def _dense_file(tmp_path):
    """A dense multi-label file of 60 rows that spans several chunks."""
    path = tmp_path / "dense.txt"
    path.write_text(_text(PARSE_FORMATS["multilabel"][2], "60 3 3", range(60)))
    return path


class TestParse:
    @pytest.fixture(autouse=True)
    def small_chunks(self, monkeypatch):
        monkeypatch.setattr(dataset, "PARSE_CHUNK_BYTES", PARSE_CHUNK)

    @pytest.mark.parametrize("form", ["multilabel", "complementary"])
    def test_dense_file_same_bytes_at_one_two_and_four_cpus(self, tmp_path, form, cpu_set, forks):
        rng = np.random.default_rng(8)
        n, K = 200, 4
        y = np.eye(K, dtype=np.uint8)[rng.integers(K, size=n)]
        y[rng.random(n) < 0.3, 1] = 1
        y[y.sum(axis=1) == K, 0] = 0
        X = rng.standard_normal((n, 5))
        path = tmp_path / "d.txt"
        if form == "multilabel":
            write_multilabel_file(MultiLabelDataset(X, y), path)
            names = ("features", "y")
        else:
            cl = np.argmin(y + rng.random((n, K)), axis=1)  # an irrelevant label
            write_complementary_file(ComplementaryDataset(X, cl, K, relevant=y), path)
            names = ("features", "cl", "relevant")
        parse = PARSE_FORMATS[form][0]
        assert _blocks(path) > 4
        parsed = {}
        for cpus in (1, 2, 4):
            cpu_set(cpus)
            forks.clear()
            ds = parse(path)
            assert_no_child()
            assert len(forks) == cpus - 1
            assert isinstance(ds.features, np.ndarray) and not ds.features.flags.writeable
            parsed[cpus] = [(a.dtype, a.shape, a.tobytes()) for a in (getattr(ds, name) for name in names)]
        assert parsed[1] == parsed[2] == parsed[4]
        assert parsed[1][0][2] == X.tobytes()

    @pytest.mark.parametrize("form,text", list(_parse_cases()))
    def test_same_outcome_at_one_and_two_cpus(self, tmp_path, form, text, cpu_set, forks):
        parse, write, _, _ = PARSE_FORMATS[form]
        path = tmp_path / "d.txt"
        path.write_bytes(text.encode("utf-8"))
        outcomes = []
        for cpus in (1, 2):
            cpu_set(cpus)
            outcomes.append(_outcome(parse, write, path))
            assert_no_child()
        assert outcomes[0] == outcomes[1]
        assert len(forks) == min(2, _blocks(path)) - 1  # every case is dense

    def test_sparse_file_parsed_in_this_process(self, tmp_path, sparse_file, cpu_set, forks):
        assert _blocks(sparse_file) > 2
        shared = parse_multilabel_file(sparse_file)
        cpu_set(1)
        serial = parse_multilabel_file(sparse_file)
        assert forks == []
        assert_no_child()
        for attr in ("data", "indices", "indptr"):
            assert getattr(shared.features, attr).tobytes() == getattr(serial.features, attr).tobytes()
        assert shared.y.tobytes() == serial.y.tobytes()

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_pipe_parsed_in_this_process(self, tmp_path, forks):
        # written by another process, since another thread would make the parse serial by itself
        path, pipe = _dense_file(tmp_path), tmp_path / "pipe"
        os.mkfifo(pipe)
        copy = "import sys; open(sys.argv[2], 'wb').write(open(sys.argv[1], 'rb').read())"
        writer = subprocess.Popen([sys.executable, "-c", copy, path, pipe])
        try:
            piped = parse_multilabel_file(pipe)
        finally:
            assert writer.wait(60) == 0
        assert forks == []
        assert_no_child()
        want = parse_multilabel_file(path)
        assert len(forks) == 1
        assert (piped.features.tobytes(), piped.y.tobytes()) == (want.features.tobytes(), want.y.tobytes())

    def test_worker_exit_named(self, tmp_path, monkeypatch):
        path = _dense_file(tmp_path)
        caller, convert = os.getpid(), dataset._convert
        monkeypatch.setattr(dataset, "_convert", lambda *args: convert(*args) if os.getpid() == caller else os._exit(3))
        with pytest.raises(RuntimeError) as info:
            parse_multilabel_file(path)
        assert str(info.value) == f"parsing {path} failed: worker exited with status 3"
        assert_no_child()

    def test_interrupted_caller_kills_workers(self, tmp_path, monkeypatch, forks):
        path, caller = _dense_file(tmp_path), os.getpid()

        def convert(*args):
            if os.getpid() == caller:
                raise KeyboardInterrupt
            time.sleep(120)  # the child's share: it is killed, not waited for

        monkeypatch.setattr(dataset, "_convert", convert)
        start = time.perf_counter()
        with pytest.raises(KeyboardInterrupt):
            parse_multilabel_file(path)
        assert time.perf_counter() - start < 30
        assert len(forks) == 1
        assert_no_child()

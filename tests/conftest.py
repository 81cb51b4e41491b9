"""The CLI fixture data, shared by tests/test_cli.py and tests/test_layertrace.py;
tests/test_experiment.py defines a `data_file` of its own.  Every test sees
the usable CPUs that `--cpus` gives, two by default."""

import os

import numpy as np
import pytest

from comlabel.dataset import make_uniform_cl_spec, sample_from_generative, write_multilabel_file


def pytest_addoption(parser):
    parser.addoption("--cpus", type=int, default=2, help="size of the usable CPU set that every test sees (default 2)")


@pytest.fixture(autouse=True)
def cpu_set(monkeypatch, request):
    """Make the usable CPU set {0, ..., n - 1} for n = --cpus, so that every
    cross-validation fits its folds in min(n, folds) processes whatever the
    runner's CPU count; the returned function sets a set of n CPUs instead."""

    def use(n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)

    use(request.config.getoption("--cpus"))
    return use


@pytest.fixture(scope="module")
def data_file(tmp_path_factory):
    """150 instances, 6 features and 4 labels, labels 0 and 1 often together."""
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

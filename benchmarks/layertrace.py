"""Outside-in layer trace of one `comlabel cv` call.

Timing wrappers are installed at the module attributes that callers look
up (for example `comlabel.optim.batch_objective`, which the training loop
reads from its own module), and removed again after the call, so the
package itself is never edited.  Spans are kept in memory as
[name, start, end, parent, raised, info] records; a span's self time is its
duration minus the durations of its direct children, which never overlap
because the pipeline runs on one thread.

The traced call also feeds the transition-quality counters: from the
arguments and results of the wrapped `corrupt_*` and `estimate_transition`
it compares T-hat, the no-correlation estimate on the same predictor and the
uniform T against the empirical T_emp[k, j] = P(cl = j | y_k = 1).  That
work runs inside its own `trace.quality` span and nothing it computes flows
back into training.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

# Module -> the attributes wrapped there; each span is named after its attribute.
WRAPPED = {
    "comlabel.cli": ("run_cv",),
    "comlabel.experiment": (
        "parse_multilabel_file",
        "preprocess_topk_labels",
        "kfold_split",
        "corrupt_uniform",
        "corrupt_biased",
        "select_learning_rate",
        "train_cl_predictor",
        "estimate_transition",
        "train_mlcl",
        "evaluate_all",
    ),
    "comlabel.optim": ("batch_objective", "adam_step"),
    "comlabel.loss": ("forward",),
}

ROOT_SPAN = "main"
QUALITY = "trace.quality"
TRAININGS = ("train_cl_predictor", "train_mlcl")

NAME, START, END, PARENT, RAISED, INFO = range(6)


class Tracer:
    """Span recorder for one call; install() puts its wrappers in place."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []
        self._corrupted: tuple | None = None  # the latest (ComplementaryDataset, true_y)
        self.quality: list[tuple[float, float, float]] = []

    def wrap(self, name, fn, before=None, after=None):
        """`fn` with a span around every call.

        `before(args, kwargs)` may return a small record kept on the span;
        `after(args, kwargs, result)` runs once the span has closed.
        """
        spans, stack, clock = self.spans, self._open, time.perf_counter

        def traced(*args, **kwargs):
            info = before(args, kwargs) if before else None
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1, False, info])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[idx][RAISED] = True
                raise
            finally:
                spans[idx][END] = clock()
                stack.pop()
            if after:
                after(args, kwargs, result)
            return result

        return traced

    @contextmanager
    def install(self):
        hooks = {
            "batch_objective": (_objective_shape, None),
            "corrupt_uniform": (None, self._remember_corruption),
            "corrupt_biased": (None, self._remember_corruption),
        }
        saved = []
        try:
            for module_name, names in WRAPPED.items():
                module = importlib.import_module(module_name)
                for name in names:
                    fn = getattr(module, name)
                    saved.append((module, name, fn))
                    before, after = hooks.get(name, (None, None))
                    if name == "estimate_transition":
                        after = self._quality_hook(fn)
                    setattr(module, name, self.wrap(name, fn, before, after))
            yield self
        finally:
            for module, name, fn in reversed(saved):
                setattr(module, name, fn)
            self._corrupted = None

    def _remember_corruption(self, args, kwargs, result):
        cds, record = result
        self._corrupted = (cds, record.true_y)

    def _quality_hook(self, estimate):
        from comlabel.transition import uniform_transition

        def measure(cds, predictor, T_hat, true_y):
            T_nocorr = estimate(cds, predictor, use_correlation=False)
            uniform = uniform_transition(cds.n_labels)
            T_emp, rows = empirical_transition(true_y, cds.cl)
            self.quality.append(tuple(_row_l1(T, T_emp, rows) for T in (T_hat, T_nocorr, uniform)))

        traced_measure = self.wrap(QUALITY, measure)

        def after(args, kwargs, T_hat):
            cds, true_y = self._corrupted
            if args[0] is cds:  # the fold's final estimate, not one on a grid sub-split
                traced_measure(cds, args[1], T_hat, true_y)

        return after


def _objective_shape(args, kwargs):
    model, X, kind = args[0], args[1], args[2]
    work = X.nnz if hasattr(X, "nnz") else X.size
    return kind, X.shape[0], model.weights.shape[0], work


def objective_flops(kind: str, n: int, K: int, work: int) -> float:
    """Floating-point operations one batch_objective call computes.

    Forward and weight gradient are each 2 * work * K, where `work` is the
    stored entries of the batch (nonzeros for CSR, all entries when dense).
    The transition-composed losses add 2 * n * K * K per product with T
    (four for mlcl, two for clrl and cl_bce), and about 20 elementwise
    operations per score cover heads, clamps and logs.
    """
    t_products = {"mlcl": 4, "clrl": 2, "cl_bce": 2, "cl_mse": 2}.get(kind, 0)
    return 4.0 * work * K + t_products * 2.0 * n * K * K + 20.0 * n * K


def empirical_transition(true_y: np.ndarray, cl: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """T_emp[k, j] = P(cl = j | y_k = 1) and the mask of labels that occur."""
    Y = np.asarray(true_y, dtype=np.float64)
    n, K = Y.shape
    onehot = np.zeros((n, K))
    onehot[np.arange(n), cl] = 1.0
    counts = Y.sum(axis=0)
    rows = counts > 0
    T_emp = np.zeros((K, K))
    T_emp[rows] = (Y.T @ onehot)[rows] / counts[rows, None]
    return T_emp, rows


def _row_l1(T: np.ndarray, T_emp: np.ndarray, rows: np.ndarray) -> float:
    return float(np.abs(np.asarray(T) - T_emp)[rows].sum(axis=1).mean())


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def layer_metrics(tracer: Tracer, file_bytes: int) -> dict[str, float]:
    """Per-layer numbers for one traced call (see PER_LAYER in run.py)."""
    spans = tracer.spans
    own = self_times(spans)
    busy, self_s, count = defaultdict(float), defaultdict(float), defaultdict(int)
    for s, o in zip(spans, own):
        busy[s[NAME]] += s[END] - s[START]
        self_s[s[NAME]] += o
        count[s[NAME]] += 1

    def under_grid(i: int) -> bool:
        while i >= 0:
            if spans[i][NAME] == "select_learning_rate":
                return True
            i = spans[i][PARENT]
        return False

    trained = [i for i, s in enumerate(spans) if s[NAME] in TRAININGS]
    kept = sum(not under_grid(i) for i in trained)
    flops = sum(objective_flops(*s[INFO]) for s in spans if s[NAME] == "batch_objective")
    steps = count["batch_objective"]
    quality = np.mean(tracer.quality, axis=0) if tracer.quality else (float("nan"),) * 3
    parse_s = busy["parse_multilabel_file"]
    return {
        "dataset.parse_s": parse_s,
        "dataset.parse_mb_per_s": file_bytes / 1e6 / parse_s if parse_s > 0 else float("nan"),
        "dataset.split_s": busy["preprocess_topk_labels"] + busy["kfold_split"],
        "complementary.corrupt_s": busy["corrupt_uniform"] + busy["corrupt_biased"],
        "experiment.select_lr_s": busy["select_learning_rate"],
        "experiment.trainings": float(len(trained)),
        "experiment.grid_useful_ratio": kept / len(trained) if trained else float("nan"),
        "experiment.self_s": self_s["run_cv"] + self_s["select_learning_rate"],
        "optim.cl_predictor_s": busy["train_cl_predictor"],
        "optim.mlcl_s": busy["train_mlcl"],
        "optim.loop_self_s": self_s["train_cl_predictor"] + self_s["train_mlcl"],
        "optim.adam_s": busy["adam_step"],
        "optim.steps": float(count["adam_step"]),
        "loss.objective_self_s": self_s["batch_objective"],
        "loss.us_per_step": 1e6 * self_s["batch_objective"] / steps if steps else float("nan"),
        "loss.computed_gflop": flops / 1e9,
        "model.forward_s": busy["forward"],
        "model.forward_calls": float(count["forward"]),
        "transition.estimate_s": busy["estimate_transition"],
        "transition.t_l1_err": float(quality[0]),
        "transition.t_l1_err_nocorr": float(quality[1]),
        "transition.t_l1_err_uniform": float(quality[2]),
        "metrics.evaluate_s": busy["evaluate_all"],
        "cli.self_s": self_s[ROOT_SPAN],
    }

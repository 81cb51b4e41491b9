"""Benchmark of `comlabel cv` on seeded stand-ins for scene, yeast and text data.

Run from the repository root:

    python3 benchmarks/run.py --workload scene_cv --seed 0 --seconds 30 --trace 0

Each run first writes the workload's stand-in data file in a child process
(set-up, repeated and timed there), so the generator's memory stays out of
this process's peak.  It then calls `comlabel.cli.main(["cv", ...])` in this process as a
closed loop, one call after another, until `--seconds` have passed.  Every
call's report CSV is checked: exit code 0, byte-identical to the run's first
report, and all five metrics finite and in range.

With `--trace 0` the run reports the end-to-end metrics.  With `--trace 1`
it alternates untraced and traced calls; the traced ones carry the
outside-in layer trace (layertrace.py), the per-layer metrics are medians
over them, the traced report must equal the untraced one, and the paired
wall times give the tracing overhead.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics; the exit code is 1 when `correct` is false.  Lines
before it give the environment, the data set,
the cv_s quartiles and ops_failed_frac.  The full record, and in traced runs
every span, go to .bench_out/.
"""

from __future__ import annotations

import os

# Pin BLAS and OpenMP to one thread before NumPy loads: timings and the
# report's rerun identity are defined at a fixed thread count.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import csv
import io
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

from layertrace import QUALITY, ROOT_SPAN, Tracer, layer_metrics
from standins import StandInShape

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 9

REPORT_METRICS = ("hamming_loss", "ranking_loss", "one_error", "coverage", "average_precision")

END_TO_END = {
    "setup_s": "s",
    "cv_s": "s",
    "peak_rss_mb": "MB",
    "ap_mean": "score",
    "hamming_mean": "fraction",
}

PER_LAYER = {
    "dataset.parse_s": "s",
    "dataset.parse_mb_per_s": "MB/s",
    "dataset.split_s": "s",
    "complementary.corrupt_s": "s",
    "experiment.select_lr_s": "s",
    "experiment.trainings": "count",
    "experiment.grid_useful_ratio": "fraction",
    "experiment.self_s": "s",
    "optim.cl_predictor_s": "s",
    "optim.mlcl_s": "s",
    "optim.loop_self_s": "s",
    "optim.adam_s": "s",
    "optim.steps": "count",
    "loss.objective_self_s": "s",
    "loss.us_per_step": "us",
    "loss.computed_gflop": "GFLOP",
    "model.forward_s": "s",
    "model.forward_calls": "count",
    "transition.estimate_s": "s",
    "transition.t_l1_err": "L1/row",
    "transition.t_l1_err_nocorr": "L1/row",
    "transition.t_l1_err_uniform": "L1/row",
    "metrics.evaluate_s": "s",
    "cli.self_s": "s",
    "trace.overhead_frac": "fraction",
}


@dataclass(frozen=True)
class Workload:
    shape: StandInShape
    cv_flags: tuple[str, ...]


# Label marginals of the public scene and yeast sets; scene's are scaled so
# that, with each row's primary label, cardinality lands near 1.1.
SCENE_RATES = tuple(0.45 * r for r in (0.177, 0.151, 0.165, 0.221, 0.179, 0.179))
YEAST_RATES = (0.31, 0.40, 0.41, 0.36, 0.29, 0.20, 0.18, 0.20, 0.07, 0.09, 0.12, 0.75, 0.74, 0.015)
TEXT_RATES = tuple(0.3 / (k + 1) ** 0.7 for k in range(40))

WORKLOADS = {
    # Dense, wide rows, fixed lr: parsing and feature slicing dominate; no grid.
    "scene_cv": Workload(
        StandInShape(n=2400, d=294, label_rates=SCENE_RATES, primary_label=True, value_scale=0.15, value_offset=0.5, task_seed=1),
        ("--mode", "uniform", "--lr", "0.01", "--folds", "10", "--epochs", "10"),
    ),
    # Dense, narrow rows, biased corruption, lr grid: training, loss and metrics dominate.
    "yeast_grid": Workload(
        StandInShape(n=2400, d=103, label_rates=YEAST_RATES, value_scale=0.1, task_seed=2),
        ("--mode", "biased", "--folds", "10", "--epochs", "8"),
    ),
    # Truly sparse rows and top-15 label filtering, fixed lr.
    "sparse_cv": Workload(
        StandInShape(n=1700, d=1000, label_rates=TEXT_RATES, nnz_per_row=30, task_seed=3),
        ("--mode", "uniform", "--lr", "0.01", "--folds", "10", "--epochs", "20", "--max-labels", "15"),
    ),
}


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
    }


def read_report(blob: bytes, folds: int) -> tuple[dict[str, float], str | None]:
    """The report's metric means, and what is wrong with it (None when every
    fold's five metrics are present, finite and in range)."""
    try:
        rows = list(csv.reader(io.StringIO(blob.decode("utf-8"))))
        if rows[0] != ["metric", "mean", "std"] or [r[0] for r in rows[1:6]] != list(REPORT_METRICS):
            return {}, "summary block malformed"
        if rows[6] != ["fold", *REPORT_METRICS] or len(rows) != 7 + folds:
            return {}, "fold block malformed"
        means = {r[0]: float(r[1]) for r in rows[1:6]}
        stds = [float(r[2]) for r in rows[1:6]]
        per_fold = [float(v) for r in rows[7:] for v in r[1:]]
    except (UnicodeDecodeError, IndexError, ValueError) as exc:
        return {}, f"unreadable report: {exc}"
    scores = [*means.values(), *per_fold]
    if not all(math.isfinite(v) for v in scores + stds):
        return means, "non-finite metric"
    if not all(0.0 <= v <= 1.0 for v in scores) or means["average_precision"] <= 0.0:
        return means, "metric out of range"
    return means, None


def cv_once(entry, argv: list[str], report: Path) -> tuple[float, bytes | None, str | None]:
    """One `comlabel cv` call: (wall seconds, report bytes, failure)."""
    report.unlink(missing_ok=True)
    sink = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink):
            code = entry(argv)
    except (Exception, SystemExit) as exc:  # a failing call is counted, not fatal
        return time.perf_counter() - start, None, f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    if code != 0:
        return elapsed, None, f"exit code {code}"
    return elapsed, report.read_bytes(), None


def set_up(shape: StandInShape, seed: int, path: Path) -> dict:
    """Write the stand-in SETUP_REPEATS times in a child process: the
    data set's description, the seconds of each repeat, and whether every
    repeat wrote the same bytes."""
    cmd = [sys.executable, str(HERE / "standins.py"), "--shape", json.dumps(asdict(shape)),
           "--seed", str(seed), "--out", str(path), "--repeats", str(SETUP_REPEATS)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    if done.returncode != 0:
        raise RuntimeError(f"stand-in set-up failed:\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    """Set up, run the closed loop, check every report, and compute metrics."""
    from comlabel.cli import main as cli_main

    data, report = work / "data.txt", work / "report.csv"
    setup = set_up(workload.shape, seed, data)
    folds = int(workload.cv_flags[workload.cv_flags.index("--folds") + 1])
    argv = ["cv", "--data", str(data), "--out", str(report), "--seed", str(seed), *workload.cv_flags]

    reference: bytes | None = None
    means: dict[str, float] = {}
    content_problem: str | None = None
    failures: list[str] = []
    times: list[float] = []
    traced_times: list[float] = []
    traced_net: list[float] = []  # traced wall time minus the transition-quality work
    layers: list[dict[str, float]] = []
    spans: list[list[list]] = []

    def attempt(entry) -> float:
        nonlocal reference, means, content_problem
        elapsed, blob, problem = cv_once(entry, argv, report)
        if blob is not None and reference is None:
            reference = blob
            means, content_problem = read_report(blob, folds)
        if problem is None:
            problem = content_problem if blob == reference else "report differs from the run's first"
        if problem is not None:
            failures.append(problem)
        return elapsed

    def traced_attempt() -> float:
        tracer = Tracer()
        with tracer.install():
            elapsed = attempt(tracer.wrap(ROOT_SPAN, cli_main))
        layers.append(layer_metrics(tracer, setup["dataset"]["file_bytes"]))
        spans.append(tracer.spans)
        traced_net.append(elapsed - sum(s[2] - s[1] for s in tracer.spans if s[0] == QUALITY))
        return elapsed

    deadline = time.perf_counter() + seconds
    while True:
        if not trace:
            times.append(attempt(cli_main))
        elif len(times) % 2 == 0:  # alternate the order within pairs so warm-up does not bias the overhead
            times.append(attempt(cli_main))
            traced_times.append(traced_attempt())
        else:
            traced_times.append(traced_attempt())
            times.append(attempt(cli_main))
        if time.perf_counter() >= deadline:
            break

    if trace:
        metrics = {name: statistics.median(call[name] for call in layers) for name in PER_LAYER if name in layers[0]}
        metrics["trace.overhead_frac"] = statistics.median(t / p - 1.0 for t, p in zip(traced_net, times))
        units = PER_LAYER
    else:
        metrics = {
            "setup_s": statistics.median(setup["times"]),
            "cv_s": statistics.median(times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ap_mean": means.get("average_precision", math.nan),
            "hamming_mean": means.get("hamming_loss", math.nan),
        }
        units = END_TO_END
    setup_repeatable = setup["repeatable"]
    return {
        "correct": not failures and setup_repeatable and all(math.isfinite(v) for v in metrics.values()),
        "attempted": len(times) + len(traced_times),
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
        "cv_s_samples": times,
        "setup_s_samples": setup["times"],
        "setup_repeatable": setup_repeatable,
        "failures": failures[:5],
        "dataset": setup["dataset"],
        "spans": spans,
    }


def _write_spans(path: Path, spans: list[list[list]]) -> None:
    with path.open("w", encoding="utf-8") as fh:
        for call, records in enumerate(spans):
            for i, (name, start, end, parent, raised, _) in enumerate(records):
                fh.write(json.dumps({"call": call, "id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "raised": raised}) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "comlabel" / "__init__.py").is_file():
        print(f"comlabel sources not found under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = OUT_DIR / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        outcome = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    env = environment()
    spans = outcome.pop("spans")
    if spans:
        _write_spans(OUT_DIR / f"{args.workload}-seed{args.seed}-spans.jsonl", spans)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "env": env, **outcome}
    (OUT_DIR / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    ds, (q1, q2, q3) = outcome["dataset"], quartiles(outcome["cv_s_samples"])
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"data: {args.workload} seed={args.seed} " + " ".join(f"{k}={v}" for k, v in ds.items()))
    print(f"cv_s: median={q2:.4f} q1={q1:.4f} q3={q3:.4f} n={len(outcome['cv_s_samples'])}")
    print(f"ops_failed_frac: {outcome['failed']}/{outcome['attempted']} = {outcome['failed'] / outcome['attempted']:.4f}")
    if not outcome["setup_repeatable"]:
        print("failure: set-up wrote different bytes for the same seed")
    for problem in outcome["failures"]:
        print(f"failure: {problem}")
    for name, m in outcome["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    metrics = {name: {"value": m["value"] if math.isfinite(m["value"]) else None, "unit": m["unit"]}
               for name, m in outcome["metrics"].items()}
    print(json.dumps({key: outcome[key] for key in ("correct", "attempted", "failed")} | {"metrics": metrics}))
    return 0 if outcome["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

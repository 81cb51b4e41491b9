"""Seeded stand-in data sets for the benchmark workloads.

The real scene and yeast files are not in the repository, so each workload
runs on a synthetic file of the same shape, written in the canonical sparse
multi-label text format that `comlabel cv` reads.  Labels come from a seeded
linear-threshold model over the features, so they are learnable and the
five metrics mean something.

A shape fixes the population: feature loadings, column popularity and label
weights come from its `task_seed`.  The run's seed draws the sample: rows,
sparsity patterns and label noise.  Different seeds are thus different
draws of one data set, and the same (shape, seed) always gives the same
bytes.  The program under test only ever sees the written file.

The benchmark runs this module as a child process, so that the generator's
arrays never count toward the peak memory of the process that runs the
program:

    python3 benchmarks/standins.py --shape '{"n": 200, "d": 20, ...}' --seed 1 --out data.txt --repeats 7

draws and writes the file `--repeats` times and prints one JSON line with
the data set's description, the wall seconds of each repeat, and whether
every repeat wrote the same bytes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Standard deviation of the noise added to the standardised label scores.
LABEL_NOISE = 0.5


@dataclass(frozen=True)
class StandInShape:
    """How one stand-in is drawn.

    `label_rates` are the target marginal rate of each label; with
    `primary_label` every row also gets its best-scoring label, which keeps
    label cardinality near 1 for single-topic data such as scene.
    `nnz_per_row` is None for dense rows, otherwise the mean number of
    nonzero features per row (text-like data).
    """

    n: int
    d: int
    label_rates: tuple[float, ...]
    primary_label: bool = False
    nnz_per_row: float | None = None
    value_scale: float = 1.0
    value_offset: float = 0.0
    task_seed: int = 0

    @property
    def k(self) -> int:
        return len(self.label_rates)


def _dense_features(shape: StandInShape, task: np.random.Generator, rng: np.random.Generator) -> np.ndarray:
    rank = 8
    loadings = task.standard_normal((rank, shape.d)) / np.sqrt(rank)
    latent = rng.standard_normal((shape.n, rank)) @ loadings
    latent += 0.7 * rng.standard_normal((shape.n, shape.d))
    X = shape.value_offset + shape.value_scale * latent
    if shape.value_offset > 0:  # image-like features live in [0, 1]
        X = np.clip(X, 0.0, 1.0)
    return np.round(X, 6)


def _sparse_features(shape: StandInShape, task: np.random.Generator, rng: np.random.Generator) -> np.ndarray:
    # Zipf-like column popularity, as for words in a vocabulary.
    popularity = 1.0 / np.arange(1, shape.d + 1) ** 0.6
    popularity = task.permutation(popularity / popularity.sum())
    X = np.zeros((shape.n, shape.d))
    counts = np.clip(rng.poisson(shape.nnz_per_row, size=shape.n), 5, shape.d // 2)
    for i, c in enumerate(counts):
        cols = rng.choice(shape.d, size=c, replace=False, p=popularity)
        vals = rng.lognormal(0.0, 0.5, size=c)
        X[i, cols] = vals / np.linalg.norm(vals)
    return np.round(X, 6)


def _labels(shape: StandInShape, X: np.ndarray, task: np.random.Generator, rng: np.random.Generator) -> np.ndarray:
    centered = X - X.mean(axis=0)
    Z = centered @ task.standard_normal((shape.d, shape.k))
    Z = (Z - Z.mean(axis=0)) / Z.std(axis=0)
    Z += LABEL_NOISE * rng.standard_normal(Z.shape)
    thresholds = [np.quantile(Z[:, k], 1.0 - rate) for k, rate in enumerate(shape.label_rates)]
    margin = Z - np.asarray(thresholds)
    y = (margin > 0).astype(np.uint8)
    rows = np.arange(shape.n)
    best = np.argmax(margin, axis=1)
    if shape.primary_label:
        y[rows, best] = 1
    empty = y.sum(axis=1) == 0
    y[rows[empty], best[empty]] = 1
    full = y.sum(axis=1) == shape.k
    y[rows[full], np.argmin(margin[full], axis=1)] = 0
    return y


def _format(X: np.ndarray, y: np.ndarray) -> str:
    n, d = X.shape
    lines = [f"{n} {d} {y.shape[1]}"]
    for i in range(n):
        labels = ",".join(map(str, np.flatnonzero(y[i])))
        cols = np.flatnonzero(X[i])
        feats = " ".join(f"{j}:{v:.6f}" for j, v in zip(cols.tolist(), X[i, cols].tolist()))
        lines.append(f"{labels} {feats}")
    return "\n".join(lines) + "\n"


def write_standin(shape: StandInShape, seed: int, path: Path) -> dict:
    """Draw the stand-in for `seed`, write it to `path`, and describe it."""
    task, rng = np.random.default_rng(shape.task_seed), np.random.default_rng(seed)
    features = _dense_features if shape.nnz_per_row is None else _sparse_features
    X = features(shape, task, rng)
    y = _labels(shape, X, task, rng)
    sizes = y.sum(axis=1)
    if np.any(sizes == 0) or np.any(sizes == shape.k):
        raise AssertionError("stand-in has a row with an empty or full label set")
    blob = _format(X, y).encode("utf-8")
    path.write_bytes(blob)
    return {
        "n": shape.n,
        "d": shape.d,
        "K": shape.k,
        "density": float(np.count_nonzero(X) / X.size),
        "label_cardinality": float(sizes.mean()),
        "file_bytes": len(blob),
        "sha256": hashlib.sha256(blob).hexdigest(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Write a seeded stand-in data file, repeatedly and timed.")
    parser.add_argument("--shape", required=True, help="StandInShape fields as a JSON object")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--repeats", type=int, required=True)
    args = parser.parse_args(argv)
    fields = json.loads(args.shape)
    shape = StandInShape(**{**fields, "label_rates": tuple(fields["label_rates"])})
    times, datasets = [], []
    for _ in range(args.repeats):
        start = time.perf_counter()
        datasets.append(write_standin(shape, args.seed, args.out))
        times.append(time.perf_counter() - start)
    repeatable = len({d["sha256"] for d in datasets}) == 1
    print(json.dumps({"dataset": datasets[0], "times": times, "repeatable": repeatable}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Dense round trip through the `comlabel` CLI on NumPy alone.

Writes a small random dense data set as CSV, then runs `convert`, `corrupt`
(also with a relevant label), `train` in every regime and every way to get
T (estimated, or read from a file and written back), `eval`, `cv`,
`estimate-t` (with and without the correlation correction) and the three
tables (`clrl` through the estimated transition file, `ablate`,
`sweep-beta`) on it, and fails unless every command succeeds and SciPy was
never imported.  Run it from the repository root with SciPy uninstalled, or
with `--block-scipy`, which makes SciPy unimportable in this process:

    PYTHONPATH=src python3 scripts/dense_without_scipy.py [--block-scipy]
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path


def main() -> int:
    if "--block-scipy" in sys.argv[1:]:
        sys.modules["scipy"] = None  # any `import scipy...` now raises ImportError

    import numpy as np

    from comlabel.cli import main as cli

    rng = np.random.default_rng(0)
    n, d, K = 120, 8, 5
    X = rng.standard_normal((n, d))
    Y = (X[:, :K] + 0.5 * rng.standard_normal((n, K)) > 0.3).astype(int)
    Y[Y.sum(axis=1) == 0, 0] = 1  # every row needs a relevant label...
    Y[Y.sum(axis=1) == K, 0] = 0  # ...and an irrelevant one
    with tempfile.TemporaryDirectory() as tmp:
        t = Path(tmp)
        np.savetxt(t / "X.csv", X, delimiter=",")
        np.savetxt(t / "Y.csv", Y, delimiter=",", fmt="%d")
        short_cv = ["--folds", "3", "--epochs", "5"]
        steps = [
            ["convert", "--features-csv", t / "X.csv", "--labels-csv", t / "Y.csv", "--out", t / "full.txt"],
            ["corrupt", "--data", t / "full.txt", "--out", t / "comp.txt", "--seed", "1"],
            ["corrupt", "--data", t / "full.txt", "--out", t / "rel.txt", "--seed", "1", "--relevant", "1"],
            ["train", "--data", t / "comp.txt", "--model-out", t / "model.txt", "--epochs", "5"],
            ["train", "--data", t / "rel.txt", "--regime", "clrl", "--model-out", t / "clrl.txt", "--epochs", "5"],
            ["train", "--data", t / "full.txt", "--regime", "supervised", "--model-out", t / "sup.txt",
             "--epochs", "5"],
            ["eval", "--data", t / "full.txt", "--model-in", t / "model.txt", "--out", t / "eval.csv"],
            ["cv", "--data", t / "full.txt", "--out", t / "cv.csv", *short_cv],
            ["estimate-t", "--data", t / "comp.txt", "--transition-out", t / "T.csv", "--epochs", "5"],
            ["estimate-t", "--data", t / "comp.txt", "--transition-out", t / "T0.csv", "--epochs", "5",
             "--no-correlation", "--curve-out", t / "curve0.csv"],
            ["train", "--data", t / "comp.txt", "--model-out", t / "model2.txt", "--epochs", "5",
             "--transition-in", t / "T.csv", "--transition-out", t / "T2.csv", "--curve-out", t / "curve2.csv"],
            ["clrl", "--data", t / "full.txt", "--transition-in", t / "T.csv", "--out", t / "clrl.csv", *short_cv],
            ["ablate", "--data", t / "full.txt", "--out", t / "ablate.csv", *short_cv],
            ["sweep-beta", "--data", t / "full.txt", "--betas", "0,1", "--out", t / "sweep.csv", *short_cv],
        ]
        for argv in steps:
            if cli([str(a) for a in argv]) != 0:
                print(f"FAIL: comlabel {argv[0]} exited non-zero", file=sys.stderr)
                return 1
    loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy" and sys.modules[m] is not None)
    if loaded:
        print(f"FAIL: the dense round trip imported {', '.join(loaded)}", file=sys.stderr)
        return 1
    print("dense round trip ran without SciPy: " + ", ".join(argv[0] for argv in steps))
    return 0


if __name__ == "__main__":
    sys.exit(main())

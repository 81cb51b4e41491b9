"""Smoke self-test of the benchmark harness at tiny sizes.

    python3 benchmarks/selftest.py

Runs every workload's `comlabel cv` flags on a tiny stand-in, untraced and
traced, and checks that:
- every call passes the output check;
- every metric in BENCHMARK.json appears in the result with its unit, and
  BENCHMARK.json names exactly the metrics and workloads run.py defines;
- in every traced call the spans' self times add up to the root span.
Exits non-zero on the first failed check.  Not part of the test suite.
"""

from __future__ import annotations

import json
import shutil
import sys
from dataclasses import replace

import run  # pins BLAS threads before NumPy loads
from layertrace import END, PARENT, START, self_times


def tiny(workload: run.Workload) -> run.Workload:
    shape = workload.shape
    nnz = None if shape.nnz_per_row is None else 6.0
    return replace(workload, shape=replace(shape, n=200, d=min(shape.d, 60), nnz_per_row=nnz))


def check_declared(declared: list[dict], produced: dict, units: dict[str, str]) -> None:
    names = {m["name"]: m["unit"] for m in declared}
    if names != units:
        raise AssertionError(f"BENCHMARK.json metrics {names} differ from run.py's {units}")
    for name, unit in units.items():
        if produced.get(name, {}).get("unit") != unit:
            raise AssertionError(f"metric {name} missing or without unit {unit!r}: {produced.get(name)}")


def check_self_times(spans: list[list]) -> None:
    roots = [s for s in spans if s[PARENT] < 0]
    if len(roots) != 1:
        raise AssertionError(f"expected one root span, found {len(roots)}")
    total, root = sum(self_times(spans)), roots[0][END] - roots[0][START]
    if abs(total - root) > 1e-6 * max(root, 1.0):
        raise AssertionError(f"self times sum to {total!r}, root span lasts {root!r}")


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if sorted(w["name"] for w in spec["workloads"]) != sorted(run.WORKLOADS):
        raise AssertionError("BENCHMARK.json workloads differ from run.py's")
    work = run.OUT_DIR / "selftest"
    work.mkdir(parents=True, exist_ok=True)
    try:
        for name, workload in run.WORKLOADS.items():
            for trace, declared, units in ((False, spec["end_to_end"], run.END_TO_END), (True, spec["per_layer"], run.PER_LAYER)):
                outcome = run.run_workload(tiny(workload), seed=1, seconds=0.01, trace=trace, work=work)
                if not outcome["correct"] or outcome["failed"]:
                    raise AssertionError(f"{name} trace={trace}: {outcome['failures']}")
                check_declared(declared, outcome["metrics"], units)
                for spans in outcome["spans"]:
                    check_self_times(spans)
                print(f"ok {name} trace={int(trace)} calls={outcome['attempted']} spans={sum(map(len, outcome['spans']))}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

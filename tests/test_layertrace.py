"""The benchmark's layer trace (benchmarks/layertrace.py) sees every layer it wraps.

The trace wraps module attributes, so a refactor that stops calling one of
them through its module would leave that layer's spans silently empty.
"""

import importlib.util
import sys
from pathlib import Path

from comlabel.cli import main

LAYERTRACE = Path(__file__).resolve().parents[1] / "benchmarks" / "layertrace.py"


def test_traced_cv_records_every_wrapped_layer_and_the_same_report(data_file, tmp_path, monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave benchmarks/ as it is
    spec = importlib.util.spec_from_file_location("layertrace", LAYERTRACE)
    layertrace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layertrace)

    # biased mode and the lr grid, so corrupt_uniform is the one layer not called
    argv = ["cv", "--data", str(data_file), "--mode", "biased", "--folds", "2", "--epochs", "1"]
    assert main([*argv, "--out", str(tmp_path / "plain.csv")]) == 0
    tracer = layertrace.Tracer()
    with tracer.install():
        assert main([*argv, "--out", str(tmp_path / "traced.csv")]) == 0

    wrapped = {name for names in layertrace.WRAPPED.values() for name in names} - {"corrupt_uniform"}
    missing = wrapped - {span[layertrace.NAME] for span in tracer.spans}
    assert not missing, f"no span recorded for {sorted(missing)}"
    assert (tmp_path / "traced.csv").read_bytes() == (tmp_path / "plain.csv").read_bytes()

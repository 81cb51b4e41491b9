"""Import hygiene of the package, and SciPy loading only for sparse data.

The SciPy checks run in a fresh interpreter, since this test process has
SciPy loaded already.
"""

import ast
import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

import comlabel
from comlabel.dataset import MultiLabelDataset, parse_multilabel_file, write_multilabel_file

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "dense_without_scipy.py"

# The CLI on argv[2:]; with argv[1] == "blocked", SciPy cannot be imported.
RUN_CLI = r"""
import sys
if sys.argv[1] == "blocked":
    sys.modules["scipy"] = None
from comlabel.cli import main
sys.exit(main(sys.argv[2:]))
"""

# Parses the file argv[1] and prints whether scipy.sparse was loaded before
# and after, with the dtype and bytes of each CSR array.
PARSE_SPARSE = r"""
import json, sys
from comlabel.dataset import parse_multilabel_file
before = "scipy.sparse" in sys.modules
X = parse_multilabel_file(sys.argv[1]).features
arrays = {a: [str(getattr(X, a).dtype), getattr(X, a).tobytes().hex()] for a in ("data", "indices", "indptr")}
print(json.dumps({"before": before, "after": "scipy.sparse" in sys.modules, "format": X.format, "arrays": arrays}))
"""


def _fresh(*argv) -> str:
    """Run python with `argv` in a new interpreter that imports this comlabel; its stdout."""
    src = str(Path(comlabel.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=path)
    done = subprocess.run([sys.executable, *map(str, argv)], capture_output=True, text=True, env=env, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    return done.stdout


class TestDenseWithoutScipy:
    def test_cli_round_trip_leaves_scipy_unloaded(self):
        # convert, corrupt, train, eval and cv on dense data; the script fails if SciPy was imported
        assert "ran without SciPy" in _fresh(SCRIPT)

    def test_cv_report_identical_with_scipy_blocked(self, tmp_path):
        rng = np.random.default_rng(3)
        y = np.tile([[1, 0, 0, 1], [0, 1, 0, 0], [0, 1, 1, 0]], (30, 1))
        data = tmp_path / "full.txt"
        write_multilabel_file(MultiLabelDataset(rng.standard_normal((90, 5)) + y[:, :1], y), data)
        for mode in ("open", "blocked"):
            _fresh("-c", RUN_CLI, mode, "cv", "--data", data, "--out", tmp_path / f"{mode}.csv",
                   "--folds", "3", "--epochs", "3", "--lr", "0.01", "--seed", "4")  # fmt: skip
        assert (tmp_path / "blocked.csv").read_bytes() == (tmp_path / "open.csv").read_bytes()


class TestSparseLoadsScipy:
    def test_parse_loads_scipy_sparse_and_builds_the_same_csr(self, tmp_path):
        rng = np.random.default_rng(2)
        y = np.tile([[1, 0, 1], [0, 1, 0]], (20, 1))
        X = sp.random(40, 30, density=0.1, random_state=rng, format="csr")
        path = tmp_path / "sparse.txt"
        write_multilabel_file(MultiLabelDataset(X, y), path)
        got = json.loads(_fresh("-c", PARSE_SPARSE, path))
        assert (got["before"], got["after"], got["format"]) == (False, True, "csr")
        want = parse_multilabel_file(path).features  # here SciPy is loaded before the parse
        for attr, (dtype, blob) in got["arrays"].items():
            assert (dtype, blob) == (str(getattr(want, attr).dtype), getattr(want, attr).tobytes().hex())
        assert (want != X).nnz == 0


class TestPublicNames:
    def test_every_exported_name_resolves(self):
        checked = 0
        for info in pkgutil.iter_modules(comlabel.__path__):
            module = importlib.import_module(f"comlabel.{info.name}")
            names = getattr(module, "__all__", ())
            assert len(set(names)) == len(names), f"{info.name}.__all__ repeats a name"
            missing = [name for name in names if not hasattr(module, name)]
            assert not missing, f"comlabel.{info.name}.__all__ names missing attributes {missing}"
            checked += len(names)
        assert checked > 0


MODULES = sorted(Path(comlabel.__file__).resolve().parent.glob("*.py"))


def _comlabel_module(node: ast.ImportFrom | ast.Import) -> bool:
    """Whether an import statement names a comlabel module."""
    if isinstance(node, ast.ImportFrom):
        return node.level > 0 or (node.module or "").split(".")[0] == "comlabel"
    return any(alias.name.split(".")[0] == "comlabel" for alias in node.names)


def _top_level_imports(tree: ast.Module):
    """The module's imports outside any function or class, `if` blocks included."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif isinstance(node, ast.If):
            stack += node.body + node.orelse


def _declared_exports(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


# Public names that the package itself never reads: references that the tests
# compare the package against.  Any other public name needs a reader in the package.
TEST_REFERENCES = {"loss.gradient_check"}


def test_every_public_name_is_read_in_the_package():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in MODULES}
    nodes = [node for tree in trees.values() for node in ast.walk(tree)]
    read = {node.id for node in nodes if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    read |= {node.attr for node in nodes if isinstance(node, ast.Attribute)}
    unread = {f"{stem}.{name}" for stem, tree in trees.items() for name in _declared_exports(tree) - read}
    assert unread == TEST_REFERENCES


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
class TestImportHygiene:
    def test_no_underscored_name_from_another_module(self, path):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        private = [
            f"line {node.lineno}: {alias.name}"
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and _comlabel_module(node)
            for alias in node.names
            if alias.name.startswith("_")
        ]
        assert not private, f"{path.name} imports underscored names: {private}"

    def test_no_package_import_inside_a_function(self, path):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        nested = [
            f"line {node.lineno} in {func.name}"
            for func in ast.walk(tree)
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
            for node in ast.walk(func)
            if isinstance(node, (ast.Import, ast.ImportFrom)) and _comlabel_module(node)
        ]
        assert not nested, f"{path.name} imports comlabel modules inside functions: {nested}"


def test_package_reexports_nothing():
    # each public name has one import path, its module's
    tree = ast.parse(Path(comlabel.__file__).read_text(encoding="utf-8"))
    assert not [node.lineno for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_top_level_import(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} | _declared_exports(tree)
    unused = [
        f"line {node.lineno}: {name}"
        for node in _top_level_imports(tree)
        if not (isinstance(node, ast.ImportFrom) and node.module == "__future__")
        for name in ((alias.asname or alias.name.split(".")[0]) for alias in node.names)
        if name not in used
    ]
    assert not unused, f"{path.name} has unused imports: {unused}"


FIT_STEPS = ("train_cl_predictor", "train_mlcl", "train_clrl", "train_supervised", "estimate_transition")


def test_cli_names_no_trainer():
    # every command trains through experiment's one fit path
    tree = ast.parse((Path(comlabel.__file__).parent / "cli.py").read_text(encoding="utf-8"))
    imports = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    names = {alias.asname or alias.name for node in imports for alias in node.names}
    names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert not [n for n in sorted(names) if n in FIT_STEPS or n.startswith("train_")]


@pytest.mark.parametrize("step", FIT_STEPS)
def test_each_fit_step_used_by_one_function(step):
    users = {
        f"{path.name}:{func.name}"
        for path in MODULES
        for func in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(func, ast.FunctionDef)
        for node in ast.walk(func)
        if isinstance(node, ast.Name) and node.id == step
    }
    assert len(users) == 1 and users.pop().startswith("experiment.py:"), users

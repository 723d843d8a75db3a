"""The package imports nothing it does not use, and nothing it does not need yet.

A name may stay imported and unused only on an import marked ``# noqa: F401``,
and the marked names are exactly those bench/tracing.py wraps through the
importing module: the package must keep calling them through it.

The package never imports scipy: the GP's solves call numpy's own LAPACK, and
importing ``scipy.linalg`` would cost every GP command about 20 MB of RSS and
a quarter of a second. The static check finds a scipy import anywhere in the
package with ``ast``; the runtime checks run each command in a fresh
interpreter. The tests still use scipy, as the reference for the solves' bits.

Only ``numerics`` calls numpy's LAPACK gufuncs, behind its ``cholesky`` and
``solve``: the static check fails on an ``np.linalg.cholesky`` or
``np.linalg.solve`` call, or an import of either, anywhere else in the
package, so the wrappers' per-call overhead cannot come back unnoticed.
Likewise only ``numerics`` imports ``ctypes``: it alone calls into numpy's
LAPACK and OpenBLAS directly.

The CLI reaches every fit through ``evaluation.fit_predictors``: ``cli``
imports none of the solver modules, and from ``baselines`` only the names
bench/tracing.py wraps through it.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from helpers import lang_codes, planted_dataset
from xferlens.data import save_dataset

SRC = Path(__file__).resolve().parents[1] / "src" / "xferlens"

TRACED = {
    ("cli", "fit_gbt"), ("cli", "predict_gbt"), ("cli", "fit_scaler"), ("cli", "standardize"),
    ("gp", "mlp_backward"), ("meta", "mlp_backward"),
}


def imported_names(tree: ast.Module, lines: list[str]):
    """(name bound, marked) for each name an import binds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (
                isinstance(node, ast.ImportFrom) and node.module != "__future__"):
            marked = "# noqa: F401" in lines[node.lineno - 1]
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], marked


def used_names(tree: ast.Module) -> set[str]:
    """Names the module reads, and those its ``__all__`` re-exports."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return used


def test_every_import_used_or_traced():
    unused, marked = [], set()
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        tree = ast.parse(text)
        used = used_names(tree)
        for name, noqa in imported_names(tree, text.splitlines()):
            if noqa:
                marked.add((path.stem, name))
            elif name not in used:
                unused.append(f"{path.name}: {name}")
    assert unused == []
    assert marked == TRACED


def imports_of(tree: ast.Module, package: str):
    """Line numbers of each statement that imports ``package`` or a module of
    it, wherever it is: at module level, in a class or in a function body."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue
        if any(m.split(".")[0] == package for m in modules):
            yield node.lineno


def test_no_scipy_import_in_src():
    found = []
    for path in sorted(SRC.glob("*.py")):
        found += [f"{path.name}:{line}"
                  for line in imports_of(ast.parse(path.read_text(encoding="utf-8")), "scipy")]
    assert found == []


def test_only_numerics_imports_ctypes():
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.stem != "numerics":
            found += [f"{path.name}:{line}"
                      for line in imports_of(ast.parse(path.read_text(encoding="utf-8")), "ctypes")]
    assert found == []
    assert list(imports_of(ast.parse((SRC / "numerics.py").read_text(encoding="utf-8")), "ctypes"))


def test_scipy_imports_sees_every_statement():
    tree = ast.parse(
        "import scipy\n"
        "if True:\n    from scipy.linalg import lapack\n"
        "class A:\n    import scipy.sparse\n"
        "def f():\n    import scipy.optimize\n"
        "async def g():\n    import os, scipy\n"
        "import numpy\nfrom . import scipy_like\nfrom .scipy import x\n"
    )
    assert sorted(imports_of(tree, "scipy")) == [1, 3, 5, 7, 9]


SOLVERS = {"sparse_linear", "gp", "meta", "factorization"}


def package_imports(tree: ast.Module):
    """(module, name) for each package module a statement imports: the name
    it takes from the module, or None for the module itself."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "xferlens" and len(parts) > 1:
                    yield parts[1], None
        elif isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if node.level == 0:
                if parts[0] != "xferlens":
                    continue
                parts = parts[1:]
            for alias in node.names:
                yield (parts[0], alias.name) if parts and parts[0] else (alias.name, None)


def test_cli_reaches_every_fit_through_evaluation():
    imports = list(package_imports(ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))))
    assert [(module, name) for module, name in imports if module in SOLVERS] == []
    assert {("cli", name) for module, name in imports if module == "baselines"} <= TRACED
    assert ("evaluation", None) in imports


def test_package_imports_sees_every_spelling():
    tree = ast.parse(
        "from . import evaluation, gp\n"
        "from .baselines import fit_gbt\n"
        "import xferlens.meta\n"
        "from xferlens import sparse_linear\n"
        "from xferlens.factorization import fit_cmf as f\n"
        "def g():\n    from .gp import fit_gp\n"
        "import numpy\nfrom numpy import linalg\n"
    )
    assert set(package_imports(tree)) == {
        ("evaluation", None), ("gp", None), ("baselines", "fit_gbt"), ("meta", None),
        ("sparse_linear", None), ("factorization", "fit_cmf"), ("gp", "fit_gp"),
    }


WRAPPED = {"cholesky", "solve"}


def linalg_wrapper_uses(tree: ast.Module):
    """Line numbers of each use of ``np.linalg.cholesky`` or ``np.linalg.solve``:
    an attribute of anything named ``linalg`` (or bound to ``numpy.linalg``),
    or a name imported from ``numpy.linalg``."""
    linalg_names = {"linalg"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            linalg_names.update(a.asname for a in node.names if a.name == "numpy.linalg" and a.asname)
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy":
            linalg_names.update(a.asname or a.name for a in node.names if a.name == "linalg")
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "numpy.linalg":
            if any(a.name in WRAPPED for a in node.names):
                yield node.lineno
        elif isinstance(node, ast.Attribute) and node.attr in WRAPPED:
            owner = node.value
            name = owner.attr if isinstance(owner, ast.Attribute) else getattr(owner, "id", None)
            if name in linalg_names:
                yield node.lineno


def test_linalg_wrappers_only_in_numerics():
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.stem != "numerics":
            found += [f"{path.name}:{line}"
                      for line in linalg_wrapper_uses(ast.parse(path.read_text(encoding="utf-8")))]
    assert found == []


def test_linalg_wrapper_uses_sees_every_spelling():
    tree = ast.parse(
        "import numpy as np\n"
        "np.linalg.solve(a, b)\n"
        "f = numpy.linalg.cholesky\n"
        "from numpy.linalg import cholesky\n"
        "from numpy import linalg as la\n"
        "la.solve(a, b)\n"
        "import numpy.linalg as nl\n"
        "nl.cholesky(a)\n"
        "np.linalg.norm(a)\n"
        "numerics.solve(a, b)\n"
        "from numpy.linalg import LinAlgError\n"
    )
    assert sorted(linalg_wrapper_uses(tree)) == [2, 3, 4, 6, 8]

# Runs in a fresh interpreter; exits naming the first step that loaded scipy.
WITHOUT_SCIPY = """
import sys

def check(step):
    if "scipy" in sys.modules:
        sys.exit(f"scipy loaded by {step}")

import xferlens
check("import xferlens")
import xferlens.cli
check("import xferlens.cli")
from xferlens.cli import main

scores, features, meta, wals, out = sys.argv[1:]
code = main(["features", "--wals", wals, "--meta", meta, "--out", out + "/features.csv"])
assert code == 0, code
check("features")
code = main(["evaluate", "--scores", scores, "--features", features, "--meta", meta,
             "--models", "awt,aat,lasso,gbt,dgpr,group-lasso,cmf,mdgpr,maml",
             "--protocol", "lolo", "--task", "A", "--out", out + "/eval"])
assert code == 0, code
check("evaluate")
code = main(["explain", "--scores", scores, "--features", features, "--meta", meta,
             "--model", "dgpr", "--method", "permutation", "--repeats", "1",
             "--out", out + "/explain"])
assert code == 0, code
check("explain")
code = main(["report", "--report", out + "/eval/report.json", "--out", out + "/table.txt"])
assert code == 0, code
check("report")
"""

# Evaluates dgpr and mdgpr, after importing scipy (and so loading its own
# LAPACK) first when asked to.
GP_KINDS = """
import sys

if sys.argv[5] == "scipy-first":
    import scipy.linalg
from xferlens.cli import main

scores, features, meta, out = sys.argv[1:5]
code = main(["evaluate", "--scores", scores, "--features", features, "--meta", meta,
             "--models", "dgpr,mdgpr", "--protocol", "lolo", "--task", "A", "--out", out])
assert code == 0, code
"""


def run_python(code: str, *args) -> None:
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    proc = subprocess.run([sys.executable, "-c", code, *map(str, args)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def small_inputs(tmp_path: Path) -> dict[str, Path]:
    langs = lang_codes(5)
    w = np.zeros(9)
    w[1] = 0.1
    paths = save_dataset(planted_dataset({"A": langs[:4], "B": langs}, w, seed=0), tmp_path / "data")
    paths["wals"] = tmp_path / "wals.csv"
    paths["wals"].write_text("lang,feature_value\n" + "".join(
        f"{lang},f{i % 3}\n" for i, lang in enumerate(["en", *langs])))
    return paths


def test_no_command_loads_scipy(tmp_path):
    p = small_inputs(tmp_path)
    run_python(WITHOUT_SCIPY, p["scores"], p["features"], p["meta"], p["wals"], tmp_path)


def test_gp_outputs_do_not_depend_on_scipy_being_loaded(tmp_path):
    p = small_inputs(tmp_path)
    records = []
    for order in ("without-scipy", "scipy-first"):
        out = tmp_path / order
        run_python(GP_KINDS, p["scores"], p["features"], p["meta"], out, order)
        records.append((out / "records.csv").read_bytes())
    assert records[0] == records[1]
    assert {line.split(b",")[0] for line in records[0].splitlines()[2:]} == {b"dgpr", b"mdgpr"}

"""The package imports nothing it does not use, found with ``ast`` alone.

A name may stay imported and unused only on an import marked ``# noqa: F401``,
and the marked names are exactly those bench/tracing.py wraps through the
importing module: the package must keep calling them through it.
"""

import ast
from pathlib import Path

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

"""Static checks on the package source.  The runtime invariants are raised,
not asserted, so they stay on under `python -O`, which strips `assert`
statements.  The slow reference paths in `tests/oracles.py` stay test-only:
the package imports nothing from `tests`."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "stringsep"


def _nodes():
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            yield path, node


def test_no_assert_in_the_package():
    found = [
        f"{path.name}:{node.lineno}" for path, node in _nodes() if isinstance(node, ast.Assert)
    ]
    assert found == []


def _imported(node) -> list[str]:
    """The dotted names an import statement names, module and imported names."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom):
        return [node.module or ""] + [alias.name for alias in node.names]
    return []


def test_the_package_imports_no_oracles():
    found = [
        f"{path.name}:{node.lineno}"
        for path, node in _nodes()
        if any({"tests", "oracles"} & set(name.split(".")) for name in _imported(node))
    ]
    assert found == []

"""The package's runtime invariants are raised, not asserted, so they stay
on under `python -O`, which strips `assert` statements."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "stringsep"


def test_no_assert_in_the_package():
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []

"""Static checks on the package source.  The runtime invariants are raised,
not asserted, so they stay on under `python -O`, which strips `assert`
statements.  The slow reference paths in `tests/oracles.py` stay test-only:
the package imports nothing from `tests`.  No private code is left dead: the
package names each of its private module-level definitions somewhere.  One
routine sweeps segment pairs: `_segment_pairs` has one caller."""

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


def _defined(tree):
    """(name, line) of each module-level function, class and assigned name."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id, name.lineno


def test_no_private_definition_is_dead():
    # a private name (dunders such as __version__ are not private) that the
    # package never reads, as a name or an attribute, is dead code
    defined, read = [], set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        defined += [(name, f"{path.name}:{line}") for name, line in _defined(tree)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    dead = [
        place for name, place in defined
        if name.startswith("_") and not name.endswith("__") and name not in read
    ]
    assert dead == []



def _names(node, name) -> bool:
    return (isinstance(node, ast.Name) and node.id == name
            or isinstance(node, ast.Attribute) and node.attr == name)


def test_segment_pairs_has_one_caller():
    # one sweep per curve collection decides both where distinct curves meet
    # and whether each curve is simple; a second screen would sweep again
    reads = [path.name for path, node in _nodes() if _names(node, "_segment_pairs")]
    callers = [
        (path.name, fn.name)
        for path, fn in _nodes()
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn)
        if isinstance(node, ast.Call) and _names(node.func, "_segment_pairs")
    ]
    assert reads == ["geometry.py"]
    assert callers == [("geometry.py", "_meeting_keys")]

"""Source lints: every name a flowtok module imports is used there, and
every function, class and method it defines has a reader outside the tests."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCE = ROOT / "src" / "flowtok"
# The benchmark reads the program as a user would; its own tests do not count.
READERS = sorted(SOURCE.glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))

# Definitions kept without a reader in src/ or bench/, each with its reason.
NO_CALLER_YET = {
    "frozen_digest": "the acceptance suite's oracle that LoRA training leaves the base unchanged",
    "set_nan_checks": "its caller is the planned environment switch that turns on NaN checks",
}


def _imported(tree: ast.Module) -> dict[str, int]:
    """Each name an import statement binds, with its line."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _used(tree: ast.Module) -> set[str]:
    """Every name the module reads, and the names listed in its __all__."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used |= set(ast.literal_eval(node.value))
    return used


@pytest.mark.parametrize("path", sorted(SOURCE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_import(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = _used(tree)
    unused = sorted((line, name) for name, line in _imported(tree).items() if name not in used)
    assert not unused, f"{path.name}: unused imports " + ", ".join(
        f"{name} (line {line})" for line, name in unused)


def _definitions(tree: ast.Module):
    """Top-level functions and classes, and the non-dunder methods of those
    classes, as (name, node)."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, defs):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, defs) and not item.name.startswith("__"):
                    yield item.name, item


def _references(tree: ast.Module):
    """(name, line) for every name read, attribute accessed, imported name
    and identifier-like string; the benchmark names what it rebinds as strings."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name.split(".")[-1], node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
            yield node.value, node.lineno


def test_every_definition_has_a_caller():
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in READERS}
    readers: dict[str, list[tuple[Path, int]]] = {}
    for path, tree in trees.items():
        for name, line in _references(tree):
            readers.setdefault(name, []).append((path, line))
    orphans, allowed = [], set()
    for path in sorted(SOURCE.glob("*.py")):
        for name, node in _definitions(trees[path]):
            outside = [(p, line) for p, line in readers.get(name, ())
                       if p != path or not node.lineno <= line <= node.end_lineno]
            if name in NO_CALLER_YET and not outside:
                allowed.add(name)
            elif not outside:
                orphans.append(f"{path.name}:{node.lineno} {name}")
    assert not orphans, "defined but read only by tests: " + ", ".join(orphans)
    # An entry that gained a reader, or lost its definition, leaves the list.
    assert allowed == set(NO_CALLER_YET), sorted(set(NO_CALLER_YET) - allowed)

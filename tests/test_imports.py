"""Source lints: every name a flowtok module imports is used there; every
function, class and method it defines has a reader outside the tests; every
parameter with a default is passed at some call; and every dataclass field
and instance attribute is read."""

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


# Defaulted parameters no call in src/ or bench/ passes, each with its reason.
NEVER_PASSED = {
    "main.argv": "the console entry point calls main(); the tests pass argv",
}


def _defaulted(tree: ast.Module):
    """(name, defaulted parameters) of every top-level function, method and
    class __init__ (named after its class), with the index each parameter
    takes among a call's positional arguments (None if keyword-only); a
    method's first parameter is bound. __call__ is left out: its call sites
    carry no name."""
    def params(fn, bound):
        positional = fn.args.posonlyargs + fn.args.args
        first = len(positional) - len(fn.args.defaults)
        found = [(arg.arg, i - bound) for i, arg in enumerate(positional) if i >= first]
        found += [(arg.arg, None) for arg, default in zip(fn.args.kwonlyargs,
                                                          fn.args.kw_defaults) if default]
        return found

    funcs = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if isinstance(node, funcs):
            yield node.name, params(node, 0)
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, funcs) and item.name != "__call__":
                    yield node.name if item.name == "__init__" else item.name, params(item, 1)


def _callee(func: ast.expr) -> str | None:
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def _calls(tree: ast.Module):
    """(callee name, positional count, keyword names) of every call; a
    functools.partial(f, ...) counts as a call of f. A *args or **kwargs
    at the call counts as passing everything it could reach."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name, args = _callee(node.func), node.args
        if name == "partial" and args:
            name, args = _callee(args[0]), args[1:]
        n_positional = (float("inf") if any(isinstance(a, ast.Starred) for a in args)
                        else len(args))
        keywords = {k.arg for k in node.keywords}
        yield name, n_positional, keywords


def test_every_default_is_passed_somewhere():
    calls: dict[str, list[tuple[float, set]]] = {}
    for path in READERS:
        for name, n_positional, keywords in _calls(ast.parse(path.read_text(encoding="utf-8"))):
            calls.setdefault(name, []).append((n_positional, keywords))
    unpassed, allowed = [], set()
    for path in sorted(SOURCE.glob("*.py")):
        for name, params in _defaulted(ast.parse(path.read_text(encoding="utf-8"))):
            for param, index in params:
                passed = any(param in keywords or None in keywords
                             or (index is not None and index < n_positional)
                             for n_positional, keywords in calls.get(name, ()))
                key = f"{name}.{param}"
                if key in NEVER_PASSED and not passed:
                    allowed.add(key)
                elif not passed:
                    unpassed.append(f"{path.name} {key}")
    assert not unpassed, "defaults no call in src/ or bench/ overrides: " + ", ".join(unpassed)
    assert allowed == set(NEVER_PASSED), sorted(set(NEVER_PASSED) - allowed)


def test_every_dataclass_field_is_read():
    read = {node.attr for path in READERS
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unread = [f"{path.name} {node.name}.{item.target.id}"
              for path in sorted(SOURCE.glob("*.py"))
              for node in ast.parse(path.read_text(encoding="utf-8")).body
              if isinstance(node, ast.ClassDef)
              and any(_callee(getattr(d, "func", d)) == "dataclass" for d in node.decorator_list)
              for item in node.body
              if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
              and item.target.id not in read]
    assert not unread, "dataclass fields nothing reads: " + ", ".join(unread)


def _attribute_reads(tree: ast.Module):
    """Every attribute name the module reads, an augmented assignment's
    target included, and every identifier-like string (getattr names,
    the attributes the benchmark rebinds)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr
        elif isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Attribute):
            yield node.target.attr
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier()):
            yield node.value


def _self_assignments(cls: ast.ClassDef):
    """(attribute, line) for every `self.X = ...` in the class's methods."""
    for node in ast.walk(cls):
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign) else [])
        for target in targets:
            for t in ast.walk(target):
                if (isinstance(t, ast.Attribute) and isinstance(t.ctx, ast.Store)
                        and isinstance(t.value, ast.Name) and t.value.id == "self"):
                    yield t.attr, t.lineno


def test_every_instance_attribute_is_read():
    read = {name for path in READERS
            for name in _attribute_reads(ast.parse(path.read_text(encoding="utf-8")))}
    unread = sorted({f"{path.name}:{line} {node.name}.{attr}"
                     for path in sorted(SOURCE.glob("*.py"))
                     for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                     if isinstance(node, ast.ClassDef)
                     for attr, line in _self_assignments(node) if attr not in read})
    assert not unread, "instance attributes nothing reads: " + ", ".join(unread)

"""Every top-level function, class and method of the package has a caller.

The package is parsed, not imported. A definition counts as reached when
its name occurs somewhere in `src/dirmat` or `perfbench/` outside its own
body: as a name, as an attribute, or as a string (the benchmark's tracer
names the functions it wraps by string, and `__all__` lists exports).
Matching is by name only, so a method shares its reach with every other
definition of the same name. Likewise every module-level import of a
module is used in that module, except the re-exports of `__init__.py`.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "dirmat"
SCANNED = [PACKAGE, ROOT / "perfbench"]

# Reached only from tests, on purpose: the JSON writer the file-loading
# tests use.
ALLOWED = {
    "Network.to_json",
}


def _definitions(path, tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node.name, node
        elif isinstance(node, ast.ClassDef):
            yield node.name, node.name, node
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if not (item.name.startswith("__") and item.name.endswith("__")):
                        yield f"{node.name}.{item.name}", item.name, item


def _references(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value, node.lineno


def unreached():
    trees = {}
    for base in SCANNED:
        for path in sorted(base.glob("*.py")):
            trees[path] = ast.parse(path.read_text(), filename=str(path))
    refs = {}
    for path, tree in trees.items():
        for name, line in _references(tree):
            refs.setdefault(name, []).append((path, line))
    out = []
    for path, tree in trees.items():
        if not path.is_relative_to(PACKAGE):
            continue
        for qualname, name, node in _definitions(path, tree):
            inside = lambda p, ln: p == path and node.lineno <= ln <= node.end_lineno
            if not any(not inside(p, ln) for p, ln in refs.get(name, ())):
                out.append(f"{path.name}:{node.lineno} {qualname}")
    return out


def test_every_definition_has_a_caller():
    found = unreached()
    missing = [item for item in found if item.split(" ")[1] not in ALLOWED]
    assert not missing, "no caller in src/dirmat or perfbench/: " + ", ".join(missing)
    # an allowed name that gains a caller, or goes away, leaves the list
    stale = ALLOWED - {item.split(" ")[1] for item in found}
    assert not stale, f"allowed but reached or gone: {sorted(stale)}"


def unused_imports():
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = (alias.asname or alias.name).split(".")[0]
                    if bound not in names:
                        out.append(f"{path.name}:{node.lineno} {bound}")
    return out


def test_every_import_is_used():
    found = unused_imports()
    assert not found, "imported but never used: " + ", ".join(found)

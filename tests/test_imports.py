"""Every module-level import of the package's modules is used, and every
public module-level name they define has a caller in the package or in
the benchmark, so no test-only helper ships in ``src``."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).parents[1] / "src" / "fdht"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
REFERRERS = sorted([*SRC.glob("*.py"), *(SRC.parents[1] / "perfbench").glob("*.py")])


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_level_imports_are_used(path):
    tree = ast.parse(path.read_text())
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            names = [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names = [a.asname or a.name for a in node.names]
        else:
            continue
        imported.update(dict.fromkeys(names, node.lineno))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    assert {name: line for name, line in imported.items() if name not in used} == {}


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "__main__.py"],
                         ids=lambda p: p.name)
def test_public_names_are_referenced(path):
    # a name counts as referenced where it is read, as a name or an
    # attribute, outside the statement that defines it; an import alone
    # (such as the package's re-exports) does not count
    defined = {}
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if not name.startswith("_"):
                defined[name] = (node.lineno, node.end_lineno)
    referenced = set()
    for referrer in REFERRERS:
        for n in ast.walk(ast.parse(referrer.read_text())):
            if not isinstance(getattr(n, "ctx", None), ast.Load):
                continue
            name = n.id if isinstance(n, ast.Name) else getattr(n, "attr", None)
            if name not in defined:
                continue
            first, last = defined[name]
            if referrer != path or not first <= n.lineno <= last:
                referenced.add(name)
    assert {name: defined[name][0] for name in defined if name not in referenced} == {}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_parameters_are_read(path):
    # every parameter of a function or method, self and cls aside, is read
    # in its body (or in a function nested in it)
    unread = []
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, (ast.FunctionDef, ast.Lambda)):
            continue
        a = node.args
        params = [p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg)
                  if p is not None and p.arg not in ("self", "cls")]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        name = getattr(node, "name", "lambda")
        unread += [f"{name}:{node.lineno} {p}" for p in params if p not in read]
    assert unread == []

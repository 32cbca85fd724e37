"""The fdht names and calls that the benchmark in ``perfbench/`` binds,
checked in under a second: a rename in ``src``, or a parameter it drops or
renames, fails here, not only in the harness.

The traced names are perfbench's own lists (``tracing.FUNCTIONS`` and
``tracing.METHODS``), so this follows them when the benchmark changes.
Importing ``layers`` resolves the plan names it imports from ``fdht``.
``workloads`` is the harness itself and stays with
``perfbench/test_perfbench.py``.

The calls are read from perfbench's source: every call of an attribute
of a module alias (``fconfig = importlib.import_module("fdht.config")``
and the like) or of a name imported from ``fdht`` is bound, by its
positional count and keyword names, to the signature of what it resolves
to. Calls that pass ``*args`` or ``**kwargs`` cannot be counted and are
skipped. Instances are typed by name: every attribute read on a name
ending in ``cell`` (``cell.step(...)``, ``loaded_cell.mode``) must exist
on an HT cell and on the dense cell, and bind when it is called.
"""

import ast
import importlib
import inspect
import sys
from pathlib import Path

import pytest

from fdht.ht import reconstruct_dense
from fdht.lstm import DenseLstmCell, make_cell

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import layers  # noqa: E402,F401  (build_plan, run_plan, contract)
import tracing  # noqa: E402


@pytest.mark.parametrize("module,name,span", tracing.FUNCTIONS,
                         ids=[span for *_, span in tracing.FUNCTIONS])
def test_traced_function_resolves(module, name, span):
    assert callable(getattr(importlib.import_module(module), name))


@pytest.mark.parametrize("module,cls,name,span", tracing.METHODS,
                         ids=[span for *_, span in tracing.METHODS])
def test_traced_method_is_defined_on_its_class(module, cls, name, span):
    # the tracer patches the class's own __dict__ entry, not an inherited one
    assert name in vars(getattr(importlib.import_module(module), cls))


def fdht_bindings(tree):
    """Module aliases and imported names of ``tree`` that resolve into fdht."""
    modules, names = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "fdht":
            module = importlib.import_module(node.module)
            for alias in node.names:
                names[alias.asname or alias.name] = getattr(module, alias.name)
        elif (isinstance(node, ast.Assign) and len(node.targets) == 1
              and isinstance(node.targets[0], ast.Name) and isinstance(node.value, ast.Call)
              and ast.unparse(node.value.func) == "importlib.import_module"
              and isinstance(node.value.args[0], ast.Constant)
              and node.value.args[0].value.split(".")[0] == "fdht"):
            modules[node.targets[0].id] = importlib.import_module(node.value.args[0].value)
    return modules, names


def countable(call):
    """Whether ``call`` passes no ``*args`` and no ``**kwargs``."""
    return not (any(isinstance(a, ast.Starred) for a in call.args)
                or any(k.arg is None for k in call.keywords))


def fdht_calls():
    """(where, callee, call) for every countable fdht call in perfbench."""
    calls = []
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text())
        modules, names = fdht_bindings(tree)
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            if isinstance(func, ast.Name) and func.id in names:
                callee = names[func.id]
            elif (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
                  and func.value.id in modules):
                callee = getattr(modules[func.value.id], func.attr)
            else:
                continue
            if not countable(call):
                continue
            calls.append((f"{path.name}:{call.lineno} {ast.unparse(func)}", callee, call))
    return calls


def test_every_fdht_call_binds_to_its_signature():
    calls = fdht_calls()
    # the loader, the cells, training, checkpoints and the plan are all called
    assert len({where.split()[1] for where, *_ in calls}) >= 15
    bad = []
    for where, callee, call in calls:
        try:
            inspect.signature(callee).bind(*call.args, **{k.arg: None for k in call.keywords})
        except TypeError as exc:
            bad.append(f"{where}: {exc}")
    assert not bad, "\n".join(bad)


def cell_uses():
    """(where, attribute, call) for every attribute perfbench reads on a
    name ending in ``cell``; ``call`` is the ``ast.Call`` when the
    attribute is called, else None."""
    uses = []
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text())
        calls = {id(c.func): c for c in ast.walk(tree) if isinstance(c, ast.Call)}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id.endswith("cell")):
                uses.append((f"{path.name}:{node.lineno} {ast.unparse(node)}",
                             node.attr, calls.get(id(node))))
    return uses


@pytest.mark.parametrize("kind", ["ht", "dense"])
def test_every_cell_use_resolves(kind):
    cell = make_cell(4, (3, 3), (2, 2), 2, 2)
    if kind == "dense":
        cell = DenseLstmCell(reconstruct_dense(cell.weight), cell.n_x, biases=cell.biases)
    uses = cell_uses()
    assert {attr for _, attr, _ in uses} >= {"step", "init_state", "params", "weight",
                                               "biases", "hidden_size", "n_x", "mode"}
    bad = []
    for where, attr, call in uses:
        try:
            value = getattr(cell, attr)
            if call is not None and countable(call):
                inspect.signature(value).bind(*call.args, **{k.arg: None for k in call.keywords})
        except (AttributeError, TypeError) as exc:
            bad.append(f"{where}: {exc}")
    assert not bad, "\n".join(bad)

"""The fdht names that the benchmark in ``perfbench/`` binds, checked in
under a second: a rename in ``src`` fails here, not only in the harness.

The lists are perfbench's own (``tracing.FUNCTIONS`` and
``tracing.METHODS``), so this follows them when the benchmark changes.
Importing ``layers`` resolves the plan names it imports from ``fdht``.
``workloads`` is the harness itself and stays with
``perfbench/test_perfbench.py``.
"""

import importlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

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

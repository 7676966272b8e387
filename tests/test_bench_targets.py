"""The functions the benchmark's tracer wraps must exist under the names it uses.

perfbench/spans.py patches package functions by (module, attribute) name and
Semilattice constructors by attribute name.  The traced benchmark run is the
only other place these names are exercised, so an API change that drops one
is caught here.  The module is loaded from its file without writing bytecode.
"""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

from lcmlat import Semilattice

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


spans = _spans()


@pytest.mark.parametrize("modname, attr", [t[:2] for t in spans.TARGETS])
def test_traced_function_exists(modname, attr):
    assert callable(getattr(importlib.import_module(modname), attr, None))


@pytest.mark.parametrize("modname, attr", [t[:2] for t in spans.GENERATORS])
def test_traced_generator_exists(modname, attr):
    assert inspect.isgeneratorfunction(getattr(importlib.import_module(modname), attr, None))


@pytest.mark.parametrize("attr", spans.CONSTRUCTORS)
def test_traced_constructor_exists(attr):
    assert isinstance(Semilattice.__dict__.get(attr), classmethod)

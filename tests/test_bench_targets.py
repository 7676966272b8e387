"""The benchmark's view of the package, checked without running the benchmark.

perfbench/spans.py patches package functions by (module, attribute) name and
Semilattice constructors by attribute name.  The traced benchmark run is the
only other place these names are exercised, so an API change that drops one
is caught here.  The checks5 workload compares each lattice's invariants with
a digest recorded in perfbench/pool.json; the same comparison runs here on
the whole pool.  The perfbench modules are loaded from their files without
writing bytecode.
"""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

from lcmlat import Semilattice, check_conjectures, lattice_from_json

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


spans = _load("spans")


@pytest.mark.parametrize("modname, attr", [t[:2] for t in spans.TARGETS])
def test_traced_function_exists(modname, attr):
    assert callable(getattr(importlib.import_module(modname), attr, None))


@pytest.mark.parametrize("modname, attr", [t[:2] for t in spans.GENERATORS])
def test_traced_generator_exists(modname, attr):
    assert inspect.isgeneratorfunction(getattr(importlib.import_module(modname), attr, None))


@pytest.mark.parametrize("attr", spans.CONSTRUCTORS)
def test_traced_constructor_exists(attr):
    assert isinstance(Semilattice.__dict__.get(attr), classmethod)


def test_checks5_pool_digests():
    # as perfbench/run.py Checks5.result: no counterexample, one variable per
    # meet-irreducible in nvars, and the recorded digest of the invariants
    checks, inputs = _load("checks"), _load("inputs")
    for key, entries in inputs.load_pool()["checks5"].items():
        for entry in entries:
            rep = check_conjectures(lattice_from_json(inputs.family_doc(entry["family"])))
            inv = rep.invariants
            assert rep.holds and f"mi{inv.nvars}" == key
            got = checks.digest([inv.pdim_ideal, inv.pdim_quotient,
                                 inv.spdim_ideal, inv.spdim_quotient, inv.nvars])
            assert got == entry["digest"], entry["family"]

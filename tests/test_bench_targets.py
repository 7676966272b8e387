"""The benchmark's view of the package, checked without running the benchmark.

perfbench/spans.py patches package functions by (module, attribute) name and
Semilattice constructors by attribute name.  The traced benchmark run is the
only other place these names are exercised, so an API change that drops one
is caught here.  The checks5 workload compares each lattice's invariants with
a digest recorded in perfbench/pool.json; the same comparison runs here on
the whole pool.  The Stanley-depth reports of the ideals pool, witnesses
included, are pinned here by one hash.  The perfbench modules are loaded
from their files without writing bytecode.
"""

import hashlib
import importlib
import importlib.util
import inspect
import json
import sys
from pathlib import Path

import pytest

from lcmlat import (Semilattice, check_conjectures, gens_from_json, ideal_pair, lattice_from_json,
                    quotient_ring_pair, sdepth_solve)

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


# sha256 of the sorted-key JSON lines of sdepth_solve's reports on I and S/I
# of every ideals-pool document, in pool order
IDEALS_SDEPTH_SHA256 = "2b4cb015f3f134456a01834462e5487bfda4a21a6fc7a2119dce73fdbcef6864"


def test_ideals_pool_sdepth_reports():
    inputs = _load("inputs")
    lines = []
    for entries in inputs.load_pool()["ideals"].values():
        for entry in entries:
            gens = gens_from_json(entry["doc"])
            for pair in (ideal_pair(gens), quotient_ring_pair(gens)):
                lines.append(json.dumps(sdepth_solve(pair).to_json(), sort_keys=True))
    assert len(lines) == 200
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == IDEALS_SDEPTH_SHA256

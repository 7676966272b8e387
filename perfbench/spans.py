"""Spans around the package's public functions, recorded from outside.

A Tracer replaces each target function under every name a package module
binds it to (``lcmlat.classify.collapse`` as well as ``lcmlat.lattice.collapse``),
so calls are seen however the caller looks the function up.  Spans are kept
in memory as [name, start, end, parent, item, amount] rows and written out
when the run ends; uninstall() puts the original functions back.
"""

import functools
import importlib
import sys
import time

_ROWS = lambda args, out: len(args[0]) * args[1]  # noqa: E731  rows x cols

# (module, attribute, span name, amount recorded from (args, result))
TARGETS = (
    ("lcmlat.lattice", "collapse", "lattice.collapse", None),
    ("lcmlat.lattice", "canonical_form", "lattice.canonical_form", None),
    ("lcmlat.realize", "realize", "realize.realize", None),
    ("lcmlat.monomials", "lcm_semilattice", "monomials.lcm_semilattice",
     lambda args, out: out.lattice.n),
    ("lcmlat.monomials", "weight_map", "monomials.weight_map", None),
    ("lcmlat.sdepth", "characteristic_poset", "sdepth.characteristic_poset",
     lambda args, out: out.size),
    ("lcmlat.sdepth", "sdepth_solve", "sdepth.sdepth_solve", None),
    ("lcmlat.sdepth", "verify_decomposition", "sdepth.verify_decomposition", None),
    ("lcmlat.resolution", "taylor_betti", "resolution.taylor_betti", None),
    ("lcmlat.resolution", "rank_exact", "resolution.rank_exact", _ROWS),
    ("lcmlat.resolution", "rank_mod_p", "resolution.rank_mod_p", _ROWS),
)
# generator: one span per class yielded, amount 1 when a class came out
GENERATORS = (("lcmlat.classify", "enumerate_atomistic", "classify.enumerate_atomistic"),)
CONSTRUCTORS = ("from_join_table", "from_leq", "from_relations")  # -> lattice.construct


class Tracer:
    def __init__(self):
        self.spans = []
        self.item = None
        self._stack = []
        self._undo = []

    # ---------------- recording ----------------

    def open(self, name):
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.item, 0])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        if self._stack and self._stack[-1] == idx:
            self._stack.pop()

    def unwind(self, depth):
        """Close spans a deadline interrupted, leaving `depth` spans open."""
        now = time.perf_counter()
        while len(self._stack) > depth:
            idx = self._stack.pop()
            if self.spans[idx][2] is None:
                self.spans[idx][2] = now

    @property
    def depth(self):
        return len(self._stack)

    def _wrap(self, name, fn, amount):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                out = fn(*args, **kwargs)
                if amount is not None:
                    self.spans[idx][5] = amount(args, out)
                return out
            finally:
                self.close(idx)

        return traced

    def _wrap_generator(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            try:
                while True:
                    idx = self.open(name)
                    try:
                        x = next(it)
                    except StopIteration:
                        return
                    finally:
                        self.close(idx)
                    self.spans[idx][5] = 1
                    yield x
            finally:
                it.close()

        return traced

    # ---------------- patching ----------------

    def _rebind(self, original, replacement):
        for modname, mod in list(sys.modules.items()):
            if modname != "lcmlat" and not modname.startswith("lcmlat."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    self._undo.append((mod, attr, original))

    def install(self):
        for modname, attr, name, amount in TARGETS:
            fn = getattr(importlib.import_module(modname), attr)
            self._rebind(fn, self._wrap(name, fn, amount))
        for modname, attr, name in GENERATORS:
            fn = getattr(importlib.import_module(modname), attr)
            self._rebind(fn, self._wrap_generator(name, fn))
        cls = importlib.import_module("lcmlat.lattice").Semilattice
        for attr in CONSTRUCTORS:
            original = cls.__dict__[attr]
            setattr(cls, attr, classmethod(self._wrap("lattice.construct", original.__func__, None)))
            self._undo.append((cls, attr, original))

    def uninstall(self):
        while self._undo:
            obj, attr, original = self._undo.pop()
            setattr(obj, attr, original)

    # ---------------- aggregation ----------------

    def totals(self):
        """Per span name: calls, inclusive seconds of the outermost spans, self seconds, amount."""
        for s in self.spans:
            if s[2] is None:  # opened as a deadline fired, never entered
                s[2] = s[1]
        child = [0.0] * len(self.spans)
        for name, start, end, parent, item, amount in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = {}
        for i, (name, start, end, parent, item, amount) in enumerate(self.spans):
            t = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "amount": 0})
            t["calls"] += 1
            t["self_s"] += (end - start) - child[i]
            t["amount"] += amount
            if not self._nested_in_same(i):
                t["s"] += end - start
        return out

    def _nested_in_same(self, i):
        name, p = self.spans[i][0], self.spans[i][3]
        while p is not None:
            if self.spans[p][0] == name:
                return True
            p = self.spans[p][3]
        return False

    def children_of(self, parent_name, child_name):
        """Count child_name spans whose direct parent is a parent_name span."""
        return sum(
            1 for s in self.spans
            if s[0] == child_name and s[3] is not None and self.spans[s[3]][0] == parent_name
        )

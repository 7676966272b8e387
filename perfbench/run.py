"""Benchmark of the lcmlat package: census walk, conjecture checks, ideal queries.

    python3 perfbench/run.py --workload walk5|checks5|ideals|all --seed N \
        --seconds S --trace 0|1 [--smoke]

One process, one thread, one client in a closed loop: the next item starts
when the previous one ends.  Items come in rounds whose composition is fixed
(a fixed count per stratum), dealt from seeded shuffles of the screened
pool in pool.json (see inputs.py); the loop runs whole rounds until
--seconds have passed.  No pool item comes near the deadline,
DEADLINE_S, enforced by SIGALRM: it only stops a regression from hanging the
run.  An item that passes it or raises counts as failed and enters the
latencies at the deadline.  Outputs are checked outside the timed items,
each against the result recorded with its pool entry, and any failed check
exits non-zero without printing a result.

The host's speed drifts in phases (up to 2x, for seconds to minutes), so
item times and deadlines are in reference seconds: wall seconds divided by
the slowdown that two fixed calibration kernels, timed between items, show
against their times on the reference host (see _calibrate).  Each item is
scaled by the slowdowns taken just before and just after it, since the
phases are short.  The run record keeps the run's median slowdown and its
wall time.
ok_frac, the share of items that finished, stands for 1 - fail_frac so that
no metric is 0 on a workload without failures.

--trace 0 prints the end-to-end metrics.  --trace 1 runs each round
untraced and then traced, and prints per-layer metrics from spans recorded
around the package's public functions (see spans.py); the traced run also
covers the preflight, so every layer reports some work on every workload.
The last line of stdout is one JSON object {correct, attempted, failed,
metrics}; the line before it is the run record (seed, strata, deadline,
versions, machine, failure causes).  --workload all runs each workload in a
child process of its own and prints their records, their summaries, and one
summary over all three with metrics named <workload>.<metric>.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

import checks  # noqa: E402
import inputs  # noqa: E402
import spans  # noqa: E402
from checks import CheckFailed, require  # noqa: E402

WORKLOADS = ("walk5", "checks5", "ideals")
SETUP_REPEATS = 9
# In reference seconds; every pool item finishes within inputs.SCREEN_S.
DEADLINE_S = 10.0
# Times of the two calibration kernels (see _calibrate) on the reference host,
# a 2-vCPU Intel Xeon VM in its quick phases; times are reported as if the
# kernels took exactly this long.
CAL_REF_S = (0.001, 0.010)
CAL_EVERY_S = 0.25
GF = ("GF", 32003)


class Deadline(BaseException):
    """Raised from SIGALRM; a BaseException so no handler in the package swallows it."""


def _on_alarm(signum, frame):
    raise Deadline()


def _mod(name):
    """A package module, looked up at call time so traced functions are seen."""
    return sys.modules[f"lcmlat.{name}"]


# ---------------- workloads ----------------


class Walk5:
    """Collapse walk of census(5, check=False), restarted every `classes` classes.

    Nearly all work is lattice.collapse and lattice.canonical_form; sdepth
    and resolution do none.  The walk has no random input.
    """

    name = "walk5"
    doc_kind = "none"

    def __init__(self, classes):
        self.classes = classes

    def strata(self):
        return {"classes_per_round": self.classes}

    def setup_docs(self, seed):
        return []

    def round(self, seed, r, tracer):
        config = _mod("config").Config(long_run=True)
        walk = _mod("classify").census(5, config, check=False)
        try:
            for _ in range(self.classes):
                yield "class", lambda: next(walk)
        finally:
            walk.close()

    @staticmethod
    def result(outcomes):
        """Digest of the walk's classes, which must be atomistic Moore families on 5 atoms, distinct."""
        keys, seen = [], set()
        for o in outcomes:
            require(o.ok, f"walk item failed: {o.cause}")
            record, lat = o.out
            k, sets = checks.atom_family(lat)
            require(k == 5 and record["atoms"] == 5, "walk class is not on 5 atoms")
            require(record["elements"] == len(sets) == lat.n, "walk record has the wrong size")
            checks.check_moore_family(sets, 5)
            require(record["canonical"] not in seen, "walk emitted a class twice")
            seen.add(record["canonical"])
            keys.append(checks.family_key(sets, 5))
        return checks.digest(keys)

    def check_round(self, seed, r, outcomes):
        got = self.result(outcomes)
        want = self.pool["walk5"].get(str(self.classes))
        require(got == want, f"walk of {self.classes} classes: digest {got}, recorded {want}")
        return [got]


class Checks5:
    """check_conjectures on 5-atom lattices from the pool, a fixed count per MI stratum."""

    name = "checks5"
    doc_kind = "lattice"

    def __init__(self, strata):
        self.counts = strata

    def strata(self):
        return dict(self.counts)

    def draw(self, seed, r):
        return inputs.draw(self.pool["checks5"], seed, r, self.counts)

    def setup_docs(self, seed):
        return [inputs.family_doc(e["family"]) for _, e in self.draw(seed, 0)]

    def round(self, seed, r, tracer):
        self._drawn = self.draw(seed, r)
        for key, entry in self._drawn:
            with _span(tracer, "bench.parse"):
                lat = _mod("lattice").lattice_from_json(inputs.family_doc(entry["family"]))
            yield key, lambda lat=lat: _mod("classify").check_conjectures(lat)

    @staticmethod
    def result(key, family, report):
        """Digest of the invariants; no counterexample, and the trichotomy holds."""
        inv = report.invariants
        require(report.holds, f"counterexample to the conjectures at {key}")
        boolean = len(family) == inputs.FULL
        require((inv.spdim_quotient == 5) == (inv.pdim_quotient == 5) == boolean,
                "trichotomy fails: spdim S/I = 5 <=> pdim S/I = 5 <=> boolean")
        require(f"mi{inv.nvars}" == key, "canonical realization must use one variable per MI")
        return checks.digest([inv.pdim_ideal, inv.pdim_quotient,
                              inv.spdim_ideal, inv.spdim_quotient, inv.nvars])

    def check_round(self, seed, r, outcomes):
        summaries = []
        for (key, entry), o in zip(self._drawn, outcomes):
            if not o.ok:
                summaries.append(None)
                continue
            got = self.result(key, entry["family"], o.out)
            require(got == entry["digest"], f"{key} invariants: digest {got}, recorded {entry['digest']}")
            summaries.append(got)
        return summaries


class Ideals:
    """The five CLI queries on each ideal drawn from the pool; one query is one item."""

    name = "ideals"
    doc_kind = "ideal"
    QUERIES = ("weights", "betti_q", "betti_gf", "sdepth_ideal", "sdepth_quotient")

    def __init__(self, strata):
        self.counts = strata

    def strata(self):
        return {k: list(v) if isinstance(v, tuple) else v for k, v in self.counts.items()}

    def draw(self, seed, r):
        return inputs.draw(self.pool["ideals"], seed, r, self.counts)

    def setup_docs(self, seed):
        return [e["doc"] for _, e in self.draw(seed, 0)]

    @staticmethod
    def query(name, doc):
        """The thunk of one query on a fresh parse of `doc`."""
        M, R, S = _mod("monomials"), _mod("resolution"), _mod("sdepth")
        g, gf = M.gens_from_json(doc), _mod("config").Config(field=GF)
        return {
            "weights": lambda: M.weight_map(g),
            "betti_q": lambda: R.taylor_betti(M.quotient_ring_pair(g).minimalize()),
            "betti_gf": lambda: R.taylor_betti(M.quotient_ring_pair(g).minimalize(), gf),
            "sdepth_ideal": lambda: S.sdepth_solve(M.ideal_pair(g)),
            "sdepth_quotient": lambda: S.sdepth_solve(M.quotient_ring_pair(g)),
        }[name]

    @staticmethod
    def result(query, plain, out):
        """Digest of a query's answer, once the answer passes its independent check."""
        if query == "weights":
            s = checks.check_weights(out, plain)
        elif query.startswith("betti"):
            s = checks.check_betti(out, len(plain))
        else:
            s = checks.check_sdepth(out, plain, query == "sdepth_quotient")
        return checks.digest([query, s])

    def round(self, seed, r, tracer):
        self._asked = []
        for key, entry in self.draw(seed, r):
            plain = [tuple(g) for g in entry["doc"]["generators"]]
            for query in self.QUERIES:
                with _span(tracer, "bench.parse"):
                    thunk = self.query(query, entry["doc"])
                self._asked.append((query, plain, entry["digests"][query]))
                yield f"{key} {query}", thunk

    def check_round(self, seed, r, outcomes):
        summaries = []
        for (query, plain, want), o in zip(self._asked, outcomes):
            if not o.ok:
                summaries.append(None)
                continue
            got = self.result(query, plain, o.out)
            require(got == want, f"{query}: result digest {got}, recorded {want}")
            summaries.append(got)
        return summaries


def workload(name, smoke, pool=None):
    if name == "walk5":
        wl = Walk5(20 if smoke else 250)
    elif name == "checks5":
        wl = Checks5({"mi5": 1, "mi6": 1, "mi7": 1, "mi8": 1} if smoke else inputs.CHECKS5_STRATA)
    else:
        wl = Ideals({"a6": 1, "a7": 1, "b_in_turn": ("b8",)} if smoke else inputs.IDEALS_STRATA)
    wl.pool = inputs.load_pool() if pool is None else pool
    return wl


# ---------------- the timed loop ----------------


class _span:
    def __init__(self, tracer, name):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        if self.tracer:
            self.idx = self.tracer.open(self.name)

    def __exit__(self, *exc):
        if self.tracer:
            self.tracer.close(self.idx)


class Outcome:
    __slots__ = ("label", "ok", "out", "cause", "elapsed", "slowdown")

    def __init__(self, label, ok, out, cause, elapsed):
        self.label, self.ok, self.out, self.cause, self.elapsed = label, ok, out, cause, elapsed
        self.slowdown = None  # set by _settle


def _where(exc):
    """module.function of the innermost package frame the exception passed through."""
    where = "benchmark"
    tb = exc.__traceback__
    while tb is not None:
        path = Path(tb.tb_frame.f_code.co_filename)
        if path.parent.name == "lcmlat":
            where = f"{path.stem}.{tb.tb_frame.f_code.co_qualname.split('.<locals>')[0]}"
        tb = tb.tb_next
    return where


def run_item(label, thunk, deadline, tracer, item_id):
    if tracer:
        tracer.item = item_id
        depth = tracer.depth
        root = tracer.open("bench.item")
    start = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, deadline)
        try:
            out = thunk()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        ok, cause = True, None
    except Deadline as exc:
        ok, out, cause = False, None, f"deadline in {_where(exc)}"
    except Exception as exc:  # an item that raises is counted as failed, not fatal
        ok, out, cause = False, None, f"{type(exc).__name__} in {_where(exc)}"
    # a failed item counts as having run to its deadline
    elapsed = time.perf_counter() - start if ok else max(time.perf_counter() - start, deadline)
    if tracer:
        tracer.unwind(depth + 1)
        tracer.close(root)
        tracer.item = None
    return Outcome(label, ok, out, cause, elapsed)


_CAL_CELLS = list(range(200000))


def _calibrate():
    """The host's slowdown now against the reference host, from two fixed kernels.

    The host's speed drifts in phases, by up to 2x for seconds to minutes,
    and the kinds of work slow down unequally.  Timed next to stretches of
    the 5-atom walk and of MI 8 checks, the package's time grew as the 0.8th
    power of a tight interpreter loop's (dicts, tuples, integers; about a
    millisecond), as the 1.3-1.5th power of a strided walk over a
    200k-element list, which misses the cache (about 10 ms), and as the
    1.1-1.2th power of their geometric mean.  Scaling by that mean cut the
    spread of its times over 5-12 s windows (coefficient of variation) from
    0.18-0.25 to 0.09-0.10.  The list is built once, so the walk does not
    time the allocator; it adds some 7 MB to peak_rss_mb on every workload.
    """
    t = time.perf_counter()
    d, x = {}, 0
    for i in range(3000):
        k = (i % 61, i % 53)
        d[k] = d.get(k, 0) + 1
        x = (x * 31 + i) & 0xFFFFFFFFFFFF
    loop = time.perf_counter() - t
    t = time.perf_counter()
    n, s = len(_CAL_CELLS), 0
    for j in range(0, n, 7):
        s += _CAL_CELLS[(j * 7919) % n]
    walk = time.perf_counter() - t
    return (loop / CAL_REF_S[0] * walk / CAL_REF_S[1]) ** 0.5


def _warm_calibration():
    """Slowdowns taken before the first item, so that its deadline is scaled too."""
    return [_calibrate() for _ in range(5)]


def _settle(got, calibration):
    """Take a slowdown; the items run since the previous one get the mean of the two."""
    calibration.append(_calibrate())
    for o in reversed(got):
        if o.slowdown is not None:
            break
        o.slowdown = (calibration[-2] + calibration[-1]) / 2


def run_round(wl, seed, r, calibration, tracer=None):
    """One round, its outputs checked: (outcomes, summary, wall of the items, not the checks).

    A slowdown is taken between items once every CAL_EVERY_S, and at the
    end, and appended to `calibration` (see _settle); each item's wall
    deadline is DEADLINE_S times the median of the last three slowdowns.
    """
    got = []
    if tracer:
        tracer.install()
    start = last_cal = time.perf_counter()
    try:
        for i, (label, thunk) in enumerate(wl.round(seed, r, tracer)):
            wall_deadline = DEADLINE_S * statistics.median(calibration[-3:])
            got.append(run_item(label, thunk, wall_deadline, tracer, f"{r}.{i}"))
            if time.perf_counter() - last_cal >= CAL_EVERY_S:
                _settle(got, calibration)
                last_cal = time.perf_counter()
        wall = time.perf_counter() - start
        _settle(got, calibration)
    finally:
        if tracer:
            tracer.uninstall()
    summary = wl.check_round(seed, r, got)
    for o in got:
        o.out = None  # checked; holding outputs would make memory grow with rounds
    return got, summary, wall


def run_pass(wl, seed, seconds):
    """Whole untraced rounds until `seconds` have passed.

    Returns (outcomes, summaries, rounds, wall, slowdowns).
    """
    outcomes, summaries, calibration = [], [], _warm_calibration()
    start = time.perf_counter()
    while not summaries or time.perf_counter() - start < seconds:
        got, summary, _ = run_round(wl, seed, len(summaries), calibration)
        outcomes.extend(got)
        summaries.append(summary)
    return outcomes, summaries, len(summaries), time.perf_counter() - start, calibration


def run_traced(wl, seed, seconds, tracer):
    """Each round untraced and then traced, until the untraced rounds fill `seconds`.

    Returns the traced outcomes and summaries, the number of rounds, the
    traced wall time, and the tracing overhead in reference seconds: the sum
    over rounds of traced minus untraced time, each round's wall time divided
    by the mean slowdown of its items.  Each pair runs back to back and is
    scaled, so that drift of the host's speed between the two cancels out.
    """
    slowdown = lambda outs: statistics.mean(o.slowdown for o in outs)  # noqa: E731
    outcomes, summaries, overhead, traced_wall, untraced_wall = [], [], 0.0, 0.0, 0.0
    calibration = _warm_calibration()
    r = 0
    while r == 0 or untraced_wall < seconds:
        plain_out, plain, wall = run_round(wl, seed, r, calibration)
        got, summary, twall = run_round(wl, seed, r, calibration, tracer)
        # a failed item (None) has no result to compare
        require(len(plain) == len(summary)
                and all(x == y or None in (x, y) for x, y in zip(plain, summary)),
                "traced and untraced runs gave different results")
        overhead += twall / slowdown(got) - wall / slowdown(plain_out)
        untraced_wall += wall
        traced_wall += twall
        outcomes.extend(got)
        summaries.append(summary)
        r += 1
    return outcomes, summaries, r, traced_wall, overhead


def measure_setup(wl, seed, repeats):
    """A fresh interpreter importing lcmlat and parsing the round-0 documents.

    Returns the median over `repeats` probes of the time in reference seconds
    (each probe scaled by the mean slowdown taken just before and just after
    it), and every probe's wall time.
    """
    payload = json.dumps({"kind": wl.doc_kind, "docs": wl.setup_docs(seed)})
    scaled, samples = [], []
    for _ in range(repeats):
        before = statistics.median(_calibrate() for _ in range(3))
        t = time.perf_counter()
        proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py")], input=payload,
                              capture_output=True, text=True, timeout=120)
        samples.append(time.perf_counter() - t)
        after = statistics.median(_calibrate() for _ in range(3))
        scaled.append(samples[-1] / ((before + after) / 2))
        require(proc.returncode == 0, f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    return statistics.median(scaled), samples


# ---------------- metrics ----------------


def tail(latencies):
    """(value, percentile): the highest percentile with at least ten items beyond it."""
    lat = sorted(latencies)
    n = len(lat)
    if n <= 10:
        return lat[-1], 100.0
    return lat[n - 11], 100.0 * (n - 10) / n


def end_to_end(outcomes, setup_s, slowdown):
    """End-to-end metrics, times in reference seconds.

    Each item's measured seconds are divided by its own slowdown (see
    _settle).  A failed item enters the latencies at its deadline
    (see run_item).  setup_s comes scaled from measure_setup; `slowdown`,
    the run's median, goes into the record.
    """
    lat = [o.elapsed / o.slowdown for o in outcomes]
    ok = sum(o.ok for o in outcomes)
    tail_s, pct = tail(lat)
    metrics = {
        "setup_s": (setup_s, "s"),
        "items_per_s": (ok / sum(lat), "1/s"),
        "item_p50_s": (statistics.median(lat), "s"),
        "item_tail_s": (tail_s, "s"),
        "ok_frac": (ok / len(outcomes), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    by_label = {}
    for o, t in zip(outcomes, lat):
        by_label.setdefault(o.label, []).append(t)
    return metrics, {"tail_percentile": pct, "items": len(lat), "slowdown": slowdown,
                     "p50_by_label_s": {k: statistics.median(v) for k, v in sorted(by_label.items())}}


def per_layer(tracer, overhead_s):
    t = tracer.totals()
    z = {"calls": 0, "s": 0.0, "self_s": 0.0, "amount": 0}
    g = lambda name: t.get(name, z)  # noqa: E731
    collapses = tracer.children_of("classify.enumerate_atomistic", "lattice.collapse")
    classes = g("classify.enumerate_atomistic")["amount"]
    return {
        "lattice.collapse.calls": (g("lattice.collapse")["calls"], "count"),
        "lattice.collapse.s": (g("lattice.collapse")["s"], "s"),
        "lattice.canonical_form.calls": (g("lattice.canonical_form")["calls"], "count"),
        "lattice.canonical_form.s": (g("lattice.canonical_form")["s"], "s"),
        "lattice.construct.s": (g("lattice.construct")["s"], "s"),
        "classify.enumerate_atomistic.self_s": (g("classify.enumerate_atomistic")["self_s"], "s"),
        "classify.new_class_ratio": (classes / collapses if collapses else 0.0, "ratio"),
        "realize.realize.calls": (g("realize.realize")["calls"], "count"),
        "realize.realize.self_s": (g("realize.realize")["self_s"], "s"),
        "monomials.lcm_semilattice.calls": (g("monomials.lcm_semilattice")["calls"], "count"),
        "monomials.lcm_semilattice.s": (g("monomials.lcm_semilattice")["s"], "s"),
        "monomials.lcm_semilattice.elements": (g("monomials.lcm_semilattice")["amount"], "count"),
        "monomials.weight_map.s": (g("monomials.weight_map")["s"], "s"),
        "sdepth.characteristic_poset.s": (g("sdepth.characteristic_poset")["s"], "s"),
        "sdepth.poset_points": (g("sdepth.characteristic_poset")["amount"], "count"),
        "sdepth.sdepth_solve.calls": (g("sdepth.sdepth_solve")["calls"], "count"),
        "sdepth.sdepth_solve.self_s": (g("sdepth.sdepth_solve")["self_s"], "s"),
        "sdepth.verify_decomposition.s": (g("sdepth.verify_decomposition")["s"], "s"),
        "resolution.taylor_betti.calls": (g("resolution.taylor_betti")["calls"], "count"),
        "resolution.taylor_betti.self_s": (g("resolution.taylor_betti")["self_s"], "s"),
        "resolution.rank_exact.calls": (g("resolution.rank_exact")["calls"], "count"),
        "resolution.rank_exact.s": (g("resolution.rank_exact")["s"], "s"),
        "resolution.rank_exact.cells": (g("resolution.rank_exact")["amount"], "count"),
        "resolution.rank_mod_p.calls": (g("resolution.rank_mod_p")["calls"], "count"),
        "resolution.rank_mod_p.s": (g("resolution.rank_mod_p")["s"], "s"),
        "resolution.rank_mod_p.cells": (g("resolution.rank_mod_p")["amount"], "count"),
        "trace.overhead_s": (overhead_s, "s"),
    }


# ---------------- provenance ----------------


def _commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            path = ROOT / ".git" / ref[5:]
            if path.exists():
                return path.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref[5:]):
                    return line.split()[0]
        return ref
    except OSError:
        return None


def _src_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "lcmlat").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def provenance():
    import numpy

    return {
        "commit": _commit(),
        "src_sha256": _src_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
    }


# ---------------- entry point ----------------


def _preflight(tracer):
    """Run the preflight (traced when a tracer is given); returns its wall time."""
    start = time.perf_counter()
    if tracer:
        tracer.install()
    try:
        with _span(tracer, "bench.preflight"):
            checks.preflight(ROOT)
    finally:
        if tracer:
            tracer.uninstall()
    return time.perf_counter() - start


def run_workload(name, seed, seconds, trace, smoke):
    """(record, outcomes, metrics) for one workload; raises CheckFailed on a wrong output."""
    wl = workload(name, smoke)
    setup_s, samples = measure_setup(wl, seed, 2 if smoke else SETUP_REPEATS)
    tracer = spans.Tracer() if trace else None
    preflight_wall = _preflight(tracer)
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace, "smoke": smoke,
        "deadline_s": DEADLINE_S, "strata": wl.strata(), "setup_samples_s": samples,
        "preflight_s": preflight_wall,
    }
    if not trace:
        outcomes, summaries, rounds, wall, calibration = run_pass(wl, seed, seconds)
        metrics, extra = end_to_end(outcomes, setup_s, statistics.median(calibration))
        record.update(extra, rounds=rounds, wall_s=wall, fail_causes=_causes(outcomes),
                      results_digest=checks.digest(summaries))
        return record, outcomes, metrics
    outcomes, summaries, rounds, traced_wall, overhead = run_traced(wl, seed, seconds, tracer)
    record.update({
        "rounds": rounds, "traced_wall_s": traced_wall, "trace_overhead_s": overhead,
        "fail_causes": _causes(outcomes), "results_digest": checks.digest(summaries),
        "traced_self_sum_s": sum(t["self_s"] for t in tracer.totals().values()),
        "traced_span_wall_s": preflight_wall + traced_wall,
        "spans_file": _write_spans(tracer, name, seed),
    })
    return record, outcomes, per_layer(tracer, overhead)


def _causes(outcomes):
    out = {}
    for o in outcomes:
        if not o.ok:
            key = f"{o.label}: {o.cause}"
            out[key] = out.get(key, 0) + 1
    return out


def _write_spans(tracer, name, seed):
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    path = out / f"spans-{name}-seed{seed}.json"
    with open(path, "w") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "item", "amount"],
                   "spans": tracer.spans}, fh)
    return str(path.relative_to(ROOT))


def _import_package():
    """Import lcmlat from this checkout's src/, never from anywhere else.

    numpy's BLAS would start a thread per core on import; the benchmark runs
    one thread, here and in the set-up probes, which inherit the setting.
    """
    os.environ["OPENBLAS_NUM_THREADS"] = os.environ["OMP_NUM_THREADS"] = "1"
    sys.path.insert(0, str(SRC))
    import lcmlat

    if Path(lcmlat.__file__).resolve().parent != SRC / "lcmlat":
        raise ImportError(f"lcmlat imported from {lcmlat.__file__}, not from {SRC}")


def _summary(correct, outcomes, metrics):
    return {
        "correct": correct,
        "attempted": len(outcomes),
        "failed": sum(not o.ok for o in outcomes),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def run_all(args):
    """Each workload in a child process of its own, so peak_rss_mb is its own peak."""
    results = []
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv + ["--smoke"] * args.smoke, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        record, summary = proc.stdout.splitlines()[-2:]
        print(record, flush=True)
        results.append((name, json.loads(summary)))
    for name, summary in results:
        print(json.dumps({"workload": name, **summary}))
    print(json.dumps({
        "correct": all(s["correct"] for _, s in results),
        "attempted": sum(s["attempted"] for _, s in results),
        "failed": sum(s["failed"] for _, s in results),
        "metrics": {f"{name}.{k}": v for name, s in results for k, v in s["metrics"].items()},
    }))
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny rounds, for the smoke test")
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        _import_package()
    except ImportError as exc:
        print(f"cannot import the package: {exc}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _on_alarm)
    try:
        record, outcomes, metrics = run_workload(args.workload, args.seed, args.seconds,
                                                 args.trace, args.smoke)
    except CheckFailed as exc:
        print(f"output check failed: {exc}", file=sys.stderr)
        return 1
    record.update(provenance())
    print(json.dumps(record), flush=True)
    print(json.dumps(_summary(True, outcomes, metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Write perfbench/pool.json: the screened inputs of checks5 and ideals, with their results.

    python3 perfbench/record.py

Draws candidates from the fixed streams of inputs.py, stratum by stratum,
runs each (every query of an ideal) once with a deadline of inputs.SCREEN_S
reference seconds, and keeps those that finish, with the digest of each
result, which every later run must repeat, and its time in reference
seconds.  Candidates that run past the deadline or raise stay out; their
count and cause are kept under "screened_out".  The digests of the walk5
rounds, full and smoke size, are stored too.  Re-record only when a change
is meant to alter results; exact invariants never should.
"""

import json
import signal
import statistics
import sys

import inputs
import run


def screen(label, thunk):
    """(outcome, time in reference seconds) of one run with the screening deadline."""
    slowdown = statistics.median(run._calibrate() for _ in range(3))
    o = run.run_item(label, thunk, inputs.SCREEN_S * slowdown, None, "screen")
    return o, o.elapsed / slowdown


def record_checks5(out):
    pool, dropped = {k: [] for k in inputs.CHECKS5_POOL}, {k: {} for k in inputs.CHECKS5_POOL}
    for key, fam in inputs.checks5_candidates():
        if all(len(pool[k]) >= n for k, n in inputs.CHECKS5_POOL.items()):
            break
        if len(pool[key]) >= inputs.CHECKS5_POOL[key]:
            continue
        lat = run._mod("lattice").lattice_from_json(inputs.family_doc(fam))
        o, ref = screen(key, lambda: run._mod("classify").check_conjectures(lat))
        if not o.ok:
            dropped[key][o.cause] = dropped[key].get(o.cause, 0) + 1
        else:
            pool[key].append({"family": fam, "digest": run.Checks5.result(key, fam, o.out),
                              "ref_s": round(ref, 4)})
        print("checks5", key, len(pool[key]), o.cause or "", file=sys.stderr, flush=True)
    out["checks5"], out["screened_out"]["checks5"] = pool, dropped


def record_ideals(out):
    pool, dropped = {}, {}
    for key, size in inputs.IDEALS_POOL.items():
        pool[key], dropped[key] = [], {}
        for doc in inputs.ideal_candidates(key):
            if len(pool[key]) >= size:
                break
            plain = [tuple(g) for g in doc["generators"]]
            entry = {"doc": doc, "digests": {}, "ref_s": {}}
            for query in run.Ideals.QUERIES:
                o, ref = screen(query, run.Ideals.query(query, doc))
                if not o.ok:
                    cause = f"{query}: {o.cause}"
                    dropped[key][cause] = dropped[key].get(cause, 0) + 1
                    break
                entry["digests"][query] = run.Ideals.result(query, plain, o.out)
                entry["ref_s"][query] = round(ref, 4)
            else:
                pool[key].append(entry)
            print("ideals", key, len(pool[key]), o.cause or "", file=sys.stderr, flush=True)
    out["ideals"], out["screened_out"]["ideals"] = pool, dropped


def record_walk5(out):
    for smoke in (False, True):
        wl = run.workload("walk5", smoke, pool={})
        got = [run.run_item(label, thunk, run.DEADLINE_S, None, "walk")
               for label, thunk in wl.round(0, 0, None)]
        out["walk5"][str(wl.classes)] = run.Walk5.result(got)


def main():
    run._import_package()
    signal.signal(signal.SIGALRM, run._on_alarm)
    out = {"screen_s": inputs.SCREEN_S, "walk5": {}, "screened_out": {}}
    record_walk5(out)
    record_checks5(out)
    record_ideals(out)
    with open(inputs.POOL_PATH, "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()

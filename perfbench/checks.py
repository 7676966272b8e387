"""Output checks and the preflight, written without the package's algorithms.

Every check here recomputes what it needs from plain tuples and bitmasks:
atom families from the order matrix, lcm closures, characteristic point
sets and interval tilings.  A failed check raises CheckFailed; the benchmark
then exits non-zero without printing a result.
"""

import hashlib
import itertools
import json
import sys
from pathlib import Path


class CheckFailed(Exception):
    pass


def require(cond, message):
    if not cond:
        raise CheckFailed(message)


def digest(obj):
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


# ---------------- atomistic families ----------------


def atom_family(lat):
    """Per element, the bitmask of atoms below it, read off the order matrix.

    Raises CheckFailed unless the elements are told apart by their atoms and
    ordered exactly as their atom sets are, i.e. the lattice is atomistic.
    """
    leq = lat.leq.tolist()
    n = len(leq)
    atoms = [i for i in range(n) if sum(leq[j][i] for j in range(n)) == 1]
    sets = [sum(1 << t for t, a in enumerate(atoms) if leq[a][x]) for x in range(n)]
    require(len(set(sets)) == n, "two elements share their atoms: not atomistic")
    for x in range(n):
        for y in range(n):
            require(leq[x][y] == (sets[x] & sets[y] == sets[x]),
                    "order differs from atom-set inclusion: not atomistic")
    return len(atoms), sets


def check_moore_family(sets, k):
    """Singletons, the full set, and closure under nonempty intersection."""
    fam = set(sets)
    require(all(1 << i in fam for i in range(k)), "a singleton is missing")
    require((1 << k) - 1 in fam, "the full atom set is missing")
    for a in fam:
        for b in fam:
            require(not (a & b) or a & b in fam, "family not closed under intersection")


def family_key(sets, k):
    """Least sorted relabelling of a family of atom bitmasks under atom permutations."""
    best = None
    for perm in itertools.permutations(range(k)):
        cand = tuple(sorted(sum(1 << perm[t] for t in range(k) if m >> t & 1) for m in sets))
        if best is None or cand < best:
            best = cand
    return best


# ---------------- monomial ideals ----------------


def divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def lcm_closure(gens):
    seen = set(gens)
    todo = list(seen)
    while todo:
        m = todo.pop()
        for g in gens:
            l = tuple(max(x, y) for x, y in zip(m, g))
            if l not in seen:
                seen.add(l)
                todo.append(l)
    return seen


def check_weights(w, gens):
    """The weights reproduce every lcm by the product formula."""
    monos = [m.exps for m in w.monomials]
    require(set(monos) == lcm_closure(gens), "weight map elements differ from the lcm closure")
    weights = [m.exps for m in w.weights]
    for m in monos:
        acc = list(w.bottom.exps)
        for q, wq in zip(monos, weights):
            if not divides(m, q):
                acc = [a + b for a, b in zip(acc, wq)]
        require(tuple(acc) == m, "weights do not reconstruct an lcm")
    return [sorted(zip(monos, weights)), list(w.bottom.exps)]


def check_betti(table, ngens):
    b = list(table.betti)
    require(b[0] == 1, "beta_0 of S/I must be 1")
    require(len(b) > 1 and b[1] == ngens, "beta_1 of S/I must count the minimal generators")
    require(sum((-1) ** i * x for i, x in enumerate(b)) == 0, "Betti numbers of S/I must have Euler characteristic 0")
    return b


def characteristic_points(gens, quotient_ring):
    """Box points in I (ideal) or outside I (quotient ring), box top the lcm."""
    g = tuple(max(col) for col in zip(*gens))
    pts = set()
    for c in itertools.product(*(range(e + 1) for e in g)):
        inside = any(divides(m, c) for m in gens)
        if inside != quotient_ring:
            pts.add(c)
    return g, pts


def check_sdepth(rep, gens, quotient_ring):
    """The witness intervals tile the point set and reach the reported value."""
    g, pts = characteristic_points(gens, quotient_ring)
    require(rep.poset_size == len(pts), "characteristic poset has the wrong size")
    seen = set()
    value = None
    for a, b in rep.witness:
        require(divides(a, b), "witness interval is empty")
        for p in itertools.product(*(range(x, y + 1) for x, y in zip(a, b))):
            require(p in pts and p not in seen, "witness intervals overlap or leave the poset")
            seen.add(p)
        reach = sum(1 for x, y in zip(b, g) if x == y)
        value = reach if value is None else min(value, reach)
    require(seen == pts, "witness intervals leave points uncovered")
    require(value == rep.sdepth, "witness does not reach the reported Stanley depth")
    return [rep.sdepth, rep.spdim, rep.poset_size]


# ---------------- preflight ----------------

GOLDEN = (
    [[0, 1, 1, 1], [1, 0, 1, 1], [2, 1, 0, 1], [3, 1, 1, 0]],
    [[0, 1, 1, 1], [1, 0, 1, 1], [1, 2, 0, 1], [2, 2, 1, 0]],
)


def _oracles(root):
    """tests/oracles.py, imported without writing bytecode next to it."""
    sys.path.insert(0, str(root / "tests"))
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        import oracles
    finally:
        sys.dont_write_bytecode = saved
        sys.path.remove(str(root / "tests"))
    return oracles


def preflight(root: Path):
    """Known answers the package must give before anything is timed."""
    mods = sys.modules
    M, R, S, C = (mods[f"lcmlat.{m}"] for m in ("monomials", "resolution", "sdepth", "classify"))
    config = mods["lcmlat.config"].Config
    gf = config(field=("GF", 32003))
    for gens in GOLDEN:
        ideal = M.gens_from_json({"variables": ["x", "y", "z", "v"], "generators": gens})
        require(S.sdepth_solve(M.ideal_pair(ideal)).sdepth == 3, "golden example: sdepth must be 3")
        require(R.taylor_betti(M.ideal_pair(ideal)).pdim == 1, "golden example: pdim must be 1")
        check_weights(M.weight_map(ideal), [tuple(m) for m in gens])
        check_betti(R.taylor_betti(M.quotient_ring_pair(ideal), gf), len(gens))
    for k in range(1, 6):
        ladder = M.gens_from_json({
            "variables": [f"x{j}" for j in range(k)],
            "generators": [[int(i == j) for j in range(k)] for i in range(k)],
        })
        got = S.sdepth_solve(M.ideal_pair(ladder)).sdepth
        require(got == k - k // 2, f"variable ladder: sdepth of {k} variables is {got}")

    oracles = _oracles(root)
    keys = []
    for record, lat in C.census(4, check=True):
        require(not record["counterexample"], "4-atom census: counterexample")
        k, sets = atom_family(lat)
        require(k == 4, "4-atom census: wrong atom count")
        fam = [frozenset(t for t in range(4) if m >> t & 1) for m in sets]
        keys.append(oracles.family_orbit_key(fam, 4))
    require(len(set(keys)) == len(keys), "4-atom census: a class appears twice")
    require(sorted(keys) == oracles.family_classes(4), "4-atom census: classes differ from the oracle")

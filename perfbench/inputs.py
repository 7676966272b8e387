"""Input documents for the benchmark workloads, and the seeded draw of each round.

Nothing here imports the package: lattices and ideals are built from plain
integers and handed to the package only as JSON documents, the shapes its
command line reads.

Inputs come from a pool per stratum, perfbench/pool.json.  record.py fills
it once from the generators below (each with a fixed stream of its own) and
screens every candidate: one on which a query runs past SCREEN_S reference
seconds is left out of the pool and counted there.  The sdepth cover search
blows up (runs for minutes) on some inputs; cut at a deadline in the timed
loop, such an input would count as failed or not depending on the host's
speed, so runs of the same code would disagree on their failures.  Every round of a run draws a fixed count per stratum from the
pool, dealt from shuffles keyed by the seed (see draw), so a seed fixes
every input.
"""

import functools
import itertools
import json
import random
from pathlib import Path

POOL_PATH = Path(__file__).resolve().parent / "pool.json"
ATOMS = 5
FULL = (1 << ATOMS) - 1
# subsets of the 5 atoms that are neither singletons nor the full set
_OPTIONAL = [m for m in range(1, FULL) if bin(m).count("1") >= 2]

# A candidate whose slowest query takes longer than this, in reference
# seconds, stays out of the pool.  Most finished checks and queries take
# under 1; the blow-ups run for 15 s to minutes.  At 3 s, two a10 ideals of
# 24 whose sdepth_solve took 2.7 s were kept, and whether a seed drew them
# moved items_per_s and peak_rss_mb of ideals by a fifth between seeds.
SCREEN_S = 2.0

# checks5: lattices drawn per round, by meet-irreducible count.  The
# squarefree box of a class has 2^MI cells, so MI sets the cost; a fixed count
# per stratum gives every seed the same mix.  MI 8 holds the median item and
# MI 9 the tail.  The sdepth cover search blows up on about one MI 9
# candidate in eighteen and one MI 8 candidate in a hundred; these stay out
# of the pool.  MI 10 and 11 are left out: a third to a half of the MI 10
# candidates blow up and the rest take 1-2.8 s, and MI 11 takes 6-9 s a
# check, as much as two whole rounds.
CHECKS5_STRATA = {"mi5": 1, "mi6": 1, "mi7": 1, "mi8": 12, "mi9": 8}
CHECKS5_POOL = {"mi5": 16, "mi6": 16, "mi7": 16, "mi8": 48, "mi9": 48}

# ideals: ideals drawn per round.  (a) degree 3 in 4 variables with 6-10
# generators: 10 generators four times, so that with the three or four rounds
# of a 30 s run, eleven or more Betti-over-Q queries (about 0.9 s each, above
# nearly every other query) sit at the top of a run and set its tail; 6-8
# generators 22 times: their cheap queries hold the median, and the more of
# the pool a run covers, the less the median hinges on the seed.  (b)
# squarefree of degree 2-3 in 10 variables: one a round, its size taking 8
# and 9 in turn; sdepth_solve of I runs past SCREEN_S on most such candidates
# (about fourteen in fifteen at 8 generators), so their pool is the small
# share that finishes.  Ten generators are left out of (b): none of 92
# candidates finished within 3 s.  Eleven generators are left out of (a):
# their Q rank takes about 11.5 s, as much as two whole rounds.
IDEALS_STRATA = {"a6": 8, "a7": 8, "a8": 6, "a9": 3, "a10": 4, "b_in_turn": ("b8", "b9")}
# The pools of the costly strata are small, so that a run of three or four
# rounds deals each of their entries about once and the seed moves
# items_per_s little: with 24 a9 and a10 ideals and 6 of each b size, the
# draw alone spread it by 0.08 between seeds.
IDEALS_POOL = {"a6": 24, "a7": 24, "a8": 24, "a9": 12, "a10": 12, "b8": 2, "b9": 2}


# ---------------- 5-atom intersection-closed families ----------------


def close_family(fam):
    """Close a set of atom bitmasks under nonempty intersection."""
    fam = set(fam)
    todo = list(fam)
    while todo:
        a = todo.pop()
        for b in list(fam):
            c = a & b
            if c and c not in fam:
                fam.add(c)
                todo.append(c)
    return fam


def upper_covers(fam):
    """Map each member to the members covering it under inclusion."""
    out = {}
    for x in fam:
        ups = [y for y in fam if y != x and x & y == x]
        out[x] = [y for y in ups if not any(z != y and z & y == z for z in ups)]
    return out


def meet_irreducible_count(fam):
    return sum(1 for c in upper_covers(fam).values() if len(c) == 1)


def family_doc(fam):
    """The family ordered by inclusion, as a lattice document (covers upward)."""
    elements = sorted(fam, key=lambda m: (bin(m).count("1"), m))
    index = {m: i for i, m in enumerate(elements)}
    covers = upper_covers(fam)
    return {
        "elements": [format(m, f"0{ATOMS}b") for m in elements],
        "covers": [[index[x], index[y]] for x in elements for y in covers[x]],
    }


def checks5_candidates(pool_sizes=CHECKS5_POOL):
    """Distinct families (stratum, sorted atom bitmasks), rejection-sampled from a fixed stream."""
    rng = random.Random("checks5-pool")
    base = {1 << i for i in range(ATOMS)} | {FULL}
    seen = set()
    while True:
        p = rng.random()
        fam = close_family(base | {m for m in _OPTIONAL if rng.random() < p})
        key = f"mi{meet_irreducible_count(fam)}"
        if key in pool_sizes and frozenset(fam) not in seen:
            seen.add(frozenset(fam))
            yield key, sorted(fam)


# ---------------- monomial ideals ----------------

_DEGREE3 = [e for e in itertools.product(range(4), repeat=4) if sum(e) == 3]


def equal_degree_doc(rng, ngens):
    """ngens distinct degree-3 monomials in 4 variables (an antichain)."""
    gens = rng.sample(_DEGREE3, ngens)
    return {"variables": ["a", "b", "c", "d"], "generators": [list(g) for g in gens]}


def squarefree_doc(rng, ngens, nvars=10):
    """ngens pairwise non-dividing squarefree monomials of degree 2 or 3."""
    gens = []
    while len(gens) < ngens:
        s = frozenset(rng.sample(range(nvars), rng.choice((2, 3))))
        if not any(g <= s or s <= g for g in gens):
            gens.append(s)
    return {
        "variables": [f"x{j}" for j in range(nvars)],
        "generators": [[int(j in g) for j in range(nvars)] for g in gens],
    }


def ideal_candidates(key):
    """Distinct ideal documents of stratum `key` ("a7": equal degree, 7 generators), from a fixed stream."""
    rng = random.Random(f"ideals-pool:{key}")
    make = {"a": equal_degree_doc, "b": squarefree_doc}[key[0]]
    seen = set()
    while True:
        doc = make(rng, int(key[1:]))
        gens = tuple(sorted(map(tuple, doc["generators"])))
        if gens not in seen:
            seen.add(gens)
            yield doc


# ---------------- the draw of a round ----------------


def load_pool():
    with open(POOL_PATH) as fh:
        return json.load(fh)


@functools.lru_cache(maxsize=256)
def _deck(seed, key, k, size):
    """The k-th seeded shuffle of the indices of a stratum's pool."""
    deck = list(range(size))
    random.Random(f"{seed}:{key}:{k}").shuffle(deck)
    return deck


def draw(pool, seed, round_no, counts):
    """[(stratum, pool entry)]: counts[stratum] entries of each stratum.

    Each stratum is dealt from a seeded shuffle of its pool, shuffled again
    when used up, so a run covers each pool as evenly as its number of rounds
    allows and seeds differ little in the mix.  A tuple in place of a count
    is a turn: round r takes one entry of its (r mod length)-th stratum.
    """
    out = []
    for key, n in counts.items():
        if isinstance(n, tuple):
            key, first, n = n[round_no % len(n)], round_no // len(n), 1
        else:
            first = round_no * n
        size = len(pool[key])
        out += [(key, pool[key][_deck(seed, key, pos // size, size)[pos % size]])
                for pos in range(first, first + n)]
    return out

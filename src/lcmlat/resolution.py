"""Betti numbers of monomial quotients through the Taylor complex.

The complex lives on subsets of the combined generator list; the subsets
lying entirely inside the denominator's generators span a subcomplex, and
the quotient complex resolves I/J.  Tensoring with the residue field keeps
exactly the boundary entries between subsets with equal lcm, so the Betti
numbers are corank computations of sparse sign matrices, done exactly:
fraction-free elimination over the integers by default, or modulo a prime.
"""

from dataclasses import dataclass
from itertools import combinations

from .config import DEFAULT, Config
from .errors import InvalidInput, LimitExceeded, NotSurjective
from .monomials import QuotientPair, lcm_semilattice, union_generators


def rank_exact(rows, ncols):
    """Rank over the rationals by fraction-free (division-preserving) elimination."""
    mat = [list(r) for r in rows if any(r)]
    rank = 0
    prev = 1
    col = 0
    while mat and col < ncols:
        pivot = None
        for r in range(rank, len(mat)):
            if mat[r][col]:
                pivot = r
                break
        if pivot is None:
            col += 1
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        p = mat[rank][col]
        for r in range(rank + 1, len(mat)):
            x = mat[r][col]
            row = mat[r]
            top = mat[rank]
            for c in range(col, ncols):
                q, rem = divmod(row[c] * p - x * top[c], prev)
                assert rem == 0, "fraction-free step must divide exactly"
                row[c] = q
        prev = p
        rank += 1
        col += 1
        if rank == len(mat):
            break
    return rank


def rank_mod_p(rows, ncols, p):
    mat = [[x % p for x in r] for r in rows if any(x % p for x in r)]
    rank = 0
    col = 0
    while mat and col < ncols and rank < len(mat):
        pivot = None
        for r in range(rank, len(mat)):
            if mat[r][col]:
                pivot = r
                break
        if pivot is None:
            col += 1
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = pow(mat[rank][col], p - 2, p)
        for r in range(rank + 1, len(mat)):
            x = mat[r][col]
            if x:
                row, top = mat[r], mat[rank]
                f = x * inv % p
                for c in range(col, ncols):
                    row[c] = (row[c] - f * top[c]) % p
        rank += 1
        col += 1
    return rank


def _rank(rows, ncols, config):
    if not rows or ncols == 0:
        return 0
    if config.field == "Q":
        return rank_exact(rows, ncols)
    config.validate_field()
    return rank_mod_p(rows, ncols, config.field[1])


@dataclass(frozen=True)
class BettiTable:
    betti: tuple
    pdim: int
    depth: int
    nvars: int
    field: str

    def to_json(self):
        return {
            "betti": list(self.betti),
            "pdim": self.pdim,
            "depth": self.depth,
            "field": self.field,
        }


def _colex(n, k):
    return sorted(combinations(range(n), k), key=lambda s: tuple(reversed(s)))


def taylor_betti(pair: QuotientPair, config: Config = DEFAULT) -> BettiTable:
    """Betti numbers, projective dimension and depth of I/J."""
    pair.require_proper()
    iset = set(pair.i.gens)
    jset = set(pair.j.gens)
    verts = list(pair.i.gens) + [g for g in pair.j.gens if g not in iset]
    nvars = pair.i.nvars
    n = len(verts)
    if 1 << n > config.subset_cap:
        raise LimitExceeded(f"2^{n} subsets exceed cap {config.subset_cap}")
    exps = [v.exps for v in verts]
    jmask = sum(1 << i for i, g in enumerate(verts) if g in jset)
    lcm_of = {0: (0,) * nvars}
    for m in range(1, 1 << n):
        low = m & -m
        prev = lcm_of[m ^ low]
        e = exps[low.bit_length() - 1]
        lcm_of[m] = tuple(max(a, b) for a, b in zip(prev, e))

    levels = []  # levels[h] = list of (mask, subset tuple) for |S| = h+1
    index = []  # mask -> column, per level
    for h in range(n):
        subs = [
            (sum(1 << i for i in s), s)
            for s in _colex(n, h + 1)
        ]
        subs = [(m, s) for m, s in subs if m & ~jmask]
        levels.append(subs)
        index.append({m: c for c, (m, s) in enumerate(subs)})

    ranks = [0] * (n + 1)  # ranks[h] = rank of the map out of level h
    for h in range(1, n):
        if not levels[h] or not levels[h - 1]:
            ranks[h] = 0
            continue
        rows = [[0] * len(levels[h]) for _ in levels[h - 1]]
        nonzero = False
        for col, (mask, s) in enumerate(levels[h]):
            full = lcm_of[mask]
            for t, i in enumerate(s):
                sub = mask ^ (1 << i)
                if not sub & ~jmask:
                    continue
                if lcm_of[sub] == full:
                    rows[index[h - 1][sub]][col] = -1 if t % 2 else 1
                    nonzero = True
        ranks[h] = _rank(rows, len(levels[h]), config) if nonzero else 0

    betti = []
    for h in range(n):
        b = len(levels[h]) - ranks[h] - ranks[h + 1]
        betti.append(b)
    assert all(b >= 0 for b in betti)
    while betti and betti[-1] == 0:
        betti.pop()
    assert betti, "a non-zero module has a non-trivial resolution"
    pdim = len(betti) - 1
    return BettiTable(tuple(betti), pdim, nvars - pdim, nvars, config.field_label())


def pdim_ideal(gens, config: Config = DEFAULT) -> BettiTable:
    from .monomials import ideal_pair

    return taylor_betti(ideal_pair(gens.minimalize()), config)


def pdim_quotient_ring(gens, config: Config = DEFAULT) -> BettiTable:
    from .monomials import quotient_ring_pair

    return taylor_betti(quotient_ring_pair(gens.minimalize()), config)


@dataclass(frozen=True)
class MapCheck:
    """Both sides of a lattice surjection compared; equality when bijective."""

    bijective: bool
    pdim_source: int
    pdim_target: int
    pdim_ok: bool
    spdim_source: int = None
    spdim_target: int = None
    spdim_ok: bool = None

    @property
    def ok(self):
        return self.pdim_ok and (self.spdim_ok is None or self.spdim_ok)


def pdim_pair_invariance(pair_a: QuotientPair, pair_b: QuotientPair, image,
                         config: Config = DEFAULT, with_sdepth=False) -> MapCheck:
    """Validate a joint-lattice surjection carrying J onto J', then compare invariants.

    The image list maps element indices of the source pair's joint
    lcm-semilattice to indices of the target's.  Projective dimension (and
    Stanley projective dimension on request) must drop weakly along any such
    map and must agree when it is bijective.
    """
    from .lattice import JoinMap

    pair_a, pair_b = pair_a.minimalize(), pair_b.minimalize()
    src = lcm_semilattice(union_generators(pair_a), config)
    tgt = lcm_semilattice(union_generators(pair_b), config)
    delta = JoinMap(src.lattice, tgt.lattice, image)
    if not delta.is_surjective:
        raise NotSurjective("the joint-lattice map must be onto")
    sub_src = _sublattice_indices(src, pair_a.j, config)
    sub_tgt = _sublattice_indices(tgt, pair_b.j, config)
    if {delta.image[s] for s in sub_src} != sub_tgt:
        raise InvalidInput("the map must carry the denominator lattice onto its twin")

    ba = taylor_betti(pair_a, config)
    bb = taylor_betti(pair_b, config)
    bij = delta.is_bijective
    pdim_ok = ba.pdim == bb.pdim if bij else ba.pdim >= bb.pdim
    if not with_sdepth:
        return MapCheck(bij, ba.pdim, bb.pdim, pdim_ok)
    from .sdepth import sdepth_solve

    sa = sdepth_solve(pair_a, config)
    sb = sdepth_solve(pair_b, config)
    spdim_ok = sa.spdim == sb.spdim if bij else sa.spdim >= sb.spdim
    return MapCheck(bij, ba.pdim, bb.pdim, pdim_ok, sa.spdim, sb.spdim, spdim_ok)


def _sublattice_indices(lcmlat, denom, config):
    """Indices of the joint-lattice elements generated by the denominator's gens."""
    if not denom.gens:
        return set()
    out = {lcmlat.index_of(m) for m in lcm_semilattice(denom, config).monomials}
    assert None not in out
    return out

"""Betti numbers of monomial quotients through the Lyubeznik subcomplex of
the Taylor complex.

The vertices are J's distinct generators v_0, ..., v_{r-1}, then I's
generators outside J.  A face {i_1 < ... < i_k} is admissible when, for every
t < k, no vertex of index below i_t divides lcm(v_{i_t}, ..., v_{i_k}).  The
admissible faces with a vertex outside J, labelled by their lcms, form a
free resolution of I/J:

1. The admissible faces are closed under removal.  Dropping a vertex leaves
   the later tails alone and shrinks the earlier tail lcms, which keeps them
   free of smaller divisors, and the new last vertex carries no condition.
2. For each monomial m, the admissible faces whose lcm divides m form a cone
   with apex q, the least index with v_q | m: adding q to such a face F
   keeps it admissible, as a vertex below q dividing the new lcm would
   divide m.  So every such subcomplex is empty or contractible, and by the
   Bayer-Peeva-Sturmfels criterion the admissible faces resolve the ideal
   their vertices generate, which is I.  Nothing here asks the generators
   to be minimal or distinct.
3. With J's generators first, the admissible faces inside J are exactly J's
   own Lyubeznik complex, so they resolve J.  The inclusion lifts J into I,
   and by the long exact sequence of 0 -> J's complex -> the whole -> the
   quotient -> 0, the quotient complex on the faces with a vertex outside J
   resolves I/J, as the quotient Taylor complex does.

A face with a vertex outside J has its last vertex outside J, so the faces
are grown from those singletons by putting a smaller index in front, and no
face inside J is ever built.  Tensoring with the residue field keeps exactly
the boundary entries between faces with equal lcm, so the complex splits into
one block per lcm-lattice element and face size (the multidegree grading).
The Betti numbers are coranks of these small sign blocks, computed exactly:
over the rationals by integer elimination that keeps every row primitive, or
modulo a prime.
"""

from dataclasses import dataclass
from functools import reduce
from math import gcd
from operator import and_, getitem

from .config import DEFAULT, Config
from .errors import InternalError, InvalidInput, LimitExceeded, NotSurjective
from .lattice import JoinMap
from .monomials import QuotientPair, _thresholds, lcm_semilattice, union_generators
from .sdepth import sdepth_value


def _rank_by(rows, ncols, clear):
    """Rank by elimination, column by column, touching only the rows that change.

    clear(tail, top) returns the tail of a row from the current column on,
    minus a multiple of the pivot row's tail top, with 0 in front.
    """
    mat = [list(row) for row in rows if any(row)]
    rank = 0
    for col in range(ncols):
        hit = [row for row in mat if row[col]]
        if not hit:
            continue
        rank += 1
        top = hit[0][col:]
        mat = [row for row in mat if not row[col]]
        for row in hit[1:]:
            tail = clear(row[col:], top)
            if any(tail):
                row[col:] = tail
                mat.append(row)
    return rank


def rank_exact(rows, ncols):
    """Rank over the rationals by integer elimination on primitive rows.

    A row with an entry x under the pivot p becomes (p/g)*row - (x/g)*top,
    g = gcd(p, x), divided by the gcd of its entries.  Every step is
    invertible over Q, so the rank is exact and the entries stay small.
    """
    def clear(row, top):
        g = gcd(top[0], row[0])
        a, b = top[0] // g, row[0] // g
        new = [a * u - b * v for u, v in zip(row, top)]
        g = gcd(*new)
        return [u // g for u in new] if g > 1 else new

    return _rank_by(rows, ncols, clear)


def rank_mod_p(rows, ncols, p):
    """Rank over GF(p), p prime."""
    def clear(row, top):
        f = row[0] * pow(top[0], -1, p) % p
        return [(u - f * v) % p for u, v in zip(row, top)]

    return _rank_by([[x % p for x in row] for row in rows], ncols, clear)


def _rank(rows, ncols, config):
    if config.field == "Q":
        return rank_exact(rows, ncols)
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


def lyubeznik_faces(pair: QuotientPair, config: Config = DEFAULT):
    """(verts, groups): the vertex order and the Lyubeznik faces not inside J.

    verts lists J's distinct generators, then I's generators outside J.
    groups maps (lcm, size) to the bitmasks of the admissible faces with a
    vertex outside J.  Work stops once more than config.subset_cap faces
    are found.
    """
    jgens = dict.fromkeys(pair.j.gens)
    verts = (*jgens, *(g for g in pair.i.gens if g not in jgens))
    # below[j][e]: the vertices whose exponent in variable j is at most e, for
    # each e that occurs there; an lcm of vertices takes no other exponent
    below = [at_most for at_most, _ in _thresholds(verts)]

    def dividing(lcm):
        return reduce(and_, map(getitem, below, lcm), (1 << len(verts)) - 1)

    groups = {}
    found = 0
    stack = [(1 << i, verts[i], i, dividing(verts[i])) for i in range(len(jgens), len(verts))]
    while stack:
        mask, lcm, first, divs = stack.pop()
        found += 1
        if found > config.subset_cap:
            raise LimitExceeded(f"more than {config.subset_cap} Lyubeznik faces")
        groups.setdefault((lcm, mask.bit_count()), []).append(mask)
        # a new first vertex i is admissible when no vertex below i divides
        # the new lcm; the apex, the least vertex dividing lcm, always is, and
        # no vertex between it and the face's first one can be
        apex = (divs & -divs).bit_length() - 1
        if apex < first:
            stack.append((mask | 1 << apex, lcm, apex, divs))
        for i in range(apex):
            new = tuple(map(max, verts[i], lcm))
            d = dividing(new)
            if not d & ((1 << i) - 1):
                stack.append((mask | 1 << i, new, i, d))
    return verts, groups


def taylor_betti(pair: QuotientPair, config: Config = DEFAULT) -> BettiTable:
    """Betti numbers, projective dimension and depth of I/J."""
    pair.require_proper()
    nvars = pair.i.nvars
    verts, groups = lyubeznik_faces(pair, config)
    n = len(verts)

    count = [0] * (n + 2)  # count[k]: faces of size k
    ranks = [0] * (n + 2)  # ranks[k]: rank of the differential out of size k
    for (lcm, k), cols in groups.items():
        count[k] += len(cols)
        below = groups.get((lcm, k - 1))
        if not below:
            continue
        row_of = {m: r for r, m in enumerate(below)}
        rows = [[0] * len(cols) for _ in below]
        for c, mask in enumerate(cols):
            rest, t = mask, 0
            while rest:
                low = rest & -rest
                # None: the face lies inside J or has a smaller lcm
                r = row_of.get(mask ^ low)
                if r is not None:
                    rows[r][c] = -1 if t & 1 else 1
                rest ^= low
                t += 1
        ranks[k] += _rank(rows, len(cols), config)

    betti = [count[k] - ranks[k] - ranks[k + 1] for k in range(1, n + 1)]
    if any(b < 0 for b in betti):
        raise InternalError(f"negative Betti number in {betti}")
    while betti and betti[-1] == 0:
        betti.pop()
    if not betti:
        raise InternalError("a non-zero module has a non-trivial resolution")
    pdim = len(betti) - 1
    return BettiTable(tuple(betti), pdim, nvars - pdim, nvars, config.field_label())


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
    pair_a, pair_b = pair_a.minimalize(), pair_b.minimalize()
    src = lcm_semilattice(union_generators(pair_a), config)
    tgt = lcm_semilattice(union_generators(pair_b), config)
    delta = JoinMap(src.lattice, tgt.lattice, image)
    if not delta.is_surjective:
        raise NotSurjective("the joint-lattice map must be onto")
    # the elements of L(J), which lies inside the joint lattice
    sub_src = {i for i, m in enumerate(src.monomials) if pair_a.j.is_lattice_element(m)}
    sub_tgt = {i for i, m in enumerate(tgt.monomials) if pair_b.j.is_lattice_element(m)}
    if {delta.image[s] for s in sub_src} != sub_tgt:
        raise InvalidInput("the map must carry the denominator lattice onto its twin")

    ba = taylor_betti(pair_a, config)
    bb = taylor_betti(pair_b, config)
    bij = delta.is_bijective
    pdim_ok = ba.pdim == bb.pdim if bij else ba.pdim >= bb.pdim
    if not with_sdepth:
        return MapCheck(bij, ba.pdim, bb.pdim, pdim_ok)
    sa = pair_a.i.nvars - sdepth_value(pair_a, config)
    sb = pair_b.i.nvars - sdepth_value(pair_b, config)
    spdim_ok = sa == sb if bij else sa >= sb
    return MapCheck(bij, ba.pdim, bb.pdim, pdim_ok, sa, sb, spdim_ok)

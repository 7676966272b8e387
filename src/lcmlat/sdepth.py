"""Exact Stanley depth through interval partitions of the characteristic poset.

For a proper quotient I/J the points are the exponent vectors c in the box
[0, g] (g the lcm of all minimal generators) whose monomial lies in I but not
in J.  Stanley depth is the best achievable minimum, over the intervals of a
partition of that point set, of the number of coordinates pinned to the box
ceiling at the interval's top.  The point set is convex in the box, so an
interval of poset points never leaks outside the poset.

The search fixes the least uncovered point in (degree, lex) order as the next
interval's bottom and branches over tops of sufficient ceiling count, best
candidates first, proving optimality by failing one level higher.

Point sets are integer bitsets over the sorted points.  Per coordinate j and
value v, threshold masks hold the points with p[j] >= v and those with
p[j] <= v; the points above (below) p are the AND over j of the thresholds at
p[j].  Level masks hold the points of each ceiling count, so the tops are
walked level by level from the highest down, lowest index first.
"""

from dataclasses import dataclass
from itertools import accumulate, product
from operator import or_

from .config import DEFAULT, Config
from .errors import InternalError, LimitExceeded
from .lattice import _bits
from .monomials import QuotientPair, union_generators

_FAIL_CACHE_CAP = 1 << 18
_GRID_CAP = 4_000_000


@dataclass
class CharacteristicPoset:
    variables: tuple
    ceiling: tuple  # the box top g
    points: tuple  # sorted by (degree, lex); a linear extension of divisibility

    @property
    def size(self):
        return len(self.points)

    def ceiling_count(self, point):
        """Coordinates pinned to the box top; zero-capped variables count."""
        return sum(1 for a, b in zip(point, self.ceiling) if a == b)


def characteristic_poset(pair: QuotientPair, config: Config = DEFAULT) -> CharacteristicPoset:
    """Enumerate the box points inside I but outside J."""
    slim = pair.minimalize()
    slim.require_proper()
    g = union_generators(slim).lcm()
    cells = 1
    for e in g:
        cells *= e + 1
        if cells > _GRID_CAP:
            raise LimitExceeded(f"search box exceeds {_GRID_CAP} cells")
    pts = []
    for c in product(*[range(e + 1) for e in g]):
        if slim.i.contains(c) and not slim.j.contains(c):
            pts.append(c)
            if len(pts) > config.poset_cap:
                raise LimitExceeded(
                    f"characteristic poset exceeds cap {config.poset_cap}"
                )
    pts.sort(key=lambda c: (sum(c), c))
    return CharacteristicPoset(slim.variables, tuple(g), tuple(pts))


def _interval_masks(points):
    """up[i], down[i]: bitmasks of the points above and below point i."""
    n = len(points)
    up = [(1 << n) - 1] * n
    down = list(up)
    bit = [1 << i for i in range(n)]
    for coord in zip(*points):
        at = [0] * (max(coord) + 1)  # the points with p[j] == v
        for i, v in enumerate(coord):
            at[v] |= bit[i]
        le = list(accumulate(at, or_))
        ge = list(accumulate(reversed(at), or_))[::-1]
        for i, v in enumerate(coord):
            up[i] &= ge[v]
            down[i] &= le[v]
    return up, down


def _lsb_index(mask):
    return (mask & -mask).bit_length() - 1


def _cover_search(target, full, up, down, level):
    """A partition into intervals whose tops all reach `target`, or None.

    level[r] is the mask of the points of ceiling count r; the tops are tried
    from the highest level down, lowest index first.
    """
    fail = set()
    reach = range(len(level) - 1, target - 1, -1)

    def candidates(a, uncovered):
        above = up[a] & uncovered
        for r in reach:
            yield from _bits(above & level[r])

    chosen = []
    a0 = _lsb_index(full)
    frames = [(full, candidates(a0, full), a0)]
    while frames:
        uncovered, cands, a = frames[-1]
        for b in cands:
            cover = up[a] & down[b]
            if cover & uncovered != cover:
                continue
            rest = uncovered & ~cover
            if rest in fail:
                continue
            chosen.append((a, b))
            if rest == 0:
                return chosen
            na = _lsb_index(rest)
            frames.append((rest, candidates(na, rest), na))
            break
        else:
            if len(fail) < _FAIL_CACHE_CAP:
                fail.add(uncovered)
            frames.pop()
            if chosen:
                chosen.pop()
    return None


@dataclass
class SdepthReport:
    sdepth: int
    spdim: int
    nvars: int
    ceiling: tuple
    poset_size: int
    witness: tuple  # ((bottom, top) point pairs)

    def to_json(self):
        return {
            "sdepth": self.sdepth,
            "spdim": self.spdim,
            "g": list(self.ceiling),
            "poset_size": self.poset_size,
            "witness": [[list(a), list(b)] for a, b in self.witness],
        }


def sdepth_solve(pair: QuotientPair, config: Config = DEFAULT) -> SdepthReport:
    """Exact Stanley depth, its complement, and an optimal interval partition."""
    poset = characteristic_poset(pair, config)
    pts = poset.points
    n = poset.size
    nvars = len(poset.variables)
    level = [0] * (nvars + 1)
    for i, p in enumerate(pts):
        level[poset.ceiling_count(p)] |= 1 << i
    up, down = _interval_masks(pts)
    full = (1 << n) - 1

    value = next(r for r, m in enumerate(level) if m)
    witness = [(i, i) for i in range(n)]
    # no interval bottomed at i can top out above the highest level over i
    tcap = min(next(r for r in range(nvars, -1, -1) if u & level[r]) for u in up)
    for target in range(value + 1, tcap + 1):
        found = _cover_search(target, full, up, down, level)
        if found is None:
            break
        witness = found
        value = target

    intervals = tuple((pts[a], pts[b]) for a, b in witness)
    ok, achieved = verify_decomposition(poset, intervals)
    if not ok or achieved < value:
        raise InternalError(f"the witness of Stanley depth {value} does not verify")
    return SdepthReport(value, nvars - value, nvars, poset.ceiling, n, intervals)


def verify_decomposition(poset: CharacteristicPoset, intervals):
    """(ok, value): intervals must tile the poset exactly; value is min ceiling count."""
    points = set(poset.points)
    seen = set()
    value = None
    for a, b in intervals:
        a, b = tuple(a), tuple(b)
        if a not in points or b not in points or any(x > y for x, y in zip(a, b)):
            return False, None
        for p in product(*(range(x, y + 1) for x, y in zip(a, b))):
            if p not in points or p in seen:
                return False, None
            seen.add(p)
        r = poset.ceiling_count(b)
        value = r if value is None else min(value, r)
    if len(seen) != poset.size:
        return False, None
    return True, value


def sdepth_of_ideal(gens, config: Config = DEFAULT) -> SdepthReport:
    from .monomials import ideal_pair

    return sdepth_solve(ideal_pair(gens.minimalize()), config)


def sdepth_of_quotient_ring(gens, config: Config = DEFAULT) -> SdepthReport:
    from .monomials import quotient_ring_pair

    return sdepth_solve(quotient_ring_pair(gens.minimalize()), config)

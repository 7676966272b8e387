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
"""

from dataclasses import dataclass
from itertools import product

from .config import DEFAULT, Config
from .errors import LimitExceeded
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
    g = union_generators(slim).lcm().exps
    cells = 1
    for e in g:
        cells *= e + 1
        if cells > _GRID_CAP:
            raise LimitExceeded(f"search box exceeds {_GRID_CAP} cells")
    igens = [m.exps for m in slim.i.gens]
    jgens = [m.exps for m in slim.j.gens]
    pts = []
    for c in product(*[range(e + 1) for e in g]):
        if any(all(a <= b for a, b in zip(m, c)) for m in igens) and not any(
            all(a <= b for a, b in zip(m, c)) for m in jgens
        ):
            pts.append(c)
            if len(pts) > config.poset_cap:
                raise LimitExceeded(
                    f"characteristic poset exceeds cap {config.poset_cap}"
                )
    pts.sort(key=lambda c: (sum(c), c))
    return CharacteristicPoset(slim.variables, tuple(g), tuple(pts))


def _interval_masks(points):
    """up[i], down[i] bitmasks of componentwise comparability."""
    n = len(points)
    up = [0] * n
    down = [0] * n
    for i in range(n):
        pi = points[i]
        for j in range(i, n):
            pj = points[j]
            if all(a <= b for a, b in zip(pi, pj)):
                up[i] |= 1 << j
                down[j] |= 1 << i
            elif all(a >= b for a, b in zip(pi, pj)):
                down[i] |= 1 << j
                up[j] |= 1 << i
    return up, down


def _lsb_index(mask):
    return (mask & -mask).bit_length() - 1


def _cover_search(target, full, up, down, rho):
    """A partition into intervals whose tops all reach `target`, or None."""
    fail = set()

    def candidates(a, uncovered):
        m = up[a] & uncovered
        ids = []
        while m:
            low = m & -m
            j = low.bit_length() - 1
            if rho[j] >= target:
                ids.append(j)
            m ^= low
        ids.sort(key=lambda j: (-rho[j], j))
        return ids

    chosen = []
    a0 = _lsb_index(full)
    frames = [[full, candidates(a0, full), 0, a0]]
    while frames:
        frame = frames[-1]
        uncovered, cands, i, a = frame
        advanced = False
        while i < len(cands):
            b = cands[i]
            i += 1
            cover = up[a] & down[b]
            if cover & uncovered != cover:
                continue
            rest = uncovered & ~cover
            if rest in fail:
                continue
            frame[2] = i
            chosen.append((a, b))
            if rest == 0:
                return chosen
            na = _lsb_index(rest)
            frames.append([rest, candidates(na, rest), 0, na])
            advanced = True
            break
        if not advanced:
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
    rho = [poset.ceiling_count(p) for p in pts]
    up, down = _interval_masks(pts)
    full = (1 << n) - 1

    value = min(rho)
    witness = [(i, i) for i in range(n)]
    tcap = min(max(rho[j] for j in _bits(up[i])) for i in range(n))
    for target in range(value + 1, tcap + 1):
        found = _cover_search(target, full, up, down, rho)
        if found is None:
            break
        witness = found
        value = target

    intervals = tuple((pts[a], pts[b]) for a, b in witness)
    ok, achieved = verify_decomposition(poset, intervals)
    assert ok and achieved >= value
    nvars = len(poset.variables)
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

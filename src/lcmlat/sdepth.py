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

Two prunes leave the first partition found, and so every witness, as it
would be without them.  A state is dead when some uncovered point p below the
last top, of ceiling count under the target, has no top q of count at least
the target with the whole interval [p, q] uncovered: any interval that later
covers p contains [p, q] for its top q, and only points below the last top
can lose such a q.  Only tops at the target level are tried: lowering a
free top q by one on a coordinate where q sits at the ceiling and p does
not gives a free top one count lower.  A dead state goes to the fail cache
like an exhausted one; each point's last free interval is tested first, and
the points nearest the last top before the others.  The Hilbert depth
(Bruns-Krattenthaler-Uliczka) of the polarized box bounds Stanley depth from
above, so the search that would fail one level higher is skipped when the
bound is reached.

A top above a covered point can give no free interval, so the tops of a new
bottom leave out the up-sets of its minimal covered points above it before
any interval is built, and a low point's free tops are its uncovered tops
at the target level less the up-sets of its own minimal covered points
above it, the lowest index taken.  Neither this nor the level of the
free-top test changes a frame the search pushes or the partition it finds.

One loop tries the targets in turn, up to the first that fails, under one
of two policies.  sdepth_solve runs that search alone, so its witness is the
first partition found.  sdepth_value, for callers that need the number alone,
also runs a level-exact search (tops at the target level only) in alternating
slices with it and takes the first answer, and caps the targets of I and S/I
by the Hilbert caps of their colons by one variable.

The box cells are bitsets in mixed radix, from the gcd of I's generators
(which every point lies above) to g, and the point set is the union of the
generators' up-sets in I less those in J.  Point sets of the search are
integer bitsets over the sorted points.  Per coordinate j and value v,
threshold masks hold the points with p[j] >= v and those with p[j] <= v; the
points above (below) p are the AND over j of the thresholds at p[j].  Level
masks hold the points of each ceiling count, so the tops are walked level by
level from the highest down, lowest index first.  No interval bottomed at a
point tops out above the highest level over it, so the targets stop at the
highest level whose points' down-sets, ORed from the top level down, cover
the poset.

The census measures I and S/I of one generator set at once (sdepth_values).
Their points split one box [0, g] (I's own box starts at the gcd, but holds
no point below it): I's points are the up-sets of its generators, an up-set
of the box, and S/I's the rest, a down-set.  Both are convex in the box, so
the search runs on the order masks of all its cells, restricted to one side,
and each side's points keep their relative (degree, lex) order there: the
frames and the value are those of the side's own poset.  The boxes, with
their cells, order masks and levels, are kept by g in a least-recently-used
cache of at most _BOX_CACHE_CELLS cells in all, since the census meets few
shapes of box; a larger box is built and not kept.  A box with more cells
than the poset cap or the grid cap is not built at all: each side then runs
on its own poset, both posets built first, so the limits are met as the two
pairs meet them, I first, before any order mask is built.
"""

from collections import OrderedDict
from dataclasses import dataclass, field
from functools import cache, cached_property
from itertools import accumulate, compress, product
from math import inf, prod
from operator import eq, gt

from .config import DEFAULT, Config
from .errors import InternalError, LimitExceeded
from .lattice import _bits
from .monomials import (GeneratorSet, Monomial, QuotientPair, _interval_masks, colon, ideal_pair,
                        quotient_ring_pair, union_generators)

_FAIL_CACHE_CAP = 1 << 18
_SLICE = 2000  # frames a search pushes before it yields its turn
_GRID_CAP = 4_000_000
_BOX_CACHE_CELLS = 1 << 14  # the cells of all cached boxes together


@dataclass
class CharacteristicPoset:
    variables: tuple
    ceiling: tuple  # the box top g
    points: tuple  # sorted by (degree, lex); a linear extension of divisibility
    ceiling_counts: tuple = field(default=None, repr=False)  # of each point, in point order

    def __post_init__(self):
        if self.ceiling_counts is None:
            self.ceiling_counts = tuple(map(self.ceiling_count, self.points))

    @property
    def size(self):
        return len(self.points)

    def ceiling_count(self, point):
        """Coordinates pinned to the box top; zero-capped variables count."""
        return sum(map(eq, point, self.ceiling))


def characteristic_poset(pair: QuotientPair, config: Config = DEFAULT) -> CharacteristicPoset:
    """The box points inside I but outside J, from bitsets of the box cells."""
    slim = pair.minimalize()
    slim.require_proper()
    g = union_generators(slim).lcm()
    # every point lies above a generator of I, so the cells start at their gcd
    low = slim.i.gcd_of_gens()
    side = [e - d + 1 for e, d in zip(g, low)]
    cells = 1
    for w in side:
        cells *= w
        if cells > _GRID_CAP:
            raise LimitExceeded(f"search box exceeds {_GRID_CAP} cells")
    # cells are numbered in mixed radix, the last coordinate fastest, so cell
    # order is lex order; stride[j] is the step of coordinate j
    stride = [1] * len(g)
    for j in range(len(g) - 2, -1, -1):
        stride[j] = stride[j + 1] * side[j + 1]
    box = (1 << cells) - 1

    def ge(j, v):
        """The cells with c[j] >= v: a run of ones repeated every period."""
        period = stride[j] * side[j]
        mask = (1 << period) - (1 << ((v - low[j]) * stride[j]))
        while period < cells:
            mask |= mask << period
            period <<= 1
        return mask & box

    def upset(gens):
        """The cells that some generator divides."""
        found = 0
        for m in gens:
            cone = box
            for j, v in enumerate(m):
                if v > low[j]:
                    cone &= ge(j, v)
            found |= cone
        return found

    inside = upset(slim.i.gens) & ~upset(slim.j.gens)
    if inside.bit_count() > config.poset_cap:
        raise LimitExceeded(f"characteristic poset exceeds cap {config.poset_cap}")
    digits = format(inside, "b")[::-1]
    found = []
    k = digits.find("1")
    while k >= 0:
        found.append(k)
        k = digits.find("1", k + 1)
    coords = [[d + c // s % w for c in found] for s, w, d in zip(stride, side, low)]
    # a stable sort by degree: the cells come in lex order
    pts = sorted(zip(*coords), key=sum) if g else [()] * len(found)
    return CharacteristicPoset(slim.variables, tuple(g), tuple(pts))


@dataclass
class _Box:
    """Points in (degree, lex) order, their ceiling counts and their order
    masks: up[i] and down[i] hold the points componentwise above and below
    point i, level[r] those of ceiling count r."""
    points: tuple
    counts: tuple
    up: list
    down: list
    level: list

    @cached_property
    def index(self):
        """The position of each point."""
        return {p: i for i, p in enumerate(self.points)}


def _ordered(points, counts, nvars):
    """The _Box of points sorted by (degree, lex), of ceiling counts `counts`."""
    level = [0] * (nvars + 1)
    for i, r in enumerate(counts):
        level[r] |= 1 << i
    return _Box(points, counts, *_interval_masks(points), level)


_FLAG = bytes.maketrans(b"01", b"\0\1")


def _flags(mask, n):
    """One byte per index below n, 1 where mask has that bit: selectors for compress."""
    return format(mask, f"0{n}b")[::-1].encode().translate(_FLAG)


class _BoxCache:
    """The boxes [0, g] by g, least recently used first, holding at most
    _BOX_CACHE_CELLS cells in all; a box with more is built and not kept."""

    def __init__(self):
        self.boxes = OrderedDict()
        self.cells = self.hits = self.misses = 0

    def __call__(self, g):
        box = self.boxes.get(g)
        if box is not None:
            self.hits += 1
            self.boxes.move_to_end(g)
            return box
        self.misses += 1
        # product yields the cells in lex order, and the sort by degree is stable
        cells = tuple(sorted(product(*(range(e + 1) for e in g)), key=sum))
        box = _ordered(cells, tuple(sum(map(eq, c, g)) for c in cells), len(g))
        size = len(cells)
        if size <= _BOX_CACHE_CELLS:
            while self.cells + size > _BOX_CACHE_CELLS:
                self.cells -= len(self.boxes.popitem(last=False)[1].points)
            self.boxes[g] = box
            self.cells += size
        return box


_boxes = _BoxCache()


def _cover_steps(target, full, up, down, level, budget):
    """A search for a partition of `full` into intervals whose tops all reach
    `target`, run in slices: it yields after every _SLICE pushed frames and
    returns the partition, or None when there is none.

    level[r] is the mask of the points of ceiling count r; the tops are tried
    from the highest level down, lowest index first.  The first bottom is the
    least point of `full`.  Each frame of the one explicit stack is
    (uncovered, a, above, r, pending): the state, its bottom, the uncovered
    points above it and above no covered point of `full`, the level walked
    and the tops of that level not yet tried.  Dead and exhausted states go
    to the fail cache.  Pushing more than `budget` frames raises
    LimitExceeded.
    """
    high = 0
    for m in level[target:]:
        high |= m
    low = full & ~high  # the points that need a top above them
    exact = level[target]  # a free top higher than this drops to it
    free = [-1] * len(up)  # the last free interval above each low point; -1: none
    fail = set()

    def blocked(inside):
        """The points above some point of `inside`, one up-set per minimal point."""
        found = 0
        while inside:
            x = up[(inside & -inside).bit_length() - 1]
            found |= x
            inside &= ~x
        return found

    def dead(rest, b):
        short = down[b] & rest & low
        while short:  # nearest the new cover first
            p = short.bit_length() - 1
            short ^= 1 << p
            if free[p] & ~rest == 0:
                continue
            tops = up[p] & rest & exact & ~blocked(up[p] & ~rest)  # none above a covered point
            if not tops:
                return True
            free[p] = up[p] & down[(tops & -tops).bit_length() - 1]
        return False

    top = len(level) - 1
    chosen = []
    frames = []  # (uncovered, a, above, r, pending) of each open choice
    pushed = 0
    uncovered = full
    a = (full & -full).bit_length() - 1
    above = up[a] & full
    r = top
    pending = above & level[r]
    while True:
        if not pending:
            if r > target:
                r -= 1
                pending = above & level[r]
                continue
            if len(fail) < _FAIL_CACHE_CAP:
                fail.add(uncovered)
            if not frames:
                return None
            chosen.pop()
            uncovered, a, above, r, pending = frames.pop()
            continue
        bit = pending & -pending
        pending ^= bit
        b = bit.bit_length() - 1
        cover = up[a] & down[b]
        if cover & uncovered != cover:
            continue
        rest = uncovered ^ cover
        if rest in fail:
            continue
        chosen.append((a, b))
        if not rest:
            return chosen
        if dead(rest, b):
            chosen.pop()
            if len(fail) < _FAIL_CACHE_CAP:
                fail.add(rest)
            continue
        pushed += 1
        if pushed > budget:
            raise LimitExceeded("sdepth search exceeds its frame budget")
        frames.append((uncovered, a, above, r, pending))
        uncovered = rest
        a = (rest & -rest).bit_length() - 1
        above = up[a] & rest & ~blocked(up[a] & full & ~rest)  # none above a covered point
        r = top
        pending = above & level[r]
        if not pushed % _SLICE:
            yield


def _level_exact_steps(target, full, up, down, level, budget):
    """The search of _cover_steps with every top at level `target` exactly.

    Stanley depth is at least k exactly when the points of ceiling count
    below k are covered by disjoint intervals whose tops have count k, every
    other point a singleton: an interval [a, b] with cc(b) > k splits on a
    coordinate j with a[j] < b[j] = g[j] into the part with c[j] < g[j], its
    top one count lower, and the part with c[j] = g[j]; when no such j is
    left, every point of [a, b] counts more than k.  So the points above
    level k leave the search and come back as singletons.
    """
    higher = 0
    for m in level[target + 1:]:
        higher |= m
    higher &= full
    found = yield from _cover_steps(target, full ^ higher, up, down, level[:target + 1], budget)
    if found is not None:
        found += [(i, i) for i in compress(range(len(up)), _flags(higher, len(up)))]
    return found


def _first_to_finish(searches, ruled_out=None):
    """Run the searches in turn, one slice each, until one ends; its answer.

    After every search has had its first slice, ruled_out() may end the race
    with None.
    """
    first = True
    while True:
        for search in searches:
            try:
                next(search)
            except StopIteration as end:
                return end.value
        if first and ruled_out and ruled_out():
            return None
        first = False


def _hilbert_cap(poset):
    """An upper bound on Stanley depth: the Hilbert depth of the polarized box.

    Polarization turns the box [0, g] of n variables into a squarefree box of
    N = sum(g) variables and adds N - n to Stanley depth (Ichim, Katthän and
    Moyano-Fernández).  A point c becomes a boolean interval of polarized
    points, from degree |c| up to degree N - n + cc(c), cc the ceiling count.
    With f[j] the polarized points of degree j, Stanley depth D here, which
    is d = N - n + D there, needs every coefficient of
    H = sum_{j<=d} f[j] t^j (1-t)^(d-j) to be non-negative
    (Bruns-Krattenthaler-Uliczka): one interval [a, b] with |b| >= d adds
    C(|b|-|a|+k-d-1, k-|a|) >= 0 to the coefficient of t^k, by Vandermonde.
    Summed interval by interval, H up to degree d is S / (1-t)^(n-D) for the
    polynomial S = sum_c t^|c| (1-t)^(n - cc(c)), built by Horner's rule in
    (1-t) from the rows of points by ceiling count: S = sum_r rows[r]
    (1-t)^(n-r), so n passes, each one product by (1-t).  The coefficients for
    d - 1 are partial sums of those for d, so the passing depths are an
    initial segment; D runs down from n, one prefix sum a step, to the first
    that passes.
    """
    n = len(poset.ceiling)
    total = sum(poset.ceiling)
    rows = [[0] * (total + 1) for _ in range(n + 1)]
    for p, r in zip(poset.points, poset.ceiling_counts):
        rows[r][sum(p)] += 1
    h = rows[0]
    for row in rows[1:]:  # Horner's rule in (1-t): h = h (1-t) + row
        h = [a - b + c for a, b, c in zip(h, [0] + h, row)]
    depth = n
    while min(h[:total - n + depth + 1]) < 0:  # h[0] counts points, so d = 0 passes
        depth -= 1
        h = list(accumulate(h))
    return depth


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


def _target_range(poset, box, full):
    """The least ceiling count over the points of `full` and the cap on the
    target: the least over those points of the highest level above them (see
    the module docstring), and the Hilbert cap of `poset`, their poset."""
    level, down = box.level, box.down
    value = next(r for r, m in enumerate(level) if m & full)
    covered = 0
    tcap = len(level)
    while full & ~covered:  # the highest level whose down-sets cover the points
        tcap -= 1
        for q in _bits(level[tcap] & full):
            covered |= down[q]
    if tcap > value:  # only a search can use the cap
        tcap = min(tcap, _hilbert_cap(poset))
    return value, tcap


def _colon_cap(pair, poset, config):
    """The least Hilbert cap of the proper colons by one variable, for I or S/I.

    sdepth(I:u) >= sdepth(I) (Cimpoeaş 2012) and sdepth(S/(I:u)) >=
    sdepth(S/I) (Rauf 2010), so each such cap bounds the Stanley depth of
    I, or of S/I.  No colon bound is used for a general I/J.
    """
    if pair.j.gens and not any(g.is_unit() for g in pair.i.gens):
        return inf
    cap = inf
    n = len(poset.variables)
    for j, e in enumerate(poset.ceiling):
        if e:  # a variable that divides no generator leaves the pair as it is
            quotient = colon(pair, Monomial(int(t == j) for t in range(n)))
            if quotient.is_proper():
                cap = min(cap, _hilbert_cap(characteristic_poset(quotient, config)))
    return cap


def _decide(pair, poset, box, full, config, budget, race):
    """(value, witness): the Stanley depth of the pair and its witness as
    point pairs, verified to tile `poset`, the targets above the least
    ceiling count tried one by one up to the first that fails.  The search
    runs on the order masks of `box`, restricted to `full`, the mask of the
    pair's points there; each point of `poset` keeps its relative order.

    Without race, the cover search alone decides each target, so the witness
    is the first partition found.  With race, the level-exact search and the
    cover search run in alternating slices, level-exact first; whichever ends
    first decides, since both are complete, and a target still open after
    the first slices is checked against the colon cap, computed once.  Each
    search pushes at most `budget` frames, or LimitExceeded is raised.
    """
    level, up, down = box.level, box.up, box.down
    value, tcap = _target_range(poset, box, full)
    witness = None
    colon_cap = cache(lambda: _colon_cap(pair, poset, config))
    for target in range(value + 1, tcap + 1):
        searches = [_cover_steps(target, full, up, down, level, budget)]
        if race:
            searches.insert(0, _level_exact_steps(target, full, up, down, level, budget))
        found = _first_to_finish(searches, (lambda: target > colon_cap()) if race else None)
        if found is None:
            break
        witness = found
        value = target
    pts = box.points
    if witness is None:
        witness = [(i, i) for i in compress(range(len(pts)), _flags(full, len(pts)))]
    intervals = tuple((pts[a], pts[b]) for a, b in witness)
    ok, achieved = verify_decomposition(poset, intervals)
    if not ok or achieved < value:
        raise InternalError(f"the witness of Stanley depth {value} does not verify")
    return value, intervals


def _own_box(poset):
    """The poset, its order masks over its own points, and the mask of all of them."""
    box = _ordered(poset.points, poset.ceiling_counts, len(poset.ceiling))
    return poset, box, (1 << poset.size) - 1


def sdepth_solve(pair: QuotientPair, config: Config = DEFAULT, budget=inf) -> SdepthReport:
    """Exact Stanley depth, its complement, and the first optimal interval
    partition the cover search finds, run alone; see _decide for `budget`."""
    poset, box, full = _own_box(characteristic_poset(pair, config))
    value, witness = _decide(pair, poset, box, full, config, budget, race=False)
    nvars = len(poset.variables)
    return SdepthReport(value, nvars - value, nvars, poset.ceiling, poset.size, witness)


def sdepth_value(pair: QuotientPair, config: Config = DEFAULT, budget=inf) -> int:
    """Exact Stanley depth alone, each target raced by two searches and
    checked against the colon cap; see _decide for `budget`."""
    return _decide(pair, *_own_box(characteristic_poset(pair, config)), config, budget, race=True)[0]


def sdepth_values(gens: GeneratorSet, config: Config = DEFAULT):
    """(sdepth I, sdepth S/I) of the ideal the generators span, each decided
    as sdepth_value decides it, on the one cached box [0, g]: the points of I
    are the up-sets of its minimal generators, those of S/I the rest.  Limits
    are those of the two pairs' own posets, I first, and are met before any
    order mask is built."""
    slim = gens.minimalize()
    pairs = ideal_pair(slim), quotient_ring_pair(slim)
    g = tuple(slim.lcm())
    if prod(e + 1 for e in g) > min(config.poset_cap, _GRID_CAP):
        # a cap may be reached, and the box would outgrow a side's poset:
        # both posets are built, and so checked, before either is searched
        posets = [characteristic_poset(pair, config) for pair in pairs]
        return tuple(_decide(pair, *_own_box(poset), config, inf, race=True)[0]
                     for pair, poset in zip(pairs, posets))
    for pair in pairs:
        pair.require_proper()
    box = _boxes(g)
    inside = 0
    for m in slim.gens:
        inside |= box.up[box.index[m]]
    n = len(box.points)
    values = []
    for pair, full in zip(pairs, (inside, ((1 << n) - 1) ^ inside)):
        flags = _flags(full, n)
        poset = CharacteristicPoset(slim.variables, g, tuple(compress(box.points, flags)),
                                    tuple(compress(box.counts, flags)))
        values.append(_decide(pair, poset, box, full, config, inf, race=True)[0])
    return tuple(values)


def verify_decomposition(poset: CharacteristicPoset, intervals):
    """(ok, value): intervals must tile the poset exactly; value is min ceiling count."""
    rest = set(poset.points)  # the points no interval has covered yet
    value = None
    for a, b in intervals:
        a, b = tuple(a), tuple(b)
        if a == b:  # a singleton: no product to build
            cell = {a}
        elif any(map(gt, a, b)):
            return False, None
        else:
            cell = set(product(*map(range, a, [y + 1 for y in b])))
        if not cell <= rest:  # a point outside the poset, or covered twice
            return False, None
        rest -= cell
        r = poset.ceiling_count(b)
        value = r if value is None else min(value, r)
    if rest:
        return False, None
    return True, value

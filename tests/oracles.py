"""Independent brute-force references for the test suite.

Everything here is deliberately naive and shares no algorithmic structure
with the package: partitions are enumerated recursively over explicit point
sets, ranks are computed over exact fractions or by plain elimination mod p,
Betti numbers come from the full, unblocked Taylor complex or from the
order complexes of lcm-lattice intervals, Lyubeznik faces and census
families are produced by filtering the full powerset, associated primes come
from a grid scan of colon ideals, and lcm closures and standard weights are
taken on plain exponent tuples, pair by pair, and interval partitions are
checked by listing every cell of every interval.  Results are compared
against the fast implementations and frozen where the suite needs literal
constants.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations, product
from math import comb


# ---------------- Stanley depth by exhaustive interval partitions ----------------


def brute_sdepth(points, ceiling):
    """Max over interval partitions of min ceiling-count, by memoized recursion.

    points: list of exponent tuples, ceiling: the box top g.  Returns -1 for
    an empty point set (no proper module).
    """
    points = sorted(set(points))
    n = len(ceiling)

    def leq(a, b):
        return all(a[j] <= b[j] for j in range(n))

    def rho(b):
        return sum(1 for j in range(n) if b[j] == ceiling[j])

    @lru_cache(maxsize=None)
    def best(uncovered):
        """Best min ceiling-count over the partitions of `uncovered`."""
        if not uncovered:
            return n + 1
        a = min(uncovered)
        value = -1
        for b in points:
            # only tops that beat the best partition found so far
            if rho(b) <= value or not leq(a, b):
                continue
            block = {p for p in points if leq(a, p) and leq(p, b)}
            if block <= uncovered:
                value = max(value, min(rho(b), best(uncovered - block)))
        return value

    return best(frozenset(points)) if points else -1


def box_points(pair):
    """(points, g): the box points in I but not in J, computed from scratch."""
    from lcmlat import union_generators

    pr = pair.minimalize()
    g = union_generators(pr).lcm().exps
    pts = []
    for c in product(*(range(e + 1) for e in g)):
        in_i = any(all(c[j] >= w.exps[j] for j in range(len(g))) for w in pr.i.gens)
        in_j = any(all(c[j] >= w.exps[j] for j in range(len(g))) for w in pr.j.gens)
        if in_i and not in_j:
            pts.append(c)
    return pts, g


def box_cells(g):
    """Every exponent vector c with 0 <= c <= g, sorted by (degree, exponents)."""
    return sorted(product(*(range(e + 1) for e in g)), key=lambda c: (sum(c), c))


def order_masks_by_definition(points):
    """(up, down): bit j of up[i] is set when points[j] is at least points[i]
    in every coordinate, and bit j of down[i] when it is at most."""
    up = [sum(1 << j for j, q in enumerate(points) if all(x <= y for x, y in zip(p, q)))
          for p in points]
    down = [sum(1 << j for j, q in enumerate(points) if all(x >= y for x, y in zip(p, q)))
            for p in points]
    return up, down


def brute_sdepth_pair(pair):
    """Characteristic box points computed from scratch, then brute_sdepth."""
    return brute_sdepth(*box_points(pair))


def polarized_hilbert_cap(pair):
    """n - N plus the Hilbert depth of the polarized pair, N = sum(g).

    The polarized box {0, 1}^N is scanned point by point: a point lies in
    the polarization of an ideal when, for some generator w, each variable j
    has its first w[j] polarized slots set.  With f[j] the points of I^p not
    in J^p of degree j, the Hilbert depth is the largest d <= N with
    sum_{j<=k} (-1)^(k-j) C(d-j, k-j) f[j] >= 0 for every k <= d.
    """
    pr = pair.minimalize()
    _, g = box_points(pair)
    start = [sum(g[:j]) for j in range(len(g))]
    big = sum(g)
    f = [0] * (big + 1)
    for q in product((0, 1), repeat=big):
        runs = []
        for j, e in enumerate(g):
            r = 0
            while r < e and q[start[j] + r]:
                r += 1
            runs.append(r)
        in_i = any(all(r >= w.exps[j] for j, r in enumerate(runs)) for w in pr.i.gens)
        in_j = any(all(r >= w.exps[j] for j, r in enumerate(runs)) for w in pr.j.gens)
        if in_i and not in_j:
            f[sum(q)] += 1
    depth = max(
        d for d in range(big + 1)
        if all(sum((-1) ** (k - j) * comb(d - j, k - j) * f[j] for j in range(k + 1)) >= 0
               for k in range(d + 1))
    )
    return len(g) - big + depth


def first_found_cover(points, ceiling, target, keep=None):
    """The first partition of `keep` (default: all the points) that a plain
    depth-first search finds, as (bottom, top) pairs; None when there is none.

    Points are taken in (degree, lex) order.  The search covers the least
    uncovered point a by an interval [a, b] of the points, all of them
    uncovered points of `keep`, trying the tops b of count at least `target`
    from the highest count down and in point order within a count, and
    recurses on the rest.  Each point's up-set and down-set are frozensets,
    and failed states are remembered by their sets of uncovered points.
    """
    pts = sorted(points, key=lambda c: (sum(c), c))
    order = {p: i for i, p in enumerate(pts)}
    n = len(ceiling)

    def leq(a, b):
        return all(a[j] <= b[j] for j in range(n))

    rho = {b: sum(1 for j in range(n) if b[j] == ceiling[j]) for b in pts}
    up = {p: frozenset(q for q in pts if leq(p, q)) for p in pts}
    down = {p: frozenset(q for q in pts if leq(q, p)) for p in pts}
    failed = set()

    def search(uncovered):
        if not uncovered:
            return []
        if uncovered in failed:
            return None
        a = min(uncovered, key=order.get)
        tops = sorted((q for q in up[a] & uncovered if rho[q] >= target),
                      key=lambda q: (-rho[q], order[q]))
        for b in tops:
            block = up[a] & down[b]
            if block <= uncovered:
                found = search(uncovered - block)
                if found is not None:
                    return [(a, b)] + found
        failed.add(uncovered)
        return None

    kept = set(pts if keep is None else keep)
    return search(frozenset(p for p in pts if p in kept))


def first_found_witness(points, ceiling):
    """The partition first_found_cover finds for the highest target it can
    reach, as (bottom, top) pairs.

    The targets run from one above the lowest ceiling count up to the least,
    over the points p, of the highest count above p, and stop at the first
    that fails; singletons when none succeeds.
    """
    pts = sorted(points, key=lambda c: (sum(c), c))
    n = len(ceiling)

    def rho(b):
        return sum(1 for j in range(n) if b[j] == ceiling[j])

    witness = [(p, p) for p in pts]
    lowest = min(rho(p) for p in pts)
    cap = min(max(rho(q) for q in pts if all(x <= y for x, y in zip(p, q))) for p in pts)
    for target in range(lowest + 1, cap + 1):
        found = first_found_cover(pts, ceiling, target)
        if found is None:
            break
        witness = found
    return tuple(witness)


# ---------------- exact rank over Fraction ----------------


def rank_fraction(rows, ncols):
    mat = [list(r) for r in rows]
    rank = 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(mat)) if mat[r][col]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        support = [c for c in range(col, ncols) if mat[rank][c]]
        for r in range(rank + 1, len(mat)):
            if mat[r][col]:
                f = Fraction(mat[r][col], mat[rank][col])
                f = f.numerator if f.denominator == 1 else f  # stay on ints when exact
                for c in support:
                    mat[r][c] -= f * mat[rank][c]
        rank += 1
        if rank == len(mat):
            break
    return rank


def rank_mod(rows, ncols, p):
    """Rank over GF(p) by plain Gaussian elimination on reduced residues."""
    mat = [[x % p for x in r] for r in rows]
    rank = 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(mat)) if mat[r][col]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = pow(mat[rank][col], p - 2, p)
        support = [c for c in range(col, ncols) if mat[rank][c]]
        for r in range(len(mat)):
            if r != rank and mat[r][col]:
                f = mat[r][col] * inv % p
                for c in support:
                    mat[r][c] = (mat[r][c] - f * mat[rank][c]) % p
        rank += 1
    return rank


# ---------------- Betti numbers from the full quotient Taylor complex ----------------


def taylor_betti_dense(gens_i, gens_j, p=None):
    """Betti numbers of I/J from the unblocked quotient Taylor complex.

    gens_i, gens_j: exponent tuples.  The complex has one basis element per
    subset of the distinct generators that is not made of J's generators
    alone; after tensoring with the field, the boundary keeps the signed
    entries between a subset and a face with the same lcm.  Each boundary
    is ranked as one dense matrix over Q (p None) or GF(p).
    """
    gens_i = [tuple(g) for g in gens_i]
    gens_j = [tuple(g) for g in gens_j]
    verts = sorted(set(gens_i) | set(gens_j))
    in_j = {v for v in verts if v in gens_j}
    n = len(verts)

    def lcm(subset):
        return tuple(max(verts[v][c] for v in subset) for c in range(len(verts[0])))

    basis = {
        k: [s for s in combinations(range(n), k) if any(verts[v] not in in_j for v in s)]
        for k in range(1, n + 1)
    }

    def boundary_rank(k):
        """Rank of the boundary from the k-subsets to the (k-1)-subsets."""
        if k < 2 or k > n:
            return 0
        rows = basis[k - 1]
        cols = basis[k]
        matrix = [[0] * len(cols) for _ in rows]
        for c, s in enumerate(cols):
            for t in range(k):
                face = s[:t] + s[t + 1:]
                if face in rows and lcm(face) == lcm(s):
                    matrix[rows.index(face)][c] = (-1) ** t
        if p is None:
            return rank_fraction(matrix, len(cols))
        return rank_mod(matrix, len(cols), p)

    ranks = {k: boundary_rank(k) for k in range(1, n + 2)}
    betti = [len(basis[k]) - ranks[k] - ranks[k + 1] for k in range(1, n + 1)]
    while betti and betti[-1] == 0:
        betti.pop()
    return tuple(betti)


def lyubeznik_faces_by_definition(verts, in_j):
    """{face: lcm} over every subset of the ordered vertex list that is admissible
    and has a vertex outside in_j.

    Faces are increasing index tuples.  A face (i_1, ..., i_k) is admissible
    when, for every t < k, no vertex of index below i_t divides the lcm of
    verts[i_t], ..., verts[i_k].
    """
    verts = [tuple(v) for v in verts]
    n = len(verts)

    def lcm(face):
        return tuple(max(verts[v][c] for v in face) for c in range(len(verts[0])))

    def divides(a, b):
        return all(x <= y for x, y in zip(a, b))

    faces = {}
    for bits in product((0, 1), repeat=n):
        face = tuple(v for v in range(n) if bits[v])
        if not face or all(verts[v] in in_j for v in face):
            continue
        if all(not divides(verts[q], lcm(face[t:]))
               for t in range(len(face) - 1) for q in range(face[t])):
            faces[face] = lcm(face)
    return faces


# ---------------- Betti numbers from the lcm-lattice ----------------


def lcm_lattice_betti(gens, p=None):
    """Betti numbers of S/I from the lcm-lattice of its minimal generators.

    Gasharov-Peeva-Welker: beta_i(S/I) is the sum, over the lcms m of
    non-empty generator subsets, of dim H~_{i-2}(Delta(1, m)), the reduced
    homology of the order complex of the lcms strictly dividing m; beta_0 = 1
    comes from m = 1.  The order complex has one face per chain, the empty
    chain included, and its boundaries are ranked over Q (p None) or GF(p).
    gens: exponent tuples of a proper monomial ideal.
    """
    def divides(a, b):
        return all(x <= y for x, y in zip(a, b))

    gens = {tuple(g) for g in gens}
    gens = [g for g in gens if not any(h != g and divides(h, g) for h in gens)]
    lattice = lcm_closure(gens)
    betti = {0: 1}
    for m in lattice:
        below = sorted((x for x in lattice if x != m and divides(x, m)), key=sum)
        chains = {0: [()]}  # by length
        for x in below:
            for k in sorted(chains, reverse=True):
                chains.setdefault(k + 1, []).extend(
                    c + (x,) for c in chains[k] if not c or divides(c[-1], x))

        def boundary_rank(k):
            """Rank of the boundary from the chains of length k to those of length k-1."""
            if k not in chains or k - 1 not in chains:
                return 0
            rows = {c: r for r, c in enumerate(chains[k - 1])}
            matrix = [[0] * len(chains[k]) for _ in rows]
            for col, c in enumerate(chains[k]):
                for t in range(k):
                    matrix[rows[c[:t] + c[t + 1:]]][col] = (-1) ** t
            if p is None:
                return rank_fraction(matrix, len(chains[k]))
            return rank_mod(matrix, len(chains[k]), p)

        for k in chains:  # H~ in dimension k - 1, counted in beta_{k+1}
            h = len(chains[k]) - boundary_rank(k) - boundary_rank(k + 1)
            betti[k + 1] = betti.get(k + 1, 0) + h
    out = [betti.get(i, 0) for i in range(max(betti) + 1)]
    while out[-1] == 0:
        out.pop()
    return tuple(out)


# ---------------- census oracle: intersection-closed atom-set families ----------------


def atomistic_families(k):
    """All families of nonempty subsets of {0..k-1} that contain the singletons
    and the full set and are closed under nonempty pairwise intersection."""
    ground = frozenset(range(k))
    base = {frozenset([i]) for i in range(k)} | {ground}
    optional = [
        frozenset(c)
        for size in range(2, k)
        for c in combinations(range(k), size)
    ]
    out = []
    for bits in product([0, 1], repeat=len(optional)):
        fam = set(base)
        fam.update(s for s, b in zip(optional, bits) if b)
        ok = True
        for a in fam:
            for b in fam:
                c = a & b
                if c and c not in fam:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.append(frozenset(fam))
    return out


def family_orbit_key(fam, k):
    """Lexicographically least relabeling of the family under atom permutations."""
    best = None
    for sigma in permutations(range(k)):
        img = sorted(sorted(sigma[i] for i in s) for s in fam)
        key = tuple(tuple(s) for s in img)
        if best is None or key < best:
            best = key
    return best


def family_classes(k):
    """Distinct orbit keys of intersection-closed families on k atoms."""
    return sorted({family_orbit_key(f, k) for f in atomistic_families(k)})


def family_to_lattice(fam):
    """The family ordered by inclusion, as a package Semilattice."""
    from lcmlat import Semilattice

    elems = sorted(fam, key=lambda s: (len(s), sorted(s)))
    upper = [sum(1 << j for j, t in enumerate(elems) if s <= t) for s in elems]
    return Semilattice.from_leq([str(sorted(s)) for s in elems], upper)


# ---------------- orders by definition ----------------


def divisibility_matrix(monos):
    """leq[i][j]: monos[i] divides monos[j], coordinate by coordinate."""
    return [[all(x <= y for x, y in zip(a, b)) for b in monos] for a in monos]


def lcm_closure(monos):
    """Every lcm of a non-empty subset of the exponent tuples: pairwise lcms
    are added until none is new."""
    closed = {tuple(m) for m in monos}
    while True:
        fresh = {tuple(map(max, a, b)) for a in closed for b in closed} - closed
        if not fresh:
            return closed
        closed |= fresh


def realization_conditions(monos, leq):
    """(distinct, lcm_closed, ordered) for exponent tuples labelling the
    elements of an order leq: no tuple repeats, the lcm of every pair of
    tuples is one of them, and monos[i] divides monos[j] exactly when
    leq[i][j]."""
    tuples = [tuple(m) for m in monos]
    members = set(tuples)
    return (len(members) == len(tuples),
            all(tuple(map(max, a, b)) in members for a in tuples for b in tuples),
            divisibility_matrix(tuples) == leq)


def tiling_by_definition(points, ceiling, intervals):
    """(ok, value): ok when the boxes {c : a <= c <= b} of the (a, b) pairs,
    each enumerated cell by cell, are disjoint and their union is exactly the
    point set; value is then the least, over the tops b, of the number of
    coordinates where b meets the ceiling."""
    covered = []
    for a, b in intervals:
        covered += product(*(range(x, y + 1) for x, y in zip(a, b)))
    if any(x > y for a, b in intervals for x, y in zip(a, b)) \
            or sorted(covered) != sorted(set(points)):  # a repeat makes covered longer
        return False, None
    return True, min((sum(x == c for x, c in zip(b, ceiling)) for _, b in intervals),
                     default=None)


def standard_weights(monos):
    """(bottom, weights) of an lcm-closed list of exponent tuples: the gcd of
    them all, and per tuple the gcd of the others it divides, less itself
    (all zeros where it divides no other)."""
    leq = divisibility_matrix(monos)
    weights = []
    for i, m in enumerate(monos):
        above = [x for j, x in enumerate(monos) if j != i and leq[i][j]]
        gcd = [min(col) for col in zip(*above)] if above else list(m)
        weights.append(tuple(g - e for g, e in zip(gcd, m)))
    return tuple(min(col) for col in zip(*monos)), weights


def covers_by_definition(leq):
    """The pairs a < b with no element strictly between them, row by row."""
    n = len(leq)
    return [
        (a, b) for a in range(n) for b in range(n)
        if a != b and leq[a][b]
        and not any(c not in (a, b) and leq[a][c] and leq[c][b] for c in range(n))
    ]


def closure_by_search(n, pairs):
    """leq[i][j]: j is reached from i along the pairs, by a depth-first search from each i."""
    succ = [[] for _ in range(n)]
    for lo, hi in pairs:
        succ[lo].append(hi)
    leq = []
    for i in range(n):
        seen, stack = {i}, [i]
        while stack:
            for j in succ[stack.pop()]:
                if j not in seen:
                    seen.add(j)
                    stack.append(j)
        leq.append([j in seen for j in range(n)])
    return leq


def least_upper_bound(leq, a, b):
    """The unique least common upper bound of a and b, or None."""
    ups = [u for u in range(len(leq)) if leq[a][u] and leq[b][u]]
    least = [u for u in ups if all(leq[u][v] for v in ups)]
    return least[0] if len(least) == 1 else None


def joins_by_definition(leq):
    """Join table as the unique least common upper bound of each pair, or None."""
    n = len(leq)
    table = tuple(tuple(least_upper_bound(leq, a, b) for b in range(n)) for a in range(n))
    return None if any(None in row for row in table) else table


def width_by_search(elements, leq):
    """Size of the largest antichain among `elements`, over all their subsets."""
    return max(
        r for r in range(len(elements) + 1)
        for sub in combinations(elements, r)
        if not any(leq[a][b] for a in sub for b in sub if a != b)
    )


# ---------------- associated primes by grid colon scan ----------------


def associated_primes(gens):
    """All supports A with (I : m) = (x_j : j in A) for some monomial m in [0,g]."""
    g = gens.lcm().exps
    n = len(g)
    rows = [w.exps for w in gens.minimalize().gens]
    found = set()
    for m in product(*(range(e + 1) for e in g)):
        colon = [tuple(max(r[j] - m[j], 0) for j in range(n)) for r in rows]
        # minimalize the colon generators
        keep = []
        for c in sorted(set(colon), key=lambda t: (sum(t), t)):
            if not any(all(k[j] <= c[j] for j in range(n)) for k in keep):
                keep.append(c)
        if any(sum(c) == 0 for c in keep):
            continue  # m lies in the ideal
        if all(sum(c) == 1 and max(c) == 1 for c in keep):
            found.add(frozenset(j for c in keep for j in range(n) if c[j]))
    return found


def max_ass_height(gens):
    primes = associated_primes(gens)
    return max((len(p) for p in primes), default=0)


def isomorphic_by_search(leq_a, leq_b):
    """Some bijection carries the order leq_a onto leq_b; every one is tried."""
    n = len(leq_a)
    if n != len(leq_b):
        return False
    return any(
        all(leq_a[i][j] == leq_b[p[i]][p[j]] for i in range(n) for j in range(n))
        for p in permutations(range(n))
    )


def is_atomistic_by_definition(leq):
    """Each element is the least common upper bound of the minimal elements below it."""
    n = len(leq)
    atoms = [a for a in range(n) if not any(leq[b][a] for b in range(n) if b != a)]
    for x in range(n):
        below = [a for a in atoms if leq[a][x]]
        ups = [u for u in range(n) if all(leq[a][u] for a in below)]
        if not all(leq[x][u] for u in ups):
            return False
    return True

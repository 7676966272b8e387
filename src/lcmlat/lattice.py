"""Finite join-semilattices and the surgery used on them.

A Semilattice stores its order once, as one upper-set bitmask per element
(bit b of upper_masks[a] is set when a <= b), with the map from each mask
back to its element.  The join a v b is the element whose upper set is
upper_masks[a] & upper_masks[b]; Semilattice.from_leq alone checks that
every pair has one.  There is always a unique top; a bottom is NOT assumed
(the virtual bottom that some formulas need is handled by the callers, it is
never stored as an element).  Elements are integer indices; labels are
cosmetic.

Surgery: pseudo-inverses of surjective join-preserving maps, collapse of a
meet-irreducible element onto its unique cover, and factoring an arbitrary
surjection into such collapses.
"""

import itertools
from dataclasses import dataclass
from functools import cache, cached_property
from numbers import Integral
from typing import Optional

from .config import DEFAULT, Config
from .errors import (
    CyclicRelation,
    InternalError,
    InvalidInput,
    LimitExceeded,
    NotASemilattice,
    NotAtomistic,
    NotJoinPreserving,
    NotMeetIrreducible,
    NotSurjective,
)


def _bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _closure(upper):
    """Transitive closure of a reflexive relation given as upper-set bitmasks, in place."""
    for k in range(len(upper)):  # Warshall: k joins the paths through it
        bit, uk = 1 << k, upper[k]
        for i, ui in enumerate(upper):
            if ui & bit:
                upper[i] = ui | uk
    return upper


class _OrderView:
    """lat.leq[a, b] and lat.leq.tolist(), read off the upper-set bitmasks."""

    # matrix-style readers keep working while the masks stay the only order stored
    def __init__(self, upper):
        self._upper = upper

    def __getitem__(self, pair):
        a, b = pair
        return bool(self._upper[a] >> b & 1)

    def tolist(self):
        return [[bool(m >> b & 1) for b in range(len(self._upper))] for m in self._upper]


class Semilattice:
    """Finite join-semilattice on elements 0..n-1 with a unique top."""

    def __init__(self, labels, upper, by_upper, _validated=False):
        if not _validated:
            raise InvalidInput("use the from_* constructors")
        self.n = len(labels)
        self.labels = tuple(str(x) for x in labels)
        self.upper_masks = tuple(upper)
        self._by_upper = by_upper  # upper-set mask -> element

    # ---------------- constructors ----------------

    @classmethod
    def from_relations(cls, labels, pairs, config: Config = DEFAULT):
        """Build from (lower, upper) pairs; closure is taken, joins verified."""
        n = len(labels)
        if n > config.element_cap:
            raise LimitExceeded(f"{n} elements exceeds cap {config.element_cap}")
        upper = [1 << i for i in range(n)]
        for lo, hi in pairs:
            if not (0 <= lo < n and 0 <= hi < n):
                raise InvalidInput(f"relation ({lo},{hi}) out of range")
            upper[lo] |= 1 << hi
        return cls.from_leq(labels, _closure(upper), config)

    @classmethod
    def from_leq(cls, labels, upper, config: Config = DEFAULT):
        """Build from a transitively closed order, one upper-set bitmask per element.

        Bit b of upper[a] is set when a <= b.  This is the one place joins
        are checked: every other constructor builds the masks and calls this
        one.  The order must be reflexive and hold no bit past the last
        element (else InvalidInput) and antisymmetric (else CyclicRelation,
        for the first repeated mask).  Every pair needs a least upper bound,
        an element whose upper set is exactly upper[a] & upper[b]: such an
        element lies in the common upper set and below all of it (else
        NotASemilattice, for the first pair a <= b in row-major order).
        Transitivity is the caller's promise; from_relations takes the
        closure.
        """
        n = len(labels)
        if n == 0:
            raise InvalidInput("a semilattice needs at least one element")
        if n > config.element_cap:
            raise LimitExceeded(f"{n} elements exceeds cap {config.element_cap}")
        upper = tuple(upper)
        if len(upper) != n or any(not m >> a & 1 or m >> n for a, m in enumerate(upper)):
            raise InvalidInput("the order must be a reflexive relation on the labels")
        by_upper = {}
        for i, m in enumerate(upper):
            j = by_upper.setdefault(m, i)
            if j != i:
                raise CyclicRelation(j, i)
        for a, ua in enumerate(upper):
            # joins are symmetric, so the pairs a <= b settle every pair
            found = [ua & ub in by_upper for ub in upper[a:]]
            if not all(found):
                raise NotASemilattice(a, a + found.index(False))
        return cls(labels, upper, by_upper, _validated=True)

    @classmethod
    def from_join_table(cls, labels, join, config: Config = DEFAULT):
        """Build from a join table; the table is checked against the order it induces."""
        n = len(labels)
        join = tuple(map(tuple, join))
        if len(join) != n or any(len(row) != n for row in join):
            raise InvalidInput("join table shape mismatch")
        # a <= b  <=>  a v b = b
        upper = [sum(1 << b for b, ab in enumerate(row) if ab == b) for row in join]
        if any(not m >> a & 1 for a, m in enumerate(upper)):
            raise InvalidInput("join table is not idempotent")
        if upper != _closure(list(upper)):
            raise InvalidInput("join table induces a non-transitive order")
        built = cls.from_leq(labels, upper, config)
        # a skewed table fails here too, since built's joins are symmetric
        wrong = [(a, b) for a in range(n) for b in range(n) if built.join(a, b) != join[a][b]]
        if wrong:
            raise NotASemilattice(*wrong[0])
        return built

    # ---------------- derived structure ----------------

    @cached_property
    def leq(self):
        return _OrderView(self.upper_masks)

    @cached_property
    def lower_masks(self):
        """Per element, the bitmask of the elements below it: the masks transposed."""
        lower = [0] * self.n
        for a, m in enumerate(self.upper_masks):
            for b in _bits(m):
                lower[b] |= 1 << a
        return tuple(lower)

    @cached_property
    def top(self):
        tops = [i for i in range(self.n) if self.upper_masks[i] == 1 << i]
        if len(tops) != 1:
            raise InternalError(f"a semilattice has one top, found {len(tops)}")
        return tops[0]

    @cached_property
    def covers(self):
        return tuple((a, b) for a, above in enumerate(self.upper_covers) for b in above)

    @cached_property
    def atoms(self):
        """Minimal elements, ascending index."""
        return tuple(i for i in range(self.n) if self.lower_masks[i] == 1 << i)

    @cached_property
    def upper_covers(self):
        """Per element, its covers ascending: its strict up-set less theirs."""
        out = []
        for a, m in enumerate(self.upper_masks):
            strict = m & ~(1 << a)
            beyond = 0
            for b in _bits(strict):
                beyond |= self.upper_masks[b] & ~(1 << b)
            out.append(tuple(_bits(strict & ~beyond)))
        return tuple(out)

    @cached_property
    def lower_covers(self):
        out = [[] for _ in range(self.n)]
        for a, b in self.covers:
            out[b].append(a)
        return tuple(tuple(x) for x in out)

    @cached_property
    def meet_irreducibles(self):
        """Elements covered by exactly one element."""
        return tuple(i for i in range(self.n) if len(self.upper_covers[i]) == 1)

    @cached_property
    def atom_sets(self):
        """Per element, bitmask over atom positions of the atoms below it."""
        out = [0] * self.n
        for t, a in enumerate(self.atoms):
            for x in _bits(self.upper_masks[a]):
                out[x] |= 1 << t
        return tuple(out)

    @cached_property
    def is_atomistic(self):
        # x lies above y, the join of the atoms below x, and both have the same
        # atoms below them: so x = y for every x exactly when no atom set repeats
        return len(set(self.atom_sets)) == self.n

    @cached_property
    def heights(self):
        h = [0] * self.n
        for x in sorted(range(self.n), key=lambda i: self.lower_masks[i].bit_count()):
            h[x] = 1 + max((h[c] for c in self.lower_covers[x]), default=-1)
        return tuple(h)

    def join(self, a, b):
        return self._by_upper[self.upper_masks[a] & self.upper_masks[b]]

    def join_of(self, ids):
        common = -1  # every bit set: the unit of &
        for i in ids:
            common &= self.upper_masks[i]
        if common < 0:
            raise InvalidInput("join of an empty set is undefined here")
        return self._by_upper[common]

    def __repr__(self):
        return f"Semilattice(n={self.n})"


def boolean_semilattice(k, config: Config = DEFAULT):
    """All non-empty subsets of {1..k} under union; element i <-> bitmask i+1."""
    if k < 1:
        raise InvalidInput("need at least one atom")
    n = (1 << k) - 1
    if n > config.element_cap:
        raise LimitExceeded(f"2^{k}-1 elements exceeds cap {config.element_cap}")
    return family_semilattice(range(1, n + 1), config)


def family_semilattice(family, config: Config = DEFAULT):
    """A Moore family of atom bitmasks under inclusion; masks ascending, labels "{1,3}"."""
    masks = sorted(family)
    labels = ["{" + ",".join(str(t + 1) for t in _bits(m)) + "}" for m in masks]
    upper = [sum(1 << i for i, b in enumerate(masks) if a & ~b == 0) for a in masks]
    return Semilattice.from_leq(labels, upper, config)


# ---------------- maps ----------------


class JoinMap:
    """A map between semilattices with phi(a v b) = phi(a) v phi(b), checked."""

    def __init__(self, source: Semilattice, target: Semilattice, image):
        self.source, self.target = source, target
        image = tuple(int(x) for x in image)
        if len(image) != source.n:
            raise InvalidInput("image length must match source size")
        if any(not 0 <= x < target.n for x in image):
            raise InvalidInput("image index out of range")
        self.image = image
        # join is symmetric, so the pairs a <= b (as indices) settle every pair
        for a in range(source.n):
            for b in range(a, source.n):
                if image[source.join(a, b)] != target.join(image[a], image[b]):
                    raise NotJoinPreserving(a, b)

    @classmethod
    def identity(cls, lat):
        return cls(lat, lat, range(lat.n))

    @property
    def is_surjective(self):
        return len(set(self.image)) == self.target.n

    @property
    def is_injective(self):
        return len(set(self.image)) == self.source.n

    @property
    def is_bijective(self):
        return self.is_surjective and self.is_injective

    def __call__(self, x):
        return self.image[x]

    def after(self, earlier: "JoinMap") -> "JoinMap":
        """self o earlier; earlier's target must be self's source as an order."""
        if earlier.target.upper_masks != self.source.upper_masks:
            raise InvalidInput("maps do not compose")
        return JoinMap(earlier.source, self.target,
                       [self.image[earlier.image[x]] for x in range(earlier.source.n)])

    def __repr__(self):
        return f"JoinMap({self.source.n}->{self.target.n})"


@dataclass(frozen=True)
class MonotoneMap:
    source: Semilattice
    target: Semilattice
    image: tuple

    def __call__(self, x):
        return self.image[x]


def free_cover_map(lat: Semilattice, config: Config = DEFAULT) -> JoinMap:
    """The canonical surjection from the boolean semilattice on lat's atoms."""
    if not lat.is_atomistic:
        raise NotAtomistic("free cover exists only for atomistic semilattices")
    atoms = lat.atoms
    cube = boolean_semilattice(len(atoms), config)
    image = [lat.join_of([atoms[t] for t in _bits(m + 1)]) for m in range(cube.n)]
    phi = JoinMap(cube, lat, image)
    if not phi.is_surjective:
        raise InternalError("the free cover map is not surjective")
    return phi


def pseudo_inverse(phi: JoinMap) -> MonotoneMap:
    """Largest-preimage section of a surjective join-preserving map.

    The result psi satisfies phi(psi(b)) = b, is monotone, and
    phi(a) <= b  <=>  a <= psi(b).
    """
    if not phi.is_surjective:
        raise NotSurjective("pseudo-inverse needs a surjective map")
    src, tgt = phi.source, phi.target
    image = []
    for t in range(tgt.n):
        pre = [s for s in range(src.n) if phi.image[s] == t]
        image.append(src.join_of(pre))
    psi = tuple(image)
    if not all(phi.image[psi[t]] == t for t in range(tgt.n)):
        raise InternalError("the pseudo-inverse is not a section")
    if not all(
        src.leq[psi[t], psi[u]]
        for t in range(tgt.n)
        for u in range(tgt.n)
        if tgt.leq[t, u]
    ):
        raise InternalError("the pseudo-inverse is not monotone")
    if not all(
        bool(tgt.leq[phi.image[s], t]) == bool(src.leq[s, psi[t]])
        for s in range(src.n)
        for t in range(tgt.n)
    ):
        raise InternalError("the pseudo-inverse is not adjoint to the map")
    return MonotoneMap(tgt, src, psi)


def collapse(lat: Semilattice, a: int, config: Config = DEFAULT):
    """Identify meet-irreducible a with its unique cover; returns (quotient, projection)."""
    if not 0 <= a < lat.n:
        raise InvalidInput(f"element {a} out of range")
    if len(lat.upper_covers[a]) != 1:
        raise NotMeetIrreducible(a)
    ap = lat.upper_covers[a][0]
    keep = [x for x in range(lat.n) if x != a]
    # the quotient's order is the order restricted to every element but a:
    # bit a leaves each remaining mask and the bits above it move down one
    below = (1 << a) - 1
    upper = [(m & below) | (m >> (a + 1) << a) for x, m in enumerate(lat.upper_masks) if x != a]
    quot = Semilattice.from_leq([lat.labels[x] for x in keep], upper, config)
    new_index = {x: i for i, x in enumerate(keep)}
    new_index[a] = new_index[ap]
    pi = JoinMap(lat, quot, [new_index[x] for x in range(lat.n)])
    return quot, pi


@dataclass(frozen=True)
class FactorStep:
    """One collapse through which a non-injective surjection factors."""

    element: int
    projection: JoinMap
    residual: JoinMap


def factor_map(phi: JoinMap) -> Optional[FactorStep]:
    """Factor a join-preserving map through one collapse, or None if injective."""
    if phi.is_injective:
        return None
    src = phi.source
    chosen = -1
    for a in src.meet_irreducibles:
        ap = src.upper_covers[a][0]
        if phi.image[a] == phi.image[ap]:
            chosen = a
            break
    if chosen < 0:
        raise InternalError("a non-injective join map must glue some cover pair")
    quot, pi = collapse(src, chosen)
    residual_image = [0] * quot.n
    for x in range(src.n):
        residual_image[pi.image[x]] = phi.image[x]
    residual = JoinMap(quot, phi.target, residual_image)
    if not all(residual.image[pi.image[x]] == phi.image[x] for x in range(src.n)):
        raise InternalError("the map does not factor through the collapse")
    return FactorStep(chosen, pi, residual)


def factor_chain(phi: JoinMap):
    """Iterate factor_map to a bijective residual; returns (steps, bijection)."""
    steps = []
    cur = phi
    while True:
        st = factor_map(cur)
        if st is None:
            return steps, cur
        steps.append(st)
        cur = st.residual


# ---------------- canonical forms ----------------


# atom count up to which a canonical form tries every atom permutation
ATOM_PERM_CAP = 7


def canonical_form(lat: Semilattice, config: Config = DEFAULT) -> bytes:
    """Isomorphism-invariant byte string; equal strings iff isomorphic lattices."""
    k = len(lat.atoms)
    if lat.is_atomistic and k <= ATOM_PERM_CAP:
        return _canon_family(lat.atom_sets, k)
    return _canon_general(lat, config)


def _canon_family(family, k):
    """Canonical form of a family of atom bitmasks: its least relabeling, sorted."""
    if k > ATOM_PERM_CAP:
        raise LimitExceeded(f"{k} atoms exceed the {ATOM_PERM_CAP} of the atom-permutation canonizer")
    best = min(tuple(sorted(map(remap.__getitem__, family))) for remap in _relabelings(k))
    body = ",".join(format(m, "x") for m in best)
    return f"A{k};{body}".encode()


@cache
def _relabelings(k):
    """Per atom permutation, the table sending each atom bitmask to its image."""
    tables = []
    for perm in itertools.permutations(range(k)):
        remap = [0] * (1 << k)
        for m in range(1, 1 << k):
            low = m & -m
            remap[m] = remap[m ^ low] | 1 << perm[low.bit_length() - 1]
        tables.append(tuple(remap))
    return tuple(tables)


def _refined_colors(lat):
    colors = [
        (lat.lower_masks[x].bit_count(), lat.upper_masks[x].bit_count())
        for x in range(lat.n)
    ]
    while True:
        nxt = [
            (
                colors[x],
                tuple(sorted(colors[c] for c in lat.lower_covers[x])),
                tuple(sorted(colors[c] for c in lat.upper_covers[x])),
            )
            for x in range(lat.n)
        ]
        if sorted(_groups(nxt).values()) == sorted(_groups(colors).values()):
            return colors
        colors = nxt


def _groups(keys):
    """Per key, the ascending positions that carry it."""
    groups = {}
    for i, c in enumerate(keys):
        groups.setdefault(c, []).append(i)
    return groups


def _canon_general(lat, config):
    groups = _groups(_refined_colors(lat))
    classes = [groups[c] for c in sorted(groups)]
    total = 1
    for cl in classes:
        for t in range(2, len(cl) + 1):
            total *= t
        if total > config.canon_perm_cap:
            raise LimitExceeded(
                f"canonization needs more than {config.canon_perm_cap} permutations"
            )
    best = None
    for parts in itertools.product(*[itertools.permutations(cl) for cl in classes]):
        order = [x for part in parts for x in part]
        bits = 0
        at = 0
        for x in order:
            ux = lat.upper_masks[x]
            for y in order:
                if ux >> y & 1:
                    bits |= 1 << at
                at += 1
        if best is None or bits < best:
            best = bits
    return f"P{lat.n};{format(best, 'x')}".encode()


def is_isomorphic(a: Semilattice, b: Semilattice, config: Config = DEFAULT) -> bool:
    if a.n != b.n or len(a.atoms) != len(b.atoms):
        return False
    if a.is_atomistic != b.is_atomistic:
        return False
    if sorted(a.heights) != sorted(b.heights):
        return False
    return canonical_form(a, config) == canonical_form(b, config)


# ---------------- serialization ----------------


def lattice_to_json(lat: Semilattice) -> dict:
    return {"elements": list(lat.labels), "covers": [list(c) for c in lat.covers]}


def json_ints(values, what):
    """A JSON array of integers as a list of ints; InvalidInput for booleans,
    floats, strings or other shapes.  Numpy integers count as integers."""
    if not isinstance(values, (list, tuple)) or not all(
        isinstance(v, Integral) and not isinstance(v, bool) for v in values
    ):
        raise InvalidInput(f"{what} must be a list of integers, got {values!r}")
    return [int(v) for v in values]


def json_array(value, what):
    """A JSON array as given; InvalidInput for a string, an object or a number,
    which would otherwise be read as its characters or keys."""
    if not isinstance(value, (list, tuple)):
        raise InvalidInput(f"{what} must be a list, got {value!r}")
    return value


def lattice_from_json(doc, config: Config = DEFAULT) -> Semilattice:
    try:
        labels = json_array(doc["elements"], "elements")
        covers = [(a, b) for a, b in (json_ints(c, "a cover")
                                      for c in json_array(doc["covers"], "covers"))]
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidInput(f"bad lattice document: {exc}")
    return Semilattice.from_relations(labels, covers, config)


def lattice_to_dot(lat: Semilattice) -> str:
    lines = ["digraph semilattice {", "  rankdir=BT;", "  node [shape=box];"]
    for i, lab in enumerate(lat.labels):
        esc = lab.replace('"', '\\"')
        lines.append(f'  n{i} [label="{esc}"];')
    for a, b in lat.covers:
        lines.append(f"  n{a} -> n{b};")
    byh = _groups(lat.heights)
    for h in sorted(byh):
        row = " ".join(f"n{i};" for i in byh[h])
        lines.append(f"  {{ rank=same; {row} }}")
    lines.append("}")
    return "\n".join(lines) + "\n"

"""Monomials, generator sets, quotient pairs, and their lattice side.

The lcm-semilattice of a generator set G is the set of lcms of non-empty
subsets of G ordered by divisibility.  Its standard weight map divides out,
at each element, the gcd of everything strictly above; multiplying the
weights of the non-upper set recovers the element (inversion).  The
transforms at the bottom of this file (polarize, radical, colon, restrict,
inflate, deform) are the ideal-level moves whose effect on Stanley depth and
projective dimension the rest of the library measures.

A Monomial is an immutable tuple of non-negative exponents: it compares equal
to, and hashes like, its plain exponent tuple, so either serves as a set
member or dict key for the other.
"""

import re
from dataclasses import dataclass
from functools import reduce
from itertools import accumulate
from operator import add, le, or_, sub
from typing import Optional

from .config import DEFAULT, Config
from .errors import (
    EmptyModule,
    InternalError,
    InvalidDeformation,
    InvalidInput,
    LimitExceeded,
    NotSquarefree,
)
from .lattice import (Semilattice, _bits, json_array, json_ints, lattice_from_json,
                      lattice_to_json)


class Monomial(tuple):
    """Exponent vector with divisibility semantics; an immutable tuple of ints >= 0."""

    __slots__ = ()

    def __new__(cls, exps):
        try:
            self = super().__new__(cls, map(int, exps))
        except (TypeError, ValueError):
            raise InvalidInput(f"exponent vector expected, got {exps!r}")
        if min(self, default=0) < 0:
            raise InvalidInput(f"negative exponent in {tuple(self)}")
        return self

    @property
    def exps(self):
        """The exponents as a plain tuple."""
        return tuple(self)

    @classmethod
    def one(cls, nvars):
        return cls((0,) * nvars)

    def divides(self, other):
        return all(map(le, self, other))

    # the arithmetic below keeps exponents valid, so it skips the checks of __new__

    def lcm(self, other):
        return tuple.__new__(Monomial, map(max, self, other))

    def gcd(self, other):
        return tuple.__new__(Monomial, map(min, self, other))

    def mul(self, other):
        return tuple.__new__(Monomial, map(add, self, other))

    def div(self, other):
        if not other.divides(self):
            raise InvalidInput("inexact monomial division")
        return tuple.__new__(Monomial, map(sub, self, other))

    def degree(self):
        return sum(self)

    def is_unit(self):
        return not any(self)

    def is_squarefree(self):
        return all(e <= 1 for e in self)

    def radical(self):
        return tuple.__new__(Monomial, (min(e, 1) for e in self))

    def sort_key(self):
        return (self.degree(), self)

    def __repr__(self):
        return f"Monomial{tuple(self)}"


def strictly_divides(m: Monomial, u: Monomial) -> bool:
    """m divides u/x_j for every variable x_j dividing u."""
    return all((e == 0 if uj == 0 else e < uj) for e, uj in zip(m, u))


def render_monomial(m: Monomial, variables) -> str:
    parts = []
    for v, e in zip(variables, m):
        if e == 1:
            parts.append(v)
        elif e > 1:
            parts.append(f"{v}^{e}")
    return "*".join(parts) if parts else "1"


_TOKEN = re.compile(r"^(.*?)(?:\^(\d+))?$")


def parse_monomial(text, variables) -> Monomial:
    text = text.strip()
    exps = [0] * len(variables)
    if text in ("1", ""):
        return Monomial(exps)
    index = {v: j for j, v in enumerate(variables)}
    for tok in text.split("*"):
        m = _TOKEN.match(tok.strip())
        name, power = m.group(1), m.group(2)
        if name not in index:
            raise InvalidInput(f"unknown variable {name!r}")
        try:
            exps[index[name]] += int(power) if power else 1
        except ValueError:  # more digits than int() converts
            raise InvalidInput(f"the exponent of {name!r} is too long") from None
    return Monomial(exps)


class GeneratorSet:
    """An ordered list of monomial generators over a named ambient."""

    def __init__(self, variables, gens):
        self.variables = tuple(str(v) for v in variables)
        if len(set(self.variables)) != len(self.variables):
            raise InvalidInput("duplicate variable names")
        gens = tuple(g if isinstance(g, Monomial) else Monomial(g) for g in gens)
        for g in gens:
            if len(g) != len(self.variables):
                raise InvalidInput("generator arity does not match the ambient")
        self.gens = gens

    @property
    def nvars(self):
        return len(self.variables)

    def contains(self, m: Monomial) -> bool:
        """Ideal membership."""
        return any(g.divides(m) for g in self.gens)

    def minimalize(self) -> "GeneratorSet":
        """Antichain of minimal generators, stable-sorted by (degree, exponents)."""
        ordered = sorted(set(self.gens), key=Monomial.sort_key)
        kept = []
        for g in ordered:
            if not any(h.divides(g) for h in kept):
                kept.append(g)
        return GeneratorSet(self.variables, kept)

    def is_minimal(self) -> bool:
        if len(set(self.gens)) != len(self.gens):
            return False
        return not any(
            a.divides(b) for a in self.gens for b in self.gens if a is not b
        )

    def same_ideal(self, other: "GeneratorSet") -> bool:
        return all(other.contains(g) for g in self.gens) and all(
            self.contains(g) for g in other.gens
        )

    def lcm(self) -> Monomial:
        return reduce(Monomial.lcm, self.gens, Monomial.one(self.nvars))

    def is_lattice_element(self, m) -> bool:
        """m is in the lcm-semilattice: it is the lcm of the generators dividing it."""
        if len(m) != self.nvars:
            raise InvalidInput("the monomial lives in the wrong ambient")
        below = [g for g in self.gens if g.divides(m)]
        return bool(below) and reduce(Monomial.lcm, below) == tuple(m)

    def gcd_of_gens(self) -> Monomial:
        if not self.gens:
            raise InvalidInput("gcd of no generators")
        return reduce(Monomial.gcd, self.gens)

    def is_squarefree_raw(self) -> bool:
        return all(g.is_squarefree() for g in self.gens)

    def render(self):
        return [render_monomial(g, self.variables) for g in self.gens]

    def __len__(self):
        return len(self.gens)

    def __repr__(self):
        return f"GeneratorSet({', '.join(self.render()) if self.gens else '0'})"


class QuotientPair:
    """Ideals J inside I given by generator lists over a common ambient."""

    def __init__(self, numerator: GeneratorSet, denominator: GeneratorSet):
        if numerator.variables != denominator.variables:
            raise InvalidInput("quotient pair must share one ambient")
        for g in denominator.gens:
            if not numerator.contains(g):
                raise InvalidInput(
                    f"generator {render_monomial(g, numerator.variables)} of J "
                    "is not inside I"
                )
        self.i = numerator
        self.j = denominator

    @property
    def variables(self):
        return self.i.variables

    def is_proper(self) -> bool:
        """True when I/J is a non-zero module."""
        return not all(self.j.contains(g) for g in self.i.gens)

    def require_proper(self):
        if not self.is_proper():
            raise EmptyModule("the two ideals coincide; the quotient is zero")

    def minimalize(self) -> "QuotientPair":
        return QuotientPair(self.i.minimalize(), self.j.minimalize())

    def __repr__(self):
        return f"QuotientPair(I={self.i!r}, J={self.j!r})"


def ideal_pair(gens: GeneratorSet) -> QuotientPair:
    """The module I itself, as the pair (I, 0)."""
    return QuotientPair(gens, GeneratorSet(gens.variables, []))


def quotient_ring_pair(gens: GeneratorSet) -> QuotientPair:
    """The module S/I, as the pair ((1), I)."""
    unit = GeneratorSet(gens.variables, [Monomial.one(gens.nvars)])
    return QuotientPair(unit, gens)


def union_generators(pair: QuotientPair) -> GeneratorSet:
    """Generators of I then the new ones of J, exact duplicates dropped."""
    gens = list(pair.i.gens)
    seen = set(gens)
    for g in pair.j.gens:
        if g not in seen:
            gens.append(g)
            seen.add(g)
    return GeneratorSet(pair.variables, gens)


# ---------------- the lcm-semilattice ----------------


def _thresholds(points):
    """Per coordinate, (at_most, at_least): dicts from each value that occurs
    there to the bitmasks of the points whose value is at most, at least, it."""
    out = []
    for coord in zip(*points):
        at = {}  # per value that occurs, the points taking it
        for i, v in enumerate(coord):
            at[v] = at.get(v, 0) | 1 << i
        values = sorted(at)
        out.append((dict(zip(values, accumulate(map(at.get, values), or_))),
                    dict(zip(values[::-1], accumulate(map(at.get, values[::-1]), or_)))))
    return out


def _interval_masks(points, thresholds=None):
    """up[i], down[i]: bitmasks of the points componentwise above and below
    point i, read off _thresholds(points) (or the thresholds given)."""
    n = len(points)
    up = [(1 << n) - 1] * n
    down = list(up)
    if thresholds is None:
        thresholds = _thresholds(points)
    for coord, (at_most, at_least) in zip(zip(*points), thresholds):
        for i, v in enumerate(coord):
            up[i] &= at_least[v]
            down[i] &= at_most[v]
    return up, down


@dataclass
class LcmLattice:
    lattice: Semilattice
    monomials: tuple


def lcm_semilattice(gens: GeneratorSet, config: Config = DEFAULT) -> LcmLattice:
    """All lcms of non-empty subsets of the generators, ordered by divisibility."""
    if not gens.gens:
        raise InvalidInput("the lcm-semilattice needs at least one generator")
    base = list(dict.fromkeys(gens.gens))
    seen = set(base)
    frontier = list(base)
    while frontier:
        fresh = []
        for m in frontier:
            for g in base:
                l = m.lcm(g)
                if l not in seen:
                    seen.add(l)
                    if len(seen) > config.element_cap:
                        raise LimitExceeded(
                            f"lcm closure exceeds cap {config.element_cap}"
                        )
                    fresh.append(l)
        frontier = fresh
    monos = sorted(seen, key=Monomial.sort_key)
    upper, _ = _interval_masks(monos)  # divisibility is the componentwise order
    labels = [render_monomial(m, gens.variables) for m in monos]
    return LcmLattice(Semilattice.from_leq(labels, upper, config), tuple(monos))


# ---------------- weights ----------------


@dataclass
class Weighting:
    """Monomial weights on a semilattice plus one weight for the virtual bottom."""

    lattice: Semilattice
    variables: tuple
    bottom: Monomial
    weights: tuple
    monomials: Optional[tuple] = None  # element labels, when they are known


def weight_map(gens: GeneratorSet, config: Config = DEFAULT) -> Weighting:
    """The standard weights of a generator set's lcm-semilattice."""
    lcmlat = lcm_semilattice(gens, config)
    lat, monos = lcmlat.lattice, lcmlat.monomials
    weights = _standard_weights(monos, lat.upper_masks)
    return Weighting(lat, gens.variables, gens.gcd_of_gens(), weights, monos)


def _standard_weights(monos, upper):
    """The standard weight of each monomial: the gcd of the monomials strictly
    above it (upper[a], the mask of those above a or equal), divided by it; a
    monomial with none above carries 1."""
    weights = []
    for a, ma in enumerate(monos):
        above = [monos[b] for b in _bits(upper[a] & ~(1 << a))]
        ceiling = map(min, zip(*above)) if above else ma
        weights.append(tuple.__new__(Monomial, map(sub, ceiling, ma)))
    return tuple(weights)


def _realized(w: Weighting, elements):
    """For each element x, the product of the weights of the bottom and of
    every element not above x: per variable, the bottom's exponent plus each
    weight exponent v times the count of the elements carrying v there that
    are not above x, read off one mask per (variable, v)."""
    columns = []
    for column in zip(*w.weights):
        at = {}  # per nonzero exponent, the elements carrying it
        for q, v in enumerate(column):
            if v:
                at[v] = at.get(v, 0) | 1 << q
        columns.append(at.items())
    upper = w.lattice.upper_masks
    return [tuple.__new__(Monomial, [e + sum(v * (m & ~upper[x]).bit_count() for v, m in col)
                                     for e, col in zip(w.bottom, columns)])
            for x in elements]


def reconstruct(w: Weighting, idx: int) -> Monomial:
    """Product of the weights of the bottom and of every element not above idx."""
    return _realized(w, [idx])[0]


def squarefree_check(gens: GeneratorSet):
    """(flag, witness): weights all squarefree and pairwise coprime <=> squarefree ideal."""
    w = weight_map(gens)
    names = ["bottom"] + list(w.lattice.labels)
    monos = [w.bottom] + list(w.weights)
    verdict, witness = True, None
    for i, m in enumerate(monos):
        if not m.is_squarefree():
            verdict, witness = False, f"weight at {names[i]} is not squarefree"
            break
    if verdict:
        for i in range(len(monos)):
            for k in range(i + 1, len(monos)):
                if not m_coprime(monos[i], monos[k]):
                    verdict = False
                    witness = f"weights at {names[i]} and {names[k]} share a variable"
                    break
            if not verdict:
                break
    if verdict != gens.is_squarefree_raw():
        raise InternalError("the weight criterion disagrees with the exponents")
    return verdict, witness


def m_coprime(a: Monomial, b: Monomial) -> bool:
    return not any(map(min, a, b))


# ---------------- transforms ----------------


def _polar_names(variables, dmax):
    names = [f"{v}{t + 1}" for v, d in zip(variables, dmax) for t in range(d)]
    if len(set(names)) != len(names):
        names = [f"{v}_{t + 1}" for v, d in zip(variables, dmax) for t in range(d)]
    if len(set(names)) != len(names):
        raise InternalError("polarized variable names collide")
    return names


def _polarize_one(m: Monomial, dmax) -> Monomial:
    exps = []
    for e, d in zip(m, dmax):
        exps.extend([1] * e + [0] * (d - e))
    return Monomial(exps)


def polarize(obj):
    """Split exponents into distinct squarefree variables; lattice shape is kept."""
    if not isinstance(obj, QuotientPair):
        return polarize(ideal_pair(obj)).i
    pair = obj.minimalize()
    dmax = union_generators(pair).lcm()
    names = _polar_names(pair.variables, dmax)
    return QuotientPair(
        GeneratorSet(names, [_polarize_one(g, dmax) for g in pair.i.gens]),
        GeneratorSet(names, [_polarize_one(g, dmax) for g in pair.j.gens]),
    )


def radical(obj):
    if isinstance(obj, QuotientPair):
        return QuotientPair(radical(obj.i), radical(obj.j))
    return GeneratorSet(obj.variables, [g.radical() for g in obj.gens]).minimalize()


def colon(obj, by: Monomial):
    """(ideal : by); generators lcm(g, by)/by, re-minimalized."""
    if isinstance(obj, QuotientPair):
        return QuotientPair(colon(obj.i, by), colon(obj.j, by))
    if len(by) != obj.nvars:
        raise InvalidInput("colon divisor lives in the wrong ambient")
    return GeneratorSet(
        obj.variables, [g.lcm(by).div(by) for g in obj.gens]
    ).minimalize()


def restrict_variable(obj, var_index: int):
    """Set one variable's exponent to zero everywhere and drop it from the ambient."""
    if isinstance(obj, QuotientPair):
        return QuotientPair(
            restrict_variable(obj.i, var_index), restrict_variable(obj.j, var_index)
        )
    if not 0 <= var_index < obj.nvars:
        raise InvalidInput(f"no variable with index {var_index}")
    names = [v for j, v in enumerate(obj.variables) if j != var_index]
    gens = [
        Monomial(e for j, e in enumerate(g) if j != var_index)
        for g in obj.gens
    ]
    return GeneratorSet(names, gens).minimalize()


def _fresh_name(variables, base="Y"):
    if base not in variables:
        return base
    t = 2
    while f"{base}{t}" in variables:
        t += 1
    return f"{base}{t}"


def inflate(obj, m: Monomial):
    """Multiply every generator not dividing m by one fresh variable.

    Requires squarefree generators; m must be an element of the joint
    lcm-semilattice.  Stanley projective dimension is preserved.
    """
    if not isinstance(obj, QuotientPair):
        return inflate(ideal_pair(obj), m).i
    union = union_generators(obj)
    if not union.is_squarefree_raw():
        raise NotSquarefree("inflate is defined for squarefree generators")
    if not union.is_lattice_element(m):
        raise InvalidInput("inflate target is not an lcm of generators")
    fresh = _fresh_name(obj.variables)
    names = list(obj.variables) + [fresh]

    def lift(g: Monomial) -> Monomial:
        return Monomial(g + ((0,) if g.divides(m) else (1,)))

    return QuotientPair(
        GeneratorSet(names, [lift(g) for g in obj.i.gens]),
        GeneratorSet(names, [lift(g) for g in obj.j.gens]),
    )


def _checked_shifts(gens: GeneratorSet, shifts):
    """Shifts must keep strict exponent comparisons and fix zero exponents."""
    if len(shifts) != len(gens.gens):
        raise InvalidInput("one shift vector per generator is required")
    eps = []
    for i, row in enumerate(shifts):
        try:
            row = json_ints(list(row), f"shift {i}")
        except TypeError:
            raise InvalidInput(f"shift {i} is not a list of integers") from None
        if len(row) != gens.nvars:
            raise InvalidInput(f"shift {i} has the wrong arity")
        if any(e < 0 for e in row):
            raise InvalidDeformation(i, i, 0, "negative shift")
        eps.append(row)
    A = gens.gens
    for i in range(len(A)):
        for j in range(gens.nvars):
            if A[i][j] == 0 and eps[i][j] != 0:
                raise InvalidDeformation(i, i, j, "shift moves a zero exponent")
        for k in range(len(A)):
            if i == k:
                continue
            for j in range(gens.nvars):
                if A[i][j] > A[k][j] and A[i][j] + eps[i][j] <= A[k][j] + eps[k][j]:
                    raise InvalidDeformation(
                        i, k, j, "strict exponent comparison not preserved"
                    )
    return eps


def deform(obj, shifts):
    """Add one shift row to each generator; a pair I/J takes one joint shift
    of its combined generators (union_generators order) and must keep J inside I."""
    if not isinstance(obj, QuotientPair):
        eps = _checked_shifts(obj, shifts)
        return GeneratorSet(obj.variables, [g.mul(row) for g, row in zip(obj.gens, eps)])
    union = union_generators(obj)
    moved = dict(zip(union.gens, deform(union, shifts).gens))
    newi = GeneratorSet(obj.variables, [moved[g] for g in obj.i.gens])
    newj = GeneratorSet(obj.variables, [moved[g] for g in obj.j.gens])
    for g in newj.gens:
        if not newi.contains(g):
            raise InvalidDeformation(
                0, 0, 0, "deformation does not keep J inside I"
            )
    return QuotientPair(newi, newj)


def validate_deformation(obj, shifts):
    """(True, None) when `deform(obj, shifts)` is valid, (False, witness) otherwise."""
    try:
        deform(obj, shifts)
    except InvalidDeformation as exc:
        return False, str(exc)
    return True, None


def is_generic(gens: GeneratorSet) -> bool:
    """No two generators share a positive degree, unless a third strictly divides their lcm."""
    gs = gens.gens
    for i in range(len(gs)):
        for k in range(i + 1, len(gs)):
            tied = any(
                a == b and a > 0 for a, b in zip(gs[i], gs[k])
            )
            if not tied:
                continue
            u = gs[i].lcm(gs[k])
            if not any(
                strictly_divides(gs[t], u)
                for t in range(len(gs))
                if t != i and t != k
            ):
                return False
    return True


# ---------------- serialization ----------------


def gens_to_json(gens: GeneratorSet) -> dict:
    return {
        "variables": list(gens.variables),
        "generators": [list(g) for g in gens.gens],
    }


def gens_from_json(doc) -> GeneratorSet:
    try:
        gens = [json_ints(g, "a generator") for g in json_array(doc["generators"], "generators")]
        return GeneratorSet(json_array(doc["variables"], "variables"), gens)
    except (KeyError, TypeError) as exc:
        raise InvalidInput(f"bad ideal document: {exc}")


def pair_to_json(pair: QuotientPair) -> dict:
    return {"I": gens_to_json(pair.i), "J": gens_to_json(pair.j)}


def pair_from_json(doc) -> QuotientPair:
    try:
        return QuotientPair(gens_from_json(doc["I"]), gens_from_json(doc["J"]))
    except (KeyError, TypeError) as exc:
        raise InvalidInput(f"bad quotient document: {exc}")


def weighting_to_json(w: Weighting) -> dict:
    return {
        "variables": list(w.variables),
        "lattice": lattice_to_json(w.lattice),
        "bottom": list(w.bottom),
        "weights": [list(m) for m in w.weights],
    }


def weighting_from_json(doc, config: Config = DEFAULT) -> Weighting:
    try:
        lat = lattice_from_json(doc["lattice"], config)
        variables = [str(v) for v in json_array(doc["variables"], "variables")]
        bottom = Monomial(json_ints(doc["bottom"], "the bottom weight"))
        weights = tuple(Monomial(json_ints(row, "a weight"))
                        for row in json_array(doc["weights"], "weights"))
    except (KeyError, TypeError) as exc:
        raise InvalidInput(f"bad weighting document: {exc}")
    if len(weights) != lat.n:
        raise InvalidInput("one weight per lattice element is required")
    if any(len(m) != len(variables) for m in list(weights) + [bottom]):
        raise InvalidInput("weight arity does not match the ambient")
    return Weighting(lat, tuple(variables), bottom, weights)

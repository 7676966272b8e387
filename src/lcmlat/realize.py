"""Which weighted semilattices come from monomial ideals, and how to build one.

A weighting is realizable exactly when incomparable elements carry coprime
weights, every meet-irreducible carries a non-unit, and the top carries 1.
The realization multiplies, for each element M, the weights of the bottom and
of all elements not above M; the resulting generator set has the original
lattice as its lcm-semilattice and the original weights as its standard
weight map.  Both halves of that round trip are checked here.
"""

from dataclasses import dataclass

from .config import DEFAULT, Config
from .errors import InternalError, InvalidInput, InvalidWeighting, NotAntichain
from .lattice import Semilattice
from .monomials import (
    GeneratorSet,
    Monomial,
    Weighting,
    m_coprime,
    reconstruct,
    weight_map,
)


def validate_weighting(lat: Semilattice, w: Weighting):
    """(ok, witness) for the two realizability conditions."""
    if w.lattice.n != lat.n:
        raise InvalidInput("weighting does not match the lattice")
    if len(w.weights) != lat.n:
        raise InvalidInput("one weight per element is required")
    if not w.weights[lat.top].is_unit():
        return False, f"top element {lat.labels[lat.top]} must carry weight 1"
    for m in lat.meet_irreducibles:
        if w.weights[m].is_unit():
            return False, (
                f"meet-irreducible {lat.labels[m]} carries the unit weight"
            )
    for a in range(lat.n):
        comparable = lat.upper_masks[a] | lat.lower_masks[a]
        for b in range(a + 1, lat.n):
            if comparable >> b & 1:
                continue
            if not m_coprime(w.weights[a], w.weights[b]):
                return False, (
                    f"incomparable {lat.labels[a]} and {lat.labels[b]} "
                    "have non-coprime weights"
                )
    return True, None


@dataclass
class Realization:
    gens: GeneratorSet  # the full family, one generator per lattice element
    labeling: tuple  # element index -> its monomial


def realize(lat: Semilattice, w: Weighting, config: Config = DEFAULT) -> Realization:
    """Invert a weighting into monomials and check the round trip."""
    ok, witness = validate_weighting(lat, w)
    if not ok:
        raise InvalidWeighting(witness)
    labeling = [reconstruct(w, m) for m in range(lat.n)]
    gens = GeneratorSet(w.variables, labeling)
    _check_roundtrip(lat, w, gens, labeling, config)
    return Realization(gens, tuple(labeling))


def _check_roundtrip(lat, w, gens, labeling, config):
    back = weight_map(gens, config)
    index = {m: i for i, m in enumerate(back.monomials)}
    if len(set(labeling)) != lat.n or set(index) != set(labeling):
        raise InternalError("realized monomials collide or miss the lcm-lattice")
    for a, ma in enumerate(labeling):
        if sum(1 << b for b, mb in enumerate(labeling) if ma.divides(mb)) != lat.upper_masks[a]:
            raise InternalError("divisibility of the realization differs from the order")
    if back.bottom != w.bottom or any(
        back.weights[index[labeling[m]]] != w.weights[m] for m in range(lat.n)
    ):
        raise InternalError("weights do not survive the round trip")


def canonical_weighting(lat: Semilattice) -> Weighting:
    """One fresh variable per meet-irreducible element, unit everywhere else."""
    mi = lat.meet_irreducibles
    variables = tuple(f"w{m}" for m in mi)
    pos = {m: t for t, m in enumerate(mi)}
    weights = []
    for x in range(lat.n):
        e = [0] * len(mi)
        if x in pos:
            e[pos[x]] = 1
        weights.append(Monomial(e))
    return Weighting(lat, variables, Monomial.one(len(mi)), tuple(weights))


def canonical_realization(lat: Semilattice, config: Config = DEFAULT) -> Realization:
    """Squarefree realization over one variable per meet-irreducible."""
    real = realize(lat, canonical_weighting(lat), config)
    if not all(m.is_squarefree() for m in real.labeling):
        raise InternalError("the canonical realization is not squarefree")
    return real


def _check_antichain(lat, elements):
    for i, a in enumerate(elements):
        for b in elements[i + 1:]:
            if lat.leq[a, b] or lat.leq[b, a]:
                raise NotAntichain(a, b)


def equalize_degrees(lat: Semilattice, antichain, start: Weighting = None,
                     config: Config = DEFAULT) -> Weighting:
    """Stretch weights with fresh variables until the antichain realizes in one degree.

    Each round multiplies the current maximum-degree elements of the antichain
    by one fresh variable each; those gain r-1 while the others gain r, so the
    degree spread drops by exactly one per round.
    """
    antichain = [int(a) for a in antichain]
    if not antichain:
        raise InvalidInput("empty antichain")
    if len(set(antichain)) != len(antichain):
        raise InvalidInput("repeated antichain element")
    _check_antichain(lat, antichain)
    w = start if start is not None else canonical_weighting(lat)
    ok, witness = validate_weighting(lat, w)
    if not ok:
        raise InvalidWeighting(witness)

    variables = list(w.variables)
    weights = [list(m) for m in w.weights]
    bottom = list(w.bottom)

    def degree_of(m):
        d = sum(bottom)
        for q in range(lat.n):
            if not lat.leq[m, q]:
                d += sum(weights[q])
        return d

    rounds = 0
    spread0 = None
    while True:
        degs = [degree_of(a) for a in antichain]
        spread = max(degs) - min(degs)
        if spread0 is None:
            spread0 = spread
        if spread == 0:
            break
        rounds += 1
        if rounds > spread0:
            raise InternalError("the degree spread did not shrink every round")
        tops = [a for a, d in zip(antichain, degs) if d == max(degs)]
        for t, a in enumerate(tops):
            variables.append(f"d{rounds}_{t}")
            for row in weights:
                row.append(0)
            bottom.append(0)
            weights[a][-1] += 1

    out = Weighting(
        lat,
        tuple(variables),
        Monomial(bottom),
        tuple(Monomial(row) for row in weights),
    )
    ok, witness = validate_weighting(lat, out)
    if not ok:
        raise InternalError(f"equalized weighting is not realizable: {witness}")
    return out


def single_degree_pair(pair, config: Config = DEFAULT):
    """Replace I/J by a Stanley-equivalent quotient whose I is generated in one degree."""
    from .monomials import QuotientPair, union_generators

    slim = pair.minimalize()
    union = union_generators(slim)
    base = weight_map(union, config)
    index = {m: i for i, m in enumerate(base.monomials)}
    targets = [index.get(g) for g in slim.i.gens]
    if any(t is None for t in targets):
        raise InvalidInput("minimal generators must appear in the joint lattice")
    w = equalize_degrees(base.lattice, targets, start=base, config=config)
    real = realize(base.lattice, w, config)
    new_i = GeneratorSet(real.gens.variables, [real.labeling[t] for t in targets])
    new_j = GeneratorSet(
        real.gens.variables,
        [real.labeling[index[g]] for g in slim.j.gens],
    )
    if len({g.degree() for g in new_i.gens}) != 1:
        raise InternalError("the numerator did not end up in a single degree")
    return QuotientPair(new_i, new_j)

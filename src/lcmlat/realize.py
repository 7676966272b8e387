"""Which weighted semilattices come from monomial ideals, and how to build one.

A weighting is realizable exactly when incomparable elements carry coprime
weights, every meet-irreducible carries a non-unit, and the top carries 1.
The realization multiplies, for each element M, the weights of the bottom and
of all elements not above M; the resulting generator set has the original
lattice as its lcm-semilattice and the original weights as its standard
weight map.  Each exponent is a masked count: per variable and exponent
value v, the mask of the elements whose weight carries v there, less the
up-set of M, counts v times.  Both halves of that round trip are checked
here, on the generators themselves and element for element: they are
distinct, they divide each other exactly as the order says, they are closed
under lcm, and their bottom and standard weights are the given ones.  That
is all a rebuilt lcm-semilattice could show, so none is built.  A passed
round trip shows the weighting realizable, so realize tests the conditions
only when it fails, to name the broken one.

Lcm closure is tested per variable, on the at-most masks the order test has
already built, not pair by pair.  Once divisibility matches the order, each
exponent map x -> e_j(x) is monotone, and the family is lcm-closed exactly
when each of these maps sends joins to max.  A monotone map does so exactly
when each set {x : e_j(x) <= v} is closed under joins, and a join-closed
down-set of a finite semilattice is the down-set of its own join: it is
principal.  So the family is lcm-closed exactly when every at-most mask of
every variable is the lower mask of some element.
"""

from .config import DEFAULT, Config
from .errors import InternalError, InvalidInput, InvalidWeighting, NotAntichain
from .lattice import Semilattice
from .monomials import (
    GeneratorSet,
    Monomial,
    QuotientPair,
    Weighting,
    _interval_masks,
    _realized,
    _standard_weights,
    _thresholds,
    m_coprime,
    union_generators,
    weight_map,
)


def _check_count(w):
    if len(w.weights) != w.lattice.n:
        raise InvalidInput("one weight per element is required")


def validate_weighting(w: Weighting):
    """(ok, witness) for the two realizability conditions on w's lattice."""
    _check_count(w)
    lat = w.lattice
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


def realize(w: Weighting) -> GeneratorSet:
    """Invert a weighting into monomials, generator i for element i, and
    check the round trip.

    When any step fails, the realizability conditions are checked, and their
    verdict comes first: InvalidWeighting with validate_weighting's witness,
    or else the failure itself.
    """
    _check_count(w)
    try:
        gens = GeneratorSet(w.variables, _realized(w, range(w.lattice.n)))
        _check_roundtrip(w, gens)
    except (InvalidInput, InternalError):
        ok, witness = validate_weighting(w)
        if not ok:
            raise InvalidWeighting(witness) from None
        raise
    return gens


def _check_roundtrip(w, gens):
    """Raise InternalError unless gens, element for element, is w's lattice
    with w's weights: the four conditions of the module docstring."""
    lat = w.lattice
    labeling = gens.gens
    if len(set(labeling)) != lat.n:
        raise InternalError("realized monomials collide or miss the lcm-lattice")
    thresholds = _thresholds(labeling)
    up, _ = _interval_masks(labeling, thresholds)  # divisibility is the componentwise order
    if tuple(up) != lat.upper_masks:
        raise InternalError("divisibility of the realization differs from the order")
    # with the order right, lcm-closed means every at-most mask is principal
    lowers = set(lat.lower_masks)
    if not all(m in lowers for at_most, _ in thresholds for m in at_most.values()):
        raise InternalError("realized monomials collide or miss the lcm-lattice")
    gcd = tuple(map(min, zip(*labeling)))
    if gcd != w.bottom or _standard_weights(labeling, up) != tuple(w.weights):
        raise InternalError("weights do not survive the round trip")


def _chains_weighting(lat: Semilattice, chains, variables) -> Weighting:
    """Variable t is the weight of every member of chains[t]; every other
    element and the bottom carry the unit weight."""
    var = {m: t for t, chain in enumerate(chains) for m in chain}
    weights = tuple(
        Monomial([int(var.get(x) == t) for t in range(len(chains))]) for x in range(lat.n)
    )
    return Weighting(lat, tuple(variables), Monomial.one(len(chains)), weights)


def canonical_weighting(lat: Semilattice) -> Weighting:
    """One fresh variable per meet-irreducible element, unit everywhere else."""
    mi = lat.meet_irreducibles
    return _chains_weighting(lat, [[m] for m in mi], [f"w{m}" for m in mi])


def _chain_partition(lat: Semilattice, elements):
    """Fewest chains covering `elements` (Dilworth): a maximum matching of
    each element to one strictly above it, its successor in its chain, grown
    by breadth-first augmenting paths with roots and candidates in the
    given order."""
    succ, pred = {}, {}
    for root in elements:
        via, queue, free = {}, [root], None  # via: right end -> the left end reaching it
        for x in queue:  # the queue grows while it is walked
            for b in elements:
                if b != x and b not in via and lat.upper_masks[x] >> b & 1:
                    via[b] = x
                    if b not in pred:
                        free = b
                        break
                    queue.append(pred[b])
            if free is not None:
                break
        while free is not None:  # flip the path; the root had no successor
            x = via[free]
            old = succ.get(x)
            succ[x], pred[free] = free, x
            free = old
    chains = []
    for m in elements:
        if m not in pred:
            chain = [m]
            while chain[-1] in succ:
                chain.append(succ[chain[-1]])
            chains.append(chain)
    return chains


def chain_weighting(lat: Semilattice) -> Weighting:
    """One variable per chain of a minimum chain partition of the
    meet-irreducibles, which is the weight of every member of that chain;
    every other element and the bottom carry the unit weight.

    Only incomparable elements need coprime weights, and members of one chain
    are comparable, so this is realizable.  Its realization polarizes to the
    canonical one: an element's exponent on a chain counts the members not
    above it, always an initial segment of the chain.
    """
    chains = _chain_partition(lat, lat.meet_irreducibles)
    return _chains_weighting(lat, chains, [f"c{t}" for t in range(len(chains))])


def canonical_realization(lat: Semilattice) -> GeneratorSet:
    """Squarefree realization over one variable per meet-irreducible."""
    real = realize(canonical_weighting(lat))
    if not real.is_squarefree_raw():
        raise InternalError("the canonical realization is not squarefree")
    return real


def _check_antichain(lat, elements):
    for a in elements:
        if not 0 <= a < lat.n:
            raise InvalidInput(f"antichain element {a} outside 0..{lat.n - 1}")
    if len(set(elements)) != len(elements):
        raise InvalidInput("repeated antichain element")
    for i, a in enumerate(elements):
        for b in elements[i + 1:]:
            if lat.leq[a, b] or lat.leq[b, a]:
                raise NotAntichain(a, b)


def equalize_degrees(w: Weighting, antichain) -> Weighting:
    """Stretch w with fresh variables until the antichain realizes in one degree.

    Each round multiplies the weights of the current maximum-degree elements
    of the antichain by one fresh variable each.  An element gains one degree
    per top that is not above it, so with r tops the tops gain r-1 and the
    others r: the degree spread drops by exactly one per round.
    """
    lat = w.lattice
    antichain = [int(a) for a in antichain]
    if not antichain:
        raise InvalidInput("empty antichain")
    _check_antichain(lat, antichain)
    ok, witness = validate_weighting(w)
    if not ok:
        raise InvalidWeighting(witness)

    degs = [m.degree() for m in _realized(w, antichain)]
    rounds = []  # per round, its tops: one fresh variable each
    while max(degs) != min(degs):
        tops = [a for a, d in zip(antichain, degs) if d == max(degs)]
        rounds.append(tops)
        degs = [d + len(tops) - (a in tops) for a, d in zip(antichain, degs)]
    fresh = [(f"d{r}_{t}", a) for r, tops in enumerate(rounds, 1) for t, a in enumerate(tops)]
    # still realizable: a fresh variable sits in one antichain weight only

    out = Weighting(
        lat,
        tuple(w.variables) + tuple(name for name, _ in fresh),
        Monomial(w.bottom + (0,) * len(fresh)),
        tuple(
            Monomial(m + tuple(int(a == x) for _, a in fresh))
            for x, m in enumerate(w.weights)
        ),
    )
    if len({m.degree() for m in _realized(out, antichain)}) != 1:
        raise InternalError("the equalized antichain spans several degrees")
    return out


def single_degree_pair(pair: QuotientPair, config: Config = DEFAULT) -> QuotientPair:
    """Replace I/J by a Stanley-equivalent quotient whose I is generated in one degree."""
    slim = pair.minimalize()
    union = union_generators(slim)
    base = weight_map(union, config)
    index = {m: i for i, m in enumerate(base.monomials)}
    targets = [index.get(g) for g in slim.i.gens]
    if any(t is None for t in targets):
        raise InvalidInput("minimal generators must appear in the joint lattice")
    real = realize(equalize_degrees(base, targets))
    new_i = GeneratorSet(real.variables, [real.gens[t] for t in targets])
    new_j = GeneratorSet(real.variables, [real.gens[index[g]] for g in slim.j.gens])
    if len({g.degree() for g in new_i.gens}) != 1:
        raise InternalError("the numerator did not end up in a single degree")
    return QuotientPair(new_i, new_j)

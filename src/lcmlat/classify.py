"""Census of atomistic join-semilattices on a fixed atom count.

An atomistic semilattice on k atoms is a Moore family of atom bitmasks: it
holds every singleton and the full set and is closed under non-empty
intersection.  Collapsing a meet-irreducible above the atoms drops one member
and keeps such a family, so the breadth-first walk of these drops from the
boolean family visits every isomorphism class; duplicates are cut by the
family's canonical form.  The walk drops the meet-irreducibles that each
class's lattice reports, so it never tests irreducibility on the family.
Each class is measured on a monomial realization: projective dimension and
Stanley projective dimension of both the ideal and its quotient ring.  These
depend on the lcm-lattice alone, so the narrowest realization, one variable
per chain of meet-irreducibles, serves.  The Stanley depths of I and S/I
are decided on one box [0, g] of that realization, whose order masks are
cached by g: the 5-atom census meets 528 shapes of box over 7443 classes."""

import random
from dataclasses import asdict, dataclass, replace

from .config import DEFAULT, Config
from .errors import InternalError, LimitExceeded, NotAtomistic
from .lattice import Semilattice, _canon_family, boolean_semilattice, family_semilattice
from .monomials import GeneratorSet, Monomial, Weighting, ideal_pair, quotient_ring_pair
from .realize import chain_weighting, realize
from .resolution import taylor_betti
from .sdepth import sdepth_values


def enumerate_atomistic(k: int, config: Config = DEFAULT):
    """Yield (canonical form, representative) for every class with k atoms."""
    if k < 1 or k > config.atom_cap:
        raise LimitExceeded(f"atom count {k} outside 1..{config.atom_cap}")
    if k >= 5 and not config.long_run:
        raise LimitExceeded("a census this large must be requested explicitly")
    root = boolean_semilattice(k, config)
    key = _canon_family(root.atom_sets, k)
    seen = {key}
    # a class's family lists its members in element order, so element x is family[x]
    frontier = [(root.atom_sets, root.meet_irreducibles)]
    yield key, root
    while frontier:
        nxt = []
        for family, meet_irreducibles in frontier:
            for x in meet_irreducibles:
                if family[x] & (family[x] - 1) == 0:
                    continue  # atoms stay
                child = family[:x] + family[x + 1:]
                ckey = _canon_family(child, k)
                if ckey not in seen:
                    seen.add(ckey)
                    lat = family_semilattice(child, config)
                    nxt.append((child, lat.meet_irreducibles))
                    yield ckey, lat
        frontier = nxt


@dataclass(frozen=True)
class LatticeInvariants:
    pdim_ideal: int
    pdim_quotient: int
    spdim_ideal: int
    spdim_quotient: int
    nvars: int
    field: str

    def to_json(self):
        return asdict(self)


def _invariants_of_gens(gens: GeneratorSet, config: Config):
    slim = gens.minimalize()
    if len(slim.gens) == 1 and slim.gens[0].degree() == 0:
        # the one-element lattice realizes as the unit ideal, whose lattice
        # coincides with a principal ideal's; measure the principal avatar
        slim = GeneratorSet(("x",), [Monomial((1,))])
    bi = taylor_betti(ideal_pair(slim), config)
    bq = taylor_betti(quotient_ring_pair(slim), config)
    if bq.pdim != bi.pdim + 1:
        raise InternalError("quotient ring must sit one step above its ideal")
    si, sq = sdepth_values(slim, config)
    return LatticeInvariants(
        bi.pdim, bq.pdim, slim.nvars - si, slim.nvars - sq, slim.nvars, bq.field
    )


def random_weighting(lat: Semilattice, rng: random.Random) -> Weighting:
    """A valid weighting with one private variable per element, random degrees."""
    mi = set(lat.meet_irreducibles)
    variables = tuple(f"r{x}" for x in range(lat.n))
    weights = []
    for x in range(lat.n):
        e = [0] * lat.n
        if x == lat.top:
            pass
        elif x in mi:
            e[x] = rng.randint(1, 2)
        else:
            e[x] = rng.randint(0, 2)
        weights.append(Monomial(e))
    return Weighting(lat, variables, Monomial.one(lat.n), tuple(weights))


def lattice_invariants(lat: Semilattice, config: Config = DEFAULT) -> LatticeInvariants:
    """Invariants of the realizations of an atomistic semilattice.

    They are measured on the chain realization; nvars is the canonical
    variable count, one per meet-irreducible (the one-element lattice is
    measured as a principal ideal in one variable).
    """
    if not lat.is_atomistic:
        raise NotAtomistic("invariants are defined through atomistic realizations")
    inv = _invariants_of_gens(realize(chain_weighting(lat)), config)
    return replace(inv, nvars=max(len(lat.meet_irreducibles), 1))


@dataclass(frozen=True)
class ConjectureReport:
    invariants: LatticeInvariants
    ideal_bound: bool  # spdim I <= pdim I
    quotient_bound: bool  # spdim S/I <= pdim S/I
    gap_bound: bool  # spdim I <= spdim S/I - 1

    @property
    def holds(self):
        return self.ideal_bound and self.quotient_bound and self.gap_bound


def check_conjectures(lat: Semilattice, config: Config = DEFAULT) -> ConjectureReport:
    inv = lattice_invariants(lat, config)
    return ConjectureReport(
        inv,
        inv.spdim_ideal <= inv.pdim_ideal,
        inv.spdim_quotient <= inv.pdim_quotient,
        inv.spdim_ideal <= inv.spdim_quotient - 1,
    )


def census(k: int, config: Config = DEFAULT, check=True):
    """Yield one record per isomorphism class; conjecture checks are included by default."""
    for key, lat in enumerate_atomistic(k, config):
        record = {
            "atoms": k,
            "elements": lat.n,
            "meet_irreducibles": len(lat.meet_irreducibles),
            "canonical": key.decode(),
        }
        if check:
            rep = check_conjectures(lat, config)
            record["invariants"] = rep.invariants.to_json()
            record["conjectures"] = [
                rep.ideal_bound, rep.quotient_bound, rep.gap_bound
            ]
            record["counterexample"] = not rep.holds
        yield record, lat

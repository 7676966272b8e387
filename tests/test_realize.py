import random

import pytest

from lcmlat import (
    GeneratorSet,
    InternalError,
    InvalidInput,
    InvalidWeighting,
    Monomial,
    NotAntichain,
    Semilattice,
    Weighting,
    boolean_semilattice,
    canonical_realization,
    canonical_weighting,
    chain_weighting,
    collapse,
    enumerate_atomistic,
    equalize_degrees,
    ideal_pair,
    is_isomorphic,
    lcm_semilattice,
    parse_monomial,
    quotient_ring_pair,
    realize,
    render_monomial,
    single_degree_pair,
    validate_weighting,
    weight_map,
)
from lcmlat.realize import _check_roundtrip

from oracles import (divisibility_matrix, lcm_closure, realization_conditions, standard_weights,
                     width_by_search)


def test_validate_weighting_conditions():
    b2 = boolean_semilattice(2)
    good = canonical_weighting(b2)
    ok, _ = validate_weighting(good)
    assert ok

    # (1a): incomparable elements with non-coprime weights
    x = Monomial((1,))
    clash = Weighting(b2, ("x",), Monomial.one(1), (x, x, Monomial.one(1)))
    ok, witness = validate_weighting(clash)
    assert not ok and "coprime" in witness

    # (1b): unit weight at a meet-irreducible
    unit = Weighting(
        b2, ("x",), Monomial.one(1), (Monomial.one(1), x, Monomial.one(1))
    )
    ok, witness = validate_weighting(unit)
    assert not ok

    # top weight must be the unit
    bad_top = Weighting(b2, ("x", "y"), Monomial.one(2),
                        (Monomial((1, 0)), Monomial((0, 1)), Monomial((1, 1))))
    ok, witness = validate_weighting(bad_top)
    assert not ok


def test_realize_b2_canonical():
    b2 = boolean_semilattice(2)
    real = canonical_realization(b2)
    rendered = sorted(real.render())
    # one variable per meet-irreducible (here: both atoms), top = product
    assert len(rendered) == 3
    mins = real.minimalize()
    assert len(mins.gens) == 2
    assert all(m.is_squarefree() for m in real.gens)


def test_realize_rejects_invalid():
    b2 = boolean_semilattice(2)
    x = Monomial((1,))
    clash = Weighting(b2, ("x",), Monomial.one(1), (x, x, Monomial.one(1)))
    with pytest.raises(InvalidWeighting):
        realize(clash)


def test_realize_chain_with_heavy_bottom():
    # chain a < b, weight x at a, bottom x: gives (x^2, x) family, ideal (x)
    chain = Semilattice.from_relations(["a", "b"], [(0, 1)])
    w = Weighting(chain, ("x",), Monomial((1,)), (Monomial((1,)), Monomial.one(1)))
    real = realize(w)
    assert sorted(real.render()) == ["x", "x^2"]


def test_realize_square_pattern():
    # collapsing the (k-1)-atom coatom of B(k) yields the lcm semilattice of
    # (x1^2, ..., x_{k-1}^2, x1...x_{k-1}); its own weight map inverts back
    for k in (3, 4):
        bk = boolean_semilattice(k)
        target_mask = (1 << (k - 1)) - 1
        a = next(x for x in range(bk.n) if bk.atom_sets[x] == target_mask)
        quot, _ = collapse(bk, a)
        assert quot.is_atomistic

        names = tuple(f"x{i+1}" for i in range(k - 1))
        gens = [parse_monomial(f"x{i+1}^2", names) for i in range(k - 1)]
        gens.append(Monomial([1] * (k - 1)))
        pattern = GeneratorSet(names, gens)
        lam = lcm_semilattice(pattern)
        assert is_isomorphic(lam.lattice, quot)

        w = weight_map(pattern)
        real = realize(w)
        assert sorted(real.minimalize().render()) == sorted(pattern.render())


def test_canonical_realization_roundtrip_on_collapses(rng):
    for _ in range(25):
        k = rng.randint(2, 4)
        lat = boolean_semilattice(k)
        for _ in range(rng.randint(0, 3)):
            mi = [a for a in lat.meet_irreducibles if a not in lat.atoms]
            if not mi:
                break
            lat, _ = collapse(lat, rng.choice(mi))
        real = canonical_realization(lat)
        back = lcm_semilattice(real)
        assert is_isomorphic(back.lattice, lat)


def test_realize_with_random_coprime_weights(rng):
    from lcmlat import random_weighting

    for _ in range(25):
        k = rng.randint(2, 4)
        lat = boolean_semilattice(k)
        for _ in range(rng.randint(0, 2)):
            mi = [a for a in lat.meet_irreducibles if a not in lat.atoms]
            if not mi:
                break
            lat, _ = collapse(lat, rng.choice(mi))
        w = random_weighting(lat, rng)
        real = realize(w)  # the roundtrip assertions run inside
        assert len(real) == lat.n


def _b2_forgery(gens=((0, 1), (1, 0), (1, 1)), bottom=(0, 0), weights=((1, 0), (0, 1), (0, 0))):
    """B2's canonical weighting and its realization y, x, xy, parts replaced."""
    w = Weighting(boolean_semilattice(2), ("x", "y"), Monomial(bottom),
                  tuple(map(Monomial, weights)))
    return w, GeneratorSet(w.variables, gens)


def test_roundtrip_check_accepts_the_realization():
    w, gens = _b2_forgery()
    assert realize(w).gens == gens.gens
    _check_roundtrip(w, gens)


@pytest.mark.parametrize("forgery, message", [
    (_b2_forgery(gens=((0, 1), (0, 1), (1, 1))), "collide"),
    # raising the top's y leaves the atoms' lcm xy out
    (_b2_forgery(gens=((0, 1), (1, 0), (1, 2))), "miss the lcm-lattice"),
    # closed under lcm, but element 1 is the top by divisibility
    (_b2_forgery(gens=((0, 1), (1, 1), (1, 0))), "divisibility"),
    (_b2_forgery(weights=((2, 0), (0, 1), (0, 0))), "weights"),
    (_b2_forgery(bottom=(1, 0)), "weights"),
], ids=["one monomial twice", "not lcm-closed", "order differs", "wrong weight",
        "wrong bottom"])
def test_roundtrip_check_rejects_forged_realizations(forgery, message):
    with pytest.raises(InternalError, match=message):
        _check_roundtrip(*forgery)


def test_roundtrip_check_names_the_order_before_lcm_closure():
    # y, x, x^2 on B2: x divides the top x^2 while y does not, and the atoms'
    # lcm xy is missing; the order is tested first, so it is the one named
    w, gens = _b2_forgery(gens=((0, 1), (1, 0), (2, 0)))
    with pytest.raises(InternalError, match="divisibility"):
        _check_roundtrip(w, gens)


def _nudged(gens, rng):
    """The exponent tuples with one or two exponents moved by one, none below 0."""
    rows = [list(m) for m in gens]
    for _ in range(rng.randint(1, 2)):
        row = rng.choice(rows)
        j = rng.randrange(len(row))
        row[j] += 1 if row[j] == 0 or rng.random() < 0.5 else -1
    return [tuple(r) for r in rows]


def test_roundtrip_check_matches_pairwise_lcm_closure(rng):
    # the round trip tests lcm closure one variable at a time, on at-most
    # masks; the oracle tests the lcm of every pair.  The forged weighting
    # carries the nudged tuples' own bottom and standard weights, so only the
    # order conditions can fail, and the message names the first that does
    from lcmlat import random_weighting

    seen = set()
    for lat in _small_lattices():
        leq = lat.leq.tolist()
        for w in (chain_weighting(lat), canonical_weighting(lat), random_weighting(lat, rng)):
            if not w.variables:
                continue
            real = realize(w).gens
            for _ in range(8):
                gens = _nudged(real, rng)
                distinct, closed, ordered = realization_conditions(gens, leq)
                bottom, weights = standard_weights(gens)
                forged = Weighting(lat, w.variables, Monomial(bottom),
                                   tuple(map(Monomial, weights)))
                want = ("accepted" if distinct and closed and ordered else
                        "collide" if not distinct else
                        "divisibility" if not ordered else "miss the lcm-lattice")
                try:
                    _check_roundtrip(forged, GeneratorSet(w.variables, gens))
                    got = "accepted"
                except InternalError as err:
                    got = str(err)
                assert want in got, (lat.n, gens)
                seen.add((want, closed))
    # every verdict occurs, and the order is named also where closure fails too
    assert seen >= {("accepted", True), ("divisibility", True), ("divisibility", False),
                    ("miss the lcm-lattice", False)}


def _small_lattices():
    """Every atomistic class on at most 4 atoms, a chain and two non-atomistic lattices."""
    for k in range(1, 5):
        for _, lat in enumerate_atomistic(k):
            yield lat
    yield Semilattice.from_relations(["a", "b", "c", "d"], [(0, 1), (1, 2), (2, 3)])
    yield Semilattice.from_relations(
        ["a", "b", "c", "d", "e", "f"], [(0, 2), (1, 2), (1, 3), (2, 4), (3, 4), (4, 5), (0, 5)]
    )
    # meet-irreducibles a < c, a < d, b < c: matching a to c first leaves b
    # alone, so only an augmenting path reaches two chains
    yield Semilattice.from_relations(
        ["a", "b", "c", "d", "e", "top"], [(0, 4), (4, 2), (4, 3), (1, 2), (2, 5), (3, 5)]
    )


def test_chain_weighting_is_valid_with_width_many_variables():
    for lat in _small_lattices():
        w = chain_weighting(lat)
        ok, witness = validate_weighting(w)
        assert ok, witness
        assert len(w.variables) == width_by_search(lat.meet_irreducibles, lat.leq.tolist())
        assert len(realize(w)) == lat.n


def test_realization_is_its_own_lcm_lattice_by_oracle(rng):
    from lcmlat import random_weighting

    for lat in _small_lattices():
        for w in (chain_weighting(lat), canonical_weighting(lat), random_weighting(lat, rng)):
            gens = [tuple(m) for m in realize(w).gens]
            assert lcm_closure(gens) == set(gens) and len(set(gens)) == lat.n
            assert divisibility_matrix(gens) == lat.leq.tolist()
            assert standard_weights(gens) == (w.bottom, list(w.weights))


def test_realized_monomials_are_products_of_weights_not_above(rng):
    # generator x is the bottom weight times the weight of every element not
    # above x, multiplied out here; a random bottom and exponents up to 2
    from lcmlat import random_weighting, reconstruct

    for lat in _small_lattices():
        randomized = random_weighting(lat, rng)
        bottom = Monomial([rng.randint(0, 2) for _ in randomized.variables])
        for w in (chain_weighting(lat), canonical_weighting(lat),
                  Weighting(lat, randomized.variables, bottom, randomized.weights)):
            want = []
            for x in range(lat.n):
                exps = list(w.bottom)
                for q in range(lat.n):
                    if not lat.leq[x, q]:
                        exps = [e + f for e, f in zip(exps, w.weights[q])]
                want.append(tuple(exps))
            assert [tuple(m) for m in realize(w).gens] == want
            assert [tuple(reconstruct(w, x)) for x in range(lat.n)] == want


def _perturbed(w, rng):
    """w with one weight changed: a variable raised, the unit, or an lcm with another."""
    weights = list(w.weights)
    x = rng.randrange(len(weights))
    kind = rng.randrange(3) if w.variables else 1
    if kind == 0:
        t = rng.randrange(len(w.variables))
        weights[x] = Monomial([e + (j == t) for j, e in enumerate(weights[x])])
    elif kind == 1:
        weights[x] = Monomial.one(len(w.variables))
    else:
        weights[x] = weights[x].lcm(weights[rng.randrange(len(weights))])
    return Weighting(w.lattice, w.variables, w.bottom, tuple(weights))


def test_realize_rejects_exactly_the_invalid_weightings(rng):
    # realize checks the conditions only when the round trip fails; it must
    # still refuse exactly what validate_weighting refuses, with its witness
    from lcmlat import random_weighting

    witnesses = set()
    valid = 0
    for lat in _small_lattices():
        for w in (chain_weighting(lat), random_weighting(lat, rng), random_weighting(lat, rng)):
            for v in (w, _perturbed(w, rng), _perturbed(_perturbed(w, rng), rng)):
                ok, witness = validate_weighting(v)
                if ok:
                    valid += 1
                    assert len(realize(v)) == lat.n
                    continue
                with pytest.raises(InvalidWeighting) as info:
                    realize(v)
                assert str(info.value) == witness
                witnesses.add(witness.split()[0])
    assert valid > 100 and witnesses == {"top", "meet-irreducible", "incomparable"}


def _polarized_columns(labeling):
    """Per variable of exponent up to d, its d polarized columns: x^e -> x_1 ... x_e."""
    cols = []
    for col in zip(*labeling):
        cols += [tuple(int(e >= t) for e in col) for t in range(1, max(col, default=0) + 1)]
    return sorted(cols)


def test_chain_realization_polarizes_to_canonical():
    # equal up to a renaming of variables: the same multiset of columns
    for lat in _small_lattices():
        chain = realize(chain_weighting(lat)).gens
        canon = canonical_realization(lat).gens
        assert _polarized_columns(chain) == sorted(zip(*canon))


def test_equalize_degrees_two_chain_example():
    # L_{x, yz}: degrees 1 and 2; one round lifts x by a fresh variable
    g = GeneratorSet(("x", "y", "z"), [parse_monomial("x", ("x", "y", "z")),
                                       parse_monomial("y*z", ("x", "y", "z"))])
    lam = lcm_semilattice(g)
    w = weight_map(g)
    anti = [lam.monomials.index(g.gens[0]), lam.monomials.index(g.gens[1])]
    w2 = equalize_degrees(w, anti)
    real = realize(w2)
    degs = {real.gens[a].degree() for a in anti}
    assert len(degs) == 1 and degs.pop() == 2


def test_equalize_rejects_comparable():
    b2 = boolean_semilattice(2)
    with pytest.raises(NotAntichain):
        equalize_degrees(canonical_weighting(b2), [0, 2])


@pytest.mark.parametrize("antichain", [[0, 3], [-1, 0], [1, 1], []])
def test_equalize_rejects_bad_indices(antichain):
    b2 = boolean_semilattice(2)
    with pytest.raises(InvalidInput):
        equalize_degrees(canonical_weighting(b2), antichain)


def test_equalize_on_boolean_atoms():
    b3 = boolean_semilattice(3)
    w = equalize_degrees(canonical_weighting(b3), list(b3.atoms))
    real = realize(w)
    assert len({real.gens[a].degree() for a in b3.atoms}) == 1


def test_single_degree_pair(rng):
    from conftest import random_ideal

    for _ in range(10):
        g = random_ideal(rng, max_vars=3, max_gens=4, max_exp=3).minimalize()
        pair = ideal_pair(g)
        out = single_degree_pair(pair)
        mins = out.i.minimalize()
        assert len({m.degree() for m in mins.gens}) == 1
        # lattice shape survives
        assert is_isomorphic(
            lcm_semilattice(mins).lattice, lcm_semilattice(g).lattice
        )


def test_single_degree_quotient_keeps_containment():
    g = GeneratorSet(("x", "y"), [parse_monomial("x", ("x", "y")),
                                  parse_monomial("y", ("x", "y"))])
    pair = quotient_ring_pair(g)
    out = single_degree_pair(pair)
    for m in out.j.gens:
        assert out.i.contains(m)

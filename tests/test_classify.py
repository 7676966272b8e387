import random
from dataclasses import replace

import pytest

from lcmlat import (
    LimitExceeded,
    NotAtomistic,
    Semilattice,
    boolean_semilattice,
    canonical_form,
    canonical_realization,
    census,
    check_conjectures,
    collapse,
    enumerate_atomistic,
    lattice_invariants,
    random_weighting,
    realize,
    validate_weighting,
)
from lcmlat import classify
from lcmlat.config import DEFAULT, Config

from oracles import family_classes, family_to_lattice


FROZEN_CLASS_COUNTS = {1: 1, 2: 1, 3: 4, 4: 50}


def test_class_counts():
    for k, expect in FROZEN_CLASS_COUNTS.items():
        assert sum(1 for _ in enumerate_atomistic(k)) == expect


def test_census_matches_set_family_oracle():
    # the collapse walk and the brute-force family enumeration must agree
    # class for class, not only in count
    for k in range(1, 5):
        ours = {key for key, _ in enumerate_atomistic(k)}
        theirs = {
            canonical_form(family_to_lattice([frozenset(s) for s in rep]))
            for rep in family_classes(k)
        }
        assert ours == theirs



def _collapse_walk(k):
    """The census by collapsing meet-irreducibles of whole Semilattices."""
    root = boolean_semilattice(k)
    seen = {canonical_form(root)}
    frontier = [root]
    yield canonical_form(root), root
    while frontier:
        nxt = []
        for lat in frontier:
            for a in lat.meet_irreducibles:
                if a in lat.atoms:
                    continue
                quot, _ = collapse(lat, a)
                assert quot.is_atomistic and len(quot.atoms) == k
                key = canonical_form(quot)
                if key not in seen:
                    seen.add(key)
                    nxt.append(quot)
                    yield key, quot
        frontier = nxt


def test_family_walk_matches_collapse_walk():
    # same keys in the same order, and the same labels, order and joins
    for k in range(1, 5):
        ours = list(enumerate_atomistic(k))
        ref = list(_collapse_walk(k))
        assert [key for key, _ in ours] == [key for key, _ in ref]
        for (_, lat), (_, want) in zip(ours, ref):
            assert lat.labels == want.labels
            assert lat.leq.tolist() == want.leq.tolist()
            assert all(lat.join(a, b) == want.join(a, b)
                       for a in range(lat.n) for b in range(lat.n))


def test_walk_children_are_collapses():
    # the yielded keys are closed under collapsing a non-atom meet-irreducible
    # of a yielded lattice, and each key but the root arises so from an earlier one
    for k in range(1, 5):
        walk = list(enumerate_atomistic(k))
        keys = {key for key, _ in walk}
        reached = {walk[0][0]}
        for key, lat in walk:
            assert key in reached
            for x in lat.meet_irreducibles:
                if x not in lat.atoms:
                    child = canonical_form(collapse(lat, x)[0])
                    assert child in keys
                    reached.add(child)


def test_atom_cap():
    with pytest.raises(LimitExceeded):
        list(enumerate_atomistic(0))
    with pytest.raises(LimitExceeded):
        list(enumerate_atomistic(99))
    with pytest.raises(LimitExceeded):  # beyond the atom-permutation canonizer
        list(enumerate_atomistic(8, Config(atom_cap=8, long_run=True)))


def test_large_census_needs_long_run_flag():
    gen = enumerate_atomistic(5)
    with pytest.raises(LimitExceeded):
        next(gen)


def test_random_weighting_is_valid(rng):
    for k in (2, 3, 4):
        for _, lat in enumerate_atomistic(k):
            w = random_weighting(lat, rng)
            ok, witness = validate_weighting(w)
            assert ok, witness


def test_invariants_realization_independent(rng):
    # a random second realization differs in its variable count only
    for _, lat in enumerate_atomistic(3):
        inv = lattice_invariants(lat)
        other = classify._invariants_of_gens(realize(random_weighting(lat, rng)), DEFAULT)
        assert replace(other, nvars=inv.nvars) == inv


def _canonical_route(lat):
    return replace(
        classify._invariants_of_gens(canonical_realization(lat), DEFAULT),
        nvars=max(len(lat.meet_irreducibles), 1),
    )


def test_chain_route_matches_canonical_route():
    for k in range(1, 5):
        for _, lat in enumerate_atomistic(k):
            assert lattice_invariants(lat) == _canonical_route(lat)


def test_invariants_need_atomistic():
    chain = Semilattice.from_relations(["a", "b", "c"], [(0, 1), (1, 2)])
    with pytest.raises(NotAtomistic):
        lattice_invariants(chain)


def test_boolean_lattice_invariants():
    for k in (2, 3):
        inv = lattice_invariants(boolean_semilattice(k))
        assert inv.pdim_quotient == k
        assert inv.spdim_quotient == k
        assert inv.pdim_ideal == k - 1
        assert inv.spdim_ideal == k // 2


def test_trichotomy_small():
    # only the boolean class attains quotient invariants equal to k
    for k in (2, 3):
        bk_key = canonical_form(boolean_semilattice(k))
        for key, lat in enumerate_atomistic(k):
            inv = lattice_invariants(lat)
            is_boolean = key == bk_key
            assert (inv.spdim_quotient == k) == is_boolean
            assert (inv.pdim_quotient == k) == is_boolean


def test_conjectures_hold_everywhere_small():
    for k in (1, 2, 3):
        for _, lat in enumerate_atomistic(k):
            rep = check_conjectures(lat)
            assert rep.holds


def test_census_record_shape():
    records = [rec for rec, _ in census(3)]
    assert len(records) == 4
    for rec in records:
        assert rec["atoms"] == 3
        assert rec["elements"] >= 4
        assert isinstance(rec["canonical"], str)
        assert rec["counterexample"] is False
        assert len(rec["conjectures"]) == 3 and all(rec["conjectures"])
        inv = rec["invariants"]
        assert set(inv) == {
            "pdim_ideal", "pdim_quotient", "spdim_ideal",
            "spdim_quotient", "nvars", "field",
        }


def test_census_without_checks_is_light():
    records = [rec for rec, _ in census(3, check=False)]
    assert len(records) == 4
    assert all("invariants" not in rec for rec in records)

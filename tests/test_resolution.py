import random
from itertools import combinations
from math import comb

import pytest

from lcmlat import (
    EmptyModule,
    GeneratorSet,
    InvalidInput,
    Monomial,
    NotSurjective,
    QuotientPair,
    ideal_pair,
    lcm_semilattice,
    parse_monomial,
    pdim_pair_invariance,
    polarize,
    quotient_ring_pair,
    radical,
    rank_exact,
    rank_mod_p,
    taylor_betti,
    union_generators,
)
from lcmlat.config import Config

from oracles import rank_fraction, taylor_betti_dense


def _gens(names, *monos):
    vs = tuple(names)
    return GeneratorSet(vs, [parse_monomial(m, vs) for m in monos])


def _variable_power_ideal(k):
    return GeneratorSet(
        tuple(f"x{i}" for i in range(k)),
        [Monomial([1 if j == i else 0 for j in range(k)]) for i in range(k)],
    )


# ---------------- exact rank ----------------


def test_rank_exact_small_cases():
    assert rank_exact([], 3) == 0
    assert rank_exact([(0, 0)], 2) == 0
    assert rank_exact([(1, 2), (2, 4)], 2) == 1
    assert rank_exact([(1, 0), (0, 1)], 2) == 2
    assert rank_exact([(2, 3, 5), (7, 11, 13), (9, 14, 19)], 3) == 3
    assert rank_exact([(2, 3, 5), (7, 11, 13), (9, 14, 18)], 3) == 2


def test_rank_exact_matches_fraction_oracle(rng):
    for _ in range(150):
        nrows = rng.randint(0, 6)
        ncols = rng.randint(1, 6)
        rows = [
            tuple(rng.randint(-4, 4) for _ in range(ncols)) for _ in range(nrows)
        ]
        assert rank_exact(rows, ncols) == rank_fraction(rows, ncols)
    # sparse sign matrices, the shape of the Taylor blocks, and wide entries
    for values, size in (((-1, 0, 0, 1), 12), (range(-50, 51), 8)):
        for _ in range(60):
            nrows = rng.randint(0, size)
            ncols = rng.randint(1, size)
            rows = [
                tuple(rng.choice(values) for _ in range(ncols)) for _ in range(nrows)
            ]
            assert rank_exact(rows, ncols) == rank_fraction(rows, ncols)


def test_rank_mod_p_drops_on_characteristic():
    # the 2x2 matrix [[1,1],[1,-1]] has rank 2 over Q but rank 1 mod 2
    rows = [(1, 1), (1, -1)]
    assert rank_exact(rows, 2) == 2
    assert rank_mod_p(rows, 2, 2) == 1
    assert rank_mod_p(rows, 2, 3) == 2


def test_rank_mod_p_matches_rank_on_unimodular(rng):
    for _ in range(60):
        ncols = rng.randint(1, 5)
        rows = [
            tuple(rng.randint(0, 1) for _ in range(ncols))
            for _ in range(rng.randint(0, 5))
        ]
        r = rank_exact(rows, ncols)
        assert rank_mod_p(rows, ncols, 101) <= r


# ---------------- Betti numbers ----------------


def test_koszul_quotients():
    for k in range(1, 5):
        gens = _variable_power_ideal(k)
        table = taylor_betti(quotient_ring_pair(gens))
        assert table.betti == tuple(comb(k, i) for i in range(k + 1))
        assert table.pdim == k
        assert table.depth == 0


def test_koszul_ideals():
    for k in range(2, 5):
        gens = _variable_power_ideal(k)
        table = taylor_betti(ideal_pair(gens))
        assert table.betti == tuple(comb(k, h + 1) for h in range(k))
        assert table.pdim == k - 1


def test_complete_intersection_betti(rng):
    # pairwise coprime generators resolve by the Koszul complex
    for _ in range(10):
        k = rng.randint(2, 4)
        nvars = k
        gens = GeneratorSet(
            tuple(f"x{i}" for i in range(nvars)),
            [
                Monomial([rng.randint(1, 3) if j == i else 0 for j in range(nvars)])
                for i in range(k)
            ],
        )
        table = taylor_betti(quotient_ring_pair(gens))
        assert table.betti == tuple(comb(k, i) for i in range(k + 1))


def test_squarefree_triangle():
    gens = _gens(("x", "y", "z"), "x*y", "x*z", "y*z")
    table = taylor_betti(quotient_ring_pair(gens))
    assert table.betti == (1, 3, 2)
    assert table.pdim == 2
    assert table.depth == 1


def test_two_variable_quotient():
    gens = _gens(("x", "y"), "x", "y")
    table = taylor_betti(quotient_ring_pair(gens))
    assert table.betti == (1, 2, 1)
    assert table.pdim == 2
    assert table.depth == 0


def test_pdim_shift_between_module_views(rng):
    from conftest import random_ideal

    for _ in range(20):
        gens = random_ideal(rng, max_vars=4, max_gens=5, max_exp=3).minimalize()
        ti = taylor_betti(ideal_pair(gens))
        tq = taylor_betti(quotient_ring_pair(gens))
        assert tq.pdim == ti.pdim + 1
        assert tq.betti[1:] == ti.betti
        assert tq.betti[0] == 1


def test_euler_characteristic(rng):
    from conftest import random_ideal

    for _ in range(15):
        gens = random_ideal(rng, max_vars=4, max_gens=4, max_exp=3).minimalize()
        table = taylor_betti(ideal_pair(gens))
        euler = sum((-1) ** i * b for i, b in enumerate(table.betti))
        # a resolution of a rank-0 module in homological degree >= 0: the
        # alternating sum of Betti numbers of an ideal equals its rank, 1
        assert euler == 1


_FIELDS = (("Q", None), (("GF", 2), 2), (("GF", 3), 3))


def _exps(gens):
    return [g.exps for g in gens.gens]


def test_betti_matches_dense_oracle(rng):
    from conftest import random_ideal

    checked = 0
    while checked < 25:
        gens = random_ideal(rng, max_vars=4, max_gens=7, max_exp=2).minimalize()
        if gens.nvars < 3 or len(gens.gens) < 4:
            continue  # too few subsets share an lcm to form a sizable block
        checked += 1
        for pair in (ideal_pair(gens), quotient_ring_pair(gens)):
            for field, p in _FIELDS:
                table = taylor_betti(pair, Config(field=field))
                assert table.betti == taylor_betti_dense(
                    _exps(pair.i), _exps(pair.j), p
                )


def test_quotient_pair_betti_matches_dense_oracle(rng):
    from conftest import random_proper_pair

    checked = 0
    while checked < 25:
        pair = random_proper_pair(rng, max_vars=4, max_gens=4, max_exp=2)
        if not pair.j.gens:
            continue
        checked += 1
        for field, p in _FIELDS:
            table = taylor_betti(pair, Config(field=field))
            assert table.betti == taylor_betti_dense(_exps(pair.i), _exps(pair.j), p)


def test_real_projective_plane_depends_on_characteristic():
    # Stanley-Reisner ring of the 6-vertex triangulation of RP^2: its ten
    # non-face triangles generate the ideal; H~_1 has 2-torsion, so the last
    # Betti numbers change over GF(2)
    facets = {
        frozenset(int(c) - 1 for c in f)
        for f in "124 126 135 136 145 234 235 256 346 456".split()
    }
    gens = GeneratorSet(
        tuple(f"x{i}" for i in range(1, 7)),
        [
            Monomial([1 if j in t else 0 for j in range(6)])
            for t in combinations(range(6), 3)
            if frozenset(t) not in facets
        ],
    )
    assert len(gens.gens) == 10
    pair = quotient_ring_pair(gens)
    expected = {"Q": (1, 10, 15, 6), ("GF", 3): (1, 10, 15, 6),
                ("GF", 2): (1, 10, 15, 7, 1)}
    for field, betti in expected.items():
        table = taylor_betti(pair, Config(field=field))
        assert table.betti == betti
        assert table.depth == 6 - (len(betti) - 1)


def test_quotient_pair_betti():
    # I/J with I = (x, y), J = (x*y) inside it; pdim matches the cyclic cover
    i = _gens(("x", "y"), "x", "y")
    j = _gens(("x", "y"), "x*y")
    table = taylor_betti(QuotientPair(i, j))
    assert table.betti[0] == 2
    assert table.pdim >= 1


def test_empty_module_rejected():
    g = _gens(("x", "y"), "x", "y")
    with pytest.raises(EmptyModule):
        taylor_betti(QuotientPair(g, g))


def test_betti_json_shape():
    table = taylor_betti(ideal_pair(_gens(("x", "y"), "x", "y")))
    doc = table.to_json()
    assert set(doc) >= {"betti", "pdim", "depth"}


# ---------------- invariance under lattice maps ----------------


def _iso_image(pair_a, pair_b):
    """Match joint-lattice elements by which generators divide them."""
    ua = union_generators(pair_a.minimalize())
    ub = union_generators(pair_b.minimalize())
    assert len(ua.gens) == len(ub.gens)
    la = lcm_semilattice(ua)
    lb = lcm_semilattice(ub)
    image = []
    for m in la.monomials:
        sub = [i for i, g in enumerate(ua.gens) if g.divides(m)]
        t = ub.gens[sub[0]]
        for i in sub[1:]:
            t = t.lcm(ub.gens[i])
        image.append(lb.index_of(t))
    assert None not in image
    return image


def test_invariance_identity():
    pair = quotient_ring_pair(_gens(("x", "y", "z"), "x*y", "x*z", "y*z"))
    check = pdim_pair_invariance(pair, pair, _iso_image(pair, pair))
    assert check.bijective and check.ok
    assert check.pdim_source == check.pdim_target == 2


def test_invariance_under_polarization(rng):
    from conftest import random_ideal

    for _ in range(8):
        gens = random_ideal(rng, max_vars=3, max_gens=4, max_exp=3).minimalize()
        pair = ideal_pair(gens)
        ppair = polarize(pair)
        check = pdim_pair_invariance(pair, ppair, _iso_image(pair, ppair))
        assert check.bijective
        assert check.pdim_source == check.pdim_target
        assert check.ok


def test_invariance_with_sdepth():
    pair = ideal_pair(_gens(("x", "y"), "x^2", "x*y"))
    ppair = polarize(pair)
    check = pdim_pair_invariance(
        pair, ppair, _iso_image(pair, ppair), with_sdepth=True
    )
    assert check.bijective and check.ok
    assert check.spdim_source == check.spdim_target


def test_monotone_drop_under_radical():
    # radicals of (yzv, xzv, x^2yv, x^3yz) are already minimal, so the
    # radical join-map lands in the minimalized target lattice
    gens = _gens(("x", "y", "z", "v"), "y*z*v", "x*z*v", "x^2*y*v", "x^3*y*z")
    pair = ideal_pair(gens)
    rpair = ideal_pair(radical(gens))
    la = lcm_semilattice(union_generators(pair))
    lb = lcm_semilattice(union_generators(rpair))
    image = [lb.index_of(m.radical()) for m in la.monomials]
    assert None not in image
    check = pdim_pair_invariance(pair, rpair, image)
    assert not check.bijective
    assert check.pdim_source >= check.pdim_target
    assert check.ok


def test_monotone_strict_drop():
    # sending the three variables of m_3 onto (x1^2, x2^2, x1*x2) collapses
    # one coatom; projective dimension falls from 2 to 1
    pair = ideal_pair(_gens(("x", "y", "z"), "x", "y", "z"))
    tgt = ideal_pair(_gens(("x1", "x2"), "x1^2", "x2^2", "x1*x2"))
    check = pdim_pair_invariance(pair, tgt, _iso_image(pair, tgt))
    assert not check.bijective
    assert check.pdim_source == 2 and check.pdim_target == 1
    assert check.ok


def test_invariance_rejects_non_surjective():
    pair = ideal_pair(_gens(("x", "y"), "x", "y"))
    big = ideal_pair(_gens(("x", "y", "z"), "x", "y", "z"))
    la = lcm_semilattice(union_generators(pair))
    lb = lcm_semilattice(union_generators(big))
    image = [lb.lattice.n - 1] * la.lattice.n
    with pytest.raises(NotSurjective):
        pdim_pair_invariance(pair, big, image)


def test_invariance_rejects_denominator_mismatch():
    # both joint lattices are {x, y, xy}, but only the source has a denominator
    i = _gens(("x", "y"), "x", "y")
    pair_a = QuotientPair(i, _gens(("x", "y"), "x*y"))
    pair_b = ideal_pair(i)
    la = lcm_semilattice(union_generators(pair_a))
    lb = lcm_semilattice(union_generators(pair_b))
    image = [lb.index_of(m) for m in la.monomials]
    assert None not in image
    with pytest.raises(InvalidInput):
        pdim_pair_invariance(pair_a, pair_b, image)


def test_config_checks_its_field_when_built():
    from dataclasses import FrozenInstanceError

    from lcmlat.config import DEFAULT

    for bad in (("GF", 4), ("GF", 1), ("GF", "7"), ("GF", 7, 1), "R", ["GF", 7]):
        with pytest.raises(InvalidInput):
            Config(field=bad)
    assert Config(field=("GF", 7)).field_label() == "GF(7)"
    with pytest.raises(FrozenInstanceError):
        DEFAULT.field = ("GF", 4)
    assert DEFAULT.field == "Q"


def test_field_choice_mod_p():
    cfg = Config(field=("GF", 2))
    gens = _gens(("x", "y", "z"), "x*y", "x*z", "y*z")
    table = taylor_betti(quotient_ring_pair(gens), cfg)
    assert table.pdim == 2
    assert table.betti == (1, 3, 2)

import json
import os
import random
from dataclasses import replace
from itertools import combinations
from math import comb

import pytest

from lcmlat import (
    EmptyModule,
    GeneratorSet,
    InvalidInput,
    LimitExceeded,
    Monomial,
    NotSurjective,
    QuotientPair,
    canonical_realization,
    chain_weighting,
    enumerate_atomistic,
    gens_from_json,
    ideal_pair,
    lcm_semilattice,
    parse_monomial,
    pdim_pair_invariance,
    polarize,
    quotient_ring_pair,
    radical,
    rank_exact,
    rank_mod_p,
    realize,
    taylor_betti,
    union_generators,
)
from lcmlat.config import Config
from lcmlat.resolution import lyubeznik_faces

from oracles import (
    lcm_lattice_betti,
    lyubeznik_faces_by_definition,
    rank_fraction,
    taylor_betti_dense,
)


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


def test_huge_exponent_builds_no_table_of_its_size():
    # the vertices' divisibility masks are indexed by the exponents that occur
    gens = GeneratorSet(("x", "y"), [Monomial((10**12, 0)), Monomial((0, 1))])
    assert taylor_betti(ideal_pair(gens)).betti == (2, 1)
    assert taylor_betti(quotient_ring_pair(gens)).betti == (1, 2, 1)


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


def _awkward_denominators(pair):
    """The pair, then J grown by a multiple of a J generator (J no longer
    minimal) and by an I generator (shared by I and J), while I/J stays non-zero."""
    out = [pair]
    g = pair.j.gens[0]
    grown = QuotientPair(pair.i, GeneratorSet(pair.variables, pair.j.gens + (g.mul(g),)))
    out.append(grown)
    for h in pair.i.gens:
        shared = QuotientPair(pair.i, GeneratorSet(pair.variables, grown.j.gens + (h,)))
        if shared.is_proper():
            out.append(shared)
            break
    return out


def test_quotient_pair_betti_matches_dense_oracle(rng):
    from conftest import random_proper_pair

    checked = shared = 0
    while checked < 25:
        pair = random_proper_pair(rng, max_vars=4, max_gens=4, max_exp=2)
        if not pair.j.gens:
            continue
        checked += 1
        for variant in _awkward_denominators(pair):
            shared += bool(set(variant.i.gens) & set(variant.j.gens))
            for field, p in _FIELDS:
                table = taylor_betti(variant, Config(field=field))
                assert table.betti == taylor_betti_dense(
                    _exps(variant.i), _exps(variant.j), p
                )
    assert shared >= 10


# ---------------- the Lyubeznik faces ----------------


def _faces(verts, groups):
    """{face: lcm}, faces as increasing index tuples, after checking each group's size."""
    out = {}
    for (lcm, k), masks in groups.items():
        for mask in masks:
            face = tuple(i for i in range(len(verts)) if mask >> i & 1)
            assert len(face) == k and face not in out
            out[face] = tuple(lcm)
    return out


def test_lyubeznik_faces_match_definition(rng):
    from conftest import random_ideal, random_proper_pair

    pairs = []
    for _ in range(20):
        gens = random_ideal(rng, max_vars=4, max_gens=7, max_exp=2)
        pairs += [ideal_pair(gens), quotient_ring_pair(gens)]
    while len(pairs) < 60:
        pair = random_proper_pair(rng, max_vars=4, max_gens=4, max_exp=2)
        if pair.j.gens:
            pairs += _awkward_denominators(pair)
    for pair in pairs:
        verts, groups = lyubeznik_faces(pair)
        jset = set(pair.j.gens)
        nj = len(jset)
        # J's distinct generators lead, then I's generators outside J
        assert set(verts[:nj]) == jset
        assert list(verts[nj:]) == [g for g in pair.i.gens if g not in jset]
        want = lyubeznik_faces_by_definition([v.exps for v in verts], jset)
        assert _faces(verts, groups) == want


def test_betti_independent_of_generator_order():
    gens = _gens(("a", "b", "c", "d"), "a^2*b", "a*b*c", "b^2*d", "a*c*d", "c^2*d",
                 "a*d^2", "b*c*d")
    shuffles = ((6, 5, 4, 3, 2, 1, 0), (3, 0, 6, 1, 4, 2, 5), (2, 4, 0, 5, 1, 6, 3))
    face_sets = set()
    for order in shuffles:
        shuffled = GeneratorSet(gens.variables, [gens.gens[i] for i in order])
        for field in ("Q", ("GF", 2)):
            cfg = Config(field=field)
            assert taylor_betti(ideal_pair(shuffled), cfg).betti == \
                taylor_betti(ideal_pair(gens), cfg).betti
            assert taylor_betti(quotient_ring_pair(shuffled), cfg).betti == \
                taylor_betti(quotient_ring_pair(gens), cfg).betti
        verts, groups = lyubeznik_faces(ideal_pair(shuffled))
        face_sets.add(frozenset(
            frozenset(verts[i] for i in face) for face in _faces(verts, groups)
        ))
    assert len(face_sets) == len(shuffles)


def test_subset_cap_bounds_the_faces():
    gens = _gens(("a", "b", "c", "d"), "a^2*b", "a*b*c", "b^2*d", "a*c*d", "c^2*d")
    pair = quotient_ring_pair(gens)
    found = sum(map(len, lyubeznik_faces(pair)[1].values()))
    assert found < 2 ** len(gens.gens)
    want = taylor_betti(pair).betti
    assert taylor_betti(pair, Config(subset_cap=found)).betti == want
    with pytest.raises(LimitExceeded):
        taylor_betti(pair, Config(subset_cap=found - 1))


# the first 14-generator equal-degree ideal of the benchmark's candidate
# stream; S/I has 2^15 Taylor subsets, past the default cap, and 1216
# Lyubeznik faces in this generator order
A14 = {
    "variables": ["a", "b", "c", "d"],
    "generators": [
        [0, 0, 0, 3], [0, 0, 3, 0], [0, 3, 0, 0], [0, 0, 1, 2], [0, 1, 2, 0],
        [0, 1, 0, 2], [2, 1, 0, 0], [0, 2, 0, 1], [0, 0, 2, 1], [1, 1, 1, 0],
        [2, 0, 1, 0], [1, 0, 2, 0], [1, 2, 0, 0], [1, 1, 0, 1],
    ],
}


def test_fourteen_generators_within_the_cap(tmp_path, capsys, monkeypatch):
    from lcmlat import cli

    pair = quotient_ring_pair(gens_from_json(A14))
    for field in ("Q", ("GF", 32003)):
        assert taylor_betti(pair, Config(field=field)).betti == (1, 14, 27, 19, 5)
    src = tmp_path / "a14.json"
    src.write_text(json.dumps(A14))
    argv = ["betti", str(src), "--module", "quotient-ring"]
    with pytest.raises(SystemExit) as info:
        cli.main(argv)
    assert info.value.code == 0
    assert json.loads(capsys.readouterr().out)["betti"] == [1, 14, 27, 19, 5]
    # one face short of the count, the same query stops with exit 2; the CLI
    # minimalizes the pair, which reorders the generators and so the faces
    found = sum(map(len, lyubeznik_faces(pair.minimalize())[1].values()))
    config = cli._config
    monkeypatch.setattr(cli, "_config", lambda args: replace(config(args), subset_cap=found - 1))
    with pytest.raises(SystemExit) as info:
        cli.main(argv)
    assert info.value.code == 2
    assert capsys.readouterr().err.startswith("limit:")


# ---------------- the lcm-lattice engine ----------------


def _check_lcm_lattice_engine(gens):
    for field, p in (("Q", None), (("GF", 2), 2)):
        cfg = Config(field=field)
        want = lcm_lattice_betti(_exps(gens), p)
        assert taylor_betti(quotient_ring_pair(gens), cfg).betti == want
        assert taylor_betti(ideal_pair(gens), cfg).betti == want[1:]


# LCMLAT_BETTI_ATOMS=5 runs the whole 5-atom census (7443 classes)
CENSUS_ATOMS = int(os.environ.get("LCMLAT_BETTI_ATOMS", "4"))


def test_lcm_lattice_engine_on_the_census():
    cfg = Config(atom_cap=CENSUS_ATOMS, long_run=True)
    classes = 0
    for _, lat in enumerate_atomistic(CENSUS_ATOMS, cfg):
        classes += 1
        _check_lcm_lattice_engine(realize(chain_weighting(lat)))
        _check_lcm_lattice_engine(canonical_realization(lat))
    assert classes == {4: 50, 5: 7443}.get(CENSUS_ATOMS, classes)


def test_lcm_lattice_engine_on_random_ideals():
    from conftest import random_ideal

    rng = random.Random(20261019)
    for _ in range(200):
        _check_lcm_lattice_engine(random_ideal(rng, max_vars=4, max_gens=6, max_exp=3))


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
        image.append(lb.monomials.index(t))
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
    image = [lb.monomials.index(m.radical()) for m in la.monomials]
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
    image = [lb.monomials.index(m) for m in la.monomials]
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

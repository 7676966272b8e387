"""Acceptance gate: one test per shipped guarantee, each timed against its budget.

Every test prints a single pass line (visible with -s; pytest -v shows the
verdict either way) and fails loudly if a value or a time budget is missed.
"""

import random
import time

from lcmlat import (
    GeneratorSet,
    Monomial,
    boolean_semilattice,
    canonical_form,
    canonical_realization,
    census,
    collapse,
    colon,
    deform,
    enumerate_atomistic,
    ideal_pair,
    inflate,
    is_isomorphic,
    lattice_invariants,
    lcm_semilattice,
    parse_monomial,
    pdim_pair_invariance,
    polarize,
    quotient_ring_pair,
    radical,
    realize,
    reconstruct,
    render_monomial,
    restrict_variable,
    sdepth_solve,
    taylor_betti,
    union_generators,
    weight_map,
)
from lcmlat.classify import random_weighting

from conftest import random_ideal
from oracles import family_classes, family_to_lattice, max_ass_height


def _finish(n, label, t0, budget):
    elapsed = time.perf_counter() - t0
    assert elapsed < budget, f"criterion {n} took {elapsed:.1f}s, budget {budget}s"
    print(f"criterion {n:2d} ({label}): PASS in {elapsed:.2f}s (budget {budget}s)")


def _gens(names, *texts):
    vs = tuple(names)
    return GeneratorSet(vs, [parse_monomial(t, vs) for t in texts])


def _variables_ideal(k):
    return GeneratorSet(
        tuple(f"x{i}" for i in range(k)),
        [Monomial([1 if j == i else 0 for j in range(k)]) for i in range(k)],
    )


def _all_products_but_one(k):
    return GeneratorSet(
        tuple(f"x{i}" for i in range(k)),
        [Monomial([0 if j == i else 1 for j in range(k)]) for i in range(k)],
    )


# ---- 1: the variable ladder ----


def test_criterion_01_variable_ladder():
    t0 = time.perf_counter()
    for k in range(1, 6):
        gens = _variables_ideal(k)
        ri = sdepth_solve(ideal_pair(gens))
        assert ri.sdepth == k - k // 2, f"sdepth of the {k}-variable ideal"
        assert ri.spdim == k // 2
        rq = sdepth_solve(quotient_ring_pair(gens))
        assert rq.sdepth == 0, f"sdepth of the {k}-variable quotient"
        assert rq.spdim == k
    _finish(1, "variable ladder k=1..5", t0, 10)


# ---- 2: the two-ideal golden example ----

GOLD_SDEPTH = 3  # first verified run, brute-force interval search agreed
GOLD_PDIM = 1  # first verified run, exact Taylor ranks over Q

LEFT_WEIGHTS = {
    "y*z*v": "x",
    "x*z*v": "y",
    "x^2*y*v": "z",
    "x^3*y*z": "v",
    "x*y*z*v": "x",
    "x^2*y*z*v": "x",
    "x^3*y*z*v": "1",
}
RIGHT_WEIGHTS = {
    "y*z*v": "x",
    "x*z*v": "y",
    "x*y^2*v": "z",
    "x^2*y^2*z": "v",
    "x*y*z*v": "y",
    "x*y^2*z*v": "x",
    "x^2*y^2*z*v": "1",
}


def test_criterion_02_golden_example():
    t0 = time.perf_counter()
    v4 = ("x", "y", "z", "v")
    one = _gens(v4, "y*z*v", "x*z*v", "x^2*y*v", "x^3*y*z")
    two = _gens(v4, "y*z*v", "x*z*v", "x*y^2*v", "x^2*y^2*z")

    la, lb = lcm_semilattice(one), lcm_semilattice(two)
    assert is_isomorphic(la.lattice, lb.lattice)

    for gens, lam, frozen in ((one, la, LEFT_WEIGHTS), (two, lb, RIGHT_WEIGHTS)):
        w = weight_map(gens)
        got = {
            lam.lattice.labels[i]: render_monomial(w.weights[i], w.variables)
            for i in range(lam.lattice.n)
        }
        assert got == frozen

    s1, s2 = sdepth_solve(ideal_pair(one)), sdepth_solve(ideal_pair(two))
    assert s1.sdepth == s2.sdepth == GOLD_SDEPTH
    p1 = taylor_betti(ideal_pair(one))
    p2 = taylor_betti(ideal_pair(two))
    assert p1.pdim == p2.pdim == GOLD_PDIM
    _finish(2, "golden two-ideal example", t0, 5)


# ---- 3: products-but-one family ----


def test_criterion_03_products_but_one():
    t0 = time.perf_counter()
    for k in (3, 4, 5):
        gens = _all_products_but_one(k)
        table = taylor_betti(quotient_ring_pair(gens))
        assert table.pdim == 2, f"pdim at k={k}"
        rep = sdepth_solve(quotient_ring_pair(gens))
        assert rep.spdim == 2, f"spdim at k={k}"
    _finish(3, "products-but-one pdim=spdim=2", t0, 30)


# ---- 4: trichotomy and the near-boolean band ----

_INVARIANTS = {}  # canonical form -> LatticeInvariants, shared with criterion 9


def _invariants_for(k):
    out = []
    for key, lat in enumerate_atomistic(k):
        if key not in _INVARIANTS:
            _INVARIANTS[key] = lattice_invariants(lat)
        out.append((key, _INVARIANTS[key]))
    return out


def test_criterion_04_trichotomy():
    t0 = time.perf_counter()
    for k in (3, 4):
        boolean_key = canonical_form(boolean_semilattice(k))
        rows = _invariants_for(k)
        assert any(key == boolean_key for key, _ in rows)
        for key, inv in rows:
            is_boolean = key == boolean_key
            assert (inv.spdim_quotient == k) == is_boolean
            assert (inv.pdim_quotient == k) == is_boolean
            if inv.pdim_quotient == k - 1:
                assert inv.spdim_ideal <= inv.pdim_ideal
                assert inv.spdim_quotient <= inv.pdim_quotient
                assert inv.spdim_ideal <= inv.spdim_quotient - 1
    _finish(4, "trichotomy k=3,4 + near-boolean band", t0, 600)


# ---- 5: inversion formula ----


def test_criterion_05_inversion_roundtrips():
    t0 = time.perf_counter()
    rng = random.Random(501)
    for _ in range(500):
        gens = random_ideal(rng, max_vars=5, max_gens=6, max_exp=4)
        lam = lcm_semilattice(gens)
        w = weight_map(gens)
        for idx, mono in enumerate(lam.monomials):
            assert reconstruct(w, idx) == mono
    _finish(5, "500 inversion roundtrips", t0, 60)


# ---- 6: realizability roundtrips ----


def _random_atomistic(rng, kmax=4, extra=3):
    lat = boolean_semilattice(rng.randint(2, kmax))
    for _ in range(rng.randint(0, extra)):
        pool = [a for a in lat.meet_irreducibles if a not in lat.atoms]
        if not pool:
            break
        lat, _ = collapse(lat, rng.choice(pool))
    return lat


def test_criterion_06_realizability_roundtrips():
    t0 = time.perf_counter()
    rng = random.Random(601)
    for _ in range(200):
        lat = _random_atomistic(rng)
        w = random_weighting(lat, rng)
        real = realize(w)
        lam = lcm_semilattice(real)
        assert is_isomorphic(lam.lattice, lat)
        wm = weight_map(real)
        assert wm.bottom == w.bottom
        for x in range(lat.n):
            ix = lam.monomials.index(real.gens[x])
            assert wm.weights[ix] == w.weights[x]
    _finish(6, "200 realizability roundtrips", t0, 120)


# ---- 7: monotonicity along collapse chains ----


def test_criterion_07_monotone_maps():
    t0 = time.perf_counter()
    rng = random.Random(701)
    bijective_seen = 0
    for _ in range(300):
        src_lat = _random_atomistic(rng, kmax=4, extra=2)
        image = list(range(src_lat.n))
        tgt_lat = src_lat
        if rng.random() > 0.2:
            for _ in range(rng.randint(1, 2)):
                pool = [
                    a for a in tgt_lat.meet_irreducibles if a not in tgt_lat.atoms
                ]
                if not pool:
                    break
                tgt_lat, pi = collapse(tgt_lat, rng.choice(pool))
                image = [pi.image[i] for i in image]

        ra = canonical_realization(src_lat)
        rb = canonical_realization(tgt_lat)
        pa = ideal_pair(ra.minimalize())
        pb = ideal_pair(rb.minimalize())
        la = lcm_semilattice(union_generators(pa))
        lb = lcm_semilattice(union_generators(pb))
        transported = [None] * la.lattice.n
        for x in range(src_lat.n):
            ia = la.monomials.index(ra.gens[x])
            ib = lb.monomials.index(rb.gens[image[x]])
            transported[ia] = ib
        assert None not in transported

        check = pdim_pair_invariance(pa, pb, transported, with_sdepth=True)
        assert check.ok
        assert check.pdim_source >= check.pdim_target
        assert check.spdim_source >= check.spdim_target
        if check.bijective:
            bijective_seen += 1
            assert check.pdim_source == check.pdim_target
            assert check.spdim_source == check.spdim_target
    assert bijective_seen >= 30
    _finish(7, f"300 monotone maps ({bijective_seen} bijective)", t0, 900)


# ---- 8: transform inequalities ----


def _spdim_i(gens):
    return sdepth_solve(ideal_pair(gens)).spdim


def _spdim_pair(pair):
    return sdepth_solve(pair).spdim


def _random_shifts(rng, gens):
    tables = []
    for j in range(gens.nvars):
        hi = max(g.exps[j] for g in gens.gens)
        vals, cur = [0], 0
        for _ in range(hi):
            cur += rng.randint(1, 2)
            vals.append(cur)
        tables.append(vals)
    return [
        [tables[j][g.exps[j]] - g.exps[j] for j in range(gens.nvars)]
        for g in gens.gens
    ]


def test_criterion_08_transform_inequalities():
    t0 = time.perf_counter()
    rng = random.Random(801)

    for _ in range(200):  # polarization: both invariants are preserved exactly
        gens = random_ideal(rng, max_vars=3, max_gens=4, max_exp=3).minimalize()
        pol = polarize(gens)
        assert _spdim_i(gens) == _spdim_i(pol)
        assert taylor_betti(ideal_pair(gens)).pdim == taylor_betti(ideal_pair(pol)).pdim

    for _ in range(200):  # radical: weak drop of both invariants
        gens = random_ideal(rng, max_vars=4, max_gens=4, max_exp=3).minimalize()
        rad = radical(gens)
        assert _spdim_i(gens) >= _spdim_i(rad)
        assert taylor_betti(ideal_pair(gens)).pdim >= taylor_betti(ideal_pair(rad)).pdim

    for _ in range(200):  # colon: spdim never rises
        gens = random_ideal(rng, max_vars=4, max_gens=4, max_exp=3).minimalize()
        v = Monomial([rng.randint(0, 2) for _ in range(gens.nvars)])
        out = colon(gens, v)
        if out.gens and not (len(out.gens) == 1 and out.gens[0].degree() == 0):
            assert _spdim_i(gens) >= _spdim_i(out)

    for _ in range(200):  # valid deformation: sdepth never rises under it
        gens = random_ideal(rng, max_vars=3, max_gens=4, max_exp=3).minimalize()
        moved = deform(gens, _random_shifts(rng, gens))
        assert sdepth_solve(ideal_pair(gens)).sdepth >= sdepth_solve(ideal_pair(moved)).sdepth

    relevant = 0
    while relevant < 200:  # killing a variable of a squarefree ideal: weak drop
        gens = radical(random_ideal(rng, max_vars=4, max_gens=4, max_exp=2))
        if len(gens.gens) == 1 and gens.gens[0].degree() == 0:
            continue
        out = restrict_variable(gens, rng.randrange(gens.nvars))
        relevant += 1
        if out.gens and not (len(out.gens) == 1 and out.gens[0].degree() == 0):
            assert _spdim_i(gens) >= _spdim_i(out)

    for _ in range(200):  # inflating away from a lattice element keeps spdim
        gens = radical(random_ideal(rng, max_vars=4, max_gens=4, max_exp=2))
        if len(gens.gens) == 1 and gens.gens[0].degree() == 0:
            continue
        pair = ideal_pair(gens.minimalize())
        lam = lcm_semilattice(union_generators(pair))
        m = lam.monomials[rng.randrange(lam.lattice.n)]
        out = inflate(pair, m)
        assert _spdim_pair(pair) == _spdim_pair(out)

    _finish(8, "transform inequalities, 200 each", t0, 1200)


# ---- 9: census against the set-family oracle ----


def test_criterion_09_census_vs_oracle():
    t0 = time.perf_counter()
    for k in range(1, 5):
        records = list(census(k, check=True))
        ours = {rec["canonical"] for rec, _ in records}
        theirs = {
            canonical_form(family_to_lattice([frozenset(s) for s in rep])).decode()
            for rep in family_classes(k)
        }
        assert ours == theirs, f"class mismatch at k={k}"
        for rec, _ in records:
            assert rec["counterexample"] is False
            assert all(rec["conjectures"])
    _finish(9, "census k<=4 vs oracle, all conjectures", t0, 3600)


# ---- 10: associated-prime lower bounds ----


def test_criterion_10_associated_prime_bounds():
    t0 = time.perf_counter()
    rng = random.Random(1001)
    for _ in range(100):
        gens = random_ideal(rng, max_vars=4, max_gens=4, max_exp=2).minimalize()
        p = max_ass_height(gens)
        assert p >= 1
        assert taylor_betti(quotient_ring_pair(gens)).pdim >= p
        assert sdepth_solve(quotient_ring_pair(gens)).spdim >= p
        assert sdepth_solve(ideal_pair(gens)).spdim >= p // 2
    _finish(10, "100 associated-prime bounds", t0, 600)

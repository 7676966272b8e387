from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lcmlat import (
    GeneratorSet,
    InvalidDeformation,
    InvalidInput,
    JoinMap,
    Monomial,
    NotSquarefree,
    QuotientPair,
    boolean_semilattice,
    canonical_form,
    colon,
    deform,
    gens_from_json,
    gens_to_json,
    ideal_pair,
    inflate,
    is_generic,
    is_isomorphic,
    lcm_semilattice,
    m_coprime,
    pair_from_json,
    pair_to_json,
    parse_monomial,
    polarize,
    radical,
    reconstruct,
    render_monomial,
    restrict_variable,
    squarefree_check,
    strictly_divides,
    union_generators,
    validate_deformation,
    weight_map,
    weighting_from_json,
    weighting_to_json,
)

V4 = ("x", "y", "z", "v")


def gens(variables, *texts):
    return GeneratorSet(variables, [parse_monomial(t, variables) for t in texts])


def ideal_one():
    return gens(V4, "y*z*v", "x*z*v", "x^2*y*v", "x^3*y*z")


def ideal_two():
    return gens(V4, "y*z*v", "x*z*v", "x*y^2*v", "x^2*y^2*z")


# ---------------- monomial algebra ----------------

exps = st.lists(st.integers(0, 5), min_size=1, max_size=5)
pairs = st.integers(1, 5).flatmap(
    lambda n: st.tuples(
        st.lists(st.integers(0, 5), min_size=n, max_size=n),
        st.lists(st.integers(0, 5), min_size=n, max_size=n),
    )
)


@given(pairs)
def test_lcm_gcd_divide(ab):
    a, b = Monomial(ab[0]), Monomial(ab[1])
    l, g = a.lcm(b), a.gcd(b)
    assert a.divides(l) and b.divides(l)
    assert g.divides(a) and g.divides(b)
    assert l.mul(g) == a.mul(b)
    assert a.lcm(a.gcd(b)) == a


@given(pairs)
def test_div_exact_or_error(ab):
    a, b = Monomial(ab[0]), Monomial(ab[1])
    if b.divides(a):
        assert a.div(b).mul(b) == a
    else:
        with pytest.raises(InvalidInput):
            a.div(b)


def test_monomial_rejects_junk():
    for junk in ([1, -1], "zz", [None], 5):
        with pytest.raises(InvalidInput):
            Monomial(junk)


def test_monomial_is_its_exponent_tuple():
    m = Monomial([2, 0, 1])
    assert m == (2, 0, 1) and hash(m) == hash((2, 0, 1))
    assert {(2, 0, 1): "m"}[m] == "m" and {m: "m"}[(2, 0, 1)] == "m"
    assert type(m.exps) is tuple and m.exps == (2, 0, 1)
    other = Monomial([1, 1, 0])
    for result in (m.lcm(other), m.gcd(other), m.mul(other), m.div(Monomial([1, 0, 1])),
                   m.radical(), Monomial.one(3)):
        assert type(result) is Monomial
    with pytest.raises(AttributeError):
        m.exps = (0, 0, 0)
    with pytest.raises(AttributeError):
        m.degree_cache = 3
    # a numpy integer on the other side is compared, not silently accepted
    assert not Monomial((2,)).divides((np.int64(1),))
    assert Monomial((1,)).divides((np.int64(2),))


def test_strict_divisibility():
    u = parse_monomial("x^2*y", ("x", "y", "z"))
    assert strictly_divides(parse_monomial("x", ("x", "y", "z")), u)
    assert not strictly_divides(parse_monomial("x^2", ("x", "y", "z")), u)
    # a variable absent from u must stay absent
    assert not strictly_divides(parse_monomial("z", ("x", "y", "z")), u)


def test_parse_render_roundtrip():
    for text in ("x^2*y", "v", "x*y*z*v", "1", "x^3"):
        m = parse_monomial(text, V4)
        assert parse_monomial(render_monomial(m, V4), V4) == m
    with pytest.raises(InvalidInput):
        parse_monomial("w^2", V4)


@given(st.lists(st.lists(st.integers(0, 4), min_size=3, max_size=3), min_size=1, max_size=6))
def test_minimalize_properties(rows):
    g = GeneratorSet(("a", "b", "c"), [Monomial(r) for r in rows])
    m = g.minimalize()
    assert m.is_minimal()
    assert m.same_ideal(g)
    assert m.minimalize().gens == m.gens


# ---------------- lcm semilattices ----------------


def test_two_variable_closure():
    g = gens(("x", "y"), "x", "y")
    lam = lcm_semilattice(g)
    assert sorted(lam.lattice.labels) == ["x", "x*y", "y"]
    assert lam.lattice.is_atomistic


def test_ideal_one_closure_matches_figure():
    lam = lcm_semilattice(ideal_one())
    expect = {"y*z*v", "x*z*v", "x^2*y*v", "x^3*y*z", "x*y*z*v", "x^2*y*z*v", "x^3*y*z*v"}
    assert set(lam.lattice.labels) == expect
    assert lam.lattice.is_atomistic and len(lam.lattice.atoms) == 4


def test_power_chain_not_atomistic():
    lam = lcm_semilattice(gens(("x",), "x^2", "x^3"))
    assert lam.lattice.n == 2
    assert not lam.lattice.is_atomistic  # x^2 generates x^3's slot is a chain


def test_nonminimal_generators_still_close():
    g = gens(("x", "y"), "x", "x*y", "x^2*y")
    lam = lcm_semilattice(g)
    assert set(lam.lattice.labels) == {"x", "x*y", "x^2*y"}
    assert not lam.lattice.is_atomistic


# ---------------- the standard weight map ----------------


def weight_by_label(g):
    lam = lcm_semilattice(g)
    w = weight_map(g)
    return w, {
        lam.lattice.labels[i]: render_monomial(w.weights[i], w.variables)
        for i in range(lam.lattice.n)
    }


def test_weights_two_atoms():
    w, by = weight_by_label(gens(("x", "y"), "x", "y"))
    assert by == {"x": "y", "y": "x", "x*y": "1"}
    assert w.bottom.is_unit()


def test_weights_figure_left():
    w, by = weight_by_label(ideal_one())
    assert by == {
        "y*z*v": "x",
        "x*z*v": "y",
        "x^2*y*v": "z",
        "x^3*y*z": "v",
        "x*y*z*v": "x",
        "x^2*y*z*v": "x",
        "x^3*y*z*v": "1",
    }
    assert w.bottom.is_unit()


def test_weights_figure_right():
    w, by = weight_by_label(ideal_two())
    assert by == {
        "y*z*v": "x",
        "x*z*v": "y",
        "x*y^2*v": "z",
        "x^2*y^2*z": "v",
        "x*y*z*v": "y",
        "x*y^2*z*v": "x",
        "x^2*y^2*z*v": "1",
    }


def test_weights_single_generator():
    g = gens(("x", "y"), "x^2*y")
    w = weight_map(g)
    assert render_monomial(w.bottom, w.variables) == "x^2*y"
    assert w.weights[0].is_unit()


def test_reconstruct_examples():
    g = gens(("x", "y"), "x", "y")
    lam = lcm_semilattice(g)
    w = weight_map(g)
    idx = lam.monomials.index(parse_monomial("x", ("x", "y")))
    assert reconstruct(w, idx) == parse_monomial("x", ("x", "y"))

    lam1 = lcm_semilattice(ideal_one())
    w1 = weight_map(ideal_one())
    target = parse_monomial("x^2*y*v", V4)
    assert reconstruct(w1, lam1.monomials.index(target)) == target


def test_reconstruct_is_inverse_on_randoms(rng):
    from conftest import random_ideal

    for _ in range(60):
        g = random_ideal(rng)
        lam = lcm_semilattice(g)
        w = weight_map(g)
        for i, m in enumerate(lam.monomials):
            assert reconstruct(w, i) == m


def test_lcm_semilattice_joins_are_lcms(rng):
    from conftest import random_ideal

    for _ in range(60):
        lam = lcm_semilattice(random_ideal(rng))
        monos = lam.monomials
        for i in range(len(monos)):
            for j in range(len(monos)):
                want = lam.monomials.index(monos[i].lcm(monos[j]))
                assert lam.lattice.join(i, j) == want


def test_squarefree_check():
    ok, _ = squarefree_check(gens(("x", "y", "z"), "x*y", "y*z"))
    assert ok
    bad, witness = squarefree_check(gens(("x", "y"), "x^2", "x*y"))
    assert not bad and witness
    bad1, _ = squarefree_check(ideal_one().minimalize())
    assert not bad1


def test_coprimality_helper():
    assert m_coprime(parse_monomial("x", V4), parse_monomial("y", V4))
    assert not m_coprime(parse_monomial("x*y", V4), parse_monomial("y*z", V4))


# ---------------- transforms ----------------


def test_polarize_examples():
    p = polarize(gens(("x",), "x^2"))
    assert p.render() == ["x1*x2"]
    p2 = polarize(gens(("x", "y"), "x^2", "x*y"))
    assert sorted(p2.render()) == ["x1*x2", "x1*y1"]
    assert p2.is_squarefree_raw()


def test_polarize_preserves_lattice_shape(rng):
    from conftest import random_ideal

    for _ in range(15):
        g = random_ideal(rng, max_vars=3, max_gens=4, max_exp=3).minimalize()
        p = polarize(g)
        assert canonical_form(lcm_semilattice(g).lattice) == canonical_form(
            lcm_semilattice(p).lattice
        )


def test_polarize_pair():
    pair = QuotientPair(gens(("x", "y"), "x^2"), gens(("x", "y"), "x^2*y"))
    pp = polarize(pair)
    assert pp.i.is_squarefree_raw() and pp.j.is_squarefree_raw()
    assert all(any(h.divides(g) for h in pp.i.gens) for g in pp.j.gens)


def test_radical_examples():
    assert radical(gens(("x", "y"), "x^2*y", "y^3")).render() == ["y"]
    assert sorted(radical(gens(("x", "y", "z"), "x^2*y", "x*z")).render()) == [
        "x*y",
        "x*z",
    ]
    assert sorted(radical(ideal_one()).render()) == sorted(
        ["y*z*v", "x*z*v", "x*y*v", "x*y*z"]
    )


def test_radical_gives_surjective_join_map(rng):
    from conftest import random_ideal

    for _ in range(15):
        g = random_ideal(rng, max_vars=3, max_gens=4, max_exp=3).minimalize()
        src = lcm_semilattice(g)
        # the map lands in the lattice of the raw radical family, which
        # generates the same ideal as the re-minimalized radical
        raw = GeneratorSet(g.variables, [m.radical() for m in g.gens])
        assert raw.same_ideal(radical(g))
        tgt = lcm_semilattice(raw)
        image = [tgt.monomials.index(m.radical()) for m in src.monomials]
        phi = JoinMap(src.lattice, tgt.lattice, image)
        assert phi.is_surjective


def test_colon_examples():
    g = gens(("x", "y", "z"), "x^2*y", "z")
    assert sorted(colon(g, parse_monomial("x", ("x", "y", "z"))).render()) == [
        "x*y",
        "z",
    ]
    g2 = gens(("x", "y", "z"), "x*y", "y*z")
    assert sorted(colon(g2, parse_monomial("y", ("x", "y", "z"))).render()) == [
        "x",
        "z",
    ]
    assert colon(g2, Monomial.one(3)).same_ideal(g2)


def test_colon_membership(rng):
    from itertools import product

    from conftest import random_ideal

    for _ in range(10):
        g = random_ideal(rng, max_vars=3, max_gens=3, max_exp=2).minimalize()
        v = Monomial([rng.randint(0, 2) for _ in range(g.nvars)])
        c = colon(g, v)
        box = [range(3)] * g.nvars
        for e in product(*box):
            m = Monomial(e)
            assert c.contains(m) == g.contains(m.mul(v))


def test_restrict_examples():
    g = gens(("x", "y", "z"), "x*y", "y*z")
    r = restrict_variable(g, 1)
    assert sorted(r.render()) == ["x", "z"] and r.variables == ("x", "z")
    g2 = gens(("x", "y"), "x^2", "x*y")
    r2 = restrict_variable(g2, 0)
    assert r2.render() == ["1"]
    r3 = restrict_variable(ideal_one(), 3)
    assert sorted(r3.render()) == sorted(["y*z", "x*z", "x^2*y"])


def test_inflate_examples():
    g1 = gens(("x", "y"), "x", "y")
    pair = ideal_pair(g1)
    m = parse_monomial("x", ("x", "y"))
    out = inflate(pair, m)
    assert sorted(out.i.render()) == ["x", "y*Y"]
    # an ideal goes in and comes out as an ideal, the same as I of the pair
    ideal = inflate(g1, m)
    assert isinstance(ideal, GeneratorSet) and gens_to_json(ideal) == gens_to_json(out.i)
    # weight degree at the inflated element goes up by one, others unchanged
    lam0 = lcm_semilattice(g1)
    w0 = weight_map(g1)
    lam1 = lcm_semilattice(out.i)
    w1 = weight_map(out.i)
    i0 = lam0.monomials.index(parse_monomial("x", ("x", "y")))
    i1 = lam1.monomials.index(parse_monomial("x", out.variables))
    assert w1.weights[i1].degree() == w0.weights[i0].degree() + 1
    j0 = lam0.monomials.index(parse_monomial("y", ("x", "y")))
    j1 = lam1.monomials.index(parse_monomial("Y*y", out.variables))
    assert w1.weights[j1].degree() == w0.weights[j0].degree()


def test_inflate_at_top_changes_nothing():
    g1 = gens(("x", "y"), "x", "y")
    pair = ideal_pair(g1)
    out = inflate(pair, parse_monomial("x*y", ("x", "y")))
    assert sorted(out.i.render()) == ["x", "y"]
    assert out.variables == ("x", "y", "Y")


def test_inflate_preserves_canonical_form():
    g = radical(ideal_one())
    pair = ideal_pair(g)
    m = parse_monomial("x*y*z*v", V4)
    out = inflate(pair, m)
    assert canonical_form(lcm_semilattice(g).lattice) == canonical_form(
        lcm_semilattice(out.i).lattice
    )


def test_inflate_requires_squarefree_and_lattice_element():
    pair = ideal_pair(gens(("x", "y"), "x^2", "y"))
    with pytest.raises(NotSquarefree):
        inflate(pair, parse_monomial("x^2", ("x", "y")))
    sq = ideal_pair(gens(("x", "y"), "x", "y"))
    with pytest.raises(InvalidInput):
        inflate(sq, parse_monomial("x^2", ("x", "y")))


def test_lattice_element_matches_the_closure(rng):
    from conftest import random_ideal

    for _ in range(40):
        g = random_ideal(rng)
        monos = set(lcm_semilattice(g).monomials)
        box = [range(e + 1) for e in g.lcm()]
        for m in map(Monomial, product(*box)):
            assert g.is_lattice_element(m) == (m in monos)


def test_lattice_element_needs_the_ambient():
    g = gens(("x", "y"), "x", "y")
    assert g.is_lattice_element((1, 1)) and not g.is_lattice_element((0, 0))
    with pytest.raises(InvalidInput):
        g.is_lattice_element(Monomial((1, 1, 0)))
    with pytest.raises(InvalidInput):
        inflate(ideal_pair(g), Monomial((1,)))


def test_inflate_past_the_element_cap():
    # 13 generators a_i*b_i span 2^13 - 1 lcms, more than the element cap;
    # membership is decided without building that closure
    names = [f"{c}{i}" for i in range(13) for c in "ab"]
    g = GeneratorSet(names, [Monomial([1 if j // 2 == i else 0 for j in range(26)])
                             for i in range(13)])
    m = Monomial([1] * 4 + [0] * 22)  # a0*b0*a1*b1
    out = inflate(g, m)
    assert out.variables == tuple(names) + ("Y",)
    assert [h[-1] for h in out.gens] == [0, 0] + [1] * 11
    with pytest.raises(InvalidInput):
        inflate(g, Monomial([1] * 3 + [0] * 23))


def test_deform_examples():
    g = gens(("x", "y"), "x^2", "x*y")
    out = deform(g, [(1, 0), (0, 0)])
    assert sorted(out.render()) == ["x*y", "x^3"]
    ok, witness = validate_deformation(g, [(0, 1), (0, 0)])
    assert not ok and "zero exponent" in witness
    with pytest.raises(InvalidDeformation):
        deform(g, [(0, 1), (0, 0)])
    ident = deform(g, [(0, 0), (0, 0)])
    assert ident.same_ideal(g)
    # numpy integers are integers; booleans, floats and strings are not
    assert deform(g, np.array([[1, 0], [0, 0]])).render() == out.render()
    for row in ([True, 0], [1.0, 0], ["1", 0]):
        with pytest.raises(InvalidInput):
            deform(g, [row, (0, 0)])


def test_deform_strict_clause():
    # x^2 vs x*y: shifting only the smaller one breaks strictness in variable x
    g = gens(("x", "y"), "x^2", "x*y")
    ok, witness = validate_deformation(g, [(0, 0), (1, 0)])
    assert not ok and "strict" in witness


def test_deform_surjects_onto_original(rng):
    from conftest import random_ideal

    def random_valid_shifts(g, rng):
        # one weakly monotone value map per variable keeps both clauses
        n = g.nvars
        maxe = max((e for m in g.gens for e in m.exps), default=0)
        tables = []
        for _ in range(n):
            t, cur = [0], 0
            for _ in range(maxe):
                cur += rng.randint(1, 2)
                t.append(cur)
            tables.append(t)
        return [
            tuple(tables[j][m.exps[j]] - m.exps[j] for j in range(n)) for m in g.gens
        ]

    for _ in range(12):
        g = random_ideal(rng, max_vars=3, max_gens=4, max_exp=3).minimalize()
        shifts = random_valid_shifts(g, rng)
        ok, _ = validate_deformation(g, shifts)
        assert ok
        d = deform(g, shifts)
        src = lcm_semilattice(d)
        tgt = lcm_semilattice(g)
        # deformed lcm -> original lcm over the same generator subset
        image = []
        for m in src.monomials:
            subset = [i for i, dg in enumerate(d.gens) if dg.divides(m)]
            orig = g.gens[subset[0]]
            for i in subset[1:]:
                orig = orig.lcm(g.gens[i])
            image.append(tgt.monomials.index(orig))
        phi = JoinMap(src.lattice, tgt.lattice, image)
        assert phi.is_surjective


def test_deform_pair_containment_recheck():
    # both clauses hold generator-wise, yet containment J in I breaks:
    # union (xy, x^2y) with xy shifted by y^5 gives (xy^6, x^2y)
    pair = QuotientPair(gens(("x", "y"), "x*y"), gens(("x", "y"), "x^2*y"))
    ok, _ = validate_deformation(union_generators(pair), [(0, 5), (0, 0)])
    assert ok
    with pytest.raises(InvalidDeformation):
        deform(pair, [(0, 5), (0, 0)])
    # validate_deformation judges a pair the way deform does
    ok, witness = validate_deformation(pair, [(0, 5), (0, 0)])
    assert not ok and "J inside I" in witness
    assert validate_deformation(pair, [(1, 0), (1, 0)]) == (True, None)
    ok, witness = validate_deformation(pair, [(1, 0), (0, 0)])
    assert not ok and "strict" in witness
    assert validate_deformation(ideal_pair(gens(("x", "y"), "x", "y")), [(0, 0), (0, 0)]) == (True, None)
    # a joint shift that respects containment goes through
    out = deform(pair, [(1, 0), (1, 0)])
    assert sorted(out.i.render()) == ["x^2*y"]
    assert sorted(out.j.render()) == ["x^3*y"]


def test_generic_examples():
    assert is_generic(gens(("x", "y"), "x^2*y", "x*y^2"))
    assert not is_generic(gens(("x", "y", "z"), "x*y", "y*z"))
    assert is_generic(gens(("x", "y"), "x^2*y"))


# ---------------- pairs and serialization ----------------


def test_quotient_pair_containment():
    with pytest.raises(InvalidInput):
        QuotientPair(gens(("x", "y"), "x^2"), gens(("x", "y"), "y"))
    pair = QuotientPair(gens(("x", "y"), "x"), gens(("x", "y"), "x*y"))
    assert pair.is_proper


def test_union_generators_keeps_multiset_order():
    pair = QuotientPair(gens(("x", "y"), "x", "x*y"), gens(("x", "y"), "x*y", "x^2"))
    u = union_generators(pair)
    assert [render_monomial(m, u.variables) for m in u.gens] == ["x", "x*y", "x^2"]


def test_json_roundtrips():
    g = ideal_one()
    assert gens_from_json(gens_to_json(g)).render() == g.render()
    pair = QuotientPair(gens(("x", "y"), "x"), gens(("x", "y"), "x*y"))
    back = pair_from_json(pair_to_json(pair))
    assert back.i.render() == pair.i.render() and back.j.render() == pair.j.render()
    w = weight_map(g)
    wb = weighting_from_json(weighting_to_json(w))
    assert wb.weights == w.weights and wb.bottom == w.bottom
    with pytest.raises(InvalidInput):
        gens_from_json({"variables": ["x"]})

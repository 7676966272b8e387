import os
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from lcmlat import (
    CyclicRelation,
    GeneratorSet,
    InvalidInput,
    JoinMap,
    Monomial,
    NotASemilattice,
    NotAtomistic,
    NotJoinPreserving,
    NotSurjective,
    Semilattice,
    boolean_semilattice,
    canonical_form,
    collapse,
    factor_chain,
    factor_map,
    free_cover_map,
    is_generic,
    is_isomorphic,
    lattice_from_json,
    lattice_to_dot,
    lattice_to_json,
    lcm_semilattice,
    pseudo_inverse,
)

from lcmlat.lattice import family_semilattice

from oracles import (
    closure_by_search,
    covers_by_definition,
    divisibility_matrix,
    is_atomistic_by_definition,
    isomorphic_by_search,
    joins_by_definition,
    least_upper_bound,
)


def join_table(lat):
    """lat.join(a, b) for every pair, as a tuple of rows."""
    return tuple(tuple(lat.join(a, b) for b in range(lat.n)) for a in range(lat.n))


def diamondish():
    # two atoms joined at c, then a chain above: every join exists
    return Semilattice.from_relations(
        list("abcde"), [(0, 2), (1, 2), (2, 3), (3, 4)]
    )


def test_build_rejects_cycles():
    with pytest.raises(CyclicRelation):
        Semilattice.from_relations(["a", "b"], [(0, 1), (1, 0)])


def test_build_rejects_missing_joins():
    # two maximal elements above two minimal ones: no top, a v b undefined
    with pytest.raises(NotASemilattice):
        Semilattice.from_relations(list("abcd"), [(0, 2), (1, 2), (0, 3), (1, 3)])


def test_join_table_checked():
    b2 = boolean_semilattice(2)
    bad = [list(row) for row in join_table(b2)]
    bad[0][1] = 0  # {1} v {2} must be the top
    with pytest.raises((NotASemilattice, InvalidInput)):
        Semilattice.from_join_table(list(b2.labels), bad)


def test_from_join_table_rebuilds_every_census_class():
    from lcmlat import enumerate_atomistic

    classes = 0
    for _, lat in enumerate_atomistic(4):
        built = Semilattice.from_join_table(list(lat.labels), join_table(lat))
        assert built.upper_masks == lat.upper_masks
        classes += 1
    assert classes == 50  # the classes of the 4-atom census golden


def test_from_join_table_rejects_each_bad_table():
    b2 = boolean_semilattice(2)
    table = join_table(b2)
    with pytest.raises(InvalidInput, match="shape"):
        Semilattice.from_join_table(list(b2.labels), table[:2])
    with pytest.raises(InvalidInput, match="shape"):
        Semilattice.from_join_table(list(b2.labels), [row[:2] for row in table])
    loose = [list(row) for row in table]
    loose[0][0] = 2  # {1} v {1} = {1,2}, still symmetric
    with pytest.raises(InvalidInput, match="idempotent"):
        Semilattice.from_join_table(list(b2.labels), loose)
    # a v b = b and b v c = c say a <= b <= c, but a v c = b says neither a <= c nor c <= a
    with pytest.raises(InvalidInput, match="transitive"):
        Semilattice.from_join_table(list("abc"), [[0, 1, 1], [1, 1, 2], [1, 2, 2]])
    b3 = boolean_semilattice(3)
    wrong = [list(row) for row in join_table(b3)]
    a, b, top = b3.atoms[0], b3.atoms[1], b3.top
    wrong[a][b] = wrong[b][a] = top  # the order it induces stays that of B3
    with pytest.raises(NotASemilattice):
        Semilattice.from_join_table(list(b3.labels), wrong)


def test_from_leq_rejects_non_orders():
    with pytest.raises(InvalidInput):
        Semilattice.from_leq(["a", "b"], [0b10, 0b10])  # a <= a missing
    with pytest.raises(CyclicRelation):
        Semilattice.from_leq(["a", "b"], [0b11, 0b11])


def test_from_leq_rejects_stray_bits():
    with pytest.raises(InvalidInput):
        Semilattice.from_leq(["a", "b"], [0b111, 0b110])  # bit 2 names no element
    with pytest.raises(InvalidInput):
        Semilattice.from_leq(["a", "b"], [0b11, 0b00])  # b <= b missing


def test_mask_order_matches_divisibility(rng):
    from conftest import random_ideal

    for _ in range(40):
        lam = lcm_semilattice(random_ideal(rng))
        lat, n = lam.lattice, lam.lattice.n
        leq = divisibility_matrix(lam.monomials)
        assert lat.leq.tolist() == leq
        assert [[bool(m >> j & 1) for j in range(n)] for m in lat.upper_masks] == leq
        assert list(lat.covers) == covers_by_definition(leq)
        transposed = [[leq[j][i] for j in range(n)] for i in range(n)]
        assert [[bool(m >> j & 1) for j in range(n)] for m in lat.lower_masks] == transposed


def test_from_relations_matches_closure_by_search(rng):
    built = refused = 0
    for _ in range(300):
        n = rng.randint(1, 7)
        hidden = list(range(n))  # a linear extension, so the relation has no cycle
        rng.shuffle(hidden)
        top = rng.random() < 0.7  # most draws put the last element above all others
        pairs = [(hidden[i], hidden[j]) for i in range(n) for j in range(i + 1, n)
                 if (top and j == n - 1) or rng.random() < 0.3]
        leq = closure_by_search(n, pairs)
        joins = joins_by_definition(leq)
        if joins is None:
            with pytest.raises(NotASemilattice) as info:
                Semilattice.from_relations([str(i) for i in range(n)], pairs)
            # the error names the first pair a <= b, row-major, with no least upper bound
            missing = [(a, b) for a in range(n) for b in range(a, n)
                       if least_upper_bound(leq, a, b) is None]
            assert (info.value.a, info.value.b) == missing[0]
            refused += 1
            continue
        lat = Semilattice.from_relations([str(i) for i in range(n)], pairs)
        assert lat.leq.tolist() == leq and join_table(lat) == joins
        built += 1
    assert built > 50 and refused > 50


# a generic ideal of 10 generators in 9 variables whose lcm-lattice has 767 elements
_GENERIC_10 = [
    [2, 3, 6, 0, 3, 9, 5, 4, 7], [7, 9, 4, 5, 0, 0, 8, 1, 5], [4, 0, 2, 4, 9, 7, 0, 0, 4],
    [3, 8, 0, 9, 7, 4, 6, 5, 2], [6, 4, 5, 1, 6, 1, 3, 9, 6], [5, 6, 7, 6, 4, 2, 9, 3, 0],
    [1, 7, 8, 8, 1, 3, 2, 8, 9], [8, 2, 1, 2, 5, 5, 7, 2, 8], [9, 1, 9, 7, 8, 6, 1, 6, 1],
    [0, 5, 3, 3, 2, 8, 4, 7, 3],
]


def test_lcm_semilattice_keeps_no_quadratic_table():
    # n upper-set masks of n bits take about n^2 / 8 bytes; a table of n x n
    # element references would take 8 n^2 bytes of pointers alone
    gens = GeneratorSet(tuple(f"x{j}" for j in range(9)), [Monomial(g) for g in _GENERIC_10])
    assert is_generic(gens)
    lcm_semilattice(gens)  # warm any first-call caches
    tracemalloc.start()
    try:
        lat = lcm_semilattice(gens).lattice
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert lat.n == 767
    assert peak < 8 * lat.n ** 2 // 4, peak


def test_order_view_is_read_only():
    lat = Semilattice.from_leq(["a", "b"], [0b11, 0b10])
    with pytest.raises(TypeError):
        lat.leq[1, 0] = True
    assert not lat.leq[1, 0] and lat.leq[0, 1]


_OPTIMIZED_CHECKS = textwrap.dedent("""
    from lcmlat import (CyclicRelation, GeneratorSet, InternalError, InvalidInput,
                        Monomial, NotASemilattice, Semilattice, boolean_semilattice,
                        ideal_pair, sdepth_solve, sdepth_value)
    from lcmlat import sdepth
    if __debug__:
        raise SystemExit("asserts are still on")
    b2 = boolean_semilattice(2)
    bad = [[b2.join(a, b) for b in range(b2.n)] for a in range(b2.n)]
    bad[0][1] = 0
    try:
        Semilattice.from_join_table(list(b2.labels), bad)
        raise SystemExit("bad join table accepted")
    except (NotASemilattice, InvalidInput):
        pass
    try:
        Semilattice.from_leq(["a", "b"], [0b11, 0b11])
        raise SystemExit("cyclic order accepted")
    except CyclicRelation:
        pass
    sdepth._first_to_finish = lambda *args: [(0, 0)]
    for entry in (sdepth_solve, sdepth_value):
        try:
            entry(ideal_pair(GeneratorSet(
                ("x", "y", "z"), [Monomial((1, 0, 0)), Monomial((0, 1, 0)), Monomial((0, 0, 1))])))
            raise SystemExit(f"unverified sdepth witness accepted by {entry.__name__}")
        except InternalError:
            pass
    from lcmlat import resolution, taylor_betti
    resolution._rank = lambda rows, ncols, config: ncols + 1
    try:
        taylor_betti(ideal_pair(GeneratorSet(
            ("x", "y"), [Monomial((2, 0)), Monomial((1, 1)), Monomial((0, 2))])))
        raise SystemExit("negative Betti number accepted")
    except InternalError:
        pass
    from lcmlat import JoinMap, factor_map, lattice
    lat = Semilattice.from_leq(["a", "b"], [0b11, 0b10])
    lat.upper_masks = (0b11, 0b11)
    try:
        lat.top
        raise SystemExit("a semilattice without a top accepted")
    except InternalError:
        pass
    lattice.JoinMap.is_injective = property(lambda self: False)
    try:
        factor_map(JoinMap.identity(b2))
        raise SystemExit("a non-injective map that glues no cover pair accepted")
    except InternalError:
        pass
    from lcmlat import squarefree_check
    GeneratorSet.is_squarefree_raw = lambda self: False
    try:
        squarefree_check(GeneratorSet(("x",), [Monomial((1,))]))
        raise SystemExit("a squarefree verdict against the exponents accepted")
    except InternalError:
        pass
    import importlib
    from lcmlat import canonical_realization
    realize = importlib.import_module("lcmlat.realize")
    from lcmlat import Weighting
    chain = Semilattice.from_relations(["a", "b"], [(0, 1)])
    try:
        realize._check_roundtrip(
            Weighting(chain, ("x",), Monomial((1,)), (Monomial((1,)), Monomial((0,)))),
            GeneratorSet(("x",), [Monomial((2,)), Monomial((1,))]))
        raise SystemExit("a realization dividing against the order accepted")
    except InternalError:
        pass
    realize.realize = lambda w: GeneratorSet(("x",), [Monomial((2,))])
    try:
        canonical_realization(boolean_semilattice(1))
        raise SystemExit("a non-squarefree canonical realization accepted")
    except InternalError:
        pass
""")


def test_validation_survives_optimized_python():
    import lcmlat

    src = str(Path(lcmlat.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-O", "-c", _OPTIMIZED_CHECKS],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_boolean_joins_are_unions():
    for k in range(1, 5):
        bk = boolean_semilattice(k)
        for a in range(bk.n):
            for b in range(bk.n):
                assert bk.join(a, b) == ((a + 1) | (b + 1)) - 1


def _remapped_join(lat, a):
    """Join table of collapse(lat, a) read off lat's joins, a sent to its cover."""
    keep = [x for x in range(lat.n) if x != a]
    new_index = {x: i for i, x in enumerate(keep)}
    new_index[a] = new_index[lat.upper_covers[a][0]]
    return tuple(tuple(new_index[lat.join(x, y)] for y in keep) for x in keep)


def test_collapse_joins_match_remapped_table():
    def walk(lat, depth):
        for a in lat.meet_irreducibles:
            if a in lat.atoms:
                continue
            quot, _ = collapse(lat, a)
            assert join_table(quot) == _remapped_join(lat, a)
            if depth > 1:
                walk(quot, depth - 1)

    walk(boolean_semilattice(3), 2)


def test_boolean_structure():
    b3 = boolean_semilattice(3)
    assert b3.n == 7
    assert len(b3.atoms) == 3
    assert b3.is_atomistic
    assert sorted(b3.meet_irreducibles) == sorted(
        x for x in range(7) if len(b3.upper_covers[x]) == 1
    )
    # coatoms are the meet-irreducibles of a boolean semilattice
    assert len(b3.meet_irreducibles) == 3
    assert b3.top == b3.join_of(b3.atoms)
    assert all(b3.leq[m, b3.upper_covers[m][0]] for m in b3.meet_irreducibles)


def test_diamond_covers_and_joins():
    lat = diamondish()
    assert lat.top == 4
    assert set(lat.atoms) == {0, 1}
    assert lat.join_of([0, 1]) == 2
    assert lat.join_of([0, 3]) == 3
    # the two-minimal-upper-bound shape must be refused
    with pytest.raises(NotASemilattice):
        Semilattice.from_relations(
            list("abcde"), [(0, 2), (0, 3), (1, 2), (1, 3), (2, 4), (3, 4)]
        )


def test_chain_meet_irreducibles():
    chain = Semilattice.from_relations(list("abc"), [(0, 1), (1, 2)])
    assert list(chain.meet_irreducibles) == [0, 1]
    assert chain.atoms == (0,)
    # a one-element semilattice has no meet-irreducibles at all
    assert boolean_semilattice(1).meet_irreducibles == ()


def test_atom_sets_and_atomistic():
    b3 = boolean_semilattice(3)
    assert sorted(b3.atom_sets) == sorted(range(1, 8))
    chain = Semilattice.from_relations(list("abc"), [(0, 1), (1, 2)])
    assert not chain.is_atomistic


def test_atomistic_matches_definition(rng):
    seen = {True: 0, False: 0}
    for _ in range(300):
        ground = rng.randint(1, 4)
        family = {rng.randrange(1, 1 << ground) for _ in range(rng.randint(1, 8))}
        closed = set(family)
        while True:
            more = {a | b for a in closed for b in closed} - closed
            if not more:
                break
            closed |= more
        lat = family_semilattice(closed)
        verdict = is_atomistic_by_definition(lat.leq.tolist())
        assert lat.is_atomistic == verdict
        seen[verdict] += 1
    assert min(seen.values()) > 50


def test_collapse_merges_meet_irreducible():
    b2 = boolean_semilattice(2)
    a = b2.meet_irreducibles[0]
    quot, pi = collapse(b2, a)
    assert quot.n == b2.n - 1
    assert pi.is_surjective and not pi.is_injective
    # the collapsed element and its cover land together
    up = b2.upper_covers[a][0]
    assert pi(a) == pi(up)


def test_collapse_rejects_non_meet_irreducible():
    b2 = boolean_semilattice(2)
    from lcmlat import NotMeetIrreducible

    with pytest.raises(NotMeetIrreducible):
        collapse(b2, b2.top)


def test_join_map_validation():
    b2 = boolean_semilattice(2)
    with pytest.raises(NotJoinPreserving):
        JoinMap(b2, b2, [0, 1, 0])  # {1}v{2}=top -> 0 but 0v1 = 2
    with pytest.raises(InvalidInput):
        JoinMap(b2, b2, [0, 1])
    ident = JoinMap.identity(b2)
    assert ident.is_bijective


def test_join_map_after_needs_the_middle_order():
    # V and the 3-chain both have three elements but differ as orders
    v = Semilattice.from_relations(["a", "b", "c"], [(0, 2), (1, 2)])
    chain = Semilattice.from_relations(["0", "1", "2"], [(0, 1), (1, 2)])
    to_top = JoinMap(v, chain, [2, 2, 2])
    with pytest.raises(InvalidInput, match="maps do not compose"):
        to_top.after(JoinMap.identity(chain))
    # a second copy of V is the same order, so the maps compose through it
    v_copy = Semilattice.from_relations(["p", "q", "r"], [(0, 2), (1, 2)])
    assert to_top.after(JoinMap.identity(v_copy)).image == (2, 2, 2)


def test_pseudo_inverse_properties():
    b3 = boolean_semilattice(3)
    a = b3.meet_irreducibles[1]
    quot, pi = collapse(b3, a)
    psi = pseudo_inverse(pi)
    # section
    for t in range(quot.n):
        assert pi(psi(t)) == t
    # monotone
    for s in range(quot.n):
        for t in range(quot.n):
            if quot.leq[s, t]:
                assert b3.leq[psi(s), psi(t)]
    # adjunction: pi(x) <= t iff x <= psi(t)
    for x in range(b3.n):
        for t in range(quot.n):
            assert bool(quot.leq[pi(x), t]) == bool(b3.leq[x, psi(t)])


def test_pseudo_inverse_needs_surjectivity():
    b2 = boolean_semilattice(2)
    b1 = boolean_semilattice(1)
    inj = JoinMap(b1, b2, [2])
    with pytest.raises(NotSurjective):
        pseudo_inverse(inj)


def test_free_cover_and_factor_chain():
    b3 = boolean_semilattice(3)
    a = b3.meet_irreducibles[0]
    quot, pi = collapse(b3, a)
    quot2, pi2 = collapse(quot, quot.meet_irreducibles[0])
    phi = pi2.after(pi)
    steps, resid = factor_chain(phi)
    assert len(steps) == b3.n - quot2.n == 2
    assert resid.is_bijective
    # recompose: resid o (last o ... o first) == phi
    comp = steps[0].projection
    for s in steps[1:]:
        comp = s.projection.after(comp)
    comp = resid.after(comp)
    assert comp.image == phi.image


def test_factor_map_none_for_bijections():
    b2 = boolean_semilattice(2)
    assert factor_map(JoinMap.identity(b2)) is None


def test_free_cover_surjects_onto_collapses():
    b3 = boolean_semilattice(3)
    lat = b3
    for _ in range(2):
        mi = [a for a in lat.meet_irreducibles if a not in lat.atoms]
        if not mi:
            break
        lat, _ = collapse(lat, mi[0])
    if lat.is_atomistic:
        phi = free_cover_map(lat)
        assert phi.source.n == 2 ** len(lat.atoms) - 1
        steps, resid = factor_chain(phi)
        assert resid.is_bijective
        assert len(steps) == phi.source.n - lat.n


def test_free_cover_needs_atomistic():
    chain = Semilattice.from_relations(list("abc"), [(0, 1), (1, 2)])
    with pytest.raises(NotAtomistic):
        free_cover_map(chain)


def _relabel(lat, perm):
    inv = {perm[i]: i for i in range(lat.n)}
    n = lat.n
    upper = [0] * n
    for i in range(n):
        for j in range(n):
            if lat.leq[i, j]:
                upper[perm[i]] |= 1 << perm[j]
    labels = [None] * n
    for i in range(n):
        labels[perm[i]] = lat.labels[i]
    return Semilattice.from_leq(labels, upper)


@settings(max_examples=40, deadline=None)
@given(st.permutations(list(range(7))))
def test_canonical_form_is_relabel_invariant(perm):
    b3 = boolean_semilattice(3)
    assert canonical_form(_relabel(b3, list(perm))) == canonical_form(b3)


@settings(max_examples=25, deadline=None)
@given(st.permutations(list(range(6))), st.integers(0, 2))
def test_canonical_form_collapsed(perm, which):
    b3 = boolean_semilattice(3)
    lat, _ = collapse(b3, b3.meet_irreducibles[which])
    assert canonical_form(_relabel(lat, list(perm))) == canonical_form(lat)


@settings(max_examples=25, deadline=None)
@given(st.permutations(list(range(8))))
def test_canonical_form_general_path_with_bottom(perm):
    # B3 with an empty set below: one atom, so not atomistic, and the general
    # canonizer permutes two colour classes of three (the singletons and the pairs)
    lat = family_semilattice(range(8))
    assert not lat.is_atomistic
    key = canonical_form(lat)
    assert key.startswith(b"P8;")
    assert canonical_form(_relabel(lat, list(perm))) == key


# union-closed and not atomistic: 0111, 1011 and 1101 share their counts of
# elements below and above; one refinement round splits off 1101 and leaves
# 0111 and 1011 a class of two
_REFINED_FAMILY = (0b0011, 0b0111, 0b1011, 0b1100, 0b1101, 0b1111)


@settings(max_examples=25, deadline=None)
@given(st.permutations(list(range(6))))
def test_canonical_form_after_refinement(perm):
    from lcmlat.lattice import _groups, _refined_colors

    lat = family_semilattice(_REFINED_FAMILY)
    assert not lat.is_atomistic
    assert sorted(map(len, _groups(_refined_colors(lat)).values())) == [1, 1, 1, 1, 2]
    key = canonical_form(lat)
    assert key.startswith(b"P6;")
    assert canonical_form(_relabel(lat, list(perm))) == key


def _random_semilattice(rng, n):
    while True:
        hidden = list(range(n))
        rng.shuffle(hidden)
        pairs = [(hidden[i], hidden[j]) for i in range(n) for j in range(i + 1, n)
                 if j == n - 1 or rng.random() < 0.4]
        try:
            return Semilattice.from_relations([str(i) for i in range(n)], pairs)
        except NotASemilattice:
            continue


def test_is_isomorphic_matches_search(rng):
    seen = {True: 0, False: 0}
    for _ in range(150):
        a = _random_semilattice(rng, rng.randint(1, 7))
        perm = list(range(a.n))
        rng.shuffle(perm)
        b = _relabel(a, perm) if rng.random() < 0.3 else _random_semilattice(rng, a.n)
        verdict = isomorphic_by_search(a.leq.tolist(), b.leq.tolist())
        assert is_isomorphic(a, b) == verdict
        assert (canonical_form(a) == canonical_form(b)) == verdict
        seen[verdict] += 1
    assert min(seen.values()) > 30


def test_isomorphism_distinguishes():
    b3 = boolean_semilattice(3)
    chain7 = Semilattice.from_relations(list("abcdefg"), [(i, i + 1) for i in range(6)])
    assert not is_isomorphic(b3, chain7)
    assert is_isomorphic(b3, _relabel(b3, [3, 1, 4, 0, 6, 2, 5]))
    # collapse in two different symmetric positions gives isomorphic results
    qa, _ = collapse(b3, b3.meet_irreducibles[0])
    qb, _ = collapse(b3, b3.meet_irreducibles[2])
    assert is_isomorphic(qa, qb)


def test_canonical_form_nonatomistic_path():
    chain = Semilattice.from_relations(list("abc"), [(0, 1), (1, 2)])
    vee = Semilattice.from_relations(list("abc"), [(0, 2), (1, 2)])
    key_chain = canonical_form(chain)
    key_vee = canonical_form(vee)
    assert key_chain != key_vee
    assert key_chain.startswith(b"P") and key_vee.startswith(b"A")


def test_json_roundtrip():
    lat = diamondish()
    doc = lattice_to_json(lat)
    back = lattice_from_json(doc)
    assert back.labels == lat.labels
    assert back.leq.tolist() == lat.leq.tolist()
    assert join_table(back) == join_table(lat)


def test_dot_output_mentions_every_label():
    lat = diamondish()
    dot = lattice_to_dot(lat)
    for lab in lat.labels:
        assert lab in dot
    assert dot.startswith("digraph")


def test_heights():
    b3 = boolean_semilattice(3)
    assert sorted(b3.heights) == [0, 0, 0, 1, 1, 1, 2]

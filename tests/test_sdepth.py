import json
import random
from itertools import product
from operator import add, eq, le
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from lcmlat import (
    EmptyModule,
    GeneratorSet,
    InternalError,
    LcmlatError,
    LimitExceeded,
    Monomial,
    QuotientPair,
    characteristic_poset,
    gens_from_json,
    ideal_pair,
    parse_monomial,
    quotient_ring_pair,
    realize,
    sdepth_solve,
    sdepth_value,
    sdepth_values,
    verify_decomposition,
)
from lcmlat import sdepth as sdepth_module
from lcmlat.config import DEFAULT, Config

from oracles import (box_cells, box_points, brute_sdepth_pair, first_found_cover,
                     first_found_witness, order_masks_by_definition, polarized_hilbert_cap,
                     tiling_by_definition)

GOLDEN = Path(__file__).resolve().parent / "golden"


def _gens(names, *monos):
    vs = tuple(names)
    return GeneratorSet(vs, [parse_monomial(m, vs) for m in monos])


def _variables_ideal(k):
    return GeneratorSet(
        tuple(f"x{i}" for i in range(k)),
        [Monomial([1 if j == i else 0 for j in range(k)]) for i in range(k)],
    )


# ---------------- the characteristic poset ----------------


def test_poset_for_quotient_by_variables():
    # S/(x, y): only the origin survives, pinned to the all-ones ceiling
    # in zero coordinates, so its ceiling count is zero
    pos = characteristic_poset(quotient_ring_pair(_variables_ideal(2)))
    assert pos.ceiling == (1, 1)
    assert pos.points == ((0, 0),)
    assert pos.ceiling_count((0, 0)) == 0


def test_poset_for_principal_ideal():
    pos = characteristic_poset(ideal_pair(_gens(("x", "y"), "x*y")))
    assert pos.ceiling == (1, 1)
    assert pos.points == ((1, 1),)
    assert pos.ceiling_count((1, 1)) == 2


def test_poset_zero_capped_coordinates_count():
    # (x) in the ring with a spectator y: ceiling (1, 0); the point (1, 0)
    # is pinned in both coordinates
    pos = characteristic_poset(ideal_pair(_gens(("x", "y"), "x")))
    assert pos.ceiling == (1, 0)
    assert pos.ceiling_count((1, 0)) == 2


def test_poset_respects_denominator():
    pair = QuotientPair(_gens(("x", "y"), "x"), _gens(("x", "y"), "x*y"))
    pos = characteristic_poset(pair)
    assert (1, 1) not in pos.points
    assert (1, 0) in pos.points


def test_poset_sorted_by_degree():
    pos = characteristic_poset(ideal_pair(_gens(("x", "y"), "x", "y")))
    degs = [sum(p) for p in pos.points]
    assert degs == sorted(degs)


# ---------------- exact values on the variable ladder ----------------


def test_variable_ladder():
    for k in range(1, 5):
        gens = _variables_ideal(k)
        ri = sdepth_solve(ideal_pair(gens))
        assert ri.sdepth == k - k // 2
        assert ri.spdim == k // 2
        rq = sdepth_solve(quotient_ring_pair(gens))
        assert rq.sdepth == 0
        assert rq.spdim == k


def test_principal_ideal_full_depth():
    r = sdepth_solve(ideal_pair(_gens(("x", "y"), "x*y")))
    assert r.sdepth == 2 and r.spdim == 0


def test_squarefree_triangle_values():
    gens = _gens(("x", "y", "z"), "x*y", "x*z", "y*z")
    assert sdepth_solve(quotient_ring_pair(gens)).spdim == 2
    assert sdepth_solve(ideal_pair(gens)).sdepth == 2


# ---------------- agreement with exhaustive search ----------------


def test_matches_brute_force_on_random_ideals(rng):
    from conftest import random_ideal

    for _ in range(25):
        gens = random_ideal(rng, max_vars=3, max_gens=4, max_exp=2).minimalize()
        pair = ideal_pair(gens)
        assert sdepth_solve(pair).sdepth == brute_sdepth_pair(pair)


def test_matches_brute_force_on_random_quotient_rings(rng):
    from conftest import random_ideal

    for _ in range(15):
        gens = random_ideal(rng, max_vars=3, max_gens=3, max_exp=2).minimalize()
        pair = quotient_ring_pair(gens)
        assert sdepth_solve(pair).sdepth == brute_sdepth_pair(pair)


def test_matches_brute_force_on_random_pairs(rng):
    from conftest import random_proper_pair

    for _ in range(15):
        pair = random_proper_pair(rng, max_vars=3, max_gens=3, max_exp=2)
        assert sdepth_solve(pair).sdepth == brute_sdepth_pair(pair)


def test_matches_brute_force_on_random_squarefree_ideals(rng):
    for _ in range(30):
        nvars = rng.randint(4, 5)
        gens = [Monomial([rng.randint(0, 1) for _ in range(nvars)])
                for _ in range(rng.randint(1, 5))]
        gens = [m for m in gens if not m.is_unit()] or [Monomial([1] * nvars)]
        ideal = GeneratorSet(tuple(f"x{j}" for j in range(nvars)), gens).minimalize()
        for pair in (ideal_pair(ideal), quotient_ring_pair(ideal)):
            assert sdepth_solve(pair).sdepth == brute_sdepth_pair(pair)


def _random_squarefree_pairs(rng, count):
    """I, S/I and proper pairs I/J on squarefree boxes, some variables unused."""
    pairs = []
    while len(pairs) < count:
        nvars = rng.randint(2, 5)
        unused = set(rng.sample(range(nvars), rng.randint(0, 1)))
        gens = [Monomial([0 if j in unused else rng.randint(0, 1) for j in range(nvars)])
                for _ in range(rng.randint(1, 5))]
        gens = [m for m in gens if not m.is_unit()]
        if not gens:
            continue
        ideal = GeneratorSet(tuple(f"x{j}" for j in range(nvars)), gens).minimalize()
        j_gens = [g.lcm(Monomial([0 if j in unused else rng.randint(0, 1)
                                  for j in range(nvars)])) for g in ideal.gens]
        pair = QuotientPair(ideal, GeneratorSet(ideal.variables, j_gens))
        pairs += [ideal_pair(ideal), quotient_ring_pair(ideal)]
        if pair.is_proper():
            pairs.append(pair)
    return pairs


def test_hilbert_cap_never_below_sdepth(rng):
    from conftest import random_ideal, random_proper_pair

    pairs = _random_squarefree_pairs(rng, 60)
    for _ in range(40):
        gens = random_ideal(rng, max_vars=3, max_gens=4, max_exp=2).minimalize()
        pairs += [ideal_pair(gens), quotient_ring_pair(gens),
                  random_proper_pair(rng, max_vars=3, max_gens=3, max_exp=2)]
    kinds = set()
    for pair in pairs:
        pos = characteristic_poset(pair)
        assert sdepth_module._hilbert_cap(pos) >= brute_sdepth_pair(pair)
        kinds.add((0 in pos.ceiling, max(pos.ceiling) > 1))
    assert kinds == {(True, False), (False, False), (True, True), (False, True)}


def test_hilbert_cap_matches_polarized_oracle(rng):
    from conftest import random_ideal, random_proper_pair

    shapes = set()
    for _ in range(40):
        gens = random_ideal(rng, max_vars=3, max_gens=4, max_exp=3).minimalize()
        for pair in (ideal_pair(gens), quotient_ring_pair(gens),
                     random_proper_pair(rng, max_vars=3, max_gens=3, max_exp=3)):
            pos = characteristic_poset(pair)
            assert sdepth_module._hilbert_cap(pos) == polarized_hilbert_cap(pair)
            shapes.add(max(pos.ceiling) > 1)
    assert shapes == {True, False}


def test_hilbert_cap_values():
    # (x, y): f = (0, 2, 1) allows depth 1 only; (x, y, z) allows 2
    cap = sdepth_module._hilbert_cap
    assert cap(characteristic_poset(ideal_pair(_variables_ideal(2)))) == 1
    assert cap(characteristic_poset(ideal_pair(_variables_ideal(3)))) == 2
    # not squarefree, through the polarization (x1*x2, y): f = (0, 1, 3, 1)
    # allows depth 2 of 3, so 2 - 3 + 2 = 1, the sdepth of (x^2, y)
    assert cap(characteristic_poset(ideal_pair(_gens(("x", "y"), "x^2", "y")))) == 1
    # a principal ideal keeps the full depth on any box
    assert cap(characteristic_poset(ideal_pair(_gens(("x", "y"), "x^3")))) == 2
    # a zero-capped spectator counts in full: (x) in k[x, y] has depth 2
    assert cap(characteristic_poset(ideal_pair(_gens(("x", "y"), "x")))) == 2


def test_witness_matches_first_found_oracle(rng):
    from conftest import random_ideal, random_proper_pair

    for _ in range(15):
        gens = random_ideal(rng, max_vars=3, max_gens=4, max_exp=2).minimalize()
        for pair in (ideal_pair(gens), quotient_ring_pair(gens),
                     random_proper_pair(rng, max_vars=3, max_gens=3, max_exp=2)):
            assert sdepth_solve(pair).witness == first_found_witness(*box_points(pair))


def test_witness_matches_first_found_oracle_on_squarefree_boxes(rng):
    for pair in _random_squarefree_pairs(rng, 40):
        assert sdepth_solve(pair).witness == first_found_witness(*box_points(pair))


# ---------------- order masks and search order ----------------


def test_interval_masks_match_pairwise_comparison(rng):
    from conftest import random_proper_pair

    shapes = set()
    for _ in range(20):
        pair = random_proper_pair(rng, max_vars=5, max_gens=3, max_exp=3)
        pos = characteristic_poset(pair)
        pts = pos.points
        up = [sum(1 << j for j, q in enumerate(pts) if all(a <= b for a, b in zip(p, q)))
              for p in pts]
        down = [sum(1 << j for j, q in enumerate(pts) if all(a >= b for a, b in zip(p, q)))
                for p in pts]
        assert sdepth_module._interval_masks(pts) == (up, down)
        shapes.update(("zero cap" if e == 0 else "power cap" if e > 1 else "unit cap")
                      for e in pos.ceiling)
    assert shapes == {"zero cap", "unit cap", "power cap"}


def test_witness_of_four_atom_lattice_is_frozen():
    # the first top tried at each bottom is the lowest-index point of the
    # highest ceiling level; any change of that order changes this witness
    from lcmlat import canonical_realization
    from lcmlat.lattice import family_semilattice

    lat = family_semilattice([0x1, 0x2, 0x3, 0x4, 0x5, 0x7, 0x8, 0xA, 0xB, 0xC, 0xF])
    rep = sdepth_solve(ideal_pair(canonical_realization(lat)))
    assert rep.to_json() == {
        "sdepth": 4, "spdim": 1, "g": [1, 1, 1, 1, 1], "poset_size": 19,
        "witness": [
            [[0, 0, 1, 0, 1], [0, 1, 1, 1, 1]],
            [[0, 0, 1, 1, 0], [1, 1, 1, 1, 0]],
            [[1, 0, 0, 0, 1], [1, 0, 1, 1, 1]],
            [[1, 1, 0, 0, 0], [1, 1, 0, 1, 1]],
            [[1, 1, 1, 0, 0], [1, 1, 1, 0, 1]],
            [[1, 1, 1, 1, 1], [1, 1, 1, 1, 1]],
        ],
    }


# ---------------- witnesses and their verification ----------------


def test_unverified_witness_raises(monkeypatch):
    # (x, y, z): the search at depth 2 returns one singleton for seven points
    monkeypatch.setattr(sdepth_module, "_first_to_finish", lambda *args: [(0, 0)])
    with pytest.raises(InternalError):
        sdepth_solve(ideal_pair(_gens(("x", "y", "z"), "x", "y", "z")))


def test_budget_bounds_pushed_frames():
    # a budget that lets every search finish changes nothing; one frame less raises
    pair = quotient_ring_pair(_gens(("x", "y", "z", "w"), "x*y", "y*z", "z*w", "w*x"))
    free = sdepth_solve(pair).to_json()

    def passes(budget):
        try:
            return sdepth_solve(pair, budget=budget).to_json() == free
        except LimitExceeded:
            return False

    need = next(b for b in range(10_000) if passes(b))
    assert need > 0 and not passes(need - 1) and passes(10 * need)


def test_solver_witness_verifies():
    gens = _gens(("x", "y", "z"), "x*y", "x*z", "y*z")
    for pair in (ideal_pair(gens), quotient_ring_pair(gens)):
        rep = sdepth_solve(pair)
        pos = characteristic_poset(pair)
        ok, value = verify_decomposition(pos, rep.witness)
        assert ok and value == rep.sdepth


def test_verify_rejects_foreign_point():
    pos = characteristic_poset(ideal_pair(_gens(("x", "y"), "x", "y")))
    ok, value = verify_decomposition(pos, [((0, 0), (1, 1))])
    assert not ok and value is None


def test_verify_rejects_non_interval():
    # (1,0) and (0,1) are incomparable: no interval between them
    pos = characteristic_poset(ideal_pair(_gens(("x", "y"), "x", "y")))
    ok, _ = verify_decomposition(pos, [((1, 0), (0, 1)), ((0, 1), (1, 1))])
    assert not ok


def test_verify_rejects_overlap():
    pos = characteristic_poset(ideal_pair(_gens(("x", "y"), "x", "y")))
    ok, _ = verify_decomposition(
        pos, [((1, 0), (1, 1)), ((0, 1), (1, 1)), ((1, 1), (1, 1))]
    )
    assert not ok


def test_verify_rejects_gap():
    pos = characteristic_poset(ideal_pair(_gens(("x", "y"), "x", "y")))
    ok, _ = verify_decomposition(pos, [((1, 0), (1, 1))])
    assert not ok


def test_verify_accepts_optimal_tiling():
    pos = characteristic_poset(ideal_pair(_gens(("x", "y"), "x", "y")))
    ok, value = verify_decomposition(pos, [((1, 0), (1, 1)), ((0, 1), (0, 1))])
    assert ok and value == 1


@pytest.mark.parametrize("intervals, ok", [
    ([((0, 0), (0, 0)), ((1, 0), (1, 1)), ((0, 1), (0, 1))], False),
    ([((0, 1), (0, 1)), ((0, 1), (0, 1)), ((1, 0), (1, 1))], False),
    ([((1, 0), (1, 1)), ((1, 1), (1, 1)), ((0, 1), (0, 1))], False),
    ([((1, 0), (1, 0)), ((1, 1), (1, 1)), ((0, 1), (0, 1))], True),
], ids=["singleton outside", "singleton twice", "singleton inside an interval",
        "singletons only"])
def test_verify_singletons_match_definition(intervals, ok):
    # (x, y) has the points x, y, xy in the box up to xy
    pos = characteristic_poset(ideal_pair(_gens(("x", "y"), "x", "y")))
    got = verify_decomposition(pos, intervals)
    assert got == tiling_by_definition(pos.points, pos.ceiling, intervals)
    assert got[0] == ok


def test_verify_singleton_witnesses_match_definition(rng):
    # every point alone (value: the least ceiling count), then one point
    # repeated, one dropped, or one point off the poset added
    for pair in _small_pairs(rng):
        pos = characteristic_poset(pair)
        singles = [(p, p) for p in pos.points]
        rng.shuffle(singles)
        outside = next(c for c in product(*(range(e + 2) for e in pos.ceiling))
                       if c not in set(pos.points))
        for intervals in (singles, singles + singles[:1], singles[1:],
                          singles + [(outside, outside)]):
            got = verify_decomposition(pos, intervals)
            assert got == tiling_by_definition(pos.points, pos.ceiling, intervals)
        assert verify_decomposition(pos, singles) == (
            True, min((pos.ceiling_count(p) for p in pos.points), default=None))


# ---------------- the value path ----------------


def _small_pairs(rng):
    """I, S/I and proper I/J on random boxes, and the squarefree ones."""
    from conftest import random_ideal, random_proper_pair

    pairs = _random_squarefree_pairs(rng, 40)
    for _ in range(25):
        gens = random_ideal(rng, max_vars=3, max_gens=4, max_exp=2).minimalize()
        pairs += [ideal_pair(gens), quotient_ring_pair(gens),
                  random_proper_pair(rng, max_vars=3, max_gens=3, max_exp=2)]
    return pairs


def test_value_matches_brute_force(rng):
    for pair in _small_pairs(rng):
        assert sdepth_value(pair) == brute_sdepth_pair(pair)


def test_value_matches_brute_force_in_single_frame_slices(rng, monkeypatch):
    # one frame a slice: the two searches trade turns at every push, and the
    # colon cap is consulted, at most once a solve, on any target still open
    real = sdepth_module._colon_cap
    calls = []
    monkeypatch.setattr(sdepth_module, "_SLICE", 1)
    monkeypatch.setattr(sdepth_module, "_colon_cap",
                        lambda *args: calls.append(args) or real(*args))
    pairs = _small_pairs(rng)
    for pair in pairs:
        before = len(calls)
        assert sdepth_value(pair) == brute_sdepth_pair(pair)
        assert len(calls) - before <= 1
    assert 0 < len(calls) < len(pairs)


def _setup(pair):
    """(poset, level, up, down, least ceiling count, target cap) of the pair's own search."""
    poset, box, full = sdepth_module._own_box(characteristic_poset(pair))
    return (poset, box.level, box.up, box.down, *sdepth_module._target_range(poset, box, full))


def test_level_exact_search_decides_each_target(rng):
    # alone, the level-exact search finds a partition exactly up to the
    # Stanley depth, and its partition plus singletons verifies
    for pair in _small_pairs(rng):
        poset, level, up, down, least, _ = _setup(pair)
        full = (1 << poset.size) - 1
        best = brute_sdepth_pair(pair)
        for target in range(least + 1, len(level)):
            found = sdepth_module._first_to_finish(
                [sdepth_module._level_exact_steps(target, full, up, down, level, 10**6)])
            assert (found is not None) == (target <= best)
            if found is not None:
                ok, value = verify_decomposition(
                    poset, [(poset.points[a], poset.points[b]) for a, b in found])
                assert ok and value == target


def test_search_starts_at_the_least_point_of_its_set():
    # (x, y, z) at depth 2 without its point 0, z: a search that took its
    # first bottom at index 0 could place no interval and would fail
    pair = ideal_pair(_gens(("x", "y", "z"), "x", "y", "z"))
    poset, level, up, down, _, _ = _setup(pair)
    rest = (1 << poset.size) - 2
    found = sdepth_module._first_to_finish(
        [sdepth_module._cover_steps(2, rest, up, down, level, 10**6)])
    covered = [up[a] & down[b] for a, b in found]
    assert sum(covered) == rest and all(c & rest == c for c in covered)
    assert found[0][0] == 1


def test_search_on_part_of_the_poset_matches_oracle(rng):
    # a set to cover that leaves poset points out: an interval through a left-out
    # point is never taken, and the partition is the first one a plain search finds
    outcomes = set()
    for pair in _small_pairs(rng):
        poset, level, up, down, _, _ = _setup(pair)
        full = sum(1 << i for i in range(poset.size) if rng.random() < 0.8)
        if not full or full == (1 << poset.size) - 1:
            continue
        keep = [p for i, p in enumerate(poset.points) if full >> i & 1]
        for target in range(1, len(level)):
            found = sdepth_module._first_to_finish(
                [sdepth_module._cover_steps(target, full, up, down, level, 10**6)])
            expected = first_found_cover(poset.points, poset.ceiling, target, keep)
            outcomes.add(found is None)
            if found is None:
                assert expected is None
                continue
            covered = 0
            for a, b in found:
                cover = up[a] & down[b]
                assert cover & full == cover and not cover & covered
                covered |= cover
            assert covered == full
            assert [(poset.points[a], poset.points[b]) for a, b in found] == expected
    assert outcomes == {True, False}


# the least frame budget each search of sdepth_solve on I needs, on
# ideals-pool documents whose searches backtrack deeply
_DEEP_BUDGETS = {"a7_8": 2003, "b8_0": 526, "a8_12": 8572}


@pytest.mark.parametrize("name, need", sorted(_DEEP_BUDGETS.items()))
def test_least_budget_on_deep_searches(name, need):
    pair = ideal_pair(gens_from_json(json.loads((GOLDEN / f"ideal_{name}.json").read_text())))
    report = sdepth_solve(pair, budget=need).to_json()
    assert report == json.loads((GOLDEN / f"ideal_{name}.sdepth_ideal.json").read_text())
    with pytest.raises(LimitExceeded):
        sdepth_solve(pair, budget=need - 1)


@pytest.mark.parametrize("module", [ideal_pair, quotient_ring_pair], ids=["ideal", "quotient"])
@pytest.mark.parametrize("name", sorted(_DEEP_BUDGETS))
def test_deep_search_witness_matches_first_found_oracle(name, module):
    pair = module(gens_from_json(json.loads((GOLDEN / f"ideal_{name}.json").read_text())))
    assert sdepth_solve(pair).witness == first_found_witness(*box_points(pair))


# the frames each pushes over all the searches sdepth_solve runs, in
# one-frame slices; a prune that drops or adds a frame changes the count
# even where the witness survives
_DEEP_FRAMES = {("a7_8", "ideal"): 2019, ("a8_12", "ideal"): 8588, ("b8_0", "ideal"): 574,
                ("a7_8", "quotient-ring"): 0, ("a8_12", "quotient-ring"): 0,
                ("b8_0", "quotient-ring"): 65}


@pytest.mark.parametrize("name, module", sorted(_DEEP_FRAMES))
def test_frames_of_deep_searches(name, module, monkeypatch):
    make = {"ideal": ideal_pair, "quotient-ring": quotient_ring_pair}[module]
    pair = make(gens_from_json(json.loads((GOLDEN / f"ideal_{name}.json").read_text())))
    real = sdepth_module._first_to_finish
    frames = []

    def counted(search):
        while True:
            try:
                next(search)
            except StopIteration as end:
                return end.value
            frames.append(1)
            yield

    monkeypatch.setattr(sdepth_module, "_SLICE", 1)
    monkeypatch.setattr(sdepth_module, "_first_to_finish",
                        lambda searches, *rest: real([counted(s) for s in searches], *rest))
    golden = json.loads((GOLDEN / f"ideal_{name}.sdepth_{module}.json").read_text())
    assert sdepth_solve(pair).to_json() == golden
    assert len(frames) == _DEEP_FRAMES[name, module]


def test_witness_policy_of_each_entry_point(monkeypatch):
    # a8 #12, whose cover search pushes 8572 frames: sdepth_solve keeps to
    # that search, while sdepth_value races the level-exact search against it
    # and, in one-frame slices, consults the colon cap on a target still open
    pair = ideal_pair(gens_from_json(json.loads((GOLDEN / "ideal_a8_12.json").read_text())))
    golden = json.loads((GOLDEN / "ideal_a8_12.sdepth_ideal.json").read_text())
    monkeypatch.setattr(sdepth_module, "_SLICE", 1)
    real = {name: getattr(sdepth_module, name) for name in ("_level_exact_steps", "_colon_cap")}

    def refuse(*args):
        raise AssertionError("sdepth_solve left its cover search")

    for name in real:
        monkeypatch.setattr(sdepth_module, name, refuse)
    assert sdepth_solve(pair).to_json() == golden
    calls = []
    for name, fn in real.items():
        monkeypatch.setattr(sdepth_module, name,
                            lambda *args, name=name, fn=fn: calls.append(name) or fn(*args))
    assert sdepth_value(pair) == golden["sdepth"]
    assert set(calls) == set(real)


def test_colon_cap_never_below_sdepth(rng):
    from conftest import random_ideal

    pairs = _random_squarefree_pairs(rng, 60)
    for _ in range(40):
        gens = random_ideal(rng, max_vars=3, max_gens=4, max_exp=2).minimalize()
        pairs += [ideal_pair(gens), quotient_ring_pair(gens)]
    for pair in pairs:
        poset = characteristic_poset(pair)
        cap = sdepth_module._colon_cap(pair, poset, DEFAULT)
        if pair.j.gens and not any(g.is_unit() for g in pair.i.gens):
            assert cap == float("inf")  # no colon bound for a general I/J
        else:
            assert cap >= brute_sdepth_pair(pair)


def test_colon_cap_below_the_hilbert_cap():
    # S/(z*w, y*z, x*z): the colon by z is (x, y, w), and S/(x, y, w) has
    # Stanley depth 1, the value itself, while the Hilbert cap allows 2
    pair = quotient_ring_pair(_gens(("x", "y", "z", "w"), "z*w", "y*z", "x*z"))
    poset = characteristic_poset(pair)
    assert sdepth_module._hilbert_cap(poset) == 2
    assert sdepth_module._colon_cap(pair, poset, DEFAULT) == 1 == brute_sdepth_pair(pair)


def test_unverified_value_witness_raises(monkeypatch):
    # (x, y, z): the first search to end claims one singleton for seven points
    monkeypatch.setattr(sdepth_module, "_first_to_finish", lambda *args: [(0, 0)])
    with pytest.raises(InternalError):
        sdepth_value(ideal_pair(_gens(("x", "y", "z"), "x", "y", "z")))


def test_value_budget_bounds_each_search():
    pair = quotient_ring_pair(_gens(("x", "y", "z", "w"), "x*y", "y*z", "z*w", "w*x"))
    assert sdepth_value(pair, budget=10**6) == sdepth_solve(pair).sdepth
    with pytest.raises(LimitExceeded):
        sdepth_value(pair, budget=0)


# ---------------- caps ----------------


def test_grid_cap():
    # the gcd of x^9999 and y^9999 is 1, so the cells start at 0
    gens = _gens(("x", "y"), "x^9999", "y^9999")
    with pytest.raises(LimitExceeded):
        characteristic_poset(ideal_pair(gens))


def test_poset_cap_config():
    cfg = Config(poset_cap=2)
    gens = _gens(("x", "y"), "x", "y")
    with pytest.raises(LimitExceeded):
        characteristic_poset(ideal_pair(gens), cfg)


def test_poset_cap_boundary():
    pair = ideal_pair(_gens(("x", "y", "z"), "x*y", "y^2*z", "z^3"))
    size = characteristic_poset(pair).size
    assert characteristic_poset(pair, Config(poset_cap=size)).size == size
    with pytest.raises(LimitExceeded, match=f"^characteristic poset exceeds cap {size - 1}$"):
        characteristic_poset(pair, Config(poset_cap=size - 1))


def test_grid_cap_boundary():
    # cells from (0, 0) to (1999, 1999): 2000 x 2000 is the cap itself, and
    # the points are the two edges at the ceiling; one more row is past it
    pos = characteristic_poset(ideal_pair(_gens(("x", "y"), "x^1999", "y^1999")))
    assert pos.size == 3999
    assert all(1999 in p for p in pos.points)
    assert sdepth_module._GRID_CAP == 4_000_000
    with pytest.raises(LimitExceeded, match="^search box exceeds 4000000 cells$"):
        characteristic_poset(ideal_pair(_gens(("x", "y"), "x^2000", "y^1999")))


def test_target_cap_is_the_least_highest_count_above_a_point(rng, monkeypatch):
    # before the Hilbert cap, the target cap is the least, over the points,
    # of the highest ceiling count of a point above it, here from coordinates
    from conftest import random_ideal, random_proper_pair

    monkeypatch.setattr(sdepth_module, "_hilbert_cap", lambda poset: len(poset.ceiling))
    pairs = [random_proper_pair(rng, max_vars=4, max_gens=3, max_exp=2) for _ in range(40)]
    for _ in range(40):
        gens = random_ideal(rng, max_vars=4, max_gens=4, max_exp=2).minimalize()
        pairs += [ideal_pair(gens), quotient_ring_pair(gens)]
    caps = set()
    for pair in pairs:
        pts, g = box_points(pair)
        count = {q: sum(a == b for a, b in zip(q, g)) for q in pts}
        want = min(max(count[q] for q in pts if all(map(le, p, q))) for p in pts)
        assert _setup(pair)[5] == want
        caps.add(want)
    assert len(caps) > 2


def test_poset_matches_box_scan(rng):
    from conftest import random_proper_pair

    for _ in range(20):
        pair = random_proper_pair(rng, max_vars=4, max_gens=3, max_exp=3)
        pts, g = box_points(pair)
        pos = characteristic_poset(pair)
        assert pos.ceiling == g
        assert pos.points == tuple(sorted(pts, key=lambda c: (sum(c), c)))


# ---------------- reporting ----------------


def test_report_json_shape():
    rep = sdepth_solve(ideal_pair(_gens(("x", "y"), "x", "y")))
    doc = rep.to_json()
    assert doc["sdepth"] == 1 and doc["spdim"] == 1
    assert doc["g"] == [1, 1]
    assert doc["poset_size"] == 3
    assert all(len(iv) == 2 for iv in doc["witness"])


# ---------------- the census path: I and S/I on one cached box ----------------


def _each_pair(gens, config=DEFAULT):
    """(sdepth I, sdepth S/I) by the two per-pair calls, or the error the first raises."""
    try:
        return tuple(sdepth_value(make(gens), config) for make in (ideal_pair, quotient_ring_pair))
    except LcmlatError as err:
        return type(err), str(err)


def _census_path(gens, config=DEFAULT):
    """sdepth_values(gens), or the error it raises."""
    try:
        return sdepth_values(gens, config)
    except LcmlatError as err:
        return type(err), str(err)


def test_census_path_matches_each_pair_on_small_classes(rng):
    # every class up to 4 atoms, realized three ways; the canonical and
    # random realizations put a gcd under I's generators, the one-element
    # lattice realizes as the unit ideal, whose S/I is the zero module
    from lcmlat import canonical_weighting, chain_weighting, enumerate_atomistic, random_weighting

    outcomes = set()
    for k in range(1, 5):
        for _, lat in enumerate_atomistic(k):
            for w in (chain_weighting(lat), canonical_weighting(lat), random_weighting(lat, rng)):
                gens = realize(w)
                got = _census_path(gens)
                assert got == _each_pair(gens)
                outcomes.add(got[0] is EmptyModule)
    assert outcomes == {True, False}


_gapped_gens = st.integers(1, 4).flatmap(
    lambda n: st.tuples(
        st.lists(st.integers(0, 2), min_size=n, max_size=n).filter(any),
        st.lists(st.lists(st.sampled_from((0, 1, 3)), min_size=n, max_size=n),
                 min_size=1, max_size=4),
    )
)


@settings(max_examples=60, deadline=None)
@given(_gapped_gens)
def test_census_path_matches_each_pair_on_gapped_generators(drawn):
    # generators d + v with a common factor d != 1 and exponents v from {0, 1, 3}:
    # I's own box starts at the gcd, and no generator has exponent 2 over it
    gcd, shifts = drawn
    names = tuple(f"x{j}" for j in range(len(gcd)))
    gens = GeneratorSet(names, [Monomial(map(add, gcd, v)) for v in shifts]).minimalize()
    assert sdepth_values(gens) == _each_pair(gens)


# the frames the searches of both sides push in one-frame slices, on the
# 4-atom classes whose searches push the most
_CLASS_FRAMES = {("A4;1,2,3,4,5,6,7,8,9,a,c,f", "canonical"): 117,
                 ("A4;1,2,3,4,5,6,7,8,9,a,b,c,f", "canonical"): 115,
                 ("A4;1,2,3,4,5,7,8,9,f", "canonical"): 108,
                 ("A4;1,2,3,4,5,6,7,8,9,a,c,f", "chain"): 100}


@pytest.mark.parametrize("key, weighting", sorted(_CLASS_FRAMES))
def test_census_path_pushes_the_frames_of_each_pair(key, weighting, monkeypatch):
    from lcmlat import canonical_weighting, chain_weighting, enumerate_atomistic

    lat = next(lat for k, lat in enumerate_atomistic(4) if k.decode() == key)
    make = {"chain": chain_weighting, "canonical": canonical_weighting}[weighting]
    gens = realize(make(lat))
    real = sdepth_module._first_to_finish
    frames = []

    def counted(search):
        while True:
            try:
                next(search)
            except StopIteration as end:
                return end.value
            frames.append(1)
            yield

    monkeypatch.setattr(sdepth_module, "_SLICE", 1)
    monkeypatch.setattr(sdepth_module, "_first_to_finish",
                        lambda searches, *rest: real([counted(s) for s in searches], *rest))
    values = sdepth_values(gens)
    census = len(frames)
    assert values == _each_pair(gens)
    assert census == len(frames) - census == _CLASS_FRAMES[key, weighting]


@pytest.fixture
def boxes(monkeypatch):
    """A fresh, empty box cache for the test."""
    fresh = sdepth_module._BoxCache()
    monkeypatch.setattr(sdepth_module, "_boxes", fresh)
    return fresh


def _assert_box_of(box, g):
    # the cells of [0, g] in (degree, lex) order, their order masks by
    # definition and by _interval_masks, and their ceiling levels
    cells = box_cells(g)
    assert list(box.points) == cells
    assert (box.up, box.down) == order_masks_by_definition(cells)
    assert (box.up, box.down) == sdepth_module._interval_masks(box.points)
    levels = [sum(1 << i for i, c in enumerate(cells) if sum(map(eq, c, g)) == r)
              for r in range(len(g) + 1)]
    assert box.level == levels


def test_cached_box_masks_match_definition(boxes):
    # each shape comes before or after a reordering of its variables
    shapes = [(1, 2), (2, 1), (0, 3, 1), (1, 3, 0), (3, 0, 1), (2, 1, 1), (1, 1, 2), (0,), ()]
    for g in shapes:
        box = sdepth_module._boxes(g)
        _assert_box_of(box, g)
        assert sdepth_module._boxes(g) is box
    assert (boxes.misses, boxes.hits) == (len(shapes), len(shapes))
    assert list(boxes.boxes) == shapes


def test_box_cache_stays_within_its_bound(boxes, monkeypatch):
    monkeypatch.setattr(sdepth_module, "_BOX_CACHE_CELLS", 40)
    shapes = [g for n in (1, 2, 3) for g in product(range(4), repeat=n)]
    for g in shapes + shapes[::-1]:
        box = sdepth_module._boxes(g)
        _assert_box_of(box, g)
        held = [len(kept.points) for kept in boxes.boxes.values()]
        assert boxes.cells == sum(held) <= 40
        assert (list(boxes.boxes)[-1] == g) == (len(box.points) <= 40)
    assert boxes.hits > 0
    # the least recently used box goes first, not the first one kept
    for g in ((0, 3, 3), (3, 3, 0), (1, 2), (2, 1)):
        _assert_box_of(sdepth_module._boxes(g), g)
    assert (0, 3, 3) not in boxes.boxes
    for g in ((3, 3, 0), (0, 3, 3)):
        _assert_box_of(sdepth_module._boxes(g), g)
    assert list(boxes.boxes) == [(2, 1), (3, 3, 0), (0, 3, 3)]


def test_box_larger_than_the_bound_is_not_kept(boxes, monkeypatch):
    monkeypatch.setattr(sdepth_module, "_BOX_CACHE_CELLS", 40)
    sdepth_module._boxes((1, 2))
    huge = (3, 10)  # 44 cells
    _assert_box_of(sdepth_module._boxes(huge), huge)
    assert list(boxes.boxes) == [(1, 2)] and boxes.cells == 6
    _assert_box_of(sdepth_module._boxes((2, 1)), (2, 1))
    full = (4, 1, 3)  # 40 cells: a box of the bound itself is kept
    _assert_box_of(sdepth_module._boxes(full), full)
    assert list(boxes.boxes) == [full] and boxes.cells == 40


def test_census_path_keeps_the_limits_of_each_pair(monkeypatch):
    # the same error as the two per-pair calls, I before S/I, and no box
    # built once a limit is met: a box past the grid cap would not fit in memory
    vs = ("x", "y", "z")
    grid = (LimitExceeded, "search box exceeds 4000000 cells")
    cases = [(_gens(("x", "y"), "x^2000*y^1999"), DEFAULT, grid),  # S/I only
             (_gens(("x", "y"), "x^2000", "y^1999"), DEFAULT, grid),  # I already
             (GeneratorSet(vs, []), DEFAULT, EmptyModule),  # I is zero
             (GeneratorSet(vs, [Monomial((0, 0, 0))]), DEFAULT, EmptyModule),  # S/I is zero
             # I's 2201 points pass the poset cap before S/I's 2101^2 cells pass the grid cap
             (_gens(("x", "y"), "x^2100*y^1000", "x^1000*y^2100"), Config(poset_cap=2200),
              (LimitExceeded, "characteristic poset exceeds cap 2200"))]
    for gens in (_gens(vs, "x*y", "y^2*z", "z^3"), _gens(vs, "x^2", "y^3", "z*y")):
        sizes = sorted(characteristic_poset(make(gens)).size for make in (ideal_pair, quotient_ring_pair))
        assert sizes[0] < sizes[1]
        cases += [(gens, Config(poset_cap=c), LimitExceeded) for c in (sizes[0] - 1, sizes[1] - 1)]
        cases.append((gens, Config(poset_cap=sizes[1]), None))
    real = sdepth_module._ordered

    def refuse(*args):
        raise AssertionError("a box was built past a limit")

    wants = [_each_pair(gens, config) for gens, config, _ in cases]
    for (gens, config, error), want in zip(cases, wants):
        if error is None:
            assert all(isinstance(v, int) for v in want)
        elif isinstance(error, tuple):
            assert want == error
        else:
            assert want[0] is error
        monkeypatch.setattr(sdepth_module, "_ordered", real if error is None else refuse)
        assert _census_path(gens, config) == want

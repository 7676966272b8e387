import json
from pathlib import Path

import pytest

from lcmlat.cli import _build_parser, main


TRIANGLE = {
    "variables": ["x", "y", "z"],
    "generators": [[1, 1, 0], [1, 0, 1], [0, 1, 1]],
}
TWO_VARS = {"variables": ["x", "y"], "generators": [[1, 0], [0, 1]]}
PAIR = {
    "I": {"variables": ["x", "y"], "generators": [[1, 0], [0, 1]]},
    "J": {"variables": ["x", "y"], "generators": [[1, 1]]},
}


def _write(tmp_path, name, doc):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def _run(argv, capsys):
    with pytest.raises(SystemExit) as info:
        main(argv)
    out, err = capsys.readouterr()
    return info.value.code, out, err


def test_lattice_command(tmp_path, capsys):
    src = _write(tmp_path, "i.json", TRIANGLE)
    code, out, _ = _run(["lattice", src], capsys)
    assert code == 0
    doc = json.loads(out)
    assert len(doc["elements"]) == 4  # three gens; every pairwise lcm is the top


def test_lattice_dot_output(tmp_path, capsys):
    src = _write(tmp_path, "i.json", TWO_VARS)
    dot = tmp_path / "g.dot"
    code, _, _ = _run(["lattice", src, "--dot", str(dot)], capsys)
    assert code == 0
    assert "digraph" in dot.read_text()


def test_weights_realize_roundtrip(tmp_path, capsys):
    src = _write(tmp_path, "i.json", TRIANGLE)
    code, out, _ = _run(["weights", src], capsys)
    assert code == 0
    wdoc = json.loads(out)
    assert set(wdoc) == {"variables", "lattice", "bottom", "weights"}

    wpath = _write(tmp_path, "w.json", wdoc)
    code, out, _ = _run(["realize", wpath, "--minimal"], capsys)
    assert code == 0
    back = json.loads(out)
    assert sorted(back["generators"]) == sorted(TRIANGLE["generators"])


def test_canonical_command(tmp_path, capsys):
    src = _write(tmp_path, "i.json", TWO_VARS)
    code, out, _ = _run(["canonical", src, "--minimal"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert len(doc["generators"]) == 2


B3 = {"elements": ["{1}", "{2}", "{1,2}", "{3}", "{1,3}", "{2,3}", "{1,2,3}"],
      "covers": [[0, 2], [0, 4], [1, 2], [1, 5], [2, 6], [3, 4], [3, 5], [4, 6], [5, 6]]}
TRIANGLE_WEIGHTING = {
    "bottom": [0, 0, 0],
    "lattice": {"covers": [[0, 3], [1, 3], [2, 3]],
                "elements": ["y*z", "x*z", "x*y", "x*y*z"]},
    "variables": ["x", "y", "z"],
    "weights": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 0, 0]],
}
_TRIANGLE_FAMILY = [[0, 1, 1], [1, 0, 1], [1, 1, 0], [1, 1, 1]]

# realize and canonical stdout pinned byte for byte: one generator per
# element in element order, canonical variables w{m} for each
# meet-irreducible m (the atoms of B3 are not meet-irreducible)
_REALIZE_GOLDEN = {
    "canonical B3": (
        ["canonical"], B3,
        {"generators": [[0, 0, 1], [0, 1, 0], [0, 1, 1], [1, 0, 0], [1, 0, 1],
                        [1, 1, 0], [1, 1, 1]],
         "variables": ["w2", "w4", "w5"]},
    ),
    "canonical B3 minimal": (
        ["canonical", "--minimal"], B3,
        {"generators": [[0, 0, 1], [0, 1, 0], [1, 0, 0]], "variables": ["w2", "w4", "w5"]},
    ),
    "canonical triangle": (
        ["canonical"], TRIANGLE,
        {"generators": _TRIANGLE_FAMILY, "variables": ["w0", "w1", "w2"]},
    ),
    "realize triangle": (
        ["realize"], TRIANGLE_WEIGHTING,
        {"generators": _TRIANGLE_FAMILY, "variables": ["x", "y", "z"]},
    ),
    "realize triangle minimal": (
        ["realize", "--minimal"], TRIANGLE_WEIGHTING,
        {"generators": _TRIANGLE_FAMILY[:3], "variables": ["x", "y", "z"]},
    ),
}


@pytest.mark.parametrize("argv, doc, want", _REALIZE_GOLDEN.values(), ids=_REALIZE_GOLDEN)
def test_realize_golden_stdout(tmp_path, capsys, argv, doc, want):
    src = _write(tmp_path, "doc.json", doc)
    code, out, err = _run([argv[0], src, *argv[1:]], capsys)
    assert code == 0, err
    assert out == json.dumps(want, sort_keys=True, indent=2) + "\n"


def test_equalize_pair_output(tmp_path, capsys):
    src = _write(
        tmp_path, "i.json",
        {"variables": ["x", "y", "z"], "generators": [[1, 0, 0], [0, 1, 1]]},
    )
    code, out, _ = _run(["equalize", src], capsys)
    assert code == 0
    doc = json.loads(out)
    degs = {sum(g) for g in doc["I"]["generators"]}
    assert len(degs) == 1


# equalize stdout pinned byte for byte: fresh variables d{round}_{t}, one
# column per top of a round in round order, zeros padding the bottom weight
_EQUALIZE_GOLDEN = {
    # degrees 2, 2, 5, 6 need four rounds; rounds 2 to 4 have two tops
    "ideal": (
        {"variables": ["x", "y", "z", "w", "v"],
         "generators": [[1, 0, 0, 0, 1], [0, 1, 0, 0, 1], [0, 0, 2, 2, 1], [0, 0, 1, 4, 1]]},
        [],
        {"I": {"generators": [[0, 1, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1],
                              [1, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1],
                              [0, 0, 2, 2, 1, 1, 0, 1, 0, 1, 0, 1],
                              [0, 0, 1, 4, 1, 0, 1, 0, 1, 0, 1, 0]],
               "variables": ["x", "y", "z", "w", "v", "d1_0", "d2_0", "d2_1",
                             "d3_0", "d3_1", "d4_0", "d4_1"]},
         "J": {"generators": [],
               "variables": ["x", "y", "z", "w", "v", "d1_0", "d2_0", "d2_1",
                             "d3_0", "d3_1", "d4_0", "d4_1"]}},
    ),
    # canonical degrees 5, 4, 3 on the antichain {1}, {2}, {3}
    "lattice": (
        {"elements": ["{1}", "{2}", "{3}", "{4}", "{3,4}", "{2,3,4}", "{1,2,3,4}"],
         "covers": [[0, 6], [1, 5], [2, 4], [3, 4], [4, 5], [5, 6]]},
        ["--antichain", "0,1,2"],
        {"bottom": [0, 0, 0, 0, 0, 0, 0, 0, 0],
         "lattice": {"covers": [[0, 6], [1, 5], [2, 4], [3, 4], [4, 5], [5, 6]],
                     "elements": ["{1}", "{2}", "{3}", "{4}", "{3,4}", "{2,3,4}",
                                  "{1,2,3,4}"]},
         "variables": ["w0", "w1", "w2", "w3", "w4", "w5", "d1_0", "d2_0", "d2_1"],
         "weights": [[1, 0, 0, 0, 0, 0, 1, 1, 0], [0, 1, 0, 0, 0, 0, 0, 0, 1],
                     [0, 0, 1, 0, 0, 0, 0, 0, 0], [0, 0, 0, 1, 0, 0, 0, 0, 0],
                     [0, 0, 0, 0, 1, 0, 0, 0, 0], [0, 0, 0, 0, 0, 1, 0, 0, 0],
                     [0, 0, 0, 0, 0, 0, 0, 0, 0]]},
    ),
}


@pytest.mark.parametrize("doc, extra, want", _EQUALIZE_GOLDEN.values(), ids=_EQUALIZE_GOLDEN)
def test_equalize_golden_stdout(tmp_path, capsys, doc, extra, want):
    src = _write(tmp_path, "doc.json", doc)
    code, out, err = _run(["equalize", src, *extra], capsys)
    assert code == 0, err
    assert out == json.dumps(want, sort_keys=True, indent=2) + "\n"


_XYZ = ["x", "y", "z"]
PAIR_EXP = {"I": {"variables": _XYZ, "generators": [[2, 0, 0], [1, 1, 0], [0, 2, 1]]},
            "J": {"variables": _XYZ, "generators": [[2, 1, 0], [1, 1, 1]]}}
PAIR_SQ = {"I": {"variables": _XYZ, "generators": [[1, 0, 0], [0, 1, 1]]},
           "J": {"variables": _XYZ, "generators": [[1, 1, 0], [1, 0, 1]]}}
# one shift row per generator of I then of J (union_generators order)
_PAIR_SHIFTS = [[1, 0, 0], [0, 0, 0], [0, 0, 1], [0, 0, 0], [0, 0, 0]]


def _pair_doc(i_gens, j_gens, variables=_XYZ):
    return {"I": {"generators": i_gens, "variables": variables},
            "J": {"generators": j_gens, "variables": variables}}


# the pair branch of every subcommand that takes an ideal or a pair and
# writes one back, stdout pinned byte for byte
_PAIR_GOLDEN = {
    "lattice": (
        ["lattice"], PAIR_EXP,
        {"covers": [[0, 3], [0, 4], [1, 4], [2, 5], [3, 5], [3, 6], [4, 6], [5, 7], [6, 7]],
         "elements": ["x*y", "x^2", "y^2*z", "x*y*z", "x^2*y", "x*y^2*z", "x^2*y*z",
                      "x^2*y^2*z"]},
    ),
    "polarize": (
        ["polarize"], PAIR_EXP,
        _pair_doc([[1, 0, 1, 0, 0], [1, 1, 0, 0, 0], [0, 0, 1, 1, 1]],
                  [[1, 0, 1, 0, 1], [1, 1, 1, 0, 0]], ["x1", "x2", "y1", "y2", "z1"]),
    ),
    "radical": (["radical"], PAIR_EXP, _pair_doc([[1, 0, 0], [0, 1, 1]], [[1, 1, 0]])),
    "colon": (
        ["colon", "--by", "x"], PAIR_EXP,
        _pair_doc([[0, 1, 0], [1, 0, 0]], [[0, 1, 1], [1, 1, 0]]),
    ),
    "restrict": (
        ["restrict", "--var", "z"], PAIR_EXP,
        _pair_doc([[0, 2], [1, 1], [2, 0]], [[1, 1]], ["x", "y"]),
    ),
    "deform": (
        ["deform", "--shifts", "{shifts}"], PAIR_EXP,
        _pair_doc([[3, 0, 0], [1, 1, 0], [0, 2, 2]], [[2, 1, 0], [1, 1, 1]]),
    ),
    "inflate x*y": (
        ["inflate", "--element", "x*y"], PAIR_SQ,
        _pair_doc([[1, 0, 0, 0], [0, 1, 1, 1]], [[1, 1, 0, 0], [1, 0, 1, 1]],
                  _XYZ + ["Y"]),
    ),
    "inflate y*z": (
        ["inflate", "--element", "y*z"], PAIR_SQ,
        _pair_doc([[1, 0, 0, 1], [0, 1, 1, 0]], [[1, 1, 0, 1], [1, 0, 1, 1]],
                  _XYZ + ["Y"]),
    ),
}


@pytest.mark.parametrize("argv, doc, want", _PAIR_GOLDEN.values(), ids=_PAIR_GOLDEN)
def test_pair_golden_stdout(tmp_path, capsys, argv, doc, want):
    paths = {"{shifts}": _write(tmp_path, "shifts.json", _PAIR_SHIFTS)}
    src = _write(tmp_path, "pair.json", doc)
    code, out, err = _run([argv[0], src, *(paths.get(a, a) for a in argv[1:])], capsys)
    assert code == 0, err
    assert out == json.dumps(want, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("element", ["y", "x*y*z*z", "1"])
def test_inflate_pair_rejects_a_non_element(tmp_path, capsys, element):
    src = _write(tmp_path, "pair.json", PAIR_SQ)
    code, out, err = _run(["inflate", src, "--element", element], capsys)
    assert code == 1
    assert out == "" and "not an lcm of generators" in err


def test_sdepth_both_modules(tmp_path, capsys):
    src = _write(tmp_path, "i.json", TWO_VARS)
    code, out, _ = _run(["sdepth", src], capsys)
    assert code == 0 and json.loads(out)["sdepth"] == 1
    code, out, _ = _run(["sdepth", src, "--module", "quotient-ring"], capsys)
    assert code == 0 and json.loads(out)["sdepth"] == 0


def test_sdepth_on_pair(tmp_path, capsys):
    src = _write(tmp_path, "p.json", PAIR)
    code, out, _ = _run(["sdepth", src], capsys)
    assert code == 0
    assert json.loads(out)["poset_size"] == 2


def test_betti_and_pdim(tmp_path, capsys):
    src = _write(tmp_path, "i.json", TRIANGLE)
    code, out, _ = _run(["betti", src, "--module", "quotient-ring"], capsys)
    assert code == 0 and json.loads(out)["betti"] == [1, 3, 2]
    code, out, _ = _run(["pdim", src, "--module", "quotient-ring"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["pdim"] == 2 and doc["depth"] == 1


def test_field_option(tmp_path, capsys):
    src = _write(tmp_path, "i.json", TRIANGLE)
    code, out, _ = _run(
        ["betti", src, "--module", "quotient-ring", "--field", "GF:2"], capsys
    )
    assert code == 0 and json.loads(out)["betti"] == [1, 3, 2]
    code, out, _ = _run(["pdim", src, "--field", "GF(3)"], capsys)
    assert code == 0 and json.loads(out)["field"] == "GF(3)"
    code, _, _ = _run(["betti", src, "--field", "GF:notaprime"], capsys)
    assert code == 1
    # only Q, GF:p and GF(p) parse; stray characters around the digits do not
    for bad in ("x7", "1e3", "Q2", "7", "GF7", "GF:7)", "GF(7", "gf:7", "GF: 7", "GF:"):
        code, _, err = _run(["betti", src, "--field", bad], capsys)
        assert code == 1 and "cannot parse field" in err, bad
    code, _, err = _run(["betti", src, "--field", "GF:4"], capsys)
    assert code == 1 and "prime" in err


@pytest.mark.parametrize("p", [561, 2047, 3215031751, 318665857834031151167461])
def test_field_rejects_pseudoprimes(tmp_path, capsys, p):
    # a Carmichael number, strong pseudoprimes to base 2 and to bases 2..7,
    # and one to every prime base up to 37
    src = _write(tmp_path, "i.json", TRIANGLE)
    code, out, err = _run(["betti", src, "--field", f"GF:{p}"], capsys)
    assert code == 1
    assert out == "" and err.startswith("error:") and "prime" in err


def test_field_large_prime_is_fast(tmp_path, capsys):
    import time

    src = _write(tmp_path, "i.json", TRIANGLE)
    start = time.perf_counter()
    code, out, err = _run(["betti", src, "--field", "GF:1000000000000000003"], capsys)
    assert code == 0, err
    assert json.loads(out)["field"] == "GF(1000000000000000003)"
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("digits", [25, 5000])
def test_field_modulus_past_the_bound_exits_1(tmp_path, capsys, digits):
    src = _write(tmp_path, "i.json", TRIANGLE)
    code, out, err = _run(["betti", src, "--field", "GF:" + "9" * digits], capsys)
    assert code == 1
    assert out == "" and err == "error: a field modulus must be below 3317044064679887385961981\n"


def test_field_only_where_it_is_read(tmp_path, capsys):
    src = _write(tmp_path, "i.json", TWO_VARS)
    code, _, err = _run(["polarize", src, "--field", "Q"], capsys)
    assert code == 1 and "--field" in err
    subcommands = _build_parser()._subparsers._group_actions[0].choices
    assert {
        name for name, p in subcommands.items()
        if any("--field" in a.option_strings for a in p._actions)
    } == {"betti", "pdim", "classify", "check-map"}


def test_polarize_command(tmp_path, capsys):
    src = _write(
        tmp_path, "i.json", {"variables": ["x", "y"], "generators": [[2, 0], [1, 1]]}
    )
    code, out, _ = _run(["polarize", src], capsys)
    assert code == 0
    doc = json.loads(out)
    assert all(all(e <= 1 for e in g) for g in doc["generators"])


def test_radical_command(tmp_path, capsys):
    src = _write(
        tmp_path, "i.json", {"variables": ["x", "y"], "generators": [[2, 0], [1, 1]]}
    )
    code, out, _ = _run(["radical", src], capsys)
    assert code == 0
    assert json.loads(out)["generators"] == [[1, 0]]


def test_colon_command(tmp_path, capsys):
    src = _write(tmp_path, "i.json", TRIANGLE)
    code, out, _ = _run(["colon", src, "--by", "x"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert sorted(doc["generators"]) == [[0, 1, 0], [0, 1, 1], [0, 0, 1]] or sorted(
        doc["generators"]
    ) == sorted([[0, 1, 0], [0, 0, 1]])


def test_restrict_by_name_and_index(tmp_path, capsys):
    src = _write(
        tmp_path, "i.json",
        {"variables": ["x", "y", "z"], "generators": [[1, 1, 0], [0, 1, 1]]},
    )
    code, out, _ = _run(["restrict", src, "--var", "y"], capsys)
    assert code == 0
    by_name = json.loads(out)
    code, out, _ = _run(["restrict", src, "--var", "1"], capsys)
    assert code == 0
    assert json.loads(out) == by_name
    assert by_name["variables"] == ["x", "z"]


def test_inflate_command(tmp_path, capsys):
    src = _write(tmp_path, "i.json", TWO_VARS)
    code, out, _ = _run(["inflate", src, "--element", "x"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert len(doc["variables"]) == 3


def test_deform_command(tmp_path, capsys):
    src = _write(
        tmp_path, "i.json", {"variables": ["x", "y"], "generators": [[2, 0], [1, 1]]}
    )
    shifts = _write(tmp_path, "s.json", [[1, 0], [0, 0]])
    code, out, _ = _run(["deform", src, "--shifts", shifts], capsys)
    assert code == 0
    assert sorted(json.loads(out)["generators"]) == [[1, 1], [3, 0]]

    bad = _write(tmp_path, "bad.json", [[0, 1], [0, 0]])
    code, _, err = _run(["deform", src, "--shifts", bad], capsys)
    assert code == 1


@pytest.mark.parametrize("shifts", [
    [["a", 0], [0, 0]], [5, [0, 0]], [[1e400, 0], [0, 0]], [[1.5, 0], [0, 0]], [["3", 0], [0, 0]],
])
def test_deform_malformed_shifts_exit_1(tmp_path, capsys, shifts):
    src = _write(tmp_path, "i.json", TWO_VARS)
    bad = _write(tmp_path, "bad.json", shifts)
    code, out, err = _run(["deform", src, "--shifts", bad], capsys)
    assert code == 1
    assert out == "" and "shift 0" in err and "Traceback" not in err


# each document or option carries one number that is not an integer, an
# index outside the lattice, a list of names or labels that is not a JSON
# array, or an option its document does not take; {doc} is the malformed
# document and {ideal} a well-formed ideal
_MALFORMED_NUMBERS = {
    "cover 1e400": ('{"elements": ["a", "b", "c"], "covers": [[0, 2], [1, 1e400]]}',
                    ["lattice", "{doc}"]),
    "generator 1e400": ('{"variables": ["x"], "generators": [[1e400]]}', ["weights", "{doc}"]),
    "exponent 1.5": ('{"variables": ["x", "y"], "generators": [[1.5, 0], [0, 1]]}',
                     ["weights", "{doc}"]),
    "cover true": ('{"elements": ["a", "b", "c"], "covers": [[true, 2], [0, 2]]}',
                   ["lattice", "{doc}"]),
    "generator true": ('{"variables": ["x", "y"], "generators": [[true, 0], [0, 1]]}',
                       ["weights", "{doc}"]),
    "antichain a": ('{"elements": ["a", "b", "c"], "covers": [[0, 2], [1, 2]]}',
                    ["equalize", "{doc}", "--antichain", "a"]),
    "antichain 0,": ('{"elements": ["a", "b", "c"], "covers": [[0, 2], [1, 2]]}',
                     ["equalize", "{doc}", "--antichain", "0,"]),
    "antichain 0,99": ('{"elements": ["a", "b", "c"], "covers": [[0, 2], [1, 2]]}',
                       ["equalize", "{doc}", "--antichain", "0,99"]),
    "antichain -1,0": ('{"elements": ["a", "b", "c"], "covers": [[0, 2], [1, 2]]}',
                       ["equalize", "{doc}", "--antichain=-1,0"]),
    "antichain on an ideal": (json.dumps(TRIANGLE), ["equalize", "{doc}", "--antichain", "0,1"]),
    "antichain on a pair": (json.dumps(PAIR), ["equalize", "{doc}", "--antichain", "0,1"]),
    "image ab": ('{"image": "ab"}', ["check-map", "{ideal}", "{ideal}", "{doc}"]),
    "image 5": ('{"image": 5}', ["check-map", "{ideal}", "{ideal}", "{doc}"]),
    # integers longer than int() converts, in a document and in monomial options
    "exponent of 5000 digits": ('{"variables": ["x"], "generators": [[%s]]}' % ("9" * 5000),
                                ["weights", "{doc}"]),
    "colon by 5000 digits": ("{}", ["colon", "{ideal}", "--by", "x^" + "9" * 5000]),
    "inflate at 5000 digits": ("{}", ["inflate", "{ideal}", "--element", "x^" + "9" * 5000]),
    # a string or an object where names, labels, generators or covers belong,
    # once split into characters or keys and accepted
    "variables a string": ('{"variables": "xy", "generators": [[2, 0], [1, 1]]}',
                           ["polarize", "{doc}"]),
    "variables an object": ('{"variables": {"x": 0, "y": 1}, "generators": [[1, 0], [0, 1]]}',
                            ["weights", "{doc}"]),
    "pair variables a string": (json.dumps({"I": PAIR["I"], "J": dict(PAIR["J"], variables="xy")}),
                                ["sdepth", "{doc}"]),
    "elements a string": ('{"elements": "abc", "covers": [[0, 2], [1, 2]]}',
                          ["lattice", "{doc}"]),
    "elements an object": ('{"elements": {"a": 0, "b": 1, "c": 2}, "covers": [[0, 2], [1, 2]]}',
                           ["canonical", "{doc}"]),
    "weighting variables a string": (json.dumps(dict(TRIANGLE_WEIGHTING, variables="xyz")),
                                     ["realize", "{doc}"]),
    "generators an object": ('{"variables": ["x"], "generators": {}}', ["polarize", "{doc}"]),
    "generators a string": ('{"variables": ["x"], "generators": ""}', ["polarize", "{doc}"]),
    "covers a string": ('{"elements": ["a"], "covers": ""}', ["lattice", "{doc}"]),
    "covers an object": ('{"elements": ["a"], "covers": {}}', ["lattice", "{doc}"]),
    "weighting weights an object": (json.dumps(dict(TRIANGLE_WEIGHTING, weights={})),
                                    ["realize", "{doc}"]),
    "weighting elements a string": (
        json.dumps(dict(TRIANGLE_WEIGHTING, lattice={"elements": "abcd",
                                                     "covers": [[0, 3], [1, 3], [2, 3]]})),
        ["realize", "{doc}"]),
    # --module chooses how an ideal document is read; a pair is taken as given
    "module on a pair": (json.dumps(PAIR), ["sdepth", "{doc}", "--module", "quotient-ring"]),
    "module ideal on a pair": (json.dumps(PAIR), ["betti", "{doc}", "--module", "ideal"]),
    "module on a pair for pdim": (json.dumps(PAIR), ["pdim", "{doc}", "--module", "ideal"]),
}


@pytest.mark.parametrize("text, argv", _MALFORMED_NUMBERS.values(), ids=_MALFORMED_NUMBERS)
def test_malformed_numbers_exit_1(tmp_path, capsys, text, argv):
    doc = tmp_path / "doc.json"
    doc.write_text(text)
    paths = {"{doc}": str(doc), "{ideal}": _write(tmp_path, "i.json", TWO_VARS)}
    code, out, err = _run([paths.get(a, a) for a in argv], capsys)
    assert code == 1
    assert out == "" and err.startswith("error:")
    if "--antichain" in argv and not text.startswith('{"elements"'):
        assert "lattice documents only" in err
    if "--module" in argv:
        assert "ideal documents only" in err


def test_generic_command(tmp_path, capsys):
    src = _write(tmp_path, "i.json", TWO_VARS)
    code, out, _ = _run(["generic", src], capsys)
    assert code == 0
    assert json.loads(out) == {"generic": True}


def test_isomorphic_command(tmp_path, capsys):
    a = _write(tmp_path, "a.json", TWO_VARS)
    b = _write(
        tmp_path, "b.json", {"variables": ["u", "v"], "generators": [[3, 0], [0, 2]]}
    )
    code, out, _ = _run(["isomorphic", a, b], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["isomorphic"] is True
    assert doc["canonical_a"] == doc["canonical_b"]


def test_classify_command(tmp_path, capsys):
    code, out, _ = _run(["classify", "--atoms", "3", "--no-check"], capsys)
    assert code == 0
    lines = [json.loads(l) for l in out.strip().splitlines()]
    assert lines[-1] == {"summary": {"atoms": 3, "classes": 4, "counterexamples": 0}}
    assert len(lines) == 5


GOLDEN = Path(__file__).resolve().parent / "golden"


def test_classify_golden_stdout(capsys):
    # every record of the checked 4-atom census, invariants included, byte for byte
    code, out, err = _run(["classify", "--atoms", "4"], capsys)
    assert code == 0, err
    assert out == (GOLDEN / "classify_atoms4.jsonl").read_text()


@pytest.mark.parametrize("module", ["ideal", "quotient-ring"])
@pytest.mark.parametrize("name", ["a7_8", "b8_0", "a8_12"])
def test_sdepth_golden_stdout(capsys, name, module):
    # ideals-pool documents whose searches backtrack deeply: witness byte for byte
    code, out, err = _run(["sdepth", str(GOLDEN / f"ideal_{name}.json"), "--module", module],
                          capsys)
    assert code == 0, err
    assert out == (GOLDEN / f"ideal_{name}.sdepth_{module}.json").read_text()


@pytest.mark.parametrize("module", ["ideal", "quotient-ring"])
@pytest.mark.parametrize("command", ["betti", "pdim"])
def test_huge_exponent_golden_stdout(capsys, command, module):
    # x^(10^12): exit 0 with the Betti numbers of (x, y), not a MemoryError
    code, out, err = _run([command, str(GOLDEN / "huge_exponent.json"), "--module", module],
                          capsys)
    assert code == 0, err
    assert out == (GOLDEN / f"huge_exponent.{command}_{module}.json").read_text()


def test_huge_box_golden_stdout(capsys):
    # x^2000*y^1999: the cells start at I's generator, so I is one point and
    # exits 0; S/I still spans the whole box past the grid cap and exits 2
    doc = str(GOLDEN / "huge_box.json")
    code, out, err = _run(["sdepth", doc, "--module", "ideal"], capsys)
    assert code == 0, err
    assert out == (GOLDEN / "huge_box.sdepth_ideal.json").read_text()
    code, out, err = _run(["sdepth", doc, "--module", "quotient-ring"], capsys)
    assert (code, out, err) == (2, "", "limit: search box exceeds 4000000 cells\n")


@pytest.mark.parametrize("atoms", ["0", "-1", "-7"])
def test_classify_rejects_an_atom_count_below_1(capsys, atoms):
    # bad input while parsing the arguments, not a resource limit
    code, out, err = _run(["classify", "--atoms", atoms], capsys)
    assert code == 1
    assert out == "" and "error: argument --atoms: a count must be at least 1" in err


def test_classify_long_run_guard(capsys):
    code, _, err = _run(["classify", "--atoms", "5"], capsys)
    assert code == 2
    assert "limit" in err


def test_check_map_command(tmp_path, capsys):
    # identity on the joint lattice of a pair with itself
    a = _write(tmp_path, "a.json", TRIANGLE)
    m = _write(tmp_path, "m.json", {"image": list(range(4))})
    code, out, _ = _run(["check-map", a, a, m, "--with-sdepth"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["bijective"] and doc["pdim_ok"] and doc["spdim_ok"]
    assert doc["pdim_source"] == doc["pdim_target"]



_CHECK_MAP_PDIM = '{\n  "bijective": true,\n  "pdim_ok": true,\n  "pdim_source": 1,\n  "pdim_target": 1'


@pytest.mark.parametrize("extra, want", [
    ([], _CHECK_MAP_PDIM + "\n}\n"),
    (["--with-sdepth"], _CHECK_MAP_PDIM
     + ',\n  "spdim_ok": true,\n  "spdim_source": 1,\n  "spdim_target": 1\n}\n'),
])
def test_check_map_golden_stdout(tmp_path, capsys, extra, want):
    # the report's key set, with and without the Stanley fields, byte for byte
    a = _write(tmp_path, "a.json", PAIR)
    m = _write(tmp_path, "m.json", {"image": [0, 1, 2]})
    code, out, err = _run(["check-map", a, a, m, *extra], capsys)
    assert code == 0, err
    assert out == want


def test_check_map_with_non_minimal_denominator(tmp_path, capsys):
    # J = (x^2, x^3) is not minimal; the joint lattice is x, y, x^2, xy, x^2*y
    pair = {
        "I": {"variables": ["x", "y"], "generators": [[1, 0], [0, 1]]},
        "J": {"variables": ["x", "y"], "generators": [[2, 0], [3, 0]]},
    }
    a = _write(tmp_path, "a.json", pair)
    m = _write(tmp_path, "m.json", {"image": list(range(5))})
    code, out, err = _run(["check-map", a, a, m], capsys)
    assert code == 0, err
    doc = json.loads(out)
    assert doc["bijective"] and doc["pdim_ok"]


_FAILED_CHECK_MAP = """
import sys
from lcmlat import resolution
from lcmlat.cli import main
if __debug__:
    raise SystemExit("asserts are still on")
resolution.pdim_pair_invariance = lambda *args, **kwargs: resolution.MapCheck(
    True, 2, 1, False)
main(sys.argv[1:])
"""


def test_check_map_failure_exits_3_under_optimized_python(tmp_path):
    import os
    import subprocess
    import sys
    from pathlib import Path

    import lcmlat

    a = _write(tmp_path, "a.json", TRIANGLE)
    m = _write(tmp_path, "m.json", {"image": list(range(4))})
    env = dict(os.environ)
    src = str(Path(lcmlat.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _FAILED_CHECK_MAP, "check-map", a, a, m],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 3, proc.stdout + proc.stderr
    assert json.loads(proc.stdout)["pdim_ok"] is False
    assert proc.stderr.startswith("internal assertion failed:")


_WITHOUT_NUMPY = """
import sys
sys.modules["numpy"] = None  # any import of numpy now fails
from lcmlat.cli import main
main(sys.argv[1:])
"""


def test_runs_without_numpy(tmp_path):
    import os
    import subprocess
    import sys
    from pathlib import Path

    import lcmlat

    ideal = _write(tmp_path, "i.json", TRIANGLE)
    env = dict(os.environ)
    src = str(Path(lcmlat.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    for argv in (["lattice", ideal], ["weights", ideal], ["sdepth", ideal],
                 ["classify", "--atoms", "3"]):
        proc = subprocess.run([sys.executable, "-c", _WITHOUT_NUMPY, *argv],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stdout + proc.stderr


def test_exit_code_bad_input(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    code, _, err = _run(["lattice", missing], capsys)
    assert code == 1

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, _ = _run(["lattice", str(bad)], capsys)
    assert code == 1

    junk = _write(tmp_path, "junk.json", {"what": 1})
    code, _, _ = _run(["lattice", junk], capsys)
    assert code == 1


def test_lattice_without_a_top_names_the_pair(tmp_path, capsys):
    # two maximal elements above two minimal ones: 0 v 1 is undefined
    src = _write(tmp_path, "l.json", {"elements": ["a", "b", "c", "d"],
                                      "covers": [[0, 2], [1, 2], [0, 3], [1, 3]]})
    code, out, err = _run(["lattice", src], capsys)
    assert (code, out, err) == (1, "", "error: elements 0 and 1 have no unique least upper bound\n")


def test_exit_code_usage(capsys):
    code, _, _ = _run(["no-such-command"], capsys)
    assert code == 1
    code, _, _ = _run([], capsys)
    assert code == 1


def test_exit_code_limit(tmp_path, capsys):
    src = _write(
        tmp_path, "i.json",
        {"variables": ["x", "y"], "generators": [[9999, 0], [0, 9999]]},
    )
    code, _, err = _run(["sdepth", src], capsys)
    assert code == 2
    assert "limit" in err


def test_exit_code_internal_error(tmp_path, capsys, monkeypatch):
    from lcmlat import sdepth

    monkeypatch.setattr(sdepth, "_first_to_finish", lambda *args: [(0, 0)])
    src = _write(
        tmp_path, "i.json",
        {"variables": ["x", "y", "z"], "generators": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]},
    )
    code, out, err = _run(["sdepth", src], capsys)
    assert code == 3
    assert out == "" and err.startswith("internal error:")


def test_out_flag_and_determinism(tmp_path, capsys):
    src = _write(tmp_path, "i.json", TRIANGLE)
    f1, f2 = tmp_path / "r1.json", tmp_path / "r2.json"
    for f in (f1, f2):
        code, out, _ = _run(["sdepth", src, "--out", str(f)], capsys)
        assert code == 0 and out == ""
    assert f1.read_bytes() == f2.read_bytes()


@pytest.mark.parametrize("argv", [
    ["lattice", "{ideal}", "--out", "{missing}"],
    ["lattice", "{ideal}", "--dot", "{missing}"],
    ["classify", "--atoms", "2", "--out", "{missing}"],
])
def test_unwritable_output_exits_1(tmp_path, capsys, argv):
    paths = {"{ideal}": _write(tmp_path, "i.json", TWO_VARS),
             "{missing}": str(tmp_path / "no-such-dir" / "out.txt")}
    code, out, err = _run([paths.get(a, a) for a in argv], capsys)
    assert code == 1
    assert out == "" and err.startswith("error: cannot write")


def test_console_script_installed():
    import shutil
    import subprocess

    exe = shutil.which("lcmlat")
    assert exe is not None
    proc = subprocess.run(
        [exe, "--help"], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0
    assert "lattice" in proc.stdout

"""Random documents and options through every subcommand that reads a document.

Whatever the input, the command line must exit 0, 1 or 2, write nothing to
stdout unless it succeeds, start its stderr with ``error:`` or ``limit:``
when it fails, and never show a traceback.  The ``--out`` and ``--dot`` paths
are a new file, an existing file, a directory or a file under a missing
directory; a run given a path that cannot be written never exits 0, and a
report written to ``--out`` leaves stdout empty.  The library parsers of the
four document kinds, fed the same documents, return or raise an LcmlatError.
The example budget comes from the loaded hypothesis profile (see
conftest.py): the default keeps these tests to a few seconds,
``HYPOTHESIS_PROFILE=deep`` runs them far longer.
"""

import json

import pytest
from hypothesis import HealthCheck, event, given, settings, strategies as st

from lcmlat import (DEFAULT, LcmlatError, canonical_weighting, chain_weighting,
                    enumerate_atomistic, gens_from_json, lattice_from_json, lcm_semilattice,
                    pair_from_json, union_generators, weighting_from_json, weighting_to_json)
from lcmlat import cli
from lcmlat.cli import main

# any small JSON value, for a field that should have held something else
_junk = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 3) | st.floats() | st.text("xy0{", max_size=3),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text("xyz", max_size=2), inner, max_size=2)),
    max_leaves=5,
)

_MISSING = object()


def _or_junk(good):
    """Mostly a well-shaped value, sometimes junk, sometimes the key left out."""
    return st.one_of(*[good] * 8, _junk, st.just(_MISSING))


def _doc(**fields):
    return st.fixed_dictionaries({k: _or_junk(v) for k, v in fields.items()}).map(
        lambda d: {k: v for k, v in d.items() if v is not _MISSING})


def _rows(width, min_size=0, max_size=4):
    return st.lists(st.lists(st.integers(0, 2), min_size=width, max_size=width),
                    min_size=min_size, max_size=max_size)


_names = st.lists(st.sampled_from("xyzw"), min_size=1, max_size=3, unique=True)


@st.composite
def _ideal(draw):
    names = draw(_names)
    variables = st.just(names) | st.just("".join(names)) | _names
    return draw(_doc(variables=variables, generators=_rows(len(names), min_size=1)))


@st.composite
def _lattice(draw):
    n = draw(st.integers(1, 5))
    labels = st.lists(st.text("abc", min_size=1, max_size=2), min_size=n, max_size=n)
    covers = st.lists(st.lists(st.integers(0, n), min_size=2, max_size=2), max_size=6)
    return draw(_doc(elements=labels | labels.map("".join), covers=covers))


@st.composite
def _weighting(draw):
    lattice = draw(_lattice())
    names = draw(_names)
    elements = lattice.get("elements")
    n = len(elements) if isinstance(elements, list) else 1
    return draw(_doc(variables=st.just(names) | st.just("".join(names)), lattice=st.just(lattice),
                     bottom=_rows(len(names), 1, 1).map(lambda r: r[0]),
                     weights=_rows(len(names), n, n) | _rows(len(names))))


# the chain or canonical weighting of a 3-atom class: one realize accepts
_realizable = st.builds(lambda lat, weigh: weighting_to_json(weigh(lat)),
                        st.sampled_from([lat for _, lat in enumerate_atomistic(3)]),
                        st.sampled_from([chain_weighting, canonical_weighting]))

_pair = _doc(I=_ideal(), J=_ideal())
# an identity of a small lattice, or any short image
_map = _doc(image=st.integers(1, 8).map(lambda k: list(range(k)))
            | st.lists(st.integers(0, 6), max_size=8))
_document = st.one_of(_ideal(), _pair, _lattice(), _weighting(), _map, _junk)
_shifts = _rows(2) | _rows(3) | _junk

_monomials = st.sampled_from(["x", "y", "x^2*y", "y*z", "x*y*z", "1", "w^0", "q", "x^", ""])


def _option(flag, values):
    """The option absent, or given one of values."""
    return st.just([]) | values.map(lambda v: [f"{flag}={v}"])


def _switch(flag):
    return st.sampled_from([[], [flag]])


def _options(*parts):
    return st.tuples(*parts).map(lambda t: sum(t, []))


_module = _option("--module", st.sampled_from(["ideal", "quotient-ring"]))
_field = _option("--field", st.sampled_from(["Q", "GF:2", "GF(3)", "GF:4", "R"]))

# where --out and --dot write, under the test's directory, and whether it can be written
_TARGETS = {"new.txt": True, "old.txt": True, ".": False, "no-such-dir/out.txt": False}

_pair_input = _ideal() | _pair
_lattice_input = _lattice() | _ideal() | _pair

# the first document of each subcommand that reads one: mostly of a kind it
# reads, sometimes anything
_INPUT = dict.fromkeys(["sdepth", "betti", "pdim", "polarize", "radical", "colon", "restrict",
                        "inflate", "deform", "check-map"], _pair_input)
_INPUT.update(dict.fromkeys(["lattice", "canonical", "equalize", "isomorphic"], _lattice_input))
_INPUT.update(weights=_ideal(), generic=_ideal(), realize=_weighting() | _realizable)

# the options of each subcommand that reads a document, beyond its first path;
# {name} stands for the path of the document of that name
_OPTIONS = {
    "lattice": _option("--dot", st.just("{dot}")),
    "weights": st.just([]),
    "realize": _switch("--minimal"),
    "canonical": _switch("--minimal"),
    "equalize": _option("--antichain", st.sampled_from(["0", "0,1", "1,2,3", "a", "0,99", ""])),
    "sdepth": _module,
    "betti": _options(_module, _field),
    "pdim": _options(_module, _field),
    "polarize": st.just([]),
    "radical": st.just([]),
    "colon": _option("--by", _monomials).filter(bool),
    "restrict": _option("--var", st.sampled_from(["x", "y", "w", "0", "2", "99", "-1", "q"])
                        ).filter(bool),
    "inflate": _option("--element", _monomials).filter(bool),
    "deform": st.just(["--shifts={shifts}"]),
    "generic": st.just([]),
    "isomorphic": st.just(["{other}"]),
    "check-map": _options(st.sampled_from([["{doc}", "{map}"], ["{other}", "{map}"]]),
                          _switch("--with-sdepth"), _field),
}


def _joint_size(path):
    """The element count of the joint lcm-lattice check-map builds for the
    document at path, or None when it reads no pair there."""
    try:
        pair = cli._pair_of(cli._read(path, DEFAULT, "ideal", "pair")).minimalize()
        return lcm_semilattice(union_generators(pair)).lattice.n
    except LcmlatError:
        return None


@settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(command=st.sampled_from(sorted(_OPTIONS)), data=st.data(), other=_document,
       shifts=_shifts)
def test_cli_never_crashes(tmp_path, capsys, command, data, other, shifts):
    doc = data.draw(st.one_of(*[_INPUT[command]] * 3, _document), label="doc")
    paths = {name: tmp_path / f"{name}.json" for name in ("doc", "other", "map", "shifts")}
    paths["doc"].write_text(json.dumps(doc))
    # for check-map, half the images are the identity of the document's joint lattice
    size = _joint_size(paths["doc"]) if command == "check-map" else None
    identity = st.just({"image": list(range(size))}) if size else _map | _junk
    image = data.draw(st.one_of(identity, _map | _junk), label="image")
    for name, value in (("other", other), ("map", image), ("shifts", shifts)):
        paths[name].write_text(json.dumps(value))
    (tmp_path / "new.txt").unlink(missing_ok=True)
    (tmp_path / "old.txt").write_text("old\n")
    targets = {name: data.draw(st.sampled_from(sorted(_TARGETS)), label=name)
               for name in ("out", "dot")}
    paths.update((name, tmp_path / target) for name, target in targets.items())
    options = data.draw(_options(_OPTIONS[command], _option("--out", st.just("{out}"))),
                        label="options")
    given_paths = [name for name in targets if any(a.startswith(f"--{name}=") for a in options)]
    for name, path in paths.items():
        options = [a.replace("{%s}" % name, str(path)) for a in options]
    argv = [command, str(paths["doc"]), *options]
    with pytest.raises(SystemExit) as info:
        main(argv)
    out, err = capsys.readouterr()
    event(f"{command} exits {info.value.code}")
    assert info.value.code in (0, 1, 2), (argv, err)
    if info.value.code:
        assert out == ""
        assert err.startswith(("error:", "limit:")), (argv, err)
    assert "Traceback" not in err
    if any(not _TARGETS[targets[name]] for name in given_paths):
        assert info.value.code, (argv, err)
    elif "out" in given_paths and not info.value.code:
        assert out == "" and isinstance(json.loads(paths["out"].read_text()), dict)


_PARSERS = {"ideal": (gens_from_json, _ideal()), "pair": (pair_from_json, _pair),
            "lattice": (lattice_from_json, _lattice()),
            "weighting": (weighting_from_json, _weighting())}


@settings(deadline=None)
@given(kind=st.sampled_from(sorted(_PARSERS)), data=st.data())
def test_parsers_raise_only_library_errors(kind, data):
    parse, shaped = _PARSERS[kind]
    doc = data.draw(st.one_of(shaped, shaped, _document), label="doc")
    try:
        parse(doc)
    except LcmlatError:
        pass

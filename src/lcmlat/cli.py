"""Command line front end.

Subcommands read JSON documents (ideal, quotient pair, lattice, weighting),
write JSON reports, and map failures to exit codes: 1 for bad input, 2 for
configured resource limits, 3 for internal errors and assertion failures,
which include a census counterexample.  Output is byte-deterministic for
fixed input.
"""

import argparse
import contextlib
import json
import re
import sys
from dataclasses import asdict

from .config import PRIME_BOUND, Config
from .errors import InternalError, InvalidInput, LcmlatError, LimitExceeded
from . import classify as _classify
from . import lattice as _lattice
from . import monomials as _mono
from . import resolution as _resolution
from . import sdepth as _sdepth
from .realize import (
    canonical_realization as _canonical_realization,
    canonical_weighting as _canonical_weighting,
    equalize_degrees as _equalize_degrees,
    realize as _do_realize,
    single_degree_pair as _single_degree_pair,
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(1)


def _load(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise InvalidInput(f"cannot read {path}: {exc}")
    except ValueError as exc:  # malformed JSON, or an integer past int()'s digit limit
        raise InvalidInput(f"{path} is not JSON: {exc}")


def _create(path):
    """A file opened for writing, or stdout (left open) when there is no path;
    a path that cannot be written is bad input."""
    if not path:
        return contextlib.nullcontext(sys.stdout)
    try:
        return open(path, "w")
    except OSError as exc:
        raise InvalidInput(f"cannot write {path}: {exc}")


def _kind(doc):
    if not isinstance(doc, dict):
        raise InvalidInput("top-level JSON object expected")
    if "I" in doc and "J" in doc:
        return "pair"
    if "generators" in doc:
        return "ideal"
    if "weights" in doc:
        return "weighting"
    if "covers" in doc:
        return "lattice"
    if "image" in doc:
        return "map"
    raise InvalidInput("unrecognized document shape")


def _image_from_json(doc):
    if _kind(doc) != "map":
        raise InvalidInput("the map document needs an 'image' list")
    return _lattice.json_ints(doc["image"], "the map image")


def _shifts_from_json(doc):
    if not isinstance(doc, list):
        raise InvalidInput("shift document must be a list of exponent shifts")
    return doc


# the parser of each document kind, called with the document and the Config
_PARSERS = {
    "ideal": lambda doc, cfg: _mono.gens_from_json(doc),
    "pair": lambda doc, cfg: _mono.pair_from_json(doc),
    "lattice": _lattice.lattice_from_json,
    "weighting": _mono.weighting_from_json,
    "map": lambda doc, cfg: _image_from_json(doc),
    "shifts": lambda doc, cfg: _shifts_from_json(doc),
}


def _read(path, cfg, *kinds):
    """The document at path parsed as one of kinds.  Its kind is looked up
    only when there is a choice; a single kind is left to its parser."""
    doc = _load(path)
    kind = _kind(doc) if len(kinds) > 1 else kinds[0]
    if kind not in kinds:
        raise InvalidInput(f"expected {' or '.join(kinds)} document, got {kind}")
    return _PARSERS[kind](doc, cfg)


def _pair_of(obj, module=None):
    """A pair as given; an ideal, minimalized, as I (the default) or as S/I."""
    if isinstance(obj, _mono.QuotientPair):
        if module:
            raise InvalidInput("--module applies to ideal documents only")
        return obj
    if module == "quotient-ring":
        return _mono.quotient_ring_pair(obj.minimalize())
    return _mono.ideal_pair(obj.minimalize())


def _lattice_of(path, cfg):
    """A lattice document's lattice, or the lcm-lattice of an ideal or a pair."""
    obj = _read(path, cfg, "lattice", "ideal", "pair")
    if isinstance(obj, _lattice.Semilattice):
        return obj
    if isinstance(obj, _mono.QuotientPair):
        obj = _mono.union_generators(obj)
    return _mono.lcm_semilattice(obj, cfg).lattice


def _emit(out, doc):
    with _create(out) as fh:
        fh.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")


def _config(args) -> Config:
    field = getattr(args, "field", None) or "Q"
    prime = re.fullmatch(r"GF:([0-9]+)|GF\(([0-9]+)\)", field)
    if field != "Q" and not prime:
        raise InvalidInput(f"cannot parse field {field!r}")
    if prime:
        try:
            field = ("GF", int(prime[1] or prime[2]))
        except ValueError:  # more digits than int() converts
            raise InvalidInput(f"a field modulus must be below {PRIME_BOUND}") from None
    return Config(field=field, long_run=getattr(args, "long_run", False))


def _cmd_lattice(args, cfg):
    lat = _lattice_of(args.input, cfg)
    if args.dot:
        with _create(args.dot) as fh:
            fh.write(_lattice.lattice_to_dot(lat))
    return _lattice.lattice_to_json(lat)


def _cmd_weights(args, cfg):
    return _mono.weighting_to_json(_mono.weight_map(_read(args.input, cfg, "ideal"), cfg))


def _cmd_realize(args, cfg):
    gens = _do_realize(_read(args.input, cfg, "weighting"))
    return _mono.gens_to_json(gens.minimalize() if args.minimal else gens)


def _cmd_canonical(args, cfg):
    gens = _canonical_realization(_lattice_of(args.input, cfg))
    return _mono.gens_to_json(gens.minimalize() if args.minimal else gens)


def _cmd_equalize(args, cfg):
    obj = _read(args.input, cfg, "lattice", "ideal", "pair")
    if not isinstance(obj, _lattice.Semilattice):
        if args.antichain:
            raise InvalidInput("--antichain applies to lattice documents only")
        return _mono.pair_to_json(_single_degree_pair(_pair_of(obj), cfg))
    if not args.antichain:
        raise InvalidInput("a lattice input needs --antichain")
    try:
        ids = [int(t) for t in args.antichain.split(",")]
    except ValueError:
        raise InvalidInput(f"--antichain wants comma-separated indices: {args.antichain!r}")
    return _mono.weighting_to_json(_equalize_degrees(_canonical_weighting(obj), ids))


def _cmd_invariant(args, cfg):
    """sdepth, betti and pdim of a pair, or of an ideal read as --module says."""
    pair = _pair_of(_read(args.input, cfg, "ideal", "pair"), args.module)
    if args.command == "sdepth":
        return _sdepth.sdepth_solve(pair, cfg).to_json()
    table = _resolution.taylor_betti(pair.minimalize(), cfg)
    if args.command == "betti":
        return table.to_json()
    return {"pdim": table.pdim, "depth": table.depth, "field": table.field}


def _var_index(obj, var):
    if var in obj.variables:
        return obj.variables.index(var)
    try:
        return int(var)
    except ValueError:
        raise InvalidInput(f"unknown variable {var!r}")


# each transform maps an ideal or a pair, with the subcommand's options, to the same kind
_TRANSFORMS = {
    "polarize": lambda obj, args, cfg: _mono.polarize(obj),
    "radical": lambda obj, args, cfg: _mono.radical(obj),
    "colon": lambda obj, args, cfg: _mono.colon(
        obj, _mono.parse_monomial(args.by, obj.variables)),
    "restrict": lambda obj, args, cfg: _mono.restrict_variable(obj, _var_index(obj, args.var)),
    "inflate": lambda obj, args, cfg: _mono.inflate(
        obj, _mono.parse_monomial(args.element, obj.variables)),
    "deform": lambda obj, args, cfg: _mono.deform(obj, _read(args.shifts, cfg, "shifts")),
}


def _cmd_transform(args, cfg):
    out = _TRANSFORMS[args.command](_read(args.input, cfg, "ideal", "pair"), args, cfg)
    if isinstance(out, _mono.QuotientPair):
        return _mono.pair_to_json(out)
    return _mono.gens_to_json(out)


def _cmd_generic(args, cfg):
    return {"generic": _mono.is_generic(_read(args.input, cfg, "ideal").minimalize())}


def _cmd_isomorphic(args, cfg):
    la, lb = _lattice_of(args.a, cfg), _lattice_of(args.b, cfg)
    ca, cb = _lattice.canonical_form(la, cfg), _lattice.canonical_form(lb, cfg)
    return {"isomorphic": ca == cb, "canonical_a": ca.decode(), "canonical_b": cb.decode()}


def _cmd_classify(args, cfg):
    """Writes its own JSON-lines stream and returns no report."""
    with _create(args.out) as out:
        total = 0
        bad = []
        for record, lat in _classify.census(args.atoms, cfg, check=not args.no_check):
            out.write(json.dumps(record, sort_keys=True) + "\n")
            total += 1
            if record.get("counterexample"):
                bad.append((record, lat))
        summary = {"atoms": args.atoms, "classes": total, "counterexamples": len(bad)}
        out.write(json.dumps({"summary": summary}, sort_keys=True) + "\n")
    if bad:
        for record, lat in bad:
            bundle = {
                "record": record,
                "lattice": _lattice.lattice_to_json(lat),
                "realization": _mono.gens_to_json(_canonical_realization(lat)),
            }
            sys.stderr.write(json.dumps(bundle, sort_keys=True) + "\n")
        raise AssertionError(f"{len(bad)} counterexample(s) found")


def _cmd_check_map(args, cfg):
    """Emits its report before a failed check exits 3, and returns none."""
    pa = _pair_of(_read(args.a, cfg, "ideal", "pair"))
    pb = _pair_of(_read(args.b, cfg, "ideal", "pair"))
    check = _resolution.pdim_pair_invariance(
        pa, pb, _read(args.map, cfg, "map"), cfg, with_sdepth=args.with_sdepth
    )
    # the Stanley fields are None unless --with-sdepth asked for them
    _emit(args.out, {key: value for key, value in asdict(check).items() if value is not None})
    if not check.ok:
        raise AssertionError("a validated surjection must not increase the invariants")


def _build_parser():
    top = _Parser(prog="lcmlat", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    def count(text):  # argparse reports a ValueError as "invalid count value"
        value = int(text)
        if value < 1:
            raise argparse.ArgumentTypeError(f"a count must be at least 1, got {value}")
        return value

    def cmd(name, fn, help_, inputs=("input",)):
        p = sub.add_parser(name, help=help_)
        for pos in inputs:
            p.add_argument(pos)
        p.add_argument("--out", help="write the JSON report here instead of stdout")
        p.set_defaults(fn=fn)
        return p

    p = cmd("lattice", _cmd_lattice, "lcm-semilattice of an ideal or pair")
    p.add_argument("--dot", help="also write a graphviz rendering here")
    cmd("weights", _cmd_weights, "standard weight map of an ideal")
    p = cmd("realize", _cmd_realize, "monomials from a weighting document")
    p.add_argument("--minimal", action="store_true")
    p = cmd("canonical", _cmd_canonical, "canonical squarefree realization of a lattice")
    p.add_argument("--minimal", action="store_true")
    p = cmd("equalize", _cmd_equalize, "equalize realized degrees on an antichain")
    p.add_argument("--antichain", help="comma-separated element indices (lattice input)")
    cmd("sdepth", _cmd_invariant, "exact Stanley depth")
    cmd("betti", _cmd_invariant, "Betti numbers via the Taylor complex")
    cmd("pdim", _cmd_invariant, "projective dimension and depth")
    cmd("polarize", _cmd_transform, "polarization")
    cmd("radical", _cmd_transform, "radical")
    p = cmd("colon", _cmd_transform, "colon by a monomial")
    p.add_argument("--by", required=True, help="a monomial like x^2*y")
    p = cmd("restrict", _cmd_transform, "set one variable to zero and drop it")
    p.add_argument("--var", required=True, help="variable name or index")
    p = cmd("inflate", _cmd_transform, "stretch generators away from one lattice element")
    p.add_argument("--element", required=True, help="a monomial that is an lcm of generators")
    p = cmd("deform", _cmd_transform, "apply an exponent deformation")
    p.add_argument("--shifts", required=True, help="JSON file with one shift row per generator")
    cmd("generic", _cmd_generic, "genericity test")
    cmd("isomorphic", _cmd_isomorphic, "compare two lattices up to isomorphism",
        inputs=("a", "b"))
    p = cmd("classify", _cmd_classify, "census of atomistic semilattices", inputs=())
    p.add_argument("--atoms", type=count, required=True)
    p.add_argument("--no-check", action="store_true", help="skip invariants")
    p.add_argument("--long-run", action="store_true", help="allow the largest census")
    p = cmd("check-map", _cmd_check_map, "validate a lattice surjection between two pairs",
            inputs=("a", "b", "map"))
    p.add_argument("--with-sdepth", action="store_true")
    for name in ("sdepth", "betti", "pdim"):
        sub.choices[name].add_argument(
            "--module", choices=["ideal", "quotient-ring"],
            help="read an ideal document as I (the default) or S/I; not for pairs")
    for name in ("betti", "pdim", "classify", "check-map"):
        sub.choices[name].add_argument(
            "--field", help="Q (default), GF:p or GF(p) for a prime p")
    return top


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        report = args.fn(args, _config(args))
        if report is not None:
            _emit(args.out, report)
    except SystemExit:
        raise
    except LimitExceeded as exc:
        sys.stderr.write(f"limit: {exc}\n")
        raise SystemExit(2)
    except InternalError as exc:
        sys.stderr.write(f"internal error: {exc}\n")
        raise SystemExit(3)
    except (InvalidInput, LcmlatError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        raise SystemExit(1)
    except AssertionError as exc:
        sys.stderr.write(f"internal assertion failed: {exc}\n")
        raise SystemExit(3)
    raise SystemExit(0)


if __name__ == "__main__":
    main()

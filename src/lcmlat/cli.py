"""Command line front end.

Subcommands read JSON documents (ideal, quotient pair, lattice, weighting),
write JSON reports, and map failures to exit codes: 1 for bad input, 2 for
configured resource limits, 3 for internal errors and assertion failures,
which include a census counterexample.  Output is byte-deterministic for
fixed input.
"""

import argparse
import json
import re
import sys

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
    """A file opened for writing; a path that cannot be written is bad input."""
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


def _emit(args, doc):
    text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    if args.out:
        with _create(args.out) as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


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


def _pair_from(doc, module):
    """A quotient pair from an ideal or pair document plus the module choice."""
    kind = _kind(doc)
    if kind == "pair":
        return _mono.pair_from_json(doc)
    if kind != "ideal":
        raise InvalidInput("need an ideal or quotient document")
    gens = _mono.gens_from_json(doc).minimalize()
    if module == "quotient-ring":
        return _mono.quotient_ring_pair(gens)
    return _mono.ideal_pair(gens)


def _obj_from(doc):
    kind = _kind(doc)
    if kind == "pair":
        return _mono.pair_from_json(doc)
    if kind == "ideal":
        return _mono.gens_from_json(doc)
    raise InvalidInput("need an ideal or quotient document")


def _obj_to_json(obj):
    if isinstance(obj, _mono.QuotientPair):
        return _mono.pair_to_json(obj)
    return _mono.gens_to_json(obj)


def _lattice_of(doc, cfg):
    kind = _kind(doc)
    if kind == "lattice":
        return _lattice.lattice_from_json(doc, cfg)
    if kind == "ideal":
        return _mono.lcm_semilattice(_mono.gens_from_json(doc), cfg).lattice
    if kind == "pair":
        pair = _mono.pair_from_json(doc)
        return _mono.lcm_semilattice(_mono.union_generators(pair), cfg).lattice
    raise InvalidInput("need a lattice, ideal, or quotient document")


def _cmd_lattice(args):
    cfg = _config(args)
    lat = _lattice_of(_load(args.input), cfg)
    if args.dot:
        with _create(args.dot) as fh:
            fh.write(_lattice.lattice_to_dot(lat))
    _emit(args, _lattice.lattice_to_json(lat))


def _cmd_weights(args):
    cfg = _config(args)
    gens = _mono.gens_from_json(_load(args.input))
    w = _mono.weight_map(gens, cfg)
    _emit(args, _mono.weighting_to_json(w))


def _cmd_realize(args):
    cfg = _config(args)
    w = _mono.weighting_from_json(_load(args.input), cfg)
    gens = _do_realize(w, cfg)
    _emit(args, _mono.gens_to_json(gens.minimalize() if args.minimal else gens))


def _cmd_canonical(args):
    cfg = _config(args)
    lat = _lattice_of(_load(args.input), cfg)
    gens = _canonical_realization(lat, cfg)
    _emit(args, _mono.gens_to_json(gens.minimalize() if args.minimal else gens))


def _cmd_equalize(args):
    cfg = _config(args)
    doc = _load(args.input)
    if _kind(doc) == "lattice":
        if not args.antichain:
            raise InvalidInput("a lattice input needs --antichain")
        lat = _lattice.lattice_from_json(doc, cfg)
        try:
            ids = [int(t) for t in args.antichain.split(",")]
        except ValueError:
            raise InvalidInput(f"--antichain wants comma-separated indices: {args.antichain!r}")
        w = _equalize_degrees(_canonical_weighting(lat), ids)
        _emit(args, _mono.weighting_to_json(w))
        return
    if args.antichain:
        raise InvalidInput("--antichain applies to lattice documents only")
    pair = _pair_from(doc, "ideal")
    out = _single_degree_pair(pair, cfg)
    _emit(args, _mono.pair_to_json(out))


def _cmd_sdepth(args):
    cfg = _config(args)
    pair = _pair_from(_load(args.input), args.module)
    _emit(args, _sdepth.sdepth_solve(pair, cfg).to_json())


def _cmd_betti(args):
    cfg = _config(args)
    pair = _pair_from(_load(args.input), args.module).minimalize()
    _emit(args, _resolution.taylor_betti(pair, cfg).to_json())


def _cmd_pdim(args):
    cfg = _config(args)
    pair = _pair_from(_load(args.input), args.module).minimalize()
    table = _resolution.taylor_betti(pair, cfg)
    _emit(args, {"pdim": table.pdim, "depth": table.depth, "field": table.field})


def _cmd_polarize(args):
    obj = _obj_from(_load(args.input))
    _emit(args, _obj_to_json(_mono.polarize(obj)))


def _cmd_radical(args):
    obj = _obj_from(_load(args.input))
    _emit(args, _obj_to_json(_mono.radical(obj)))


def _cmd_colon(args):
    obj = _obj_from(_load(args.input))
    by = _mono.parse_monomial(args.by, obj.variables)
    _emit(args, _obj_to_json(_mono.colon(obj, by)))


def _cmd_restrict(args):
    obj = _obj_from(_load(args.input))
    variables = obj.variables
    if args.var in variables:
        idx = variables.index(args.var)
    else:
        try:
            idx = int(args.var)
        except ValueError:
            raise InvalidInput(f"unknown variable {args.var!r}")
    _emit(args, _obj_to_json(_mono.restrict_variable(obj, idx)))


def _cmd_inflate(args):
    obj = _obj_from(_load(args.input))
    m = _mono.parse_monomial(args.element, obj.variables)
    _emit(args, _obj_to_json(_mono.inflate(obj, m)))


def _cmd_deform(args):
    obj = _obj_from(_load(args.input))
    shifts = _load(args.shifts)
    if not isinstance(shifts, list):
        raise InvalidInput("shift document must be a list of exponent shifts")
    _emit(args, _obj_to_json(_mono.deform(obj, shifts)))


def _cmd_generic(args):
    gens = _mono.gens_from_json(_load(args.input)).minimalize()
    _emit(args, {"generic": _mono.is_generic(gens)})


def _cmd_isomorphic(args):
    cfg = _config(args)
    la = _lattice_of(_load(args.a), cfg)
    lb = _lattice_of(_load(args.b), cfg)
    ca = _lattice.canonical_form(la, cfg)
    cb = _lattice.canonical_form(lb, cfg)
    _emit(args, {"isomorphic": ca == cb, "canonical_a": ca.decode(), "canonical_b": cb.decode()})


def _cmd_classify(args):
    cfg = _config(args)
    out = _create(args.out) if args.out else sys.stdout
    try:
        total = 0
        bad = []
        for record, lat in _classify.census(args.atoms, cfg, check=not args.no_check):
            out.write(json.dumps(record, sort_keys=True) + "\n")
            total += 1
            if record.get("counterexample"):
                bad.append((record, lat))
        summary = {"atoms": args.atoms, "classes": total,
                   "counterexamples": len(bad)}
        out.write(json.dumps({"summary": summary}, sort_keys=True) + "\n")
    finally:
        if args.out:
            out.close()
    if bad:
        for record, lat in bad:
            bundle = {
                "record": record,
                "lattice": _lattice.lattice_to_json(lat),
                "realization": _mono.gens_to_json(_canonical_realization(lat, cfg)),
            }
            sys.stderr.write(json.dumps(bundle, sort_keys=True) + "\n")
        raise AssertionError(f"{len(bad)} counterexample(s) found")


def _cmd_check_map(args):
    cfg = _config(args)
    pa = _pair_from(_load(args.a), "ideal")
    pb = _pair_from(_load(args.b), "ideal")
    mdoc = _load(args.map)
    if _kind(mdoc) != "map":
        raise InvalidInput("the map document needs an 'image' list")
    check = _resolution.pdim_pair_invariance(
        pa, pb, _lattice.json_ints(mdoc["image"], "the map image"), cfg,
        with_sdepth=args.with_sdepth
    )
    doc = {
        "bijective": check.bijective,
        "pdim_source": check.pdim_source,
        "pdim_target": check.pdim_target,
        "pdim_ok": check.pdim_ok,
    }
    if args.with_sdepth:
        doc.update({
            "spdim_source": check.spdim_source,
            "spdim_target": check.spdim_target,
            "spdim_ok": check.spdim_ok,
        })
    _emit(args, doc)
    if not check.ok:
        raise AssertionError("a validated surjection must not increase the invariants")


def _build_parser():
    top = _Parser(prog="lcmlat", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

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
    p = cmd("sdepth", _cmd_sdepth, "exact Stanley depth")
    p.add_argument("--module", choices=["ideal", "quotient-ring"], default="ideal")
    p = cmd("betti", _cmd_betti, "Betti numbers via the Taylor complex")
    p.add_argument("--module", choices=["ideal", "quotient-ring"], default="ideal")
    p = cmd("pdim", _cmd_pdim, "projective dimension and depth")
    p.add_argument("--module", choices=["ideal", "quotient-ring"], default="ideal")
    cmd("polarize", _cmd_polarize, "polarization")
    cmd("radical", _cmd_radical, "radical")
    p = cmd("colon", _cmd_colon, "colon by a monomial")
    p.add_argument("--by", required=True, help="a monomial like x^2*y")
    p = cmd("restrict", _cmd_restrict, "set one variable to zero and drop it")
    p.add_argument("--var", required=True, help="variable name or index")
    p = cmd("inflate", _cmd_inflate, "stretch generators away from one lattice element")
    p.add_argument("--element", required=True, help="a monomial that is an lcm of generators")
    p = cmd("deform", _cmd_deform, "apply an exponent deformation")
    p.add_argument("--shifts", required=True, help="JSON file with one shift row per generator")
    cmd("generic", _cmd_generic, "genericity test")
    cmd("isomorphic", _cmd_isomorphic, "compare two lattices up to isomorphism",
        inputs=("a", "b"))
    p = cmd("classify", _cmd_classify, "census of atomistic semilattices", inputs=())
    p.add_argument("--atoms", type=int, required=True)
    p.add_argument("--no-check", action="store_true", help="skip invariants")
    p.add_argument("--long-run", action="store_true", help="allow the largest census")
    cmd("check-map", _cmd_check_map, "validate a lattice surjection between two pairs",
        inputs=("a", "b", "map"))
    sub.choices["check-map"].add_argument("--with-sdepth", action="store_true")
    for name in ("betti", "pdim", "classify", "check-map"):
        sub.choices[name].add_argument(
            "--field", help="Q (default), GF:p or GF(p) for a prime p")
    return top


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        args.fn(args)
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

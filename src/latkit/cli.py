"""Command-line front end: parse object files, run constructions, emit
reports, and drive the full proposition sweep.

Exit codes: 0 success, 1 validation or proposition failure (or stdout closed
before all output was written), 2 parse error, 3 size limit exceeded.
"""

from __future__ import annotations

import json
import os
import sys
import types

from . import closure, io, ortho, stateprop, suite, transition
from .core import identity_map
from .errors import LatkitError, ParseError, SizeLimit, ValidationError
from .maps import MAP_CLASSES, hom_set, left_adjoint, preservation_profile, right_adjoint

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_PARSE = 2
EXIT_SIZE = 3


def _load_files(paths):
    return io.load_workspace([io.read_text(path) for path in paths])


_encode = json.encoder.encode_basestring_ascii


def _json(payload, newline="\n"):
    """The text of json.dumps(payload, indent=2, sort_keys=True) for a
    payload of dicts with string keys, lists, tuples, strings, bools, ints,
    floats and None.  With indent set, json.dumps runs its pure-Python
    encoder; this one writes each container in one join.  newline is the
    line break and the indent of the payload's own line."""
    kind = payload.__class__
    if kind is str:
        return _encode(payload)
    if kind is dict:
        if not payload:
            return "{}"
        inner = newline + "  "
        items = [_encode(key) + ": " + _json(value, inner) for key, value in sorted(payload.items())]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if kind is list or kind is tuple:
        if not payload:
            return "[]"
        inner = newline + "  "
        items = [_json(value, inner) for value in payload]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if payload is None:
        return "null"
    if payload is True:
        return "true"
    if payload is False:
        return "false"
    if kind is int:
        return int.__repr__(payload)
    if kind is float:
        return float.__repr__(payload)
    raise TypeError("cannot write %s as JSON" % kind.__name__)


def _emit(payload, as_json):
    if as_json:
        print(_json(payload))
    else:
        for key, value in payload.items():
            print("%s: %s" % (key, value))


def _corpus_lattices(args, *names):
    """Resolve lattices by name from files, read once, or from the built-in
    corpus."""
    if args.files:
        lattices = _load_files(args.files).lattices
        missing = [name for name in names if name not in lattices]
        if missing:
            raise ParseError("no lattice named %r in the given files" % missing[0])
        return [lattices[name] for name in names]
    from . import corpus

    out = []
    for name in names:
        try:
            out.append(corpus.named_lattice(name))
        except KeyError:
            raise ParseError("no built-in lattice named %r" % name) from None
    return out


def _total_map(ws, name):
    """The total map named name in the workspace ws."""
    if name not in ws.maps:
        raise ParseError("no map named %r" % name)
    f = ws.maps[name]
    if hasattr(f, "anchor"):
        raise ValidationError("map %r is a partial map; this command needs a total map" % name)
    return f


def cmd_check(args):
    reports = []
    ok = True
    ws = _load_files(args.files)
    for name, lat in ws.lattices.items():
        reports.append({"object": name, "kind": "lattice", "status": "pass"})
    for name in ws.orthos:
        reports.append({"object": name, "kind": "ortho", "status": "pass"})
    for name, f in ws.maps.items():
        kind = "partial-map" if hasattr(f, "anchor") else "map"
        entry = {"object": name, "kind": kind, "status": "pass"}
        if kind == "map":
            profile = preservation_profile(f)
            entry["profile"] = {
                "joins": profile.joins,
                "meets": profile.meets,
                "balanced": profile.balanced,
                "dense": profile.dense,
            }
            # A map that preserves binary joins or meets is isotone, so the
            # profile's scans decide those maps without another pass.
            if not (profile.joins or profile.meets or f.is_isotone()):
                entry["status"] = "fail"
                entry["witness"] = "map is not isotone"
                ok = False
        reports.append(entry)
    for name, alpha in ws.cmaps.items():
        good, witness = closure.check_continuity(alpha)
        entry = {"object": name, "kind": "continuous-map", "status": "pass"}
        if not good:
            entry["status"] = "fail"
            entry["witness"] = "closed set %s pulls back open" % sorted(witness)
            ok = False
        reports.append(entry)
    for name, relation in ws.causals.items():
        entry = {"object": name, "kind": "causal", "status": "pass"}
        try:
            stateprop.validate_causal(relation)
        except ValidationError as exc:
            entry["status"] = "fail"
            entry["witness"] = str(exc)
            ok = False
        reports.append(entry)
    for name in ws.union_maps:
        reports.append({"object": name, "kind": "umap", "status": "pass"})
    for name in ws.cspaces:
        reports.append({"object": name, "kind": "cspace", "status": "pass"})
    for name in ws.ospaces:
        reports.append({"object": name, "kind": "ospace", "status": "pass"})
    if args.json:
        print(_json(reports))
    else:
        for entry in reports:
            line = "%s %s %s" % (entry["status"].upper(), entry["kind"], entry["object"])
            if "witness" in entry:
                line += "  [%s]" % entry["witness"]
            print(line)
    return EXIT_OK if ok else EXIT_VALIDATION


def cmd_adjoint(args):
    ws = _load_files(args.files)
    f = _total_map(ws, args.name)
    dom_name, cod_name = ws.signatures[args.name]
    if args.direction in ("right", "dualize"):
        result = right_adjoint(f)
    elif args.direction == "left":
        result = left_adjoint(f)
    else:  # dagger: argparse refuses any other direction
        if dom_name not in ws.orthos or cod_name not in ws.orthos:
            raise ValidationError("dagger needs ortho tables on both lattices")
        result = ortho.dagger(f, ws.orthos[dom_name], ws.orthos[cod_name])
    out_name = "%s_%s" % (args.name, args.direction)
    if args.json:
        dom_labels, cod_labels = result.dom.labels, result.cod.labels
        values = {dom_labels[a]: cod_labels[v] for a, v in enumerate(result.values)}
        payload = {"map": out_name, "dom": cod_name, "cod": dom_name, "values": values}
        print(_json(payload))
    else:
        sys.stdout.write(io.format_map(out_name, result, cod_name, dom_name))
    return EXIT_OK


def _bounded_pair(args):
    """The lattices args.dom and args.cod, refused past --max-size."""
    dom, cod = _corpus_lattices(args, args.dom, args.cod)
    if args.max_size is not None and max(dom.size, cod.size) > args.max_size:
        raise SizeLimit("lattice exceeds --max-size %d" % args.max_size)
    return dom, cod


def cmd_hom(args):
    dom, cod = _bounded_pair(args)
    maps = hom_set(dom, cod, args.cls)
    if args.json:
        print(json.dumps([list(f.values) for f in maps]))
    else:
        for k, f in enumerate(maps):
            sys.stdout.write(io.format_map("h%d" % k, f, args.dom, args.cod))
    return EXIT_OK


def cmd_count(args):
    dom, cod = _bounded_pair(args)
    count = transition.hom_count(args.category, dom, cod)
    if args.json:
        payload = {"category": args.category, "dom": args.dom, "cod": args.cod, "count": count}
        print(json.dumps(payload))
    else:
        print(count)
    return EXIT_OK


def cmd_closure(args):
    ws = _load_files(args.files)
    if args.map:
        f = _total_map(ws, args.map)
        operator = closure.monad_from_adjunction(f, right_adjoint(f))
        fixed = closure.fixed_points(operator)
        labels = [f.dom.labels[e] for e in fixed.elements]
        _emit({"fixed": " ".join(labels)}, args.json)
        return EXIT_OK
    if args.space:
        if args.space not in ws.cspaces:
            raise ParseError("no closure space named %r" % args.space)
        space = ws.cspaces[args.space]
        wanted = [s for s in (args.subset or "").split(",") if s]
        index = io._indexed(space.labels)
        points = [io._label_index(index, s, None, "point") for s in wanted]
        closed = space.closure_of(points)
        _emit({"closure": " ".join(space.labels[p] for p in sorted(closed))}, args.json)
        return EXIT_OK
    raise ValidationError("closure needs --map or --space")


def cmd_equiv(args):
    ws = _load_files(args.files)
    checks = []  # (object, law body, its argument)
    for name, lat in ws.lattices.items():
        if lat.is_atomistic():
            checks.append((name, suite._atomistic_roundtrip, lat))
            if name in ws.orthos:
                checks.append((name + "(ortho)", suite._orthospace_of_lattice, ws.orthos[name]))
    checks += [(name, closure.space_roundtrip, s) for name, s in ws.cspaces.items() if s.is_simple()]
    results = [
        {"object": name, "status": "pass" if body(obj) is None else "fail"}
        for name, body, obj in checks
    ]
    if args.json:
        print(_json(results))
    else:
        for entry in results:
            print("%s %s" % (entry["status"].upper(), entry["object"]))
    failed = any(entry["status"] == "fail" for entry in results)
    return EXIT_VALIDATION if failed else EXIT_OK


def cmd_witness(args):
    (lattice,) = _corpus_lattices(args, args.lattice)
    element = lattice.label_index.get(args.element)
    if element is None:
        raise ParseError("no element labelled %r" % args.element)
    theta = transition.strictness_witness(lattice, element)
    coherent = transition.coherence_check(identity_map(lattice), theta)
    based = transition.is_based(theta)
    if args.json:
        payload = {"lattice": args.lattice, "element": args.element,
                   "coherent_with_identity": coherent, "based": based}
        print(json.dumps(payload))
    else:
        sys.stdout.write(
            io.format_umap("witness_%s" % args.element, theta, args.lattice, args.lattice)
        )
        print("# coherent with the identity: %s; based: %s" % (coherent, based))
    return EXIT_OK


def cmd_suite(args):
    if args.corpus:
        bundle, failures = suite.load_corpus_dir(args.corpus)
    else:
        bundle, failures = suite.default_bundle(), []
    reports = failures + suite.run_suite(
        bundle=bundle,
        filter_text=args.filter,
        max_size=args.max_size,
        seed=args.seed,
    )
    failed = [r for r in reports if r.status != "pass"]  # fail or error
    if args.json:
        print(_json([r.to_dict() for r in reports]))
    else:
        for r in reports:
            line = "%s %s %s (%.1f ms)" % (r.status.upper(), r.prop, r.object, r.millis)
            if r.witness:
                line += "  [%s]" % r.witness
            print(line)
        print("%d checks, %d failed" % (len(reports), len(failed)))
    return EXIT_OK if not failed else EXIT_VALIDATION


_JSON = ("--json", {"action": "store_true"})
_FILES = ("files", {"nargs": "+"})
_FILES_OPTION = ("--files", {"nargs": "*", "default": []})
_MAX_SIZE = ("--max-size", {"type": int})

# name -> (handler, help, argument specs), in the order help lists them.
COMMANDS = {
    "check": (cmd_check, "parse and validate object files", [_FILES, _JSON]),
    "adjoint": (cmd_adjoint, "compute an adjoint of a named map", [
        _FILES,
        ("--name", {"required": True}),
        ("--direction", {"default": "right", "choices": ["right", "left", "dagger", "dualize"],
                         "help": "dualize is the same as right"}),
        _JSON,
    ]),
    "hom": (cmd_hom, "enumerate a Hom-set between two lattices", [
        ("dom", {}), ("cod", {}), ("--cls", {"default": "join", "choices": MAP_CLASSES}),
        _FILES_OPTION, _MAX_SIZE, _JSON,
    ]),
    "count": (cmd_count, "count morphisms at an enrichment level", [
        ("category", {"choices": ["PS", "BS", "TS", "FS"]}),
        ("dom", {}), ("cod", {}), _FILES_OPTION, _MAX_SIZE, _JSON,
    ]),
    "closure": (cmd_closure, "closure data for a map or space", [
        _FILES, ("--map", {}), ("--space", {}),
        ("--subset", {"help": "comma separated point labels"}), _JSON,
    ]),
    "equiv": (cmd_equiv, "run the space- and orthospace-equivalence laws", [_FILES, _JSON]),
    "witness": (cmd_witness, "emit the strictness witness for an element", [
        ("lattice", {}), ("element", {}), _FILES_OPTION, _JSON,
    ]),
    "suite": (cmd_suite, "run the full proposition sweep", [
        ("corpus", {"nargs": "?", "help": "directory of corpus files"}), _JSON,
        ("--filter", {}), _MAX_SIZE, ("--seed", {"type": int, "default": 0}),
    ]),
}


def build_parser():
    """The full latkit parser, with a subparser for every command."""
    import argparse  # only help and usage errors need it

    parser = argparse.ArgumentParser(
        prog="latkit", description="Finite lattice computations and law sweeps."
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_text, specs) in COMMANDS.items():
        command = sub.add_parser(name, help=help_text)
        for flag, options in specs:
            command.add_argument(flag, **options)
        command.set_defaults(func=func)
    return parser


def _values(spec, tokens):
    """tokens through the spec's type, then its choices, as argparse takes
    them; None if argparse would refuse one, which it then reports."""
    convert, choices = spec.get("type", str), spec.get("choices")
    try:
        values = [convert(token) for token in tokens]
    except ValueError:
        return None
    return values if choices is None or all(v in choices for v in values) else None


def _values_end(argv, start, many):
    """End of the values from argv[start] on: the tokens that do not start
    with "-", all of them when many, else at most one."""
    end = start
    while end < len(argv) and not argv[end].startswith("-") and (many or end == start):
        end += 1
    return end


def _plain_args(name, argv):
    """The arguments that build_parser() parses from [name] + argv, read
    straight from the command's specs, when argv is plain: first the
    positionals in spec order, then exact option flags, each at most once,
    whose values do not start with "-", every required option given and
    nothing left over.  None for any other argv, so that argparse parses it
    and reports help and usage errors."""
    func, _, specs = COMMANDS[name]
    args, positionals, options = {}, [], {}
    for flag, spec in specs:
        if flag.startswith("-"):
            dest = flag[2:].replace("-", "_")
            options[flag] = dest, spec
        else:
            dest = flag
            positionals.append((dest, spec))
        args[dest] = spec.get("default", False if spec.get("action") else None)
    i, seen = 0, set()
    for dest, spec in positionals:
        nargs = spec.get("nargs")
        end = _values_end(argv, i, nargs == "+")
        values = _values(spec, argv[i:end])
        if values is None or end == i and nargs != "?":
            return None
        if values:
            args[dest] = values if nargs == "+" else values[0]
        i = end
    while i < len(argv):
        flag = argv[i]
        if flag not in options or flag in seen:
            return None
        seen.add(flag)
        dest, spec = options[flag]
        i += 1
        if spec.get("action"):
            args[dest] = True
            continue
        many = spec.get("nargs") == "*"
        end = _values_end(argv, i, many)
        values = _values(spec, argv[i:end])
        if values is None or end == i and not many:
            return None
        args[dest] = values if many else values[0]
        i = end
    if any(spec.get("required") for flag, (_, spec) in options.items() if flag not in seen):
        return None
    return types.SimpleNamespace(**args, func=func)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    # A plain command line is read straight from COMMANDS; the full tree
    # parses any other line and reports its help and usage errors.
    args = _plain_args(argv[0], argv[1:]) if argv and argv[0] in COMMANDS else None
    if args is None:
        args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout early, as `latkit suite | head -1` does.
        # Point stdout at devnull so the flush at exit fails no more.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_VALIDATION
    except ParseError as exc:
        print("parse error: %s" % exc, file=sys.stderr)
        return EXIT_PARSE
    except SizeLimit as exc:
        print("size limit: %s" % exc, file=sys.stderr)
        return EXIT_SIZE
    except LatkitError as exc:
        print("error: %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())

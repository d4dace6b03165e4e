"""Command-line interface.

Exit codes: 0 success, 1 failed checks, 2 usage errors, 3 size-limit
overflows.  Outputs are deterministic: the same inputs produce
byte-identical JSON and DOT files.
"""

import argparse
import functools
import json
import sys

from .errors import HyperforgeError, Overflow, SizeLimitExceeded, \
    MismatchReport, InvalidParams, PreconditionFailed
from . import geometry as geo
from . import constructions as cons
from . import engine
from . import iso
from . import toroids
from . import dot
from .presentations import from_json as presentation_from_json
from .toddcox import todd_coxeter, perm_image


def _write(path, text):
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _load_geometry(path):
    with open(path) as fh:
        return geo.from_json(fh.read())


def _load_presentation(path):
    with open(path) as fh:
        return presentation_from_json(fh.read())


def cmd_build(args):
    if args.source == "toroid":
        if None in (args.n, args.k, args.s):
            raise InvalidParams("build toroid needs --n, --k and --s")
        p = toroids.ToroidParams(args.n, args.k, args.s)
        _, g = toroids.build_cubic_toroid(p, max_cosets=args.max_cosets)
    elif args.source == "coset":
        if args.presentation is None:
            raise InvalidParams("build coset needs --presentation")
        pres = _load_presentation(args.presentation)
        t = todd_coxeter(pres, max_cosets=args.max_cosets)
        g = engine.coset_geometry(perm_image(t))
    else:  # file: validate and re-emit canonically
        if args.input is None:
            raise InvalidParams("build file needs --input")
        g = _load_geometry(args.input)
    _write(args.output, geo.to_json(g))
    return 0


def _parse_leaf(text):
    parts = text.split(",")
    if len(parts) != 2:
        raise InvalidParams("leaf must be i,j")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError:
        raise InvalidParams("leaf must be i,j")


def cmd_halve(args):
    g = _load_geometry(args.input)
    leaf = _parse_leaf(args.leaf)
    h = cons.halving_geometry(g, leaf, force=args.force)
    _write(args.output, geo.to_json(h))
    return 0


def _run_prop(g, spec):
    parts = spec.split(":")
    name = parts[0]
    if name == "thin":
        return geo.is_thin(g)
    if name == "rc":
        return geo.is_residually_connected(g)
    if name == "conn":
        return geo.is_connected(g)
    if name == "geom":
        return geo.is_geometry(g)
    if name == "ft":
        return iso.is_flag_transitive(g)
    if name in ("b1", "b2") and len(parts) == 3:
        leaf = _parse_leaf(",".join(parts[1:]))
        check = cons.check_B1 if name == "b1" else cons.check_B2
        return check(g, leaf)
    raise InvalidParams("unknown property %r" % spec)


def cmd_check(args):
    g = _load_geometry(args.input)
    report = {}
    for spec in args.props.split(","):
        spec = spec.strip()
        if spec:
            report[spec] = _run_prop(g, spec)
    _write(args.output, json.dumps(report, sort_keys=True, indent=1) + "\n")
    return 0 if all(report.values()) else 1


def _parse_words(text):
    words = []
    if text:
        for chunk in text.split(","):
            chunk = chunk.strip()
            if chunk:
                try:
                    words.append(tuple(int(t) for t in chunk.split()))
                except ValueError:
                    raise InvalidParams("subgroup word %r is not a list of"
                                        " generator indices" % chunk)
    return words


def cmd_enumerate(args):
    pres = _load_presentation(args.presentation)
    subgens = _parse_words(args.subgroup)
    t = todd_coxeter(pres, subgens=subgens, max_cosets=args.max_cosets)
    _write(args.output, t.to_csv())
    return 0


def cmd_diagram(args):
    g = _load_geometry(args.input)
    _write(args.output, dot.diagram_to_dot(g))
    return 0


def _family_table(report):
    lines = []
    p = report["params"]
    lines.append("family (n=%d, k=%d, s=%d) depth %d: %s" %
                 (p["n"], p["k"], p["s"], report["depth"],
                  "ok" if report["ok"] else "MISMATCH"))
    for stage, data in report["stages"].items():
        lines.append("  [%s]" % stage)
        for key in sorted(data):
            lines.append("    %-28s %s" % (key, data[key]))
    return "\n".join(lines) + "\n"


def cmd_verify_family(args):
    p = toroids.ToroidParams(args.n, args.k, args.s)
    try:
        report = toroids.verify_family(p, depth=args.depth,
                                       max_cosets=args.max_cosets)
        code = 0
    except MismatchReport as exc:
        report = exc.report or {"ok": False, "diffs": exc.diffs}
        report["diffs"] = [list(d) for d in exc.diffs]
        code = 1
    if args.output:
        _write(args.output, json.dumps(report, sort_keys=True, indent=1,
                                       default=str) + "\n")
    sys.stdout.write(_family_table(report))
    return code


@functools.lru_cache(maxsize=None)
def build_parser():
    # once per process: parse_args keeps no state in the parser
    ap = argparse.ArgumentParser(
        prog="hyperforge",
        description="incidence geometries, halving constructions and "
                    "cubic toroid families")
    ap.add_argument("--max-cosets", type=int, default=None,
                    help="coset limit for enumerations "
                         "(default from HYPERFORGE_MAX_COSETS)")
    sub = ap.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="build a geometry")
    b.add_argument("source", choices=["toroid", "coset", "file"])
    b.add_argument("--n", type=int)
    b.add_argument("--k", type=int)
    b.add_argument("--s", type=int)
    b.add_argument("--presentation")
    b.add_argument("--input")
    b.add_argument("-o", "--output")
    b.set_defaults(func=cmd_build)

    h = sub.add_parser("halve", help="apply the halving construction")
    h.add_argument("input")
    h.add_argument("--leaf", required=True, help="leaf pair i,j")
    h.add_argument("--force", action="store_true",
                   help="skip precondition checks")
    h.add_argument("-o", "--output")
    h.set_defaults(func=cmd_halve)

    c = sub.add_parser("check", help="run property checks")
    c.add_argument("input")
    c.add_argument("--props", required=True,
                   help="comma list: geom,conn,thin,rc,ft,b1:i:j,b2:i:j")
    c.add_argument("-o", "--output")
    c.set_defaults(func=cmd_check)

    e = sub.add_parser("enumerate", help="coset enumeration to CSV")
    e.add_argument("--presentation", required=True)
    e.add_argument("--subgroup", default="",
                   help="subgroup generator words, e.g. '0 1 0, 2'")
    e.add_argument("-o", "--output")
    e.set_defaults(func=cmd_enumerate)

    d = sub.add_parser("diagram", help="emit the diagram as DOT")
    d.add_argument("input")
    d.add_argument("-o", "--output")
    d.set_defaults(func=cmd_diagram)

    v = sub.add_parser("verify-family", help="cross-check a toroid cell")
    v.add_argument("--n", type=int, required=True)
    v.add_argument("--k", type=int, required=True)
    v.add_argument("--s", type=int, required=True)
    v.add_argument("--depth", type=int, default=0, choices=[0, 1, 2])
    v.add_argument("-o", "--output")
    v.set_defaults(func=cmd_verify_family)
    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (Overflow, SizeLimitExceeded) as exc:
        sys.stderr.write("limit exceeded: %s\n" % exc)
        return 3
    except (InvalidParams,) as exc:
        sys.stderr.write("usage error: %s\n" % exc)
        return 2
    except (PreconditionFailed, MismatchReport) as exc:
        sys.stderr.write("check failed: %s\n" % exc)
        return 1
    except OSError as exc:
        sys.stderr.write("io error: %s\n" % exc)
        return 2
    except HyperforgeError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())

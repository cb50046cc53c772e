"""Command-line front end.

Every command writes to stdout and is deterministic, so outputs can be
piped around and diffed.  `-` stands for stdin.  Exit codes: 0 success,
1 parse/IO/usage trouble, 2 domain failures (validation witnesses are
printed before exiting).
"""

from __future__ import annotations

import argparse
import sys

from . import io as kio
from .core import FiniteKGraph, _violations_of, validate_kgraph
from .errors import (
    BadSurfaceSpec, KGraphError, NotACongruence, OutOfRange, OverlappingClasses, ParseError,
)
from .export import export_dot, export_json, export_mesh
from .homology import chain_complex, euler_characteristic, homology
from .quotient import quotient
from .simplex import (
    build_simplex,
    build_sphere,
    build_wedge,
    count_placings,
    enumerate_placings,
    _pid,
)
from .surfaces import MarkedSkeleton, compact_surface, connected_sum, validate_marking


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; that slot is reserved for
    # domain failures here, so route usage errors through ParseError (-> 1).
    def error(self, message):
        raise ParseError(message)


def _build_parser() -> _Parser:
    p = _Parser(prog="kgraphs", description="higher-rank graph toolkit")
    sub = p.add_subparsers(dest="verb", required=True)

    sp = sub.add_parser("placings", help="enumerate placings of {0..k}")
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--count", action="store_true", help="print only the count")

    sb = sub.add_parser("build", help="construct a model and print its JSON")
    sb.add_argument("what", choices=["simplex", "sphere", "wedge", "surface"])
    sb.add_argument("--k", type=int)
    sb.add_argument("--n", type=int)
    sb.add_argument("--spec", help="comma-separated surface tags, e.g. T,T,P")

    sv = sub.add_parser("validate", help="check axioms; print witnesses on failure")
    sv.add_argument("file")

    sq = sub.add_parser("quotient", help="quotient a category by a congruence")
    sq.add_argument("file")
    sq.add_argument("--relation", required=True, metavar="REL")

    sc = sub.add_parser("connected-sum", help="connected sum of two marked surfaces")
    sc.add_argument("a")
    sc.add_argument("b")

    sh = sub.add_parser("homology", help="integral homology via Smith normal form")
    sh.add_argument("file")
    sh.add_argument("--json", action="store_true")

    se = sub.add_parser("export", help="write dot / off / json renderings")
    se.add_argument("format", choices=["dot", "off", "json"])
    se.add_argument("file")

    return p


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load(path: str):
    return kio.loads(_read(path))


def _bare(model):
    """Strip a marking, if any; validators and homology work on the skeleton."""
    return model.skeleton if isinstance(model, MarkedSkeleton) else model


def _cmd_placings(args) -> int:
    if args.count:
        print(count_placings(args.k))
    else:
        # enumerated placings are known to be valid
        sys.stdout.write("".join(_pid(f) + "\n" for f in enumerate_placings(args.k)))
    return 0


def _cmd_build(args) -> int:
    if args.what == "surface":
        if not args.spec:
            raise ParseError("build surface needs --spec")
        model = compact_surface(args.spec)
    else:
        if args.what == "wedge" and (args.k is None or args.n is None):
            raise ParseError("build wedge needs --k and --n")
        if args.k is None:
            raise ParseError(f"build {args.what} needs --k")
        if args.what == "simplex":
            model = build_simplex(args.k)
        elif args.what == "sphere":
            model = build_sphere(args.k)
        else:
            if args.n < 1:
                raise ParseError("--n must be >= 1")
            model = build_wedge(args.k, args.n)
    sys.stdout.write(export_json(model))
    return 0


def _refuse(violations, more=()) -> int:
    """Print one line per violation, then any more lines; 2 if there were
    any, else 0."""
    lines = [f"{v.rule}: {v.detail}  witness={v.witness!r}" for v in violations] + list(more)
    for line in lines:
        print(line)
    return 2 if lines else 0


def _cmd_validate(args) -> int:
    model = _load(args.file)
    if isinstance(model, kio.RelationDoc):
        raise ParseError("a relation document has no axioms of its own; "
                         "feed it to `quotient` together with its base graph")
    bare = _bare(model)
    marking = () if bare is model else validate_marking(model)
    if _refuse(_violations_of(bare), [f"marking: {m}" for m in marking]):
        return 2
    print("OK")
    return 0


def _cmd_quotient(args) -> int:
    if args.file == "-" and args.relation == "-":
        raise ParseError("at most one of FILE and REL can be stdin")
    graph = _load(args.file)
    if not isinstance(graph, FiniteKGraph):
        raise ParseError(f"{args.file}: expected a category document")
    rdoc = _load(args.relation)
    if not isinstance(rdoc, kio.RelationDoc):
        raise ParseError(f"{args.relation}: expected a relation document")
    if _refuse(validate_kgraph(graph)):
        return 2
    rel = kio.bind_relation(rdoc, graph)
    q = quotient(graph, rel)          # raises NotACongruence on bad input
    sys.stdout.write(export_json(q))
    return 0


def _cmd_connected_sum(args) -> int:
    left = _load(args.a)
    right = _load(args.b)
    for path, m in ((args.a, left), (args.b, right)):
        if not isinstance(m, MarkedSkeleton):
            raise ParseError(f"{path}: expected a marked surface document")
    sys.stdout.write(export_json(connected_sum(left, right)))
    return 0


def _cmd_homology(args) -> int:
    model = _bare(_load(args.file))
    if isinstance(model, kio.RelationDoc):
        raise ParseError("cannot take homology of a relation document")
    cx = chain_complex(model)
    groups = homology(cx)
    if args.json:
        doc = {
            "H": [{"betti": g.betti, "torsion": list(g.torsion)} for g in groups],
            "euler": euler_characteristic(cx),
        }
        sys.stdout.write(kio.dumps(doc))
    else:
        for n, g in enumerate(groups):
            print(f"H_{n} = {g}")
    return 0


def _cmd_export(args) -> int:
    model = _load(args.file)
    if isinstance(model, kio.RelationDoc):
        raise ParseError("relation documents have nothing to draw")
    fmt = args.format
    if fmt == "json":
        sys.stdout.write(export_json(model))
    elif fmt == "dot":
        sys.stdout.write(export_dot(_bare(model)))
    else:  # off
        sys.stdout.write(export_mesh(_bare(model)))
    return 0


_DISPATCH = {
    "placings": _cmd_placings,
    "build": _cmd_build,
    "validate": _cmd_validate,
    "quotient": _cmd_quotient,
    "connected-sum": _cmd_connected_sum,
    "homology": _cmd_homology,
    "export": _cmd_export,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _DISPATCH[args.verb](args)
    except (ParseError, BadSurfaceSpec, OverlappingClasses, OutOfRange, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NotACongruence as exc:
        v = exc.verdict
        print(f"not a congruence: {v.violated} fails  witness={v.witness!r}"
              + (f"  ({v.detail})" if v.detail else ""))
        return 2
    except KGraphError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

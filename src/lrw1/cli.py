"""Command line surface: recognise, decompose, exact width, fixture sweeps.

Exit codes are stable across flags: 0 means linear rank-width <= 1 (or plain
success), 1 means an obstruction was found (or the input was not distance
hereditary where that was required), 2 means a usage or input error.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import recognizer
from .dh import pruning_sequence
from .errors import LrwError, ParseError
from .graph import Graph, connected_components, parse_graph, serialize_graph
from .recognizer import (
    Certificate,
    ObstructionCertificate,
    OrderingCertificate,
    verify_certificate,
)
from .splitdec import (
    canonical_decomposition_dh,
    decomposition_to_dot,
    split_tree,
    split_tree_to_dot,
)

EXIT_OK = 0
EXIT_OBSTRUCTION = 1
EXIT_ERROR = 2


# -- input handling -----------------------------------------------------------


def detect_format(text: str) -> str:
    """The format of input text, from its first non-blank character: an edge
    list starts with a digit or '#', and graph6 never does."""
    stripped = text.lstrip()
    if not stripped:
        return "edge-list"
    first = stripped[0]
    if first == ">":
        return "graph6"
    if first == "#" or first.isdigit():
        return "edge-list"
    return "graph6"


def _read_text(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, "r", encoding="ascii") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"input is not ASCII: {exc}") from None


def _load_graph(args) -> Graph:
    text = _read_text(args.input)
    return parse_graph(text, detect_format(text))


# -- certificate JSON ------------------------------------------------------------


def certificate_to_json(certificate: Certificate) -> dict:
    if isinstance(certificate, OrderingCertificate):
        return {
            "status": "lrw_le_1",
            "ordering": list(certificate.order),
        }
    obstruction = {
        "vertices": list(certificate.vertices),
        "family": certificate.family,
    }
    if certificate.family == "dh_star3":
        obstruction["catalog_index"] = certificate.catalog_index
    return {"status": "lrw_ge_2", "obstruction": obstruction}


def certificate_from_json(graph: Graph, payload: dict) -> Certificate:
    """Certificate from its JSON form; ParseError naming a missing key, a
    status other than "lrw_le_1" or "lrw_ge_2", a value of the wrong JSON
    type, or a label that is not a vertex label.  A vertex label is an
    integer in 0..n-1: JSON true and 1.0 are equal to 1 in Python but name
    no vertex."""
    _require_type(payload, dict, "the certificate")
    try:
        status = payload["status"]
        if status not in ("lrw_le_1", "lrw_ge_2"):
            raise ParseError(f"certificate status {status!r} is neither 'lrw_le_1' nor 'lrw_ge_2'")
        ordered = status == "lrw_le_1"
        if ordered:
            vs = payload["ordering"]
            _require_type(vs, list, "'ordering'")
        else:
            obstruction = payload["obstruction"]
            _require_type(obstruction, dict, "'obstruction'")
            vs = obstruction["vertices"]
            _require_type(vs, list, "'vertices'")
            family = obstruction["family"]
            catalog_index = obstruction.get("catalog_index")
            if catalog_index is not None:
                _require_type(catalog_index, int, "'catalog_index'")
    except KeyError as exc:
        raise ParseError(f"certificate lacks the key {exc}") from None
    for v in vs:
        if type(v) is not int or not 0 <= v < graph.n:  # JSON true is a bool, not an int
            raise ParseError(f"certificate names {v!r}, which is not a vertex label")
    if ordered:
        return OrderingCertificate(tuple(vs))
    vertices = tuple(sorted(vs))
    return ObstructionCertificate(
        vertices,
        family,
        hole_length=len(vertices) if family == "hole" else None,
        catalog_index=catalog_index,
    )


_JSON_TYPES = {dict: "a JSON object", list: "a JSON list", int: "an integer"}


def _require_type(value, kind: type, what: str) -> None:
    # bool is an int in Python, but JSON true is not an integer
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ParseError(f"{what} must be {_JSON_TYPES[kind]}, not {type(value).__name__}")


# -- subcommands --------------------------------------------------------------------


def _cmd_recognize(args) -> int:
    graph = _load_graph(args)
    certificate = recognizer.recognize(graph)
    if args.verify:
        outcome = verify_certificate(graph, certificate)
        if not outcome:
            print(f"certificate failed verification: {outcome.reason}", file=sys.stderr)
            return EXIT_ERROR
    if args.json:
        print(json.dumps(certificate_to_json(certificate)))
    elif isinstance(certificate, OrderingCertificate):
        order = " ".join(str(v) for v in certificate.order)
        print(f"linear rank-width <= 1; ordering: {order}")
    else:
        vs = " ".join(str(v) for v in certificate.vertices)
        family = certificate.family
        if family == "hole":
            family = f"hole({certificate.hole_length})"
        print(f"linear rank-width >= 2; obstruction [{family}]: {vs}")
    return EXIT_OK if isinstance(certificate, OrderingCertificate) else EXIT_OBSTRUCTION


def _write_maybe(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text)


def _cmd_decompose(args) -> int:
    graph = _load_graph(args)
    if graph.n == 0 or len(connected_components(graph)) != 1:
        print("decompose requires a connected input graph", file=sys.stderr)
        return EXIT_ERROR
    residue: list[int] = []
    seq = pruning_sequence(graph, residue)
    if seq is None:
        cert = recognizer.non_dh_certificate(graph, pruning_residue=residue)
        vs = " ".join(str(v) for v in cert.vertices)
        print(f"not distance hereditary; obstruction [{cert.family}]: {vs}")
        return EXIT_OBSTRUCTION
    decomposition = canonical_decomposition_dh(graph, seq)
    tree = split_tree(decomposition)
    for block in decomposition.blocks:
        own = ", ".join(str(v) for v in block.own_vertices)
        detail = block.kind
        if block.kind == "star":
            centre = block.centre
            detail += " centred at " + ("a marker" if centre < 0 else str(centre))
        print(f"block {block.id}: {detail}; vertices [{own}]; size {len(block.vertices)}")
    print(f"split tree is a path: {'yes' if tree.is_path() else 'no'}")
    if args.dot_sd:
        _write_maybe(args.dot_sd, decomposition_to_dot(decomposition))
    if args.dot_tree:
        _write_maybe(args.dot_tree, split_tree_to_dot(tree))
    return EXIT_OK


def _cmd_lrw_exact(args) -> int:
    from . import oracle  # brute force, which recognition never loads

    graph = _load_graph(args)
    value, order = oracle.brute_lrw_ordering(graph)
    print(f"linear rank-width = {value}")
    print("optimal ordering: " + " ".join(str(v) for v in order))
    return EXIT_OK


def _cmd_crosscheck(args) -> int:
    from . import oracle

    if args.max_n < 1:  # a sweep over no vertex count would pass having checked nothing
        print(f"--max-n must be at least 1; got {args.max_n}", file=sys.stderr)
        return EXIT_ERROR
    directory = oracle.fixtures_dir()
    paths = [directory / f"n{n}.g6" for n in range(1, args.max_n + 1)]
    for path in paths:  # all of them, before a sweep that can take minutes
        if not path.is_file():
            print(f"missing fixture file: {path}", file=sys.stderr)
            return EXIT_ERROR
    for n, path in enumerate(paths, 1):
        count = 0
        for graph in oracle.load_fixture_file(path):
            if n > 1 and len(connected_components(graph)) != 1:
                continue
            certificate = recognizer.recognize(graph)
            accepted = isinstance(certificate, OrderingCertificate)
            expected = oracle.lrw_at_most(graph, 1)
            verified = verify_certificate(graph, certificate)
            if accepted != expected or not verified:
                print(f"disagreement on {serialize_graph(graph, 'graph6').strip()}")
                return EXIT_OBSTRUCTION
            count += 1
        print(f"{count} connected graphs on {n} vertices checked")
    return EXIT_OK


# -- entry point ------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lrw1",
        description="Certified recognition of graphs of linear rank-width at most 1.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_input(p):
        p.add_argument("input", nargs="?", default="-",
                       help="input file or - for stdin, as an edge list or graph6 (detected)")

    p = sub.add_parser("recognize", help="decide width <= 1 and print a certificate")
    add_input(p)
    p.add_argument("--json", action="store_true", help="emit the certificate as JSON")
    p.add_argument("--verify", action="store_true",
                   help="independently verify the certificate before printing")
    p.set_defaults(func=_cmd_recognize)

    p = sub.add_parser("decompose", help="canonical split decomposition of a connected DH graph")
    add_input(p)
    p.add_argument("--dot-sd", metavar="PATH", help="write DOT of the block system (- for stdout)")
    p.add_argument("--dot-tree", metavar="PATH", help="write DOT of the split tree (- for stdout)")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("lrw-exact", help="exact linear rank-width by exhaustion (small graphs)")
    add_input(p)
    p.set_defaults(func=_cmd_lrw_exact)

    p = sub.add_parser("crosscheck", help="sweep the fixture corpus against the brute-force oracle")
    p.add_argument("--max-n", type=int, default=7, help="largest vertex count to sweep")
    p.set_defaults(func=_cmd_crosscheck)
    return parser


# Built once, at import: parsing leaves no state in it, and a parser discarded
# on every call is cyclic garbage that keeps a long-lived caller collecting.
_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return args.func(args)
    except (LrwError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())

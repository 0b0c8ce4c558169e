"""Command-line front end.

Each command but ``gen``, which writes a graph, returns one JSON record and
prints nothing; ``main`` prints the record as ``--json`` or as the lines of
``_<command>_lines``, a function of the record alone.

Exit status: 0 on success, 1 on domain/precondition/capability errors and
unwritable output, 2 on parse and usage errors and unreadable input. Rational
options are written unsigned, as "p/q" or as integers; floats and signs
other than "+" are rejected. All rationals in the output are printed exactly.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction

from .errors import CapabilityError, ParseError
from .graph import (
    BipartiteGraph,
    check_expansion,
    expansion_profile,
    find_bounds_violation,
    find_partition_violation,
    size_cap,
    _violation_sentence,
)
from .instances import (
    FORMATS,
    GenSpec,
    figure1,
    parse_graph,
    random_right_regular,
    serialize_graph,
)
from .mindist import (
    PruningParams,
    distance_lower_bound,
    min_distance_kernel,
    min_distance_pruned,
    min_distance_subset,
)

_RATIONAL_RE = re.compile(r"\+?[0-9]+(/[0-9]+)?")


def rational(text: str) -> Fraction:
    """Parse an unsigned "p/q" or integer string; anything else (floats and
    negative values included) is a usage error."""
    if not _RATIONAL_RE.fullmatch(text):
        raise argparse.ArgumentTypeError(
            f"expected an exact rational 'p/q' or integer, got {text!r} "
            "(floats are rejected)"
        )
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise argparse.ArgumentTypeError(f"zero denominator in {text!r}") from None
    except ValueError as exc:  # int() refuses strings past the interpreter's digit limit
        raise argparse.ArgumentTypeError(f"too many digits for an exact rational: {exc}") from None


def _rational_arg(text: str) -> Fraction:
    # Looks up the module's rational at parse time, not when the parser is
    # built, so a rebinding of cli.rational after the first build is used.
    return rational(text)


def load_graph(source: str, fmt: str) -> BipartiteGraph:
    if source == "figure1":
        return figure1()
    # One unbuffered read and one decode of the bytes; utf-8-sig drops the
    # byte-order mark some editors write first, and the parsers split lines
    # at CRLF and lone CR as well as LF.
    try:
        with open(source, "rb", buffering=0) as f:
            text = f.readall().decode("utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read input: {exc}") from exc
    return parse_graph(text, fmt)


def _mindist_lines(rec: dict) -> list[str]:
    lines = [f"method: {rec['method']}"]
    if rec["threshold"] is not None:
        lines.append(f"threshold: {rec['threshold']}")
    lines.append(f"distance: {rec['distance']}")
    if rec["witness"] is not None:
        lines.append("witness (indices): " + " ".join(map(str, rec["witness"]["indices"])))
        lines.append("witness (labels): " + " ".join(map(str, rec["witness"]["labels"])))
    lines.append(f"examined: {rec['examined']}")
    return lines


def _verify_lines(rec: dict) -> list[str]:
    lines = [
        "verified" if rec["verified"] else "not verified",
        f"graph: m={rec['m']} n={rec['n']} d={rec['d']}",
        f"gamma: {rec['gamma']}  alpha: {rec['alpha']}",
    ]
    if rec["violation"] is not None:
        lines.append("violation: " + _violation_sentence(rec["violation"]))
    return lines


def _profile_lines(rec: dict) -> list[str]:
    lines = [f"min_neighbors[{s}] = {count}" for s, count in enumerate(rec["min_neighbors"], 1)]
    if rec["gamma"] is not None:
        lines.append(f"best_alpha({rec['gamma']}) = {rec['best_alpha']}")
    return lines


def _lemmas_lines(rec: dict) -> list[str]:
    cert, bounds, partition = rec["certificate"], rec["bounds"], rec["partition"]
    return [
        f"certificate: verified (gamma={cert['gamma']}, alpha={cert['alpha']})",
        f"odd-neighborhood bounds: all hold "
        f"({bounds['subsets_checked']} subsets up to size {bounds['size_cap']})",
        f"partition property: all hold ({partition['empty_odd_found']} "
        f"empty-odd subsets, {partition['partitions_checked']} bipartitions)",
    ]


def _bound_lines(rec: dict) -> list[str]:
    return [rec["bound"]]


def cmd_mindist(args) -> dict:
    graph = load_graph(args.graph, args.format)
    if args.method != "pruned" and (args.gamma is not None or args.epsilon is not None):
        args.parser.error("--gamma and --epsilon require --method pruned")
    if args.method == "kernel":
        result = min_distance_kernel(graph.biadjacency())
    elif args.method == "subset":
        result = min_distance_subset(graph)
    else:
        if args.gamma is None or args.epsilon is None:
            args.parser.error("--method pruned requires --gamma and --epsilon")
        result = min_distance_pruned(graph, PruningParams.certify(graph, args.gamma, args.epsilon))
    return result.to_record(graph.m)


def cmd_verify(args) -> dict:
    graph = load_graph(args.graph, args.format)
    return check_expansion(graph, args.gamma, args.alpha).to_record()


def cmd_profile(args) -> dict:
    graph = load_graph(args.graph, args.format)
    if args.max_size is not None:
        s_max = args.max_size
    elif args.gamma is not None:
        s_max = size_cap(args.gamma, graph.n)
    else:
        s_max = graph.n
    profile = expansion_profile(graph, s_max)
    best = profile.best_alpha(args.gamma) if args.gamma is not None else None
    return {
        **profile.to_record(),
        "gamma": None if args.gamma is None else str(args.gamma),
        "best_alpha": None if best is None else str(best),
    }


def cmd_bound(args) -> dict:
    bound = distance_lower_bound(args.gamma, args.epsilon, args.n)
    return {"gamma": str(args.gamma), "epsilon": str(args.epsilon), "n": args.n,
            "bound": str(bound)}


def cmd_gen(args) -> None:
    graph = random_right_regular(GenSpec(m=args.m, n=args.n, d=args.d, seed=args.seed))
    sys.stdout.write(serialize_graph(graph, args.format))


def cmd_lemmas(args) -> dict:
    graph = load_graph(args.graph, args.format)
    cert = PruningParams.certify(graph, args.gamma, args.epsilon).certificate
    # The verified certificate settles the bounds with no sweep.
    bounds = find_bounds_violation(graph, args.gamma, args.epsilon, certificate=cert)
    return {
        "certificate": cert.to_record(),
        "bounds": bounds.to_record(graph.m),
        "partition": find_partition_violation(graph).to_record(),
    }


_parser = None
_commands: dict[str, argparse.ArgumentParser] = {}  # name -> subparser, filled with _parser
_encode = json.JSONEncoder(sort_keys=True).encode  # the bytes of json.dumps(..., sort_keys=True)


def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first call and shared afterwards."""
    global _parser
    # Parsing and parser.error only read a built parser, so two threads that
    # both build it first lose nothing and need no lock.
    if _parser is not None:
        return _parser
    parser = argparse.ArgumentParser(
        prog="expandercodes",
        description=(
            "Expander codes from bipartite graphs: exact minimum distance, "
            "expansion certificates, and exhaustive structural checks."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_graph_args(p):
        p.add_argument(
            "graph",
            help="path to a graph file, or 'figure1' for the built-in demo instance",
        )
        p.add_argument("--format", choices=FORMATS, default="edge-list")
        p.add_argument("--json", action="store_true", help="machine-readable output")

    p = sub.add_parser("mindist", help="exact minimum distance of the graph's code")
    add_graph_args(p)
    p.add_argument("--method", choices=("subset", "kernel", "pruned"), default="subset")
    p.add_argument("--gamma", type=_rational_arg, help="expansion fraction (pruned method)")
    p.add_argument("--epsilon", type=_rational_arg, help="expansion slack (pruned method)")
    p.set_defaults(parser=p)

    p = sub.add_parser("verify", help="certify the expansion inequality exhaustively")
    add_graph_args(p)
    p.add_argument("--gamma", type=_rational_arg, required=True)
    p.add_argument("--alpha", type=_rational_arg, required=True)

    p = sub.add_parser("profile", help="exact min |N(S)| per subset size")
    add_graph_args(p)
    p.add_argument("--max-size", type=int, help="largest subset size to profile")
    p.add_argument("--gamma", type=_rational_arg, help="also report the best alpha at gamma")

    p = sub.add_parser(
        "bound", help="certified distance lower bound 2(1-eps)*min(n, floor(gamma*n))"
    )
    p.add_argument("--gamma", type=_rational_arg, required=True)
    p.add_argument("--epsilon", type=_rational_arg, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("gen", help="seeded random right-regular graph to stdout")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--format", choices=FORMATS, default="edge-list")

    p = sub.add_parser(
        "lemmas",
        help="certify expansion, which settles the odd-neighborhood bounds, and count "
        "the partition property's codewords and bipartitions",
    )
    add_graph_args(p)
    p.add_argument("--gamma", type=_rational_arg, required=True)
    p.add_argument("--epsilon", type=_rational_arg, required=True)

    _commands.update(sub.choices)
    _parser = parser
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else argv
    # A command's arguments go straight to its own parser, as the top-level
    # parser would pass them. Only a usage error or top-level help reaches
    # the top-level parser, which then prints its own message and exits.
    command = _commands.get(argv[0]) if argv else None
    if command is not None:
        args, rest = command.parse_known_args(argv[1:])
        args.command = argv[0]
    if command is None or rest:
        args = parser.parse_args(argv)
    try:
        # Resolved per call, so a rebinding of a cmd_* function is used.
        record = globals()[f"cmd_{args.command}"](args)
        if record is not None:  # gen writes its graph itself
            if args.json:
                print(_encode(record))
            else:
                for line in globals()[f"_{args.command}_lines"](record):
                    print(line)
        sys.stdout.flush()  # fail here, inside the handler, not at exit
        return 0
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # load_graph reports a failed read as a ParseError
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        # Buffered output would fail again at exit; the null device takes it.
        with open(os.devnull, "wb") as null:
            os.dup2(null.fileno(), sys.stdout.fileno())
        return 1
    except (ValueError, IndexError, TypeError, CapabilityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())

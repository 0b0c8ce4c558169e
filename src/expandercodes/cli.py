"""Command-line front end.

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
from pathlib import Path

from .errors import CapabilityError, ParseError
from .graph import (
    BipartiteGraph,
    check_expansion,
    expansion_profile,
    find_bounds_violation,
    find_partition_violation,
    size_cap,
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
    try:
        return parse_graph(Path(source).read_text(encoding="utf-8"), fmt)
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read input: {exc}") from exc


def _print_record(record: dict) -> None:
    print(json.dumps(record, sort_keys=True))


def _witness_lines(result, m: int) -> list[str]:
    rec = result.to_record(m)
    lines = [f"method: {rec['method']}"]
    if rec["threshold"] is not None:
        lines.append(f"threshold: {rec['threshold']}")
    lines.append(f"distance: {rec['distance']}")
    if rec["witness"] is not None:
        lines.append("witness (indices): " + " ".join(map(str, rec["witness"]["indices"])))
        lines.append("witness (labels): " + " ".join(map(str, rec["witness"]["labels"])))
    lines.append(f"examined: {rec['examined']}")
    return lines


def cmd_mindist(args) -> int:
    graph = load_graph(args.graph, args.format)
    if args.method == "kernel":
        result = min_distance_kernel(graph.biadjacency())
    elif args.method == "subset":
        result = min_distance_subset(graph)
    else:
        if args.gamma is None or args.epsilon is None:
            args.parser.error("--method pruned requires --gamma and --epsilon")
        params = PruningParams.certify(graph, args.gamma, args.epsilon)
        result = min_distance_pruned(graph, params)
    if args.json:
        _print_record(result.to_record(graph.m))
    else:
        for line in _witness_lines(result, graph.m):
            print(line)
    return 0


def cmd_verify(args) -> int:
    graph = load_graph(args.graph, args.format)
    cert = check_expansion(graph, args.gamma, args.alpha)
    if args.json:
        _print_record(cert.to_record())
        return 0
    print("verified" if cert.verified else "not verified")
    print(f"graph: m={graph.m} n={graph.n} d={graph.d}")
    print(f"gamma: {cert.gamma}  alpha: {cert.alpha}")
    if cert.violation is not None:
        print("violation: " + cert.describe())
    return 0


def cmd_profile(args) -> int:
    graph = load_graph(args.graph, args.format)
    if args.max_size is not None:
        s_max = args.max_size
    elif args.gamma is not None:
        s_max = size_cap(args.gamma, graph.n)
    else:
        s_max = graph.n
    profile = expansion_profile(graph, s_max)
    best = profile.best_alpha(args.gamma) if args.gamma is not None else None
    if args.json:
        record = profile.to_record()
        record["gamma"] = None if args.gamma is None else str(args.gamma)
        record["best_alpha"] = None if best is None else str(best)
        _print_record(record)
        return 0
    for size in range(1, profile.s_max + 1):
        print(f"min_neighbors[{size}] = {profile.min_at(size)}")
    if args.gamma is not None:
        print(f"best_alpha({args.gamma}) = {best}")
    return 0


def cmd_bound(args) -> int:
    value = distance_lower_bound(args.gamma, args.epsilon, args.n)
    if args.json:
        _print_record(
            {
                "gamma": str(args.gamma),
                "epsilon": str(args.epsilon),
                "n": args.n,
                "bound": str(value),
            }
        )
    else:
        print(value)
    return 0


def cmd_gen(args) -> int:
    spec = GenSpec(m=args.m, n=args.n, d=args.d, seed=args.seed)
    graph = random_right_regular(spec)
    sys.stdout.write(serialize_graph(graph, args.format))
    return 0


def cmd_lemmas(args) -> int:
    graph = load_graph(args.graph, args.format)
    cert = PruningParams.certify(graph, args.gamma, args.epsilon).certificate
    # The verified certificate settles the bounds with no sweep.
    bounds = find_bounds_violation(graph, args.gamma, args.epsilon, certificate=cert)
    partition = find_partition_violation(graph)
    if args.json:
        _print_record(
            {
                "certificate": cert.to_record(),
                "bounds": bounds.to_record(graph.m),
                "partition": partition.to_record(),
            }
        )
    else:
        print(f"certificate: verified (gamma={cert.gamma}, alpha={cert.alpha})")
        print(
            f"odd-neighborhood bounds: all hold "
            f"({bounds.subsets_checked} subsets up to size {bounds.size_cap})"
        )
        print(
            f"partition property: all hold ({partition.empty_odd_found} "
            f"empty-odd subsets, {partition.partitions_checked} bipartitions)"
        )
    return 0


_parser = None


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

    _parser = parser
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # Resolved per call, so a rebinding of a cmd_* function is used.
        status = globals()[f"cmd_{args.command}"](args)
        sys.stdout.flush()  # fail here, inside the handler, not at exit
        return status
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

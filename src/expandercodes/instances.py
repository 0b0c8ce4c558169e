"""Instance ingestion, serialization, the built-in demo graph, and seeded
random right-regular generation.

Both text formats live here, an edge list and a 0/1 biadjacency matrix, as
two ways to write down one graph. Each starts with an "a b" header read by
``_header``, and each parses straight into a ``BipartiteGraph``.

Generation uses splitmix64, fully specified here and in the README so that
a corpus can be regenerated bit-for-bit on any platform or language; it
does not depend on the interpreter's own RNG.
"""

from __future__ import annotations

import re
import struct
from collections import defaultdict

from .errors import ParseError
from .graph import BipartiteGraph
from .subsets import _Value, _int_field, _setattr

EDGE_LIST = "edge-list"
MATRIX = "matrix"
FORMATS = (EDGE_LIST, MATRIX)

# 5 left, 4 right, right-regular of degree 2; the witness {0, 2, 3} (labels
# {6, 8, 9}) is its only minimum-weight codeword support, with distance 3.
_DEMO_ADJ = ((0, 1), (3, 4), (1, 2), (0, 2))


def figure1() -> BipartiteGraph:
    """The built-in 5+4 demo instance, addressable as "figure1" in the CLI."""
    return BipartiteGraph(5, 4, _DEMO_ADJ)


# A count or index in a graph file: ASCII digits after an optional minus.
# int() also takes "1_0", "+1" and other scripts' digits.
_INT = re.compile(r"-?[0-9]+")


def _ascii_int(token: str) -> int:
    if _INT.fullmatch(token) is None:
        raise ValueError(f"not an integer: {token!r}")
    return int(token)


def _header(rows: enumerate[list[str]], names: str, what: str) -> tuple[int, int]:
    """The two counts of an "a b" header: the first nonempty line of
    ``rows``, which the caller then resumes after it. ``names`` spells the
    header in the error sentence ("m n" or "rows cols"), ``what`` names the
    counts."""
    for lineno, parts in rows:
        if parts:
            break
    else:
        raise ParseError(f"empty input: missing '{names}' header")
    try:
        a, b = map(_ascii_int, parts)  # not two tokens: the unpacking fails
    except ValueError:
        raise ParseError(f"line {lineno}: expected header '{names}'") from None
    if a < 0 or b < 0:
        raise ParseError(f"line {lineno}: {what} must be >= 0")
    return a, b


def parse_edge_list(text: str) -> BipartiteGraph:
    """Parse the edge-list format: "m n" header, one "left right" pair per
    line, '#' starting a comment; duplicate edges are rejected."""
    lines = text.splitlines()
    if "#" in text:
        lines = [line.split("#", 1)[0] for line in lines]
    # One iterator: the edge loop resumes after the header line.
    rows = enumerate(map(str.split, lines), 1)
    m, n = _header(rows, "m n", "vertex counts")
    # Edge -> its line number: one lookup refuses a repeat, and the keys
    # are the edges in file order.
    edges: dict[tuple[int, int], int] = {}
    # On ASCII text with no "_" or "+", int() takes just what _INT matches.
    number = int if text.isascii() and "_" not in text and "+" not in text else _ascii_int
    for lineno, parts in rows:
        if not parts:
            continue
        try:
            a, b = parts
            edge = left, right = number(a), number(b)
        except ValueError:
            raise ParseError(f"line {lineno}: expected edge 'left right'") from None
        if not 0 <= left < m:
            raise ParseError(f"line {lineno}: left index {left} out of range [0, {m})")
        if not 0 <= right < n:
            raise ParseError(f"line {lineno}: right index {right} out of range [0, {n})")
        if edges.setdefault(edge, lineno) != lineno:
            raise ParseError(f"line {lineno}: duplicate edge ({left}, {right})")
    return BipartiteGraph.from_edges(m, n, edges)


def parse_matrix(text: str) -> BipartiteGraph:
    """Parse the matrix format: "rows cols" header, then ``rows`` lines of
    ``cols`` space-separated 0/1 entries; entry (i, j) is 1 iff left i is
    adjacent to right j. Blank lines are skipped, so the rows of a matrix
    with no columns, which can only be empty lines, are not counted."""
    rows = enumerate(map(str.split, text.splitlines()), 1)
    m, n = _header(rows, "rows cols", "dimensions")
    adj: list[list[int]] = [[] for _ in range(n)]
    row = 0
    for lineno, parts in rows:
        if not parts:
            continue
        if row == m:
            raise ParseError(f"line {lineno}: unexpected extra row (expected {m})")
        if len(parts) != n:
            raise ParseError(f"line {lineno}: expected {n} entries, got {len(parts)}")
        for j, t in enumerate(parts):
            if t == "1":
                adj[j].append(row)
            elif t != "0":
                raise ParseError(f"line {lineno}: matrix entries must be 0 or 1, got {t!r}")
        row += 1
    if n and row != m:
        raise ParseError(f"expected {m} matrix rows, got {row}")
    return BipartiteGraph(m, n, adj)


def parse_graph(text: str, fmt: str = EDGE_LIST) -> BipartiteGraph:
    if fmt == EDGE_LIST:
        return parse_edge_list(text)
    if fmt == MATRIX:
        return parse_matrix(text)
    raise ValueError(f"unknown graph format {fmt!r}, expected one of {FORMATS}")


def serialize_edge_list(graph: BipartiteGraph) -> str:
    """Canonical edge-list form: header then edges sorted by (left, right);
    only left vertices with edges get a bucket, so the cost grows with the edges."""
    buckets: defaultdict[int, list[str]] = defaultdict(list)
    for right, neigh in enumerate(graph.right_adj):
        label = str(right)
        for left in neigh:
            buckets[left].append(label)
    lines = [f"{graph.m} {graph.n}"]
    for left in sorted(buckets):
        prefix = f"{left} "
        lines.append(prefix + f"\n{prefix}".join(buckets[left]))
    return "\n".join(lines) + "\n"


def serialize_matrix(graph: BipartiteGraph) -> str:
    """Matrix form: header then one row of 0/1 entries per left vertex."""
    n = graph.n
    rows = [0] * graph.m
    for right, neigh in enumerate(graph.right_adj):
        bit = 1 << right
        for left in neigh:
            rows[left] |= bit
    lines = [f"{graph.m} {n}"]
    # Bit j of a row is entry j, so the binary digits read right to left;
    # with no columns every row is an empty line.
    lines.extend(" ".join(format(row, f"0{n}b")[::-1]) if n else "" for row in rows)
    return "\n".join(lines) + "\n"


def serialize_graph(graph: BipartiteGraph, fmt: str = EDGE_LIST) -> str:
    if fmt == EDGE_LIST:
        return serialize_edge_list(graph)
    if fmt == MATRIX:
        return serialize_matrix(graph)
    raise ValueError(f"unknown graph format {fmt!r}, expected one of {FORMATS}")


_U64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# _block computes _LANES outputs at once, each in its own 128-bit lane of
# one int: lane i holds a 64-bit value in its low half, and its high half
# takes the spill of a product or a shift, so no carry crosses lanes.
_LANES = 32
_LOW64 = sum(_U64 << 128 * i for i in range(_LANES))
_ONES = sum(1 << 128 * i for i in range(_LANES))
_RAMP = sum(((i + 1) * _GOLDEN & _U64) << 128 * i for i in range(_LANES))
_STRIDE = _LANES * _GOLDEN & _U64
# A lane's low half as a little-endian word, whatever the platform's byte
# order, then its high half skipped.
_LANE_WORDS = struct.Struct("<" + "Q8x" * _LANES)


def _block(state: int) -> tuple[tuple[int, ...], int]:
    """The next _LANES splitmix64 outputs after ``state``, in order, and
    the state after the last of them.

    Lane i starts at state + (i + 1) * golden mod 2^64, and each mix step
    acts on every lane with one big-int operation: masking to the low
    halves after each shift and each product keeps every lane exact, since
    a lane times a 64-bit constant stays below 2^128.
    """
    z = (state * _ONES + _RAMP) & _LOW64
    z = ((z ^ (z >> 30)) & _LOW64) * _MIX1 & _LOW64
    z = ((z ^ (z >> 27)) & _LOW64) * _MIX2 & _LOW64
    z ^= z >> 31
    return _LANE_WORDS.unpack(z.to_bytes(_LANE_WORDS.size, "little")), (state + _STRIDE) & _U64


def _limit(bound: int) -> tuple[int, int]:
    """``bound`` as an int, and the largest multiple of it that fits in
    2^64: a draw below ``bound`` rejects each output at or above it, so the
    value mod ``bound`` is uniform. Refuses a bound outside [1, 2^64]."""
    if type(bound) is not int:
        bound = _int_field("bound", bound)
    if not 0 < bound <= 1 << 64:
        raise ValueError(f"bound must be in [1, 2**64], got {bound}")
    return bound, (1 << 64) - (1 << 64) % bound


class SplitMix64:
    """The splitmix64 sequence (public constants, 64-bit wraparound):

    state += 0x9E3779B97F4A7C15
    z = state
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB
    output z ^ (z >> 31)

    Outputs are computed _LANES at a time by ``_block``: the stream holds
    the state after its current block, that block as a tuple, and the
    index of the next unread output. A mutable stream, so each thread
    needs its own; ``copy``, ``deepcopy`` and pickle give an independent
    stream that continues from the same point.
    """

    __slots__ = ("_state", "_block", "_index")

    def __init__(self, seed: int):
        if type(seed) is not int:
            seed = _int_field("seed", seed)
        self._state = seed & _U64
        self._block: tuple[int, ...] = ()
        self._index = 0

    def next_u64(self) -> int:
        return self.below(1 << 64)

    def below(self, bound: int) -> int:
        """Uniform draw from [0, bound) by rejection; no modulo bias."""
        bound, limit = _limit(bound)
        state, block, i = self._state, self._block, self._index
        while True:
            if i == len(block):
                (block, state), i = _block(state), 0
            z = block[i]
            i += 1
            if z < limit:
                self._state, self._block, self._index = state, block, i
                return z % bound

    def _sample(self, bound: int, count: int, times: int) -> list[list[int]]:
        """``times`` samples, each ``count`` distinct values below ``bound``
        in ascending order, drawn one after another from the stream.

        Each output is rejected as ``below(bound)`` rejects it; a value
        already drawn is drawn again, so a sample consumes the stream
        exactly as ``below(bound)`` calls repeated until ``count`` distinct
        values are seen. Refuses, before any draw, a bound outside
        [1, 2^64] and a count it could never reach. ``bound``, ``count``
        and ``times`` are read by the int rule of ``_int_field``.
        """
        bound, limit = _limit(bound)
        if type(count) is not int:
            count = _int_field("count", count)
        if type(times) is not int:
            times = _int_field("times", times)
        if not 0 <= count <= bound:
            raise ValueError(f"cannot draw {count} distinct values below {bound}")
        state, block, i = self._state, self._block, self._index
        end = len(block)
        samples = []
        for _ in range(times):
            chosen: set[int] = set()
            while len(chosen) < count:
                if i == end:
                    (block, state), i, end = _block(state), 0, _LANES
                z = block[i]
                i += 1
                if z < limit:
                    chosen.add(z % bound)
            samples.append(sorted(chosen))
        self._state, self._block, self._index = state, block, i
        return samples


class GenSpec(_Value):
    """Parameters for seeded right-regular generation: four ints, where a
    bool counts as 0 or 1 and a float or str is refused."""

    def __init__(self, m: int, n: int, d: int, seed: int):
        if not type(m) is type(n) is type(d) is type(seed) is int:
            m, n, d, seed = map(_int_field, self._fields, (m, n, d, seed))
        if m < 1 or n < 1:
            raise ValueError(f"m and n must be >= 1, got m={m}, n={n}")
        if not 1 <= d <= m:
            raise ValueError(f"d must satisfy 1 <= d <= m, got d={d}, m={m}")
        if not 0 <= seed <= _U64:
            raise ValueError("seed must fit in 64 bits")
        _setattr(self, "m", m)
        _setattr(self, "n", n)
        _setattr(self, "d", d)
        _setattr(self, "seed", seed)


def random_right_regular(spec: GenSpec) -> BipartiteGraph:
    """Each right vertex draws d distinct left neighbors uniformly, using
    rejection of repeats on a single splitmix64 stream; fully deterministic
    for a given spec.

    Nothing here certifies expansion: run ``check_expansion`` on the output
    before any pruning-dependent computation.
    """
    return BipartiteGraph(spec.m, spec.n, SplitMix64(spec.seed)._sample(spec.m, spec.d, spec.n))

"""Parsing, serialization, the built-in instance, and seeded generation."""

import copy
import hashlib
import pickle
import re
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expandercodes import (
    BipartiteGraph,
    GenSpec,
    ParseError,
    SplitMix64,
    figure1,
    parse_graph,
    random_right_regular,
    serialize_graph,
)
from expandercodes.instances import (
    EDGE_LIST,
    MATRIX,
    parse_edge_list,
    parse_matrix,
    serialize_edge_list,
    serialize_matrix,
)

DEMO_EDGE_TEXT = """\
# demo instance
5 4
0 0
0 3
1 0
1 2
2 2
2 3
3 1
4 1
"""


def test_builtin_instance():
    g = figure1()
    assert (g.m, g.n, g.d) == (5, 4, 2)
    assert g.right_adj == ((0, 1), (3, 4), (1, 2), (0, 2))


def test_parse_edge_list_with_comments():
    g = parse_edge_list(DEMO_EDGE_TEXT)
    assert g == figure1()


def test_parse_matrix_matches_edge_route():
    text = serialize_graph(figure1(), "matrix")
    assert parse_matrix(text) == figure1()
    assert parse_graph(text, "matrix") == figure1()


def test_matrix_text_round_trip():
    text = serialize_matrix(figure1())
    assert text == "5 4\n1 0 0 1\n1 0 1 0\n0 0 1 1\n0 1 0 0\n0 1 0 0\n"
    again = parse_matrix(text)
    assert again == figure1()
    assert again.biadjacency() == figure1().biadjacency()
    assert serialize_matrix(again) == text


def test_matrix_text_errors():
    with pytest.raises(ParseError, match="header"):
        parse_matrix("")
    with pytest.raises(ParseError, match="line 2"):
        parse_matrix("2 2\n1 0 1\n0 1\n")
    with pytest.raises(ParseError, match="0 or 1"):
        parse_matrix("1 2\n1 2\n")
    with pytest.raises(ParseError, match="expected 2 matrix rows"):
        parse_matrix("2 2\n1 0\n")
    with pytest.raises(ParseError, match="line 1: expected header 'rows cols'"):
        parse_matrix("r c\n")
    with pytest.raises(ParseError, match="line 1: dimensions must be >= 0"):
        parse_matrix("2 -1\n")
    with pytest.raises(ParseError, match=r"line 3: unexpected extra row \(expected 1\)"):
        parse_matrix("1 2\n1 0\n0 1\n")


def test_round_trip_both_formats():
    graphs = [
        random_right_regular(GenSpec(7, 6, 3, seed=77)),
        # no edges; the rows of the 3 x 0 matrix are three empty lines
        BipartiteGraph(3, 0, ()),
        BipartiteGraph(0, 3, ((),) * 3),
        BipartiteGraph(0, 0, ()),
    ]
    for g in graphs:
        for fmt in ("edge-list", "matrix"):
            assert parse_graph(serialize_graph(g, fmt), fmt) == g


def test_serialize_edge_list_canonical():
    out = serialize_graph(figure1(), "edge-list")
    assert out.splitlines()[0] == "5 4"
    body = out.splitlines()[1:]
    assert body == sorted(body, key=lambda s: tuple(map(int, s.split())))
    assert "#" not in out


def reference_edge_list(graph):
    """The writer's specification: every edge, sorted by (left, right)."""
    edges = sorted(
        (left, right)
        for right, neigh in enumerate(graph.right_adj)
        for left in neigh
    )
    lines = [f"{graph.m} {graph.n}"]
    lines.extend(f"{left} {right}" for left, right in edges)
    return "\n".join(lines) + "\n"


def reference_matrix(graph):
    """The writer's specification: entry (i, j) is bit i of column j."""
    columns = graph.biadjacency().columns
    lines = [f"{graph.m} {graph.n}"]
    lines.extend(" ".join("01"[(col >> i) & 1] for col in columns) for i in range(graph.m))
    return "\n".join(lines) + "\n"


@st.composite
def irregular_graphs(draw):
    """Any right degrees from 0 to m, so isolated vertices on both sides and
    m = 0 or n = 0 all occur."""
    m = draw(st.integers(0, 7))
    n = draw(st.integers(0, 7))
    neighbourhood = st.sets(st.integers(0, m - 1), max_size=m) if m else st.just(set())
    adj = draw(st.lists(neighbourhood, min_size=n, max_size=n))
    return BipartiteGraph(m, n, tuple(map(tuple, adj)))


@settings(max_examples=300, deadline=None)
@given(irregular_graphs())
def test_writers_match_reference_and_round_trip(g):
    edge_text = serialize_edge_list(g)
    matrix_text = serialize_matrix(g)
    assert edge_text == reference_edge_list(g)
    assert matrix_text == reference_matrix(g)
    assert parse_edge_list(edge_text) == g
    assert parse_matrix(matrix_text) == g


def test_edge_list_writer_memory_follows_the_edges():
    # One edge among 10**5 left vertices: a bucket per left vertex would
    # peak at several MB for a 17-byte file.
    g = BipartiteGraph.from_edges(10**5, 1, [(10**5 - 1, 0)])
    tracemalloc.start()
    try:
        text = serialize_edge_list(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert text == "100000 1\n99999 0\n"
    assert peak < 1 << 20


def test_parse_errors_are_line_numbered():
    with pytest.raises(ParseError, match="missing 'm n' header"):
        parse_edge_list("")
    with pytest.raises(ParseError, match="line 1"):
        parse_edge_list("5\n")
    with pytest.raises(ParseError, match="line 3: duplicate edge"):
        parse_edge_list("2 2\n0 0\n0 0\n")
    with pytest.raises(ParseError, match="line 2: left index 9"):
        parse_edge_list("2 2\n9 0\n")
    with pytest.raises(ParseError, match="line 2: right index 5"):
        parse_edge_list("2 2\n0 5\n")
    with pytest.raises(ParseError, match="line 1: expected header 'm n'"):
        parse_edge_list("a 4\n")
    with pytest.raises(ParseError, match="line 1: vertex counts must be >= 0"):
        parse_edge_list("-1 4\n")
    for edge in ("0", "0 1 1", "x 0"):
        with pytest.raises(ParseError, match="line 2: expected edge 'left right'"):
            parse_edge_list(f"2 2\n{edge}\n")
    with pytest.raises(ValueError, match="unknown graph format"):
        parse_graph("1 1\n", "csv")


# Each format's wording of its header and of its counts.
HEADER_WORDS = {EDGE_LIST: ("m n", "vertex counts"), MATRIX: ("rows cols", "dimensions")}
# Each case is a text and the error it gets, with {names} and {what} filled
# in from HEADER_WORDS; None marks a prefix that, followed by figure 1's
# file, parses to figure 1.
HEADER_CASES = {
    "empty": ("", "empty input: missing '{names}' header"),
    "blank-only": ("\n \n\t\n", "empty input: missing '{names}' header"),
    "one-token": ("\n5\n", "line 2: expected header '{names}'"),
    "non-ascii-digits": ("\u0663 \u0661\n", "line 1: expected header '{names}'"),
    "negative-count": ("1 -1\n", "line 1: {what} must be >= 0"),
    "after-blank-lines": ("\n  \n\t\n", None),
}


@pytest.mark.parametrize(
    "fmt, prefix, message",
    [pytest.param(fmt, prefix, message, id=f"{fmt}-{case}")
     for case, (prefix, message) in HEADER_CASES.items() for fmt in HEADER_WORDS]
    + [pytest.param(EDGE_LIST, "# demo\n\n  # figure 1\n", None, id="edge-list-after-comments")],
)
def test_both_formats_read_the_header_alike(fmt, prefix, message):
    # Both parsers find the header as the first nonempty line and refuse
    # it in their own words; the rows resume after it.
    if message is None:
        text = prefix + serialize_graph(figure1(), fmt)
        assert parse_graph(text, fmt) == figure1()
        return
    names, what = HEADER_WORDS[fmt]
    with pytest.raises(ParseError, match=f"^{re.escape(message.format(names=names, what=what))}$"):
        parse_graph(prefix, fmt)


@pytest.mark.parametrize("token", ["1_0", "\u0663", "+1", "\uff11", "1.0", "0x1"])
def test_graph_file_integers_are_ascii_digits(token):
    # int() takes the first four; a count or index is -?[0-9]+ alone.
    with pytest.raises(ParseError, match="^line 1: expected header 'm n'$"):
        parse_edge_list(f"{token} 1\n0 0\n")
    with pytest.raises(ParseError, match="^line 1: expected header 'rows cols'$"):
        parse_matrix(f"1 {token}\n1\n")
    for edge in (f"{token} 0", f"0 {token}"):
        with pytest.raises(ParseError, match="^line 3: expected edge 'left right'$"):
            parse_edge_list(f"# a comment\n2 2\n{edge}\n")


def test_graph_file_integer_rule_keeps_ranges_and_comments():
    # Neither a sign, an underscore nor another script in a comment changes
    # what is read, and a negative value keeps its range message.
    for comment in ("", " # +1 1_0 \u0663"):
        assert parse_edge_list(f"2 2{comment}\n1 0\n-0 01\n") == BipartiteGraph(2, 2, ((1,), (0,)))
        with pytest.raises(ParseError, match="^line 1: vertex counts must be >= 0$"):
            parse_edge_list(f"-1 2{comment}\n")
        with pytest.raises(ParseError, match=r"^line 2: left index -1 out of range \[0, 2\)$"):
            parse_edge_list(f"2 2{comment}\n-1 0\n")


def test_splitmix64_reference_vector():
    # first five outputs of the published splitmix64 algorithm at seed 1234567
    rng = SplitMix64(1234567)
    assert [rng.next_u64() for _ in range(5)] == [
        6457827717110365317,
        3203168211198807973,
        9817491932198370423,
        4593380528125082431,
        16408922859458223821,
    ]


def test_splitmix64_below_range_and_determinism():
    rng = SplitMix64(99)
    draws = [rng.below(7) for _ in range(200)]
    assert all(0 <= v < 7 for v in draws)
    assert set(draws) == set(range(7))
    again = SplitMix64(99)
    assert draws == [again.below(7) for _ in range(200)]
    with pytest.raises(ValueError):
        rng.below(0)


def test_splitmix64_draw_vector():
    # seed 2024: 24 outputs feed these 17 draws, 7 of them rejected by the
    # 2**63 + 1 bound, whose rejection limit is 2**63 + 1 itself
    rng = SplitMix64(2024)
    assert [rng.next_u64() for _ in range(3)] == [
        11487996472437173461, 1793612131670815442, 5507758030568793471,
    ]
    assert [rng.below(b) for b in (1, 2, 3, 7, 1000, 2**32 + 1, 2**63 + 1, 2**64 - 1, 2**64)] == [
        0, 0, 1, 4, 474, 812645456, 7874116809064317745, 8514204351514911545,
        15439645302585675035,
    ]
    assert [rng.below(2**63 + 1) for _ in range(4)] == [
        2685005278848832341, 6254024509325835039, 8232468080117621319, 4914095186226240534,
    ]
    assert rng.next_u64() == 8149731417060244518


def scalar_splitmix64(seed):
    """The README's five lines, one output per step, as the reference for
    the generator's 32-lane blocks."""
    state = seed
    while True:
        state = (state + 0x9E3779B97F4A7C15) % 2**64
        z = state
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 % 2**64
        z = (z ^ (z >> 27)) * 0x94D049BB133111EB % 2**64
        yield z ^ (z >> 31)


def scalar_below(outputs, bound):
    limit = 2**64 - 2**64 % bound
    return next(z % bound for z in outputs if z < limit)


def test_splitmix64_matches_scalar_reference():
    # 1,000 outputs span 31 blocks and end inside one, from seeds whose
    # lanes start at 0, 1, 2**63 and 2**64 - 1.
    for seed in (0, 1, 2**63, 2**64 - 1):
        rng, outputs = SplitMix64(seed), scalar_splitmix64(seed)
        assert [rng.next_u64() for _ in range(1000)] == [next(outputs) for _ in range(1000)]
    # About half of all outputs are rejected at 2**63 + 1, so rejections
    # fall across block edges, between draws of other bounds.
    bounds = (1, 7, 2**63 + 1, 2**64 - 1, 2**64)
    rng, outputs = SplitMix64(2024), scalar_splitmix64(2024)
    got = [rng.below(bounds[i % 5]) for i in range(500)]
    assert got == [scalar_below(outputs, bounds[i % 5]) for i in range(500)]
    assert rng.next_u64() == next(outputs)


def scalar_sample(outputs, bound, count, times):
    samples = []
    for _ in range(times):
        chosen = set()
        while len(chosen) < count:
            chosen.add(scalar_below(outputs, bound))
        samples.append(sorted(chosen))
    return samples


def test_splitmix64_interleaved_draws_match_scalar_reference():
    # One stream read by whole samples and by single draws in turn, so each
    # path resumes inside a block the other left. About half of all outputs
    # are rejected at 2**63 + 1, so draws of both kinds cross block edges.
    rng, outputs = SplitMix64(2024), scalar_splitmix64(2024)
    shapes = ((5, 2, 8), (2**63 + 1, 3, 5), (7, 7, 1))
    bounds = (7, 2**63 + 1, 2**64)
    for i in range(60):
        m, d, n = shapes[i % 3]
        assert rng._sample(m, d, n) == scalar_sample(outputs, m, d, n)
        assert rng.next_u64() == next(outputs)
        assert rng.below(bounds[i % 3]) == scalar_below(outputs, bounds[i % 3])
        assert rng.below(2**63 + 1) == scalar_below(outputs, 2**63 + 1)


def test_splitmix64_copies_continue_independently():
    for duplicate in (copy.copy, copy.deepcopy, lambda r: pickle.loads(pickle.dumps(r))):
        rng = SplitMix64(31)
        rng.next_u64()
        twin = duplicate(rng)
        # Drawing all of one before the other shows they share no state.
        mine = [rng.below(2**63 + 1) for _ in range(40)]
        assert [twin.below(2**63 + 1) for _ in range(40)] == mine
        reference = scalar_splitmix64(31)
        next(reference)
        assert mine == [scalar_below(reference, 2**63 + 1) for _ in range(40)]


def test_sampling_refuses_before_any_draw():
    rng = SplitMix64(5)
    with pytest.raises(ValueError, match="2\\*\\*64"):
        rng.below(2**64 + 1)
    with pytest.raises(ValueError, match="cannot draw 4 distinct values below 3"):
        rng._sample(3, 4, 1)
    with pytest.raises(ValueError, match="2\\*\\*64"):
        random_right_regular(GenSpec(m=2**64 + 1, n=1, d=1, seed=0))
    # the refusals left the stream where it was
    assert rng.next_u64() == SplitMix64(5).next_u64()
    assert SplitMix64(5)._sample(3, 3, 1) == [[0, 1, 2]]


def test_draws_keep_bool_bounds_and_seed_wraparound():
    # A bool bound, count or number of samples counts as 0 or 1, and a
    # bound keeps the range refusal; a negative number of samples draws
    # nothing. A bool seed is 0 or 1, and an int seed wraps to 64 bits.
    assert SplitMix64(1).below(True) == 0
    assert SplitMix64(1)._sample(True, 1, 2) == [[0], [0]]
    assert SplitMix64(1)._sample(7, True, 2) == SplitMix64(1)._sample(7, 1, 2) == [[2], [0]]
    assert SplitMix64(1)._sample(7, 2, True) == SplitMix64(1)._sample(7, 2, 1)
    rng = SplitMix64(1)
    assert rng._sample(7, 2, -1) == [] and rng.next_u64() == SplitMix64(1).next_u64()
    with pytest.raises(ValueError, match=r"^bound must be in \[1, 2\*\*64\], got 0$"):
        SplitMix64(1).below(False)
    assert SplitMix64(True).next_u64() == SplitMix64(1).next_u64()
    assert SplitMix64(-1).next_u64() == SplitMix64(2**64 - 1).next_u64()
    assert SplitMix64(2**64 + 5).below(7) == SplitMix64(5).below(7)
    assert BipartiteGraph.from_edges(3, True, [(2, 0)]) == BipartiteGraph(3, 1, ((2,),))


# SHA-256 over both formats of every shape and seed below, in that order;
# the stream, the rejection rule and both writers fix every byte of it.
GENERATOR_SHAPES = ((18, 26, 5), (8, 28, 3), (60, 24, 4), (12, 19, 3), (5, 4, 2), (120, 900, 4), (3, 7, 3))
GENERATOR_SEEDS = (*range(60), 2**63, 2**64 - 1)
GENERATOR_SHA256 = "7083c24bf362c0ab4e6972d005d56ec0052e95d292a313dcb1310b5391afe1ec"


def test_generated_corpus_bytes_are_pinned():
    digest = hashlib.sha256()
    for m, n, d in GENERATOR_SHAPES:
        for seed in GENERATOR_SEEDS:
            g = random_right_regular(GenSpec(m, n, d, seed))
            for fmt in ("edge-list", "matrix"):
                digest.update(serialize_graph(g, fmt).encode())
    assert digest.hexdigest() == GENERATOR_SHA256


def test_generator_right_regular_and_deterministic():
    spec = GenSpec(m=5, n=4, d=2, seed=31337)
    g1 = random_right_regular(spec)
    g2 = random_right_regular(spec)
    assert g1 == g2
    assert g1.d == 2
    assert all(len(a) == 2 == len(set(a)) for a in g1.right_adj)
    assert random_right_regular(GenSpec(5, 4, 2, seed=31338)) != g1


def test_genspec_validation():
    with pytest.raises(ValueError, match="1 <= d <= m"):
        GenSpec(m=3, n=4, d=4, seed=0)
    with pytest.raises(ValueError, match="m and n"):
        GenSpec(m=0, n=4, d=1, seed=0)
    with pytest.raises(ValueError, match="64 bits"):
        GenSpec(m=3, n=4, d=2, seed=1 << 64)

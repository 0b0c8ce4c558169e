"""Graph layer: neighborhoods, the odd-neighborhood operator, and
exhaustive expansion verification."""

import json
import math
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expandercodes import (
    BipartiteGraph,
    CapabilityError,
    GenSpec,
    Gf2Matrix,
    RightSubset,
    SplitMix64,
    check_expansion,
    expansion_profile,
    figure1,
    find_bounds_violation,
    find_partition_violation,
    min_distance_kernel,
    odd_neighborhood_bounds,
    parse_graph,
    random_right_regular,
    serialize_graph,
    xor_columns,
)
from expandercodes.graph import exact_rational, size_cap
from expandercodes.subsets import bit_indices

G = figure1()
HALF = Fraction(1, 2)
# Right degree 0: no ratio to d*|S| exists.
EDGELESS = BipartiteGraph(0, 3, ((),) * 3)
# figure 1 expands at gamma 1/2 with alpha 2/3 (epsilon 1/3), and not with 101/100.
CERT = check_expansion(G, HALF, Fraction(2, 3))
UNVERIFIED = check_expansion(G, HALF, Fraction(101, 100))
# Right-regular like figure 1, with the same shape and different edges.
OTHER = BipartiteGraph(5, 4, ((0, 1), (3, 4), (1, 2), (0, 1)))
# Right degrees 1 and 2: no uniform d.
IRREGULAR = BipartiteGraph(2, 2, ((0,), (0, 1)))


def sub(*idx):
    return RightSubset.of(G.n, idx)


def test_neighbors():
    assert G.neighbor_set(sub(0)) == {0, 1}  # label 6 -> {1, 2}
    assert G.neighbor_set(sub(1)) == {3, 4}  # label 7 -> {4, 5}
    assert all(len(G.neighbor_set(sub(v))) == G.d for v in range(G.n))


def test_neighbor_set():
    assert len(G.neighbor_set(sub(0))) == 2
    assert G.neighbor_set(sub()) == frozenset()
    assert G.neighbor_set(sub(*range(G.n))) == {0, 1, 2, 3, 4}


def test_odd_neighborhood_demo_values():
    assert G.odd_neighborhood(sub(0, 1, 2)) == {0, 2, 3, 4}  # labels {1,3,4,5}
    assert G.odd_neighborhood(sub(0, 2, 3)) == frozenset()
    for v in range(G.n):
        assert G.odd_neighborhood(sub(v)) == G.neighbor_set(sub(v))


def test_biadjacency_round_trip():
    again = parse_graph(serialize_graph(G, "matrix"), "matrix")
    assert again == G
    empty = BipartiteGraph(3, 2, ((), ()))
    assert empty.biadjacency().columns == (0, 0)
    assert empty.d == 0


def test_graph_validation():
    with pytest.raises(ValueError, match="duplicate"):
        BipartiteGraph(2, 1, ((0, 0),))
    with pytest.raises(ValueError, match="out of range"):
        BipartiteGraph(2, 1, ((2,),))
    mixed = BipartiteGraph(3, 2, ((0,), (0, 1)))
    assert mixed.d is None


def test_lone_edge_mask_is_built_once():
    # A right vertex with one neighbor among m = 10^7 left vertices has an
    # m-bit mask; packing it must not hold a second copy (0 | bit did).
    m = 10**7
    graph = BipartiteGraph(m, 1, ((m - 1,),))
    tracemalloc.start()
    try:
        columns = graph.biadjacency().columns
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert columns == (1 << (m - 1),)
    assert graph.biadjacency().columns is columns  # packed once
    assert peak < 1.5 * sys.getsizeof(columns[0])


def test_graph_memory_follows_the_edges():
    # One edge among 10^9 left vertices: generating and writing the graph
    # never packs its 125 MB column.
    tracemalloc.start()
    try:
        text = serialize_graph(random_right_regular(GenSpec(10**9, 1, 1, 0)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert text == "1000000000 1\n658607535 0\n"
    assert peak < 1 << 20


def test_bool_neighbors_are_plain_ints():
    graph = BipartiteGraph(3, 1, ((True,),))
    assert graph.right_adj == ((1,),) and type(graph.right_adj[0][0]) is int
    assert serialize_graph(graph) == "3 1\n1 0\n"
    assert parse_graph(serialize_graph(graph)) == graph
    # Lists that can be read only once are read once, bool and all.
    once = BipartiteGraph(3, 2, ((i for i in row) for row in ((2, True), (0, 2))))
    assert once == BipartiteGraph(3, 2, ((1, 2), (0, 2)))
    assert {type(i) for row in once.right_adj for i in row} == {int}


def test_bool_vertex_counts_are_plain_ints():
    # A count that is not an int would reach the header, where the parser
    # refuses "True 1"; as 0 or 1 the graph round-trips.
    graph = BipartiteGraph(True, True, ((0,),))
    assert (graph.m, graph.n) == (1, 1) and {type(graph.m), type(graph.n)} == {int}
    assert serialize_graph(graph) == "1 1\n0 0\n"
    assert parse_graph(serialize_graph(graph)) == graph
    for fmt in ("edge-list", "matrix"):
        assert parse_graph(serialize_graph(graph, fmt), fmt) == graph
    subset = RightSubset(True, 1)
    assert subset.n == 1 and type(subset.n) is int and subset == RightSubset(1, 1)
    matrix = Gf2Matrix(True, False, ())
    assert (matrix.rows, matrix.cols) == (1, 0) and {type(matrix.rows), type(matrix.cols)} == {int}
    cap = size_cap(1, True)
    assert cap == 1 and type(cap) is int


def test_bool_bit_fields_are_plain_ints():
    subset = RightSubset(3, True)
    assert repr(subset) == "RightSubset(n=3, bits=1)" and type(subset.bits) is int
    assert RightSubset.of(3, [True]) == RightSubset(3, 0b10)
    matrix = Gf2Matrix(2, 2, (True, False))
    assert matrix.columns == (1, 0) and {type(c) for c in matrix.columns} == {int}
    with pytest.raises(ValueError, match="column 1 has bits outside"):
        Gf2Matrix(1, 2, (True, 2))


def test_bool_gen_fields_are_plain_ints():
    spec = GenSpec(3, True, True, False)
    assert (spec.m, spec.n, spec.d, spec.seed) == (3, 1, 1, 0)
    assert {type(v) for v in (spec.n, spec.d, spec.seed)} == {int}
    assert spec == GenSpec(3, 1, 1, 0)


def test_biadjacency_is_built_once():
    graph = random_right_regular(GenSpec(8, 28, 3, 5))
    assert graph.biadjacency() is graph.biadjacency()
    # A matrix a caller builds is still checked.
    with pytest.raises(ValueError, match="column 0 has bits outside"):
        Gf2Matrix(2, 1, (graph.biadjacency().columns[0],))


def test_check_expansion_verified():
    cert = check_expansion(G, HALF, Fraction(2, 3))
    assert cert.verified and cert.violation is None
    assert cert.gamma == HALF and cert.alpha == Fraction(2, 3)


def test_check_expansion_singleton_counterexample():
    cert = check_expansion(G, HALF, Fraction(101, 100))
    assert not cert.verified
    assert cert.violation == sub(0)  # first in enumeration order
    rec = cert.to_record()["violation"]
    assert rec["neighbors"] == 2
    assert rec["required"] == str(2 * Fraction(101, 100))


def test_check_expansion_vacuous_when_cap_zero():
    cert = check_expansion(G, Fraction(1, 5), Fraction(2, 3))
    assert cert.verified  # floor(n/5) = 0: nothing to check


def test_check_expansion_preconditions():
    irregular = BipartiteGraph(3, 2, ((0,), (0, 1)))
    with pytest.raises(ValueError, match="right-regular"):
        check_expansion(irregular, HALF, HALF)
    isolated = BipartiteGraph(3, 2, ((), ()))
    with pytest.raises(ValueError, match="d >= 1"):
        check_expansion(isolated, HALF, HALF)
    with pytest.raises(ValueError, match="gamma"):
        check_expansion(G, 0, HALF)
    with pytest.raises(TypeError, match="float"):
        check_expansion(G, 0.5, HALF)


def test_check_expansion_first_counterexample_at_pair_level():
    # twin right vertices pass the singleton level at alpha = 1 but the
    # lexicographically first pair (0, 1) has only 2 of the required 4
    twin = BipartiteGraph(4, 3, ((0, 1), (0, 1), (2, 3)))
    cert = check_expansion(twin, 1, 1)
    assert not cert.verified
    assert cert.violation == RightSubset.of(3, (0, 1))
    rec = cert.to_record()["violation"]
    assert rec["neighbors"] == 2
    assert rec["required"] == "4"


def test_check_expansion_budget():
    with pytest.raises(CapabilityError):
        check_expansion(G, 1, Fraction(2, 3), budget=5)


def test_expansion_profile_demo():
    profile = expansion_profile(G, 2)
    assert profile.min_neighbors == (2, 3)
    assert profile.best_alpha(HALF) == Fraction(3, 4)
    assert profile.best_alpha(HALF) >= Fraction(2, 3)


def test_expansion_profile_empty_and_bounds():
    profile = expansion_profile(G, 0)
    assert profile.s_max == 0
    assert profile.best_alpha(Fraction(1, 5)) is None
    with pytest.raises(ValueError):
        expansion_profile(G, 5)
    with pytest.raises(CapabilityError):
        expansion_profile(G, 4, budget=3)


def test_expansion_profile_irregular_graph():
    irregular = BipartiteGraph(3, 2, ((0,), (0, 1)))
    profile = expansion_profile(irregular, 2)
    assert profile.min_neighbors == (1, 2)
    with pytest.raises(ValueError, match="right-regular"):
        profile.best_alpha(1)


def test_profile_invariants_small_sweep():
    full = expansion_profile(G, G.n)
    for s in range(1, G.n + 1):
        assert 1 <= full.min_neighbors[s - 1] <= G.d * s


def test_union_searches_match_brute_force_seeded():
    # check_expansion and expansion_profile run the prefix-cut union walk
    # level by level; a plain walk over every subset, counting neighbours
    # from the adjacency lists, must give the same first violation by size
    # and then lex, the same verified outcome and the same minima.
    cases = verified = deep = 0
    for seed in range(40):
        d = 2 + seed % 3
        n = 6 + seed % 7
        graph = random_right_regular(GenSpec(d + 2 + seed % 9, n, d, seed))
        walk = [(combo, len({i for j in combo for i in graph.right_adj[j]}))
                for k in range(1, n + 1) for combo in combinations(range(n), k)]
        mins = tuple(min(c for combo, c in walk if len(combo) == k) for k in range(1, n + 1))
        assert expansion_profile(graph, n).min_neighbors == mins
        for gamma in (Fraction(1, 4), Fraction(1, 2), Fraction(1)):
            cap = min(n, math.floor(gamma * n))
            for alpha in (Fraction(1, 2), Fraction(2, 3), Fraction(3, 4), Fraction(1)):
                first = next((RightSubset.of(n, combo) for combo, c in walk
                              if len(combo) <= cap and c < d * alpha * len(combo)), None)
                cert = check_expansion(graph, gamma, alpha)
                assert cert.violation == first
                assert cert.verified == (first is None)
                cases += 1
                verified += cert.verified
                deep += first is not None and len(first) > 2
    assert cases == 480
    # Both outcomes occur, and violations past the pair level too.
    assert verified >= 80 and deep >= 80


def test_odd_neighborhood_bounds_demo():
    third = Fraction(1, 3)
    assert odd_neighborhood_bounds(G, sub(0), third) == (Fraction(2, 3), 2, 2)
    assert odd_neighborhood_bounds(G, sub(0, 1), third) == (Fraction(4, 3), 4, 4)
    lower, mid, _ = odd_neighborhood_bounds(G, sub(0, 2, 3), HALF)
    assert lower == 0 and mid == 0


def test_odd_neighborhood_bounds_errors():
    with pytest.raises(ValueError, match="nonempty"):
        odd_neighborhood_bounds(G, sub(), HALF)


def test_bridge_toggle_parity_exhaustive_demo():
    # structural identities over every subset of the demo graph
    B = G.biadjacency()
    for bits in range(1 << G.n):
        s = RightSubset(G.n, bits)
        odd = G.odd_neighborhood(s)
        assert odd == set(bit_indices(xor_columns(B, s)))
        assert odd <= G.neighbor_set(s)
        assert len(odd) % 2 == (G.d * len(s)) % 2
        for v in range(G.n):
            toggled = RightSubset(G.n, bits ^ (1 << v))
            assert G.odd_neighborhood(toggled) == odd ^ G.neighbor_set(sub(v))


def test_find_bounds_violation_demo_all_hold():
    sweep = find_bounds_violation(G, HALF, Fraction(1, 3))
    assert sweep.violation is None
    assert sweep.subsets_checked == 10  # C(4,1) + C(4,2)


def test_find_bounds_violation_reports_first():
    # two right vertices sharing both neighbors: the pair has |N|=2 and
    # odd-neighborhood empty, so lower bound 2*(1-2/8)*2 = 3 > 0 fails
    twin = BipartiteGraph(4, 3, ((0, 1), (0, 1), (2, 3)))
    sweep = find_bounds_violation(twin, 1, Fraction(1, 8))
    assert sweep.violation is not None
    subset, lower, mid, upper = sweep.violation
    assert subset == RightSubset.of(3, (0, 1))
    assert mid == 0 and upper == 2 and lower == 3
    # figure 1 at gamma 1: its minimum-weight codeword {0, 2, 3} has an
    # empty odd neighborhood against the lower bound 2*(1-2/4)*3 = 3
    record = find_bounds_violation(G, 1, Fraction(1, 4)).to_record(G.m)
    assert json.dumps(record, sort_keys=True) == (
        '{"epsilon": "1/4", "gamma": "1", "size_cap": 4, "subsets_checked": 13, '
        '"violation": {"indices": [0, 2, 3], "labels": [6, 8, 9], "lower": "3", '
        '"neighborhood": 3, "odd_neighborhood": 0}}'
    )


def test_find_bounds_violation_fractional_lower():
    # two right vertices of degree 3 sharing one neighbor: |odd| = 4 lies
    # between floor and ceil of the lower bound 3*(1-2/8)*2 = 9/2, so the
    # pair fails; singletons have |odd| = 3 >= 9/4 and pass
    pair = BipartiteGraph(5, 2, ((0, 1, 2), (2, 3, 4)))
    sweep = find_bounds_violation(pair, 1, Fraction(1, 8))
    assert sweep.violation == (RightSubset.of(2, (0, 1)), Fraction(9, 2), 4, 5)
    assert sweep.subsets_checked == 3


SLACKS = (Fraction(1, 8), Fraction(1, 4), Fraction(1, 3), Fraction(3, 8))


def bounds_case(seed, d, extra, n, size_cap, epsilon):
    """A seeded graph's expansion certificate and bounds sweep at
    gamma = size_cap/n and alpha = 1 - epsilon."""
    graph = random_right_regular(GenSpec(d + extra, n, d, seed))
    gamma = Fraction(min(size_cap, n), n)
    cert = check_expansion(graph, gamma, 1 - epsilon)
    return cert, find_bounds_violation(graph, gamma, epsilon)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    d=st.integers(2, 4),
    extra=st.integers(0, 8),
    n=st.integers(1, 9),
    size_cap=st.integers(1, 3),
    epsilon=st.sampled_from(SLACKS),
)
def test_certified_graph_has_no_bounds_violation(seed, d, extra, n, size_cap, epsilon):
    # |odd(S)| >= 2|N(S)| - d|S| >= d(1 - 2*epsilon)|S| under the certificate
    # (the unique-neighbor step of Sipser-Spielman, "Expander codes", 1996).
    cert, sweep = bounds_case(seed, d, extra, n, size_cap, epsilon)
    if cert.verified:
        assert sweep.violation is None
        # the certificate settles the bound with the sweep's own record
        assert find_bounds_violation(cert.graph, cert.gamma, epsilon, certificate=cert) == sweep


def test_uncertified_graph_can_violate_bounds():
    # Positive control for the property above: over the same kind of graph
    # both outcomes occur, and only uncertified graphs show violations.
    certified = violated = 0
    for seed in range(40):
        for size_cap in (1, 2, 3):
            for epsilon in SLACKS:
                cert, sweep = bounds_case(seed, 2 + seed % 3, 3 + seed % 8, 3 + seed % 7,
                                          size_cap, epsilon)
                certified += cert.verified
                violated += sweep.violation is not None
                assert not (cert.verified and sweep.violation is not None)
    assert certified > 0 and violated > 0


def first_bounds_failure(graph, gamma, epsilon):
    """Oracle: (violation, subsets checked) from a plain walk over every
    subset up to the cap in (cardinality, lex) order, counting each left
    vertex's neighbors in S from the adjacency lists."""
    n, d = graph.n, graph.d
    checked = 0
    for k in range(1, min(n, gamma.numerator * n // gamma.denominator) + 1):
        lower = d * (1 - 2 * epsilon) * k
        for combo in combinations(range(n), k):
            checked += 1
            hits = Counter(i for j in combo for i in graph.right_adj[j])
            odd = sum(c % 2 for c in hits.values())
            if odd < lower:
                return (RightSubset.of(n, combo), lower, odd, len(hits)), checked
    return None, checked


def test_bounds_sweep_matches_brute_force_oracle():
    # The sweep walks only the subsets with |N(S)| < d(1-eps)|S|; the plain
    # walk must find the same first failure after the same count, on
    # graphs that expand at (gamma, 1 - eps) and on graphs that do not.
    cases = certified = violated = deep = 0
    for seed in range(60):
        d = 2 + seed % 4
        n = 5 + seed % 7
        graph = random_right_regular(GenSpec(d + 1 + seed % 8, n, d, seed))
        for gamma in (Fraction(1, 4), Fraction(1, 2), Fraction(1)):
            for epsilon in (Fraction(1, 12), Fraction(1, 4), Fraction(5, 12)):
                sweep = find_bounds_violation(graph, gamma, epsilon)
                assert (sweep.violation, sweep.subsets_checked) == first_bounds_failure(
                    graph, gamma, epsilon)
                cases += 1
                certified += check_expansion(graph, gamma, 1 - epsilon).verified
                violated += sweep.violation is not None
                deep += sweep.violation is not None and len(sweep.violation[0]) > 2
    assert cases == 540
    # Both kinds of graph occur, and failures past the pair level too.
    assert certified >= 80 and violated >= 300 and deep >= 30


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: find_bounds_violation(G, 0, Fraction(1, 4)), ValueError, "gamma must be > 0"),
        (lambda: find_bounds_violation(G, -1, Fraction(1, 4)), ValueError, "gamma must be > 0"),
        (lambda: find_bounds_violation(G, HALF, HALF), ValueError, "0 < epsilon < 1/2"),
        (lambda: expansion_profile(G, 2).best_alpha(0), ValueError, "gamma must be > 0"),
        (lambda: expansion_profile(EDGELESS, 1).best_alpha(Fraction(1, 3)),
         ValueError, "right-regular graph with d >= 1"),
        (lambda: check_expansion(EDGELESS, Fraction(1, 3), HALF),
         ValueError, "right-regular graph with d >= 1"),
        (lambda: find_bounds_violation(EDGELESS, Fraction(2, 3), Fraction(1, 3)),
         ValueError, "right-regular graph with d >= 1"),
        (lambda: find_bounds_violation(G, HALF, Fraction(1, 3), certificate=UNVERIFIED),
         ValueError, "verified expansion certificate"),
        (lambda: find_bounds_violation(OTHER, HALF, Fraction(1, 3), certificate=CERT),
         ValueError, "different graph"),
        (lambda: find_bounds_violation(G, Fraction(1, 4), Fraction(1, 3), certificate=CERT),
         ValueError, "certificate gamma 1/2 does not match 1/4"),
        (lambda: find_bounds_violation(G, HALF, Fraction(1, 4), certificate=CERT),
         ValueError, "certificate alpha 2/3 does not match 1 - epsilon = 3/4"),
        (lambda: Gf2Matrix(-1, 0, ()), ValueError, "matrix dimensions must be >= 0"),
        (lambda: Gf2Matrix(2, 2, (1,)), ValueError, "expected 2 columns, got 1"),
        (lambda: Gf2Matrix(2, 1, (4,)), ValueError, r"column 0 has bits outside \[0, 2\)"),
        (lambda: exact_rational("1/2", "gamma"), TypeError,
         r"gamma must be an exact rational \(int or Fraction\)"),
        (lambda: BipartiteGraph(-1, 0, ()), ValueError, "vertex counts must be >= 0"),
        (lambda: BipartiteGraph(2, 2, ((0,),)), ValueError,
         "expected 2 right adjacency lists, got 1"),
        (lambda: BipartiteGraph(2, 1, ((0,), (1,))), ValueError,
         "^expected 1 right adjacency lists, got 2$"),
        (lambda: BipartiteGraph(2, 1, ((5, 0, 5),)), ValueError,
         "^right vertex 0 has a duplicate edge$"),
        (lambda: BipartiteGraph(2, 1, ((1, -1, -3),)), ValueError,
         r"^right vertex 0: left index -3 out of range \[0, 2\)$"),
        (lambda: BipartiteGraph(2, 1, ((2, 0),)), ValueError,
         r"^right vertex 0: left index 2 out of range \[0, 2\)$"),
        (lambda: BipartiteGraph(3, 3, ((0,), (7, 1, 5), (0, 0))), ValueError,
         r"^right vertex 1: left index 5 out of range \[0, 3\)$"),
        (lambda: BipartiteGraph(2, 1, ((0, 1.0),)), TypeError,
         "'float' object cannot be interpreted as an integer"),
        (lambda: BipartiteGraph(2, 1, (("1",),)), TypeError,
         "'str' object cannot be interpreted as an integer"),
        (lambda: BipartiteGraph(2, 1, ((0, "1"),)), TypeError,
         "'str' object cannot be interpreted as an integer"),
        (lambda: BipartiteGraph(2, 1, iter([(0, "1")])), TypeError,
         "^'str' object cannot be interpreted as an integer$"),
        (lambda: BipartiteGraph(2, 1, [iter((0, "1"))]), TypeError,
         "^'str' object cannot be interpreted as an integer$"),
        (lambda: BipartiteGraph(2, 1, ((5,), (0,))), ValueError,
         "^expected 1 right adjacency lists, got 2$"),
        (lambda: BipartiteGraph.from_edges(2, 2, [(0, 2)]), ValueError,
         r"right index 2 out of range \[0, 2\)"),
        (lambda: G.neighbor_set(RightSubset(3, 1)), IndexError,
         "subset universe size 3 does not match right side 4"),
        (lambda: CERT.describe(), ValueError, "a verified certificate has no counterexample"),
        (lambda: odd_neighborhood_bounds(IRREGULAR, RightSubset(2, 1), Fraction(1, 3)),
         ValueError, "bounds require a right-regular graph"),
        (lambda: serialize_graph(G, "dot"), ValueError, "unknown graph format 'dot'"),
        (lambda: random_right_regular(GenSpec(3, 2, 1, 1.5)), TypeError,
         "^seed must be an int, not float$"),
        (lambda: GenSpec(3.0, 2, 1, 0), TypeError, "^m must be an int, not float$"),
        (lambda: GenSpec(m=3, n="2", d=1, seed=0), TypeError, "^n must be an int, not str$"),
        (lambda: BipartiteGraph(2.5, 1, ((0,),)), TypeError, "^m must be an int, not float$"),
        (lambda: BipartiteGraph(1, "1", ((0,),)), TypeError, "^n must be an int, not str$"),
        (lambda: RightSubset(1.0, 0), TypeError, "^n must be an int, not float$"),
        (lambda: Gf2Matrix(2.0, 0, ()), TypeError, "^rows must be an int, not float$"),
        (lambda: Gf2Matrix(1, "0", ()), TypeError, "^cols must be an int, not str$"),
        (lambda: RightSubset(3, 1.0), TypeError, "^bits must be an int, not float$"),
        (lambda: RightSubset(3, "1"), TypeError, "^bits must be an int, not str$"),
        (lambda: RightSubset.of(3, [0, 1.0]), TypeError,
         "^right-vertex index must be an int, not float$"),
        (lambda: Gf2Matrix(2, 1, (1.0,)), TypeError, "^column 0 must be an int, not float$"),
        (lambda: Gf2Matrix(2, 2, (1, "1")), TypeError, "^column 1 must be an int, not str$"),
        (lambda: size_cap(HALF, 2.0), TypeError, "^n must be an int, not float$"),
        (lambda: size_cap(HALF, "2"), TypeError, "^n must be an int, not str$"),
        (lambda: expansion_profile(G, 2.0), TypeError, "^s_max must be an int, not float$"),
        (lambda: expansion_profile(G, "2"), TypeError, "^s_max must be an int, not str$"),
        (lambda: check_expansion(G, HALF, Fraction(2, 3), budget=2.5), TypeError,
         "^budget must be an int, not float$"),
        (lambda: check_expansion(G, HALF, Fraction(2, 3), budget="5"), TypeError,
         "^budget must be an int, not str$"),
        (lambda: min_distance_kernel(G.biadjacency(), budget=1e9), TypeError,
         "^budget must be an int, not float$"),
        (lambda: BipartiteGraph.from_edges(3, 2.0, [(0, 0)]), TypeError,
         "^n must be an int, not float$"),
        (lambda: SplitMix64(1.5), TypeError, "^seed must be an int, not float$"),
        (lambda: SplitMix64(1).below(2.5), TypeError, "^bound must be an int, not float$"),
        (lambda: SplitMix64(1).below(Fraction(7, 2)), TypeError,
         "^bound must be an int, not Fraction$"),
        (lambda: SplitMix64(1).below("7"), TypeError, "^bound must be an int, not str$"),
        (lambda: SplitMix64(1)._sample(7.5, 2, 1), TypeError,
         "^bound must be an int, not float$"),
        (lambda: SplitMix64(1)._sample(7, 1.5, 1), TypeError,
         "^count must be an int, not float$"),
        (lambda: SplitMix64(1)._sample(7, 2, 1.0), TypeError,
         "^times must be an int, not float$"),
    ],
    ids=["bounds-gamma-zero", "bounds-gamma-negative", "bounds-epsilon-half",
         "best_alpha-gamma-zero", "best_alpha-degree-zero", "check_expansion-degree-zero",
         "bounds-degree-zero",
         "bounds-certificate-unverified", "bounds-certificate-other-graph",
         "bounds-certificate-other-gamma", "bounds-certificate-other-alpha",
         "matrix-negative-rows", "matrix-column-count", "matrix-column-bits",
         "exact_rational-string", "graph-negative-counts", "graph-adjacency-count",
         "graph-adjacency-extra", "graph-duplicate-before-range", "graph-negative-index",
         "graph-index-equals-m", "graph-first-bad-vertex", "graph-float-index",
         "graph-str-index", "graph-mixed-str-index", "graph-iterator-of-rows-str-index",
         "graph-iterator-row-str-index", "graph-adjacency-count-before-bad-list",
         "from_edges-right-index", "neighbor_set-universe", "describe-verified",
         "bounds-irregular", "serialize-unknown-format",
         "genspec-float-seed", "genspec-float-m", "genspec-str-n", "graph-float-m",
         "graph-str-n", "subset-float-n", "matrix-float-rows", "matrix-str-cols",
         "subset-float-bits", "subset-str-bits", "subset-of-float-index",
         "matrix-float-column", "matrix-str-column", "size_cap-float-n", "size_cap-str-n",
         "profile-float-s_max", "profile-str-s_max", "check_expansion-float-budget",
         "check_expansion-str-budget", "kernel-float-budget", "from_edges-float-n",
         "splitmix-float-seed", "below-float-bound", "below-fraction-bound",
         "below-str-bound", "sample-float-bound", "sample-float-count",
         "sample-float-times"],
)
def test_parameter_rules_refuse(call, error, message):
    # A nonpositive gamma gives a negative size cap, so nothing would be
    # checked and a sweep would pass vacuously; with d = 0 every ratio
    # d*alpha*|S| is 0, and so is the bounds sweep's lower end
    # d*(1-2*eps)*|S|. A certificate settles the bounds only for the
    # graph, gamma and alpha = 1 - epsilon it was verified for.
    # The other cases are the constructors' and accessors' own range and
    # type checks. A graph counts its lists first, then refuses its first
    # bad right vertex, and within it a duplicate before the smallest index
    # out of range; lists that can be read only once are read once.
    with pytest.raises(error, match=message):
        call()


def test_find_partition_violation_none_on_demo():
    sweep = find_partition_violation(G)
    assert sweep.to_record()["violation"] is None
    assert sweep.subsets_checked == 15
    assert sweep.empty_odd_found == 1
    assert sweep.partitions_checked == 3  # splits of {0,2,3}


def test_partition_parts_always_match():
    # check the reported counters against a direct recount
    twin = BipartiteGraph(4, 4, ((0, 1), (0, 1), (2, 3), (2, 3)))
    sweep = find_partition_violation(twin)
    zeros = [
        combo
        for k in range(1, 5)
        for combo in combinations(range(4), k)
        if not twin.odd_neighborhood(RightSubset.of(4, combo))
    ]
    assert sweep.empty_odd_found == len(zeros)
    assert sweep.partitions_checked == sum(2 ** (len(z) - 1) - 1 for z in zeros)


def test_partition_property_brute_force_seeded():
    # every bipartition of every empty-odd subset, checked side by side,
    # against the sweep's closed-form counters
    for seed in range(30):
        spec = GenSpec(m=3 + seed % 4, n=4 + seed % 5, d=2 + seed % 2, seed=seed)
        graph = random_right_regular(spec)
        n = graph.n
        empty_odd = partitions = 0
        for bits in range(1, 1 << n):
            if graph.odd_neighborhood(RightSubset(n, bits)):
                continue
            empty_odd += 1
            part_a = bits
            while part_a:
                part_a = (part_a - 1) & bits
                part_b = bits ^ part_a
                if part_a and part_a < part_b:
                    odd_a = graph.odd_neighborhood(RightSubset(n, part_a))
                    assert odd_a == graph.odd_neighborhood(RightSubset(n, part_b))
                    partitions += 1
        sweep = find_partition_violation(graph)
        assert sweep.subsets_checked == (1 << n) - 1
        assert sweep.empty_odd_found == empty_odd
        assert sweep.partitions_checked == partitions


def test_find_partition_violation_budget():
    # figure1's code has dimension 1: one nonzero codeword to walk
    with pytest.raises(CapabilityError, match="over the budget of 0"):
        find_partition_violation(G, budget=0)
    assert find_partition_violation(G, budget=1).empty_odd_found == 1

"""Minimum-distance methods, pruning, and the certified lower bound."""

import gc
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from expandercodes import (
    INFINITE,
    BipartiteGraph,
    CapabilityError,
    GenSpec,
    Gf2Matrix,
    MinDistanceResult,
    PruningParams,
    RightSubset,
    check_expansion,
    distance_lower_bound,
    expansion_profile,
    figure1,
    find_bounds_violation,
    is_minimal_dependent,
    min_distance_kernel,
    min_distance_pruned,
    min_distance_subset,
    random_right_regular,
    verify_distance_result,
)
from expandercodes.subsets import DEFAULT_SUBSET_BUDGET, XorZeroLevels, first_hit_by_level

G = figure1()
B = G.biadjacency()
HALF = Fraction(1, 2)
WITNESS = RightSubset.of(4, (0, 2, 3))


def brute_force_distance(graph):
    """Oracle: scan subsets with itertools and explicit counters."""
    cols = graph.biadjacency().columns
    examined = 0
    for k in range(1, graph.n + 1):
        for combo in combinations(range(graph.n), k):
            examined += 1
            acc = 0
            for j in combo:
                acc ^= cols[j]
            if acc == 0:
                return k, combo, examined
    return None, None, examined


def test_kernel_demo():
    result = min_distance_kernel(B)
    assert result.distance == 3
    assert result.witness == WITNESS
    assert result.method == "kernel"
    assert result.examined == 1  # 1-dimensional code


def test_kernel_full_rank_infinite():
    result = min_distance_kernel(Gf2Matrix(4, 4, (1, 2, 4, 8)))
    assert result.distance is INFINITE
    assert result.is_infinite and result.witness is None


def test_kernel_duplicate_column_distance_two():
    m = Gf2Matrix(3, 4, (0b011, 0b101, 0b011, 0b110))
    result = min_distance_kernel(m)
    assert result.distance == 2
    assert result.witness == RightSubset.of(4, (0, 2))


def test_kernel_dimension_cap():
    # The budget is the only limit on the dimension: level 1 of a
    # dimension-k code costs k sums, it finds weight 1, and the level cut
    # stops the walk before level 2 is charged.
    result = min_distance_kernel(Gf2Matrix(1, 31, (0,) * 31))
    assert result.distance == 1
    assert result.witness == RightSubset.of(31, (0,))
    assert result.examined == 2**31 - 1
    with pytest.raises(CapabilityError, match="over the budget of 11"):
        min_distance_kernel(Gf2Matrix(1, 12, (0,) * 12), budget=11)
    result = min_distance_kernel(Gf2Matrix(1, 12, (0,) * 12), budget=12)
    assert (result.distance, result.witness) == (1, RightSubset.of(12, (0,)))


def all_codewords_minimum(matrix):
    """Oracle: the lightest nonzero codeword, lex-smallest support on ties,
    over all 2^n column subsets (independent of the null-space basis)."""
    best = None
    count = 0
    for bits in range(1, 1 << matrix.cols):
        support = RightSubset(matrix.cols, bits).indices
        acc = 0
        for j in support:
            acc ^= matrix.columns[j]
        if acc == 0:
            count += 1
            if best is None or (len(support), support) < (len(best), best):
                best = support
    return best, count


@st.composite
def kernel_matrices(draw):
    n = draw(st.integers(1, 10))
    if draw(st.booleans()):
        # narrow columns: zero columns, repeated columns and weight ties
        m = draw(st.integers(1, 3))
        cols = draw(st.lists(st.integers(0, (1 << m) - 1), min_size=n, max_size=n))
    else:
        # full column rank: upper unitriangular on rows 0..n-1, plus up to
        # two random rows
        extra = draw(st.integers(0, 2))
        m = n + extra
        cols = [
            (1 << j)
            | draw(st.integers(0, (1 << j) - 1))
            | draw(st.integers(0, (1 << extra) - 1)) << n
            for j in range(n)
        ]
    return Gf2Matrix(m, n, tuple(cols))


@settings(max_examples=300)
@given(kernel_matrices())
# Level 1 finds {3, 4} at weight 2; the lex-smaller {2, 5} is the second
# sum of two basis vectors, after {0, 1, 2, 3, 4}.
@example(Gf2Matrix(3, 6, (0b001, 0b010, 0b011, 0b100, 0b100, 0b011)))
def test_kernel_matches_all_codewords(matrix):
    support, count = all_codewords_minimum(matrix)
    result = min_distance_kernel(matrix)
    assert result.examined == count
    if support is None:
        assert result.distance is INFINITE and result.witness is None
        return
    assert result.distance == len(support)
    assert result.witness == RightSubset.of(matrix.cols, support)
    assert verify_distance_result(matrix, result)


def test_subset_demo():
    result = min_distance_subset(G)
    assert result.distance == 3
    assert result.witness == WITNESS
    # all subsets of size <= 2 have a nonempty odd neighborhood
    for k in (1, 2):
        for combo in combinations(range(G.n), k):
            assert G.odd_neighborhood(RightSubset.of(G.n, combo))
    k, combo, examined = brute_force_distance(G)
    assert (k, combo, examined) == (3, (0, 2, 3), result.examined)


def test_subset_isolated_right_vertex():
    graph = BipartiteGraph(3, 3, ((0, 1), (), (1, 2)))
    result = min_distance_subset(graph)
    assert result.distance == 1
    assert result.witness == RightSubset.of(3, (1,))


def test_subset_infinite():
    # Full column rank: the walk searches every level up to k = n and
    # comes up empty; at n = 20 that includes levels where the split falls
    # to t = 0. The search answers from the rank with the walk's count.
    for n in (5, 20):
        graph = BipartiteGraph(n, n, tuple((j,) for j in range(n)))
        scan = XorZeroLevels(graph.biadjacency().columns)
        walked = first_hit_by_level(scan, n, 1, n, DEFAULT_SUBSET_BUDGET)
        assert walked == (None, 2**n - 1)
        result = min_distance_subset(graph)
        assert result.distance is INFINITE
        assert result.witness is None
        assert result.examined == 2**n - 1


def test_full_rank_code_is_answered_from_its_rank(monkeypatch):
    # No nonempty set of independent columns sums to zero, so the rank
    # answers INFINITE with the count a walk reports, walking and charging
    # nothing: the 2^48 - 1 subsets here are far over any budget.
    disjoint = BipartiteGraph(16, 8, tuple((2 * j, 2 * j + 1) for j in range(8)))
    params = PruningParams.certify(disjoint, Fraction(1, 4), Fraction(1, 3))
    wide = random_right_regular(GenSpec(96, 48, 4, seed=1))
    walked = []
    monkeypatch.setattr(
        "expandercodes.mindist.first_hit_by_level", lambda *args: walked.append(args)
    )
    result = min_distance_subset(disjoint, budget=0)
    assert (result.witness, result.method, result.examined) == (None, "subset", 255)
    # sizes 3..8, from the threshold 2*(2/3)*2 = 8/3: 256 - 1 - 8 - 28 subsets
    result = min_distance_pruned(disjoint, params)
    assert (result.witness, result.examined, result.threshold) == (None, 219, Fraction(8, 3))
    result = min_distance_subset(wide)
    assert (result.distance, result.examined) == (INFINITE, 2**48 - 1)
    assert walked == []


def test_subset_path_code_distance_n():
    # Check i joins right vertices i and i + 1; the only codeword is all ones.
    n = 20
    graph = BipartiteGraph(n - 1, n, tuple(
        tuple(i for i in (j - 1, j) if 0 <= i < n - 1) for j in range(n)
    ))
    result = min_distance_subset(graph)
    assert result.distance == n
    assert result.witness == RightSubset(n, (1 << n) - 1)
    assert result.examined == 2**n - 1
    by_kernel = min_distance_kernel(graph.biadjacency())
    assert (by_kernel.distance, by_kernel.witness) == (n, result.witness)
    assert verify_distance_result(graph.biadjacency(), result)


def test_subset_right_cap():
    graph = BipartiteGraph(1, 30, ((0,),) * 30)
    # Levels 1 and 2 hold 30 + 435 = 465 subsets; level 2 has the witness.
    with pytest.raises(CapabilityError, match="over the budget of 464"):
        min_distance_subset(graph, budget=464)
    # Charging level 3 would pass this budget, so answering shows it is
    # never charged.
    for result in (min_distance_subset(graph, budget=465), min_distance_subset(graph)):
        assert result.distance == 2
        assert result.witness == RightSubset.of(30, (0, 1))
        assert result.examined == 31


def test_infinite_marker_refuses_ordering():
    with pytest.raises(TypeError):
        INFINITE < 3  # noqa: B015
    assert repr(INFINITE) == "INFINITE"
    assert INFINITE == INFINITE
    assert INFINITE != 3


def test_pruned_demo_loose_alpha():
    params = PruningParams.certify(G, HALF, Fraction(1, 3))
    result = min_distance_pruned(G, params)
    assert result.distance == 3
    assert result.witness == WITNESS
    assert result.threshold == Fraction(8, 3)
    # sizes 1 and 2 are skipped entirely: C(4,1) + C(4,2) = 10 subsets
    unpruned = min_distance_subset(G)
    assert unpruned.examined - result.examined == 10


def test_pruned_demo_tight_alpha_integer_threshold():
    # tight alpha 3/4 puts the bound at exactly 3 = d(C); the size-3 level
    # must still be searched
    params = PruningParams.certify(G, HALF, Fraction(1, 4))
    result = min_distance_pruned(G, params)
    assert result.threshold == 3
    assert result.distance == 3
    assert result.witness == WITNESS


def test_pruned_preconditions(monkeypatch):
    with pytest.raises(ValueError, match="epsilon"):
        PruningParams.certify(G, HALF, Fraction(1, 2))
    with pytest.raises(ValueError, match="epsilon"):
        PruningParams.certify(G, HALF, 0)
    with pytest.raises(ValueError, match="expander"):
        PruningParams.certify(G, HALF, Fraction(1, 5))  # alpha 4/5 > 3/4 fails
    cert = check_expansion(G, HALF, Fraction(2, 3))
    params = PruningParams(cert)
    assert (params.gamma, params.epsilon) == (HALF, Fraction(1, 3))
    other = BipartiteGraph(5, 4, ((0, 1), (3, 4), (1, 2), (0, 1)))
    refused = [
        (G, check_expansion(G, HALF, Fraction(101, 100)), "verified"),
        (other, cert, "different graph"),
        # verified, at an alpha that is 1 - epsilon for no epsilon in (0, 1/2)
        (G, check_expansion(G, HALF, HALF), "epsilon must satisfy"),
        (G, check_expansion(G, Fraction(1, 4), 1), "epsilon must be > 0"),
    ]
    walked = []
    monkeypatch.setattr(
        "expandercodes.mindist.first_hit_by_level", lambda *args: walked.append(args)
    )
    for graph, certificate, message in refused:
        with pytest.raises(ValueError, match=message):
            min_distance_pruned(graph, PruningParams(certificate))
    assert walked == []


# A 7x5 graph with gamma*n = 5/2 that certifies at (1/2, 2/3) and has
# distance 3: the expansion hypothesis constrains sizes up to 2 only, so the
# bound is 2*(2/3)*2 = 8/3, while 2*(2/3)*(5/2) = 10/3 would exceed 3.
HALF_INTEGER = BipartiteGraph.from_edges(7, 5, [
    (0, 0), (2, 0), (0, 1), (1, 1), (1, 2), (2, 2), (3, 3), (4, 3), (5, 4), (6, 4),
])


def test_half_integer_gamma_n_bound_is_sound():
    cert = check_expansion(HALF_INTEGER, HALF, Fraction(2, 3))
    assert cert.verified
    unpruned = min_distance_subset(HALF_INTEGER)
    assert unpruned.distance == 3
    assert unpruned.witness == RightSubset.of(5, (0, 1, 2))
    bound = distance_lower_bound(HALF, Fraction(1, 3), 5)
    assert bound == Fraction(8, 3) <= unpruned.distance
    pruned = min_distance_pruned(HALF_INTEGER, PruningParams(cert))
    assert (pruned.distance, pruned.witness, pruned.threshold) == (3, unpruned.witness, bound)
    assert pruned.examined == 1


def test_lower_bound_values():
    assert distance_lower_bound(HALF, Fraction(1, 3), 4) == Fraction(8, 3)
    assert distance_lower_bound(HALF, Fraction(1, 4), 8) == 6
    # gamma*n = 5/2 constrains sizes up to 2; gamma = 3 caps at n = 5
    assert distance_lower_bound(HALF, Fraction(1, 3), 5) == Fraction(8, 3)
    assert distance_lower_bound(3, Fraction(1, 3), 5) == Fraction(20, 3)
    with pytest.raises(ValueError):
        distance_lower_bound(HALF, Fraction(1, 2), 4)
    with pytest.raises(ValueError):
        distance_lower_bound(0, Fraction(1, 3), 4)
    with pytest.raises(TypeError):
        distance_lower_bound(0.5, Fraction(1, 3), 4)
    # n is a vertex count: an int >= 0, never a float or a Fraction
    with pytest.raises(TypeError, match="n must be an int"):
        distance_lower_bound(2, Fraction(1, 3), 5.5)
    with pytest.raises(TypeError, match="n must be an int"):
        distance_lower_bound(HALF, Fraction(1, 3), Fraction(11, 2))
    with pytest.raises(ValueError, match="n must be >= 0, got -1"):
        distance_lower_bound(HALF, Fraction(1, 3), -1)


def test_verify_distance_result_demo():
    result = min_distance_subset(G)
    assert verify_distance_result(B, result) is True
    assert is_minimal_dependent(B, result.witness) is True


def test_verify_distance_result_duplicate_columns():
    m = Gf2Matrix(3, 3, (0b011, 0b011, 0b100))
    result = min_distance_kernel(m)
    assert result.distance == 2
    assert verify_distance_result(m, result) is True


def test_verify_distance_result_rejects_corruption():
    good = min_distance_subset(G)
    too_large = MinDistanceResult(RightSubset(4, 0b1111), "subset", good.examined)
    assert verify_distance_result(B, too_large) is False
    wrong_witness = MinDistanceResult(RightSubset.of(4, (0, 1, 2)), "subset", 1)
    assert verify_distance_result(B, wrong_witness) is False
    # a matrix one column wider than the witness's universe
    wider = Gf2Matrix(B.rows, B.cols + 1, (*B.columns, 0))
    assert verify_distance_result(wider, good) is False
    with pytest.raises(ValueError):
        verify_distance_result(B, min_distance_kernel(Gf2Matrix(3, 3, (1, 2, 4))))


def test_kernel_subset_agree_small_sweep():
    specs = [
        GenSpec(m=4 + seed % 5, n=3 + seed % 6, d=2 + seed % 2, seed=seed)
        for seed in range(40)
    ]
    # low-rate codes of distance 6 at n = 26 and dimension-20 codes of
    # distance 2 at n = 28, as in the benchmark corpus
    specs += [GenSpec(18, 26, 5, seed=seed) for seed in range(5)]
    specs += [GenSpec(8, 28, 3, seed=seed) for seed in range(5)]
    for spec in specs:
        graph = random_right_regular(spec)
        by_kernel = min_distance_kernel(graph.biadjacency())
        by_subset = min_distance_subset(graph)
        assert by_kernel.distance == by_subset.distance
        assert by_kernel.witness == by_subset.witness
        if not by_subset.is_infinite:
            # a minimum-size witness is a minimal dependent column set
            assert not graph.odd_neighborhood(by_subset.witness)
            assert is_minimal_dependent(graph.biadjacency(), by_subset.witness)
            assert verify_distance_result(graph.biadjacency(), by_subset)


# Distance by subset search under the default budget, None where it refuses:
# those codes have distance 8, and level 7 of n = 56 holds C(56, <= 7) =
# 268,602,258 > 2^28 subsets.
LARGE_N = [
    *zip((GenSpec(28, 56, 5, seed) for seed in range(8)), (6, 4, 6, None, None, 6, None, None)),
    *zip((GenSpec(32, 64, 4, seed) for seed in range(4)), (5, 6, 2, 2)),
]


@pytest.mark.parametrize(
    "spec, distance", LARGE_N, ids=[f"n{s.n}-seed{s.seed}" for s, _ in LARGE_N]
)
def test_kernel_subset_agree_past_28_right_vertices(spec, distance):
    # n = 56 and 64, code dimension 28 and 33: the budget is charged by the
    # levels walked, so neither the right side nor the dimension is capped.
    graph = random_right_regular(spec)
    if distance is None:
        with pytest.raises(CapabilityError, match="sizes 1..7 of 56"):
            min_distance_subset(graph)
        return
    by_subset = min_distance_subset(graph)
    by_kernel = min_distance_kernel(graph.biadjacency())
    assert by_subset.distance == by_kernel.distance == distance
    assert by_subset.witness == by_kernel.witness
    assert verify_distance_result(graph.biadjacency(), by_subset)


def test_examined_counter_matches_recount():
    for seed in range(10):
        graph = random_right_regular(GenSpec(5, 6, 2, seed=seed))
        result = min_distance_subset(graph)
        _, _, examined = brute_force_distance(graph)
        assert result.examined == examined


def test_record_shape():
    rec = min_distance_subset(G).to_record(G.m)
    assert rec == {
        "method": "subset",
        "distance": 3,
        "witness": {"indices": [0, 2, 3], "labels": [6, 8, 9]},
        "examined": 13,
        "threshold": None,
    }
    inf = min_distance_kernel(Gf2Matrix(3, 3, (1, 2, 4))).to_record(3)
    assert inf["distance"] == "infinite" and inf["witness"] is None


def test_searches_leave_no_reference_cycles():
    # Each recursive walk is a closure that calls itself; once the walk
    # returns, nothing of it should be left for the cyclic collector.
    gc.collect()
    gc.disable()
    try:
        for spec in (GenSpec(18, 26, 5, 807013244984872231), GenSpec(12, 19, 3, 7)):
            graph = random_right_regular(spec)
            gamma = Fraction(2, graph.n)
            for search in (
                lambda: min_distance_kernel(graph.biadjacency()),
                lambda: check_expansion(graph, gamma, HALF),
                lambda: check_expansion(graph, gamma, 1),
                lambda: expansion_profile(graph, 2),
                lambda: find_bounds_violation(graph, gamma, Fraction(2, 5)),
                lambda: min_distance_subset(graph),
            ):
                search()
                assert gc.collect() == 0
    finally:
        gc.enable()

"""Every small right-regular graph, up to relabelling, against brute force.

A graph with m left and n right vertices, right-regular of degree d, is a
multiset of n columns, each a d-subset of the m rows written as a bitmask;
repeated columns are allowed. Sorting the multiset removes right
relabelling, and keeping its least image over the m! row permutations
removes left relabelling, so each class appears once.
"""

import functools
import math
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, permutations

from expandercodes import (
    BipartiteGraph,
    BoundsSweep,
    ExpansionProfile,
    PartitionSweep,
    PruningParams,
    RightSubset,
    check_expansion,
    expansion_profile,
    find_bounds_violation,
    find_partition_violation,
    min_distance_kernel,
    min_distance_pruned,
    min_distance_subset,
    verify_distance_result,
)
from expandercodes.subsets import bit_indices

# Every shape with 1 <= d <= m <= 5 and 1 <= n <= 5, and one with n = 6.
SHAPES = (
    *((m, n, d) for m in range(1, 6) for n in range(1, 6) for d in range(1, m + 1)),
    (4, 6, 2),
)


@functools.cache
def census(m, n, d):
    """The classes of (m, n, d) graphs, each as its least sorted tuple of
    column masks."""
    columns = [sum(1 << r for r in rows) for rows in combinations(range(m), d)]
    # Each row permutation as a map from a column to its image.
    images = [{c: sum(1 << p[r] for r in bit_indices(c)) for c in columns}
              for p in permutations(range(m))]
    return {min(tuple(sorted(map(image.__getitem__, multiset))) for image in images)
            for multiset in combinations_with_replacement(columns, n)}


def ordered_subsets(columns):
    """Every nonempty subset of the columns, by size and then lex within a
    size, as (positions, |N(S)|, |odd(S)|)."""
    out = []
    for size in range(1, len(columns) + 1):
        for combo in combinations(range(len(columns)), size):
            union = odd = 0
            for j in combo:
                union |= columns[j]
                odd ^= columns[j]
            out.append((combo, union.bit_count(), odd.bit_count()))
    return out


def first_codeword(subsets, lo=1):
    """The first subset of size lo or more in ``ordered_subsets`` order
    whose columns XOR to zero, with its 1-based position among the subsets
    of size lo or more; (None, the count of all of those) if there is none."""
    subsets = [s for s in subsets if len(s[0]) >= lo]
    for position, (combo, _, odd) in enumerate(subsets, 1):
        if odd == 0:
            return combo, position
    return None, len(subsets)


def first_below(subsets, cap, bound):
    """The first subset of size at most ``cap`` with ``bound(s, union, odd)``
    true, with the count of subsets up to and including it; (None, the
    count of all subsets up to the cap) if there is none."""
    subsets = [s for s in subsets if len(s[0]) <= cap]
    for position, (combo, union, odd) in enumerate(subsets, 1):
        if bound(len(combo), union, odd):
            return (combo, union, odd), position
    return None, len(subsets)


def census_classes():
    """Every class of every shape in SHAPES, as (label, graph, subsets)."""
    for m, n, d in SHAPES:
        for columns in sorted(census(m, n, d)):
            graph = BipartiteGraph(m, n, [bit_indices(c) for c in columns])
            yield (m, n, d, columns), graph, ordered_subsets(columns)


def test_census_class_counts():
    pinned = {(4, 4, 2): 11, (5, 5, 2): 35, (4, 6, 2): 32, (5, 5, 3): 35}
    assert {shape: len(census(*shape)) for shape in pinned} == pinned
    assert sum(len(census(*shape)) for shape in SHAPES if shape[1] <= 5) == 301


def test_census_searches_match_brute_force():
    for label, graph, subsets in census_classes():
        matrix = graph.biadjacency()
        combo, position = first_codeword(subsets)
        witness = None if combo is None else RightSubset.of(graph.n, combo)
        subset = min_distance_subset(graph)
        kernel = min_distance_kernel(matrix)
        assert (subset.witness, subset.examined) == (witness, position), label
        assert kernel.witness == witness, label
        if witness is not None:
            assert verify_distance_result(matrix, subset), label
            assert verify_distance_result(matrix, kernel), label


def test_census_expansion_matches_brute_force():
    # The profile against the exact minima, and at every gamma = c/n the
    # expansion check at the profile's best alpha (which must verify) and
    # at alpha = 1 against the first subset that expands less.
    for label, graph, subsets in census_classes():
        n, d = graph.n, graph.d
        minima = tuple(min(union for combo, union, _ in subsets if len(combo) == s)
                       for s in range(1, n + 1))
        profile = expansion_profile(graph, n)
        assert profile == ExpansionProfile(n, d, minima), label
        for c in range(1, n + 1):
            gamma = Fraction(c, n)
            best = profile.best_alpha(gamma)
            for alpha in (best, 1):
                hit, _ = first_below(subsets, c, lambda s, union, odd: union < d * alpha * s)
                violation = None if hit is None else RightSubset.of(n, hit[0])
                assert check_expansion(graph, gamma, alpha).violation == violation, (
                    label, gamma, alpha)
                assert (hit is None) == (alpha <= best), (label, gamma, alpha)


def test_census_bounds_sweep_matches_brute_force():
    # The uncertified sandwich sweep at epsilon = 1/3, against the first
    # subset whose odd neighborhood is below d(1 - 2 epsilon)|S|.
    epsilon = Fraction(1, 3)
    for label, graph, subsets in census_classes():
        n, d = graph.n, graph.d
        lower = d * (1 - 2 * epsilon)
        for c in range(1, n + 1):
            gamma = Fraction(c, n)
            hit, checked = first_below(subsets, c, lambda s, union, odd: odd < lower * s)
            violation = None
            if hit is not None:
                combo, union, odd = hit
                violation = (RightSubset.of(n, combo), lower * len(combo), odd, union)
            expected = BoundsSweep(gamma, epsilon, c, checked, violation)
            assert find_bounds_violation(graph, gamma, epsilon) == expected, (label, gamma)


def test_census_bounds_sweep_alone_proves_the_distance_bound():
    # distance_lower_bound's proof uses expansion only through the sweep's
    # lower bound |odd(T)| >= d(1 - 2 eps)|T| for 1 <= |T| <= c, so a sweep
    # that passes bounds the distance by 2(1 - eps)c, also on graphs that
    # fail expansion at alpha = 1 - eps, where no certificate exists.
    passes = unexpanding = 0
    for label, graph, subsets in census_classes():
        n = graph.n
        combo, _ = first_codeword(subsets)
        for c in range(1, n + 1):
            gamma = Fraction(c, n)
            for epsilon in (Fraction(1, 8), Fraction(1, 5), Fraction(1, 4), Fraction(1, 3),
                            Fraction(2, 5)):
                if find_bounds_violation(graph, gamma, epsilon).violation is not None:
                    continue
                passes += 1
                assert combo is None or len(combo) >= 2 * (1 - epsilon) * c, (
                    label, gamma, epsilon)
                unexpanding += not check_expansion(graph, gamma, 1 - epsilon).verified
    assert (passes, unexpanding) == (1945, 12)


def test_census_pruned_search_matches_brute_force():
    # At every gamma = c/n whose best alpha admits epsilon = 1 - alpha in
    # (0, 1/2), the pruned search finds the brute-force witness, counts
    # ``examined`` from its start level, and its threshold is at most the
    # distance.
    pruned = 0
    for label, graph, subsets in census_classes():
        n = graph.n
        profile = expansion_profile(graph, n)
        for c in range(1, n + 1):
            gamma = Fraction(c, n)
            alpha = profile.best_alpha(gamma)
            if not Fraction(1, 2) < alpha < 1:
                continue
            pruned += 1
            threshold = 2 * alpha * c
            combo, position = first_codeword(subsets, max(1, math.ceil(threshold)))
            witness = None if combo is None else RightSubset.of(n, combo)
            result = min_distance_pruned(graph, PruningParams.certify(graph, gamma, 1 - alpha))
            assert (result.witness, result.examined, result.threshold) == (
                witness, position, threshold), (label, gamma)
            # The levels below the start hold no codeword.
            assert combo == first_codeword(subsets)[0], (label, gamma)
            assert combo is None or threshold <= len(combo), (label, gamma)
    assert pruned > 0


def test_census_partition_counters_match_brute_force():
    # Every nonempty subset is checked; the empty-odd ones are the nonzero
    # codewords, and one of size s has 2^(s - 1) - 1 bipartitions.
    for label, graph, subsets in census_classes():
        sizes = [len(combo) for combo, _, odd in subsets if odd == 0]
        expected = PartitionSweep(len(subsets), len(sizes),
                                  sum((1 << (s - 1)) - 1 for s in sizes))
        assert find_partition_violation(graph) == expected, label

"""Every small right-regular graph, up to relabelling, against brute force.

A graph with m left and n right vertices, right-regular of degree d, is a
multiset of n columns, each a d-subset of the m rows written as a bitmask;
repeated columns are allowed. Sorting the multiset removes right
relabelling, and keeping its least image over the m! row permutations
removes left relabelling, so each class appears once.
"""

import functools
from itertools import combinations, combinations_with_replacement, permutations

from expandercodes import (
    BipartiteGraph,
    RightSubset,
    min_distance_kernel,
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


def first_codeword(columns):
    """The first nonempty subset whose columns XOR to zero, by size and then
    lex within a size, with its 1-based position in that order; (None, the
    count of all nonempty subsets) if there is none."""
    position = 0
    for size in range(1, len(columns) + 1):
        for combo in combinations(range(len(columns)), size):
            position += 1
            acc = 0
            for j in combo:
                acc ^= columns[j]
            if acc == 0:
                return combo, position
    return None, position


def test_census_class_counts():
    pinned = {(4, 4, 2): 11, (5, 5, 2): 35, (4, 6, 2): 32, (5, 5, 3): 35}
    assert {shape: len(census(*shape)) for shape in pinned} == pinned
    assert sum(len(census(*shape)) for shape in SHAPES if shape[1] <= 5) == 301


def test_census_searches_match_brute_force():
    for m, n, d in SHAPES:
        for columns in sorted(census(m, n, d)):
            graph = BipartiteGraph(m, n, [bit_indices(c) for c in columns])
            matrix = graph.biadjacency()
            combo, position = first_codeword(columns)
            witness = None if combo is None else RightSubset.of(n, combo)
            subset = min_distance_subset(graph)
            kernel = min_distance_kernel(matrix)
            label = (m, n, d, columns)
            assert (subset.witness, subset.examined) == (witness, position), label
            assert kernel.witness == witness, label
            if witness is not None:
                assert verify_distance_result(matrix, subset), label
                assert verify_distance_result(matrix, kernel), label

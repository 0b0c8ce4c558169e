"""GF(2) core: column XOR, rank, null space, minimal dependence."""

import sys
import tracemalloc
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expandercodes import (
    BipartiteGraph,
    GenSpec,
    Gf2Matrix,
    RightSubset,
    figure1,
    is_minimal_dependent,
    nullspace_basis,
    random_right_regular,
    rank,
    xor_columns,
)

B_DEMO = figure1().biadjacency()


def brute_force_zero_subsets(matrix):
    """Oracle: every nonempty column subset whose XOR is zero, by full
    enumeration (independent of the elimination code)."""
    found = []
    for k in range(1, matrix.cols + 1):
        for combo in combinations(range(matrix.cols), k):
            acc = 0
            for j in combo:
                acc ^= matrix.columns[j]
            if acc == 0:
                found.append(combo)
    return found


def brute_force_rank(matrix):
    """Oracle: rank = cols - log2(#zero-XOR subsets including the empty one).
    The zero-XOR subsets form the kernel, a subspace, so the count is a
    power of two."""
    kernel_size = 1 + len(brute_force_zero_subsets(matrix))
    assert kernel_size & (kernel_size - 1) == 0
    return matrix.cols - kernel_size.bit_length() + 1


def test_demo_matrix_layout():
    # column j has bit i set iff entry (i, j) is 1
    assert (B_DEMO.rows, B_DEMO.cols) == (5, 4)
    assert B_DEMO.columns == (0b00011, 0b11000, 0b00110, 0b00101)


def test_columns_may_be_any_iterable():
    # Read once, as BipartiteGraph reads its adjacency lists: an iterator or
    # a generator gives the same matrix as a tuple, and the count is checked
    # on what was read.
    expected = Gf2Matrix(2, 2, (1, 2))
    assert Gf2Matrix(2, 2, iter([1, 2])) == expected
    assert Gf2Matrix(2, 2, (1 << j for j in range(2))) == expected
    assert Gf2Matrix(2, 2, [1, 2]).columns == (1, 2)
    with pytest.raises(ValueError, match="^expected 2 columns, got 3$"):
        Gf2Matrix(2, 2, iter([1, 2, 3]))
    with pytest.raises(ValueError, match="^expected 2 columns, got 1$"):
        Gf2Matrix(2, 2, iter(["x"]))
    with pytest.raises(TypeError, match="^column 0 must be an int, not str$"):
        Gf2Matrix(2, 2, iter(["x", 9]))
    with pytest.raises(TypeError, match="^columns must be an iterable of ints, not int$"):
        Gf2Matrix(2, 2, 5)


def test_xor_columns_zero_witness():
    assert xor_columns(B_DEMO, RightSubset.of(4, (0, 2, 3))) == 0
    assert xor_columns(B_DEMO, RightSubset.of(4, (0, 1, 2))) == 0b11101


def test_xor_columns_empty_and_singleton():
    assert xor_columns(B_DEMO, RightSubset(4, 0)) == 0
    for j in range(4):
        got = xor_columns(B_DEMO, RightSubset.of(4, (j,)))
        assert got == B_DEMO.columns[j]


def test_xor_columns_universe_mismatch():
    with pytest.raises(IndexError):
        xor_columns(B_DEMO, RightSubset.of(5, (0,)))


def test_rank_demo_matches_brute_force():
    # only {0,2,3} XORs to zero, so the kernel is 1-dimensional
    assert brute_force_zero_subsets(B_DEMO) == [(0, 2, 3)]
    assert brute_force_rank(B_DEMO) == 3
    assert rank(B_DEMO) == 3


def test_rank_trivial_cases():
    assert rank(Gf2Matrix(3, 5, (0,) * 5)) == 0
    assert rank(Gf2Matrix(6, 6, tuple(1 << i for i in range(6)))) == 6


def test_nullspace_demo_exact():
    basis = nullspace_basis(B_DEMO)
    assert len(basis) == 1
    assert basis[0] == RightSubset.of(4, (0, 2, 3))  # (1, 0, 1, 1)


def test_nullspace_zero_matrix_is_standard_basis():
    basis = nullspace_basis(Gf2Matrix(2, 4, (0,) * 4))
    assert basis == [RightSubset.of(4, (j,)) for j in range(4)]


def test_nullspace_full_column_rank_empty():
    assert nullspace_basis(Gf2Matrix(4, 4, (1, 2, 4, 8))) == []


def test_nullspace_deterministic():
    a = nullspace_basis(B_DEMO)
    b = nullspace_basis(Gf2Matrix(5, 4, B_DEMO.columns))
    assert a == b


@st.composite
def matrices(draw, max_rows=6, max_cols=6):
    m = draw(st.integers(1, max_rows))
    n = draw(st.integers(1, max_cols))
    cols = draw(st.lists(st.integers(0, (1 << m) - 1), min_size=n, max_size=n))
    return Gf2Matrix(m, n, tuple(cols))


@given(matrices(), st.data())
def test_xor_is_symmetric_difference_homomorphism(matrix, data):
    n = matrix.cols
    s = RightSubset(n, data.draw(st.integers(0, (1 << n) - 1)))
    t = RightSubset(n, data.draw(st.integers(0, (1 << n) - 1)))
    s_xor_t = RightSubset(n, s.bits ^ t.bits)
    assert xor_columns(matrix, s_xor_t) == xor_columns(matrix, s) ^ xor_columns(matrix, t)


@given(matrices())
def test_rank_nullity_and_kernel_membership(matrix):
    basis = nullspace_basis(matrix)
    assert rank(matrix) + len(basis) == matrix.cols
    for vec in basis:
        assert vec.n == matrix.cols
        assert xor_columns(matrix, vec) == 0
    # basis vectors are linearly independent: stacking them as columns
    # (over the n "rows") must give full rank
    if basis:
        stacked = Gf2Matrix(matrix.cols, len(basis), tuple(v.bits for v in basis))
        assert rank(stacked) == len(basis)


def assert_systematic_on_free_columns(matrix):
    """What the kernel method's level cut relies on: each basis vector's
    bits on the free columns are exactly its own free column, so a sum of
    r basis vectors has r free bits and weight >= r."""
    # Column j is free when it lies in the span of the columns before it.
    free = [
        j for j in range(matrix.cols)
        if rank(Gf2Matrix(matrix.rows, j + 1, matrix.columns[: j + 1]))
        == rank(Gf2Matrix(matrix.rows, j, matrix.columns[:j]))
    ]
    free_mask = sum(1 << j for j in free)
    basis = nullspace_basis(matrix)
    assert len(basis) == len(free)
    for vec, j in zip(basis, free):
        assert vec.bits & free_mask == 1 << j
    vectors = [v.bits for v in basis]
    for r in range(1, min(len(vectors), 6) + 1):
        for combo in combinations(vectors, r):
            acc = 0
            for v in combo:
                acc ^= v
            assert (acc & free_mask).bit_count() == r <= acc.bit_count()


def test_nullspace_systematic_seeded():
    for seed in range(20):
        spec = GenSpec(m=3 + seed % 6, n=4 + seed % 9, d=2 + seed % 2, seed=seed)
        assert_systematic_on_free_columns(random_right_regular(spec).biadjacency())


@given(matrices(max_rows=4, max_cols=8))
def test_nullspace_systematic(matrix):
    assert_systematic_on_free_columns(matrix)


def test_elimination_builds_no_column_copies():
    # Two right vertices on the last of 10^8 left vertices: two equal
    # 12.5 MB columns. Finding a pivot row builds no int of a column's size;
    # reducing the second column to zero is one XOR, whose result is
    # column-sized until it shrinks to 0. Beside an empty column nothing is
    # XORed, so nothing column-sized is built at all.
    m = 10**8
    for second, kernel, copies in (((m - 1,), 0b11, 1.5), ((), 0b10, 0)):
        matrix = BipartiteGraph(m, 2, ((m - 1,), second)).biadjacency()
        tracemalloc.start()
        try:
            assert rank(matrix) == 1
            assert nullspace_basis(matrix) == [RightSubset(2, kernel)]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < copies * sys.getsizeof(matrix.columns[0]) + (1 << 20)


def test_elimination_tests_no_row_of_a_wide_column():
    # A 12.5 MB column whose top row holds no pivot becomes a pivot as it
    # is: testing a lower pivot's row in it would shift a copy of it.
    matrix = Gf2Matrix(10**8, 2, (1, 1 << (10**8 - 1)))
    tracemalloc.start()
    try:
        assert rank(matrix) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@settings(max_examples=60)
@given(matrices(max_rows=5, max_cols=5))
def test_rank_matches_brute_force(matrix):
    assert rank(matrix) == brute_force_rank(matrix)


def test_minimal_dependent_demo():
    assert is_minimal_dependent(B_DEMO, RightSubset.of(4, (0, 2, 3))) is True
    assert is_minimal_dependent(B_DEMO, RightSubset.of(4, (0,))) is False


def test_minimal_dependent_duplicate_columns():
    m = Gf2Matrix(3, 3, (0b011, 0b011, 0b100))
    assert is_minimal_dependent(m, RightSubset.of(3, (0, 1))) is True
    # a superset of a dependent pair is dependent but not minimal
    assert is_minimal_dependent(m, RightSubset.of(3, (0, 1, 2))) is False


def test_minimal_dependent_zero_column_is_minimal():
    m = Gf2Matrix(2, 2, (0, 0b11))
    assert is_minimal_dependent(m, RightSubset.of(2, (0,))) is True


def test_minimal_dependent_errors():
    with pytest.raises(ValueError):
        is_minimal_dependent(B_DEMO, RightSubset(4, 0))


def test_minimal_dependent_wide_subset():
    # 30 zero columns: each one alone is a proper zero-sum subset
    zeros = Gf2Matrix(1, 30, (0,) * 30)
    assert is_minimal_dependent(zeros, RightSubset(30, (1 << 30) - 1)) is False


def brute_force_minimal(matrix, subset):
    """Oracle: zero-sum and no proper nonempty subset is zero-sum, by
    enumerating every proper subset."""
    picked = [matrix.columns[j] for j in subset.indices]

    def zero_sum(combo):
        acc = 0
        for c in combo:
            acc ^= c
        return acc == 0

    return zero_sum(picked) and not any(
        zero_sum(combo)
        for k in range(1, len(picked))
        for combo in combinations(picked, k)
    )


@settings(max_examples=300)
@given(matrices(max_rows=5, max_cols=8), st.data())
def test_minimal_dependent_matches_brute_force(matrix, data):
    bits = data.draw(st.integers(1, (1 << matrix.cols) - 1))
    subset = RightSubset(matrix.cols, bits)
    assert is_minimal_dependent(matrix, subset) == brute_force_minimal(matrix, subset)


def test_zero_xor_subset_contains_minimal_subset():
    # shrink oracle: repeatedly replace a dependent set by a dependent
    # proper subset until none exists, then confirm minimality
    matrix = Gf2Matrix(3, 5, (0b001, 0b001, 0b010, 0b011, 0b110))
    for combo in brute_force_zero_subsets(matrix):
        current = set(combo)
        shrunk = True
        while shrunk:
            shrunk = False
            for k in range(1, len(current)):
                for sub in combinations(sorted(current), k):
                    acc = 0
                    for j in sub:
                        acc ^= matrix.columns[j]
                    if acc == 0:
                        current = set(sub)
                        shrunk = True
                        break
                if shrunk:
                    break
        assert is_minimal_dependent(matrix, RightSubset.of(5, current))

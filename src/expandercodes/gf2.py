"""Bit-packed linear algebra over GF(2).

A column is a Python int used as a bitset (bit i <-> row i), so adding two
columns mod 2 is one arbitrary-precision XOR. A vector indexed by the
columns, such as a codeword, is a ``RightSubset``: the set of columns it
selects. Rank, null space and dependence checks all reduce to XOR-ing
selected columns: the elimination brings each column to echelon form by
its highest set row, and ``xor_columns`` sums a subset's columns with
``subsets._xor``, the helper the odd neighborhood uses too.

The module is algebra only: the matrix text format is read and written by
``instances``, straight into and out of a ``BipartiteGraph``.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from .subsets import RightSubset, _Value, _int_field, _setattr, _xor


class Gf2Matrix(_Value):
    """Column-major bit-packed 0/1 matrix; ``columns[j]`` has bit i set iff
    entry (i, j) is 1. The columns, any iterable of them, are read once
    into a tuple the matrix owns; the first one that ``operator.index``
    refuses or that has a bit at row ``rows`` or above raises."""

    def __init__(self, rows: int, cols: int, columns: Iterable[int]):
        if not type(rows) is type(cols) is int:
            rows, cols = map(_int_field, ("rows", "cols"), (rows, cols))
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be >= 0")
        try:
            columns = iter(columns)
        except TypeError:
            raise TypeError(
                f"columns must be an iterable of ints, not {type(columns).__name__}"
            ) from None
        columns = tuple(columns)
        if len(columns) != cols:
            raise ValueError(f"expected {cols} columns, got {len(columns)}")
        checked = []
        for j, col in enumerate(columns):
            if type(col) is not int:
                col = _int_field(f"column {j}", col)
            if col < 0 or col >> rows:
                raise ValueError(f"column {j} has bits outside [0, {rows})")
            checked.append(col)
        _setattr(self, "rows", rows)
        _setattr(self, "cols", cols)
        _setattr(self, "columns", tuple(checked))


def xor_columns(matrix: Gf2Matrix, subset: RightSubset) -> int:
    """Mod-2 sum of the columns selected by ``subset``, packed like a
    column (bit i <-> row i); 0 for the empty set, and 0 exactly when
    ``subset`` is a codeword."""
    if subset.n != matrix.cols:
        raise IndexError(
            f"subset universe size {subset.n} does not match column count {matrix.cols}"
        )
    return _xor(matrix.columns, subset.indices)


def _column_eliminate(columns: Sequence[int]):
    """Reduce each column, in order, to echelon form by its highest set row:
    while that row holds a pivot, XOR the pivot's column in, which clears
    the row and sets none above it. ``bit_length`` finds the row without
    building a column-sized int, and no pivot is reduced again afterwards.

    Returns (pivot count, kernel combinations). Each kernel entry is an int
    over column indices recording a combination of original columns that
    sums to zero; entries appear in ascending order of their free column.
    A free column's entry holds that column and the unique combination of
    earlier pivot columns equal to it, so the entries, like the rank,
    depend only on the spans of earlier columns.
    """
    pivots: dict[int, tuple[int, int]] = {}  # row -> (reduced column, combination)
    kernel: list[int] = []
    for j, cur in enumerate(columns):
        keep = 1 << j
        while cur:
            row = cur.bit_length() - 1
            pivot = pivots.get(row)
            if pivot is None:
                pivots[row] = cur, keep
                break
            cur ^= pivot[0]
            keep ^= pivot[1]
        else:
            kernel.append(keep)
    return len(pivots), kernel


def rank(matrix: Gf2Matrix) -> int:
    """Rank over GF(2); 0 <= rank <= min(rows, cols)."""
    count, _ = _column_eliminate(matrix.columns)
    return count


def nullspace_basis(matrix: Gf2Matrix) -> list[RightSubset]:
    """Basis of {v : M v = 0 over GF(2)}, each vector a ``RightSubset``
    over the matrix's ``cols`` columns: the set of code bits of one
    codeword.

    Deterministic for a given matrix: one basis vector per free column (one
    in the span of the columns before it), in ascending column order.
    """
    _, kernel = _column_eliminate(matrix.columns)
    return [RightSubset(matrix.cols, bits) for bits in kernel]


def is_minimal_dependent(matrix: Gf2Matrix, subset: RightSubset) -> bool:
    """True iff the selected columns sum to zero and no proper nonempty
    subset of them does.

    Exact rank test: when the columns of S sum to zero, their kernel
    contains the all-ones combination, and it holds no other nonzero
    combination (no proper zero-sum subset) exactly when it is
    one-dimensional, i.e. rank(S) = |S| - 1.
    """
    t = len(subset)
    if t == 0:
        raise ValueError("minimal-dependence check requires a nonempty subset")
    if xor_columns(matrix, subset) != 0:
        return False
    count, _ = _column_eliminate([matrix.columns[j] for j in subset.indices])
    return count == t - 1

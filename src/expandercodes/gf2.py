"""Bit-packed linear algebra over GF(2).

A column is a Python int used as a bitset (bit i <-> row i), so adding two
columns mod 2 is one arbitrary-precision XOR. That single operation is the
kernel everything else here is built on: rank, null space, and dependence
checks all reduce to XOR-ing selected columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import ParseError
from .subsets import RightSubset, bit_indices


@dataclass(frozen=True)
class BitVector:
    """Fixed-length vector over GF(2) packed into one int (bit i <-> entry i)."""

    length: int
    bits: int

    def __post_init__(self):
        if self.length < 0:
            raise ValueError(f"length must be >= 0, got {self.length}")
        if self.bits < 0 or self.bits >> self.length:
            raise ValueError("bits set beyond the stated length")

    @classmethod
    def zeros(cls, length: int) -> "BitVector":
        return cls(length, 0)

    @classmethod
    def from_indices(cls, length: int, indices: Iterable[int]) -> "BitVector":
        bits = 0
        for i in indices:
            if not 0 <= i < length:
                raise IndexError(f"index {i} out of range [0, {length})")
            bits |= 1 << i
        return cls(length, bits)

    def __getitem__(self, i: int) -> int:
        if not 0 <= i < self.length:
            raise IndexError(f"index {i} out of range [0, {self.length})")
        return (self.bits >> i) & 1

    def __xor__(self, other: "BitVector") -> "BitVector":
        if self.length != other.length:
            raise ValueError("XOR needs vectors of equal length")
        return BitVector(self.length, self.bits ^ other.bits)

    @property
    def is_zero(self) -> bool:
        return self.bits == 0

    def weight(self) -> int:
        return self.bits.bit_count()

    def support(self) -> tuple[int, ...]:
        return bit_indices(self.bits)


@dataclass(frozen=True)
class Gf2Matrix:
    """Column-major bit-packed 0/1 matrix; ``columns[j]`` has bit i set iff
    entry (i, j) is 1."""

    rows: int
    cols: int
    columns: tuple[int, ...]

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("matrix dimensions must be >= 0")
        if len(self.columns) != self.cols:
            raise ValueError(
                f"expected {self.cols} columns, got {len(self.columns)}"
            )
        for j, col in enumerate(self.columns):
            if col < 0 or col >> self.rows:
                raise ValueError(f"column {j} has bits outside [0, {self.rows})")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]], cols: int | None = None) -> "Gf2Matrix":
        m = len(rows)
        if cols is None:
            if m == 0:
                raise ValueError("cols must be given explicitly for a 0-row matrix")
            cols = len(rows[0])
        columns = [0] * cols
        for i, row in enumerate(rows):
            if len(row) != cols:
                raise ValueError(f"row {i} has {len(row)} entries, expected {cols}")
            for j, e in enumerate(row):
                if e not in (0, 1):
                    raise ValueError(f"entry ({i}, {j}) must be 0 or 1, got {e!r}")
                if e:
                    columns[j] |= 1 << i
        return cls(m, cols, tuple(columns))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Gf2Matrix":
        return cls(rows, cols, (0,) * cols)

    @classmethod
    def identity(cls, k: int) -> "Gf2Matrix":
        return cls(k, k, tuple(1 << i for i in range(k)))

    @classmethod
    def from_text(cls, text: str) -> "Gf2Matrix":
        """Parse the matrix text format: a "rows cols" header line followed
        by ``rows`` lines of ``cols`` space-separated 0/1 entries."""
        header: tuple[int, int] | None = None
        rows: list[list[int]] = []
        for lineno, raw in enumerate(text.splitlines(), 1):
            line = raw.strip()
            if not line:
                continue
            parts = line.split()
            if header is None:
                if len(parts) != 2:
                    raise ParseError(f"line {lineno}: expected header 'rows cols'")
                try:
                    m, n = int(parts[0]), int(parts[1])
                except ValueError:
                    raise ParseError(f"line {lineno}: expected header 'rows cols'") from None
                if m < 0 or n < 0:
                    raise ParseError(f"line {lineno}: dimensions must be >= 0")
                header = (m, n)
                continue
            m, n = header
            if len(rows) == m:
                raise ParseError(f"line {lineno}: unexpected extra row (expected {m})")
            if len(parts) != n:
                raise ParseError(f"line {lineno}: expected {n} entries, got {len(parts)}")
            for t in parts:
                if t not in ("0", "1"):
                    raise ParseError(f"line {lineno}: matrix entries must be 0 or 1, got {t!r}")
            rows.append([int(t) for t in parts])
        if header is None:
            raise ParseError("empty input: missing 'rows cols' header")
        if len(rows) != header[0]:
            raise ParseError(f"expected {header[0]} matrix rows, got {len(rows)}")
        return cls.from_rows(rows, cols=header[1])

    def to_text(self) -> str:
        lines = [f"{self.rows} {self.cols}"]
        for i in range(self.rows):
            lines.append(" ".join(str((self.columns[j] >> i) & 1) for j in range(self.cols)))
        return "\n".join(lines) + "\n"

    def column(self, j: int) -> BitVector:
        if not 0 <= j < self.cols:
            raise IndexError(f"column index {j} out of range [0, {self.cols})")
        return BitVector(self.rows, self.columns[j])

    def entry(self, i: int, j: int) -> int:
        if not 0 <= i < self.rows:
            raise IndexError(f"row index {i} out of range [0, {self.rows})")
        return self.column(j)[i]

    def to_rows(self) -> list[list[int]]:
        return [
            [(self.columns[j] >> i) & 1 for j in range(self.cols)]
            for i in range(self.rows)
        ]


def xor_columns(matrix: Gf2Matrix, subset: RightSubset) -> BitVector:
    """Mod-2 sum of the columns selected by ``subset``; zero for the empty set."""
    if subset.n != matrix.cols:
        raise IndexError(
            f"subset universe size {subset.n} does not match column count {matrix.cols}"
        )
    acc = 0
    for j in subset.indices:
        acc ^= matrix.columns[j]
    return BitVector(matrix.rows, acc)


def _column_eliminate(columns: Sequence[int]):
    """Gauss-Jordan sweep over columns with lowest-index row pivoting.

    Returns (pivot count, kernel combinations). Each kernel entry is an int
    over column indices recording a combination of original columns that
    sums to zero; entries appear in ascending order of their free column.
    """
    pivots: list[list[int]] = []  # [pivot_row, reduced_column, combination]
    kernel: list[int] = []
    for j, original in enumerate(columns):
        cur = original
        keep = 1 << j
        for p in pivots:
            if (cur >> p[0]) & 1:
                cur ^= p[1]
                keep ^= p[2]
        if cur == 0:
            kernel.append(keep)
            continue
        row = (cur & -cur).bit_length() - 1
        for p in pivots:
            if (p[1] >> row) & 1:
                p[1] ^= cur
                p[2] ^= keep
        pivots.append([row, cur, keep])
    return len(pivots), kernel


def rank(matrix: Gf2Matrix) -> int:
    """Rank over GF(2); 0 <= rank <= min(rows, cols)."""
    count, _ = _column_eliminate(matrix.columns)
    return count


def nullspace_basis(matrix: Gf2Matrix) -> list[BitVector]:
    """Basis of {v : M v = 0 over GF(2)} as length-``cols`` vectors.

    Deterministic for a given matrix: the elimination pivots on the lowest
    available row index and emits one basis vector per free column, in
    ascending column order.
    """
    _, kernel = _column_eliminate(matrix.columns)
    return [BitVector(matrix.cols, bits) for bits in kernel]


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
    if xor_columns(matrix, subset).bits != 0:
        return False
    count, _ = _column_eliminate([matrix.columns[j] for j in subset.indices])
    return count == t - 1

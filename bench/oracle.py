"""Reference answers computed by the benchmark itself, never by the package
under test: GF(2) elimination, codeword enumeration and lex ranks.

The benchmark uses these to select its corpus and to check the outputs of
the CLI jobs, so a change to the package cannot change what the benchmark
expects of it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations
from typing import Sequence


def parse_edge_list(text: str) -> tuple[int, int, list[int]]:
    """(m, n, columns) of an edge-list file as the serializer writes it;
    column j is a bitmask over the left neighbours of right vertex j."""
    lines = text.split("\n")
    m, n = map(int, lines[0].split())
    cols = [0] * n
    for line in lines[1:]:
        if line:
            left, right = map(int, line.split())
            cols[right] |= 1 << left
    return m, n, cols


def kernel_basis(cols: Sequence[int]) -> list[int]:
    """A basis of the code (combinations of columns summing to zero)."""
    pivots: list[tuple[int, int, int]] = []
    basis = []
    for j, col in enumerate(cols):
        combo = 1 << j
        for row, pivot_col, pivot_combo in pivots:
            if (col >> row) & 1:
                col ^= pivot_col
                combo ^= pivot_combo
        if col == 0:
            basis.append(combo)
        else:
            pivots.append(((col & -col).bit_length() - 1, col, combo))
    return basis


def codewords(basis: list[int]) -> list[int]:
    """Every nonzero codeword spanned by ``basis``, by a Gray-code walk."""
    out = []
    acc = 0
    for i in range(1, 1 << len(basis)):
        acc ^= basis[(i & -i).bit_length() - 1]
        out.append(acc)
    return out


def support(bits: int) -> tuple[int, ...]:
    return tuple(i for i in range(bits.bit_length()) if (bits >> i) & 1)


def lex_rank(combo, n: int) -> int:
    """0-based position of a sorted k-combination of [0, n) in lex order."""
    k = len(combo)
    rank = 0
    prev = -1
    for i, c in enumerate(combo):
        for j in range(prev + 1, c):
            rank += math.comb(n - 1 - j, k - 1 - i)
        prev = c
    return rank


def subsets_below(n: int, lo: int, hi: int) -> int:
    """Number of subsets of [0, n) with size in [lo, hi)."""
    return sum(math.comb(n, s) for s in range(max(lo, 0), min(hi, n + 1)))


def min_codeword(words: list[int]) -> tuple[int, ...]:
    """Support of the lex-first minimum-weight codeword."""
    weight = min(w.bit_count() for w in words)
    return min(support(w) for w in words if w.bit_count() == weight)


def examined(n: int, witness: tuple[int, ...], start: int = 1) -> int:
    """The subset search's ``examined`` counter for a witness found by
    scanning sizes from ``start`` upwards."""
    return subsets_below(n, start, len(witness)) + lex_rank(witness, n) + 1


def min_pair_union(cols: Sequence[int]) -> int:
    """Smallest neighbourhood of two distinct right vertices."""
    return min((a | b).bit_count() for a, b in combinations(cols, 2))


def best_alpha_two(d: int, cols: Sequence[int]) -> Fraction:
    """The profile's best alpha when gamma*n caps subset sizes at 2."""
    return min(Fraction(1), Fraction(min_pair_union(cols), 2 * d))


def pruned_start(gamma: Fraction, epsilon: Fraction, n: int) -> int:
    """First size the pruned search scans: ceil(2*(1-eps)*gamma*n)."""
    return max(1, math.ceil(2 * (1 - epsilon) * gamma * n))

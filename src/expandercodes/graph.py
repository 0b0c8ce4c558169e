"""Bipartite graphs, the odd-neighborhood operator, and exhaustive
verification of the vertex-expansion property.

A graph has parts L (size m, "left") and R (size n, "right"); every edge
joins a left vertex to a right vertex. The right side indexes code bits:
the biadjacency matrix doubles as a parity-check matrix, and the odd
neighborhood of a right subset S is exactly the support of the mod-2 sum
of the matrix columns indexed by S.

All thresholds are exact rationals (``fractions.Fraction``); floats are
rejected so equality cases like |N(S)| = 8/3 never hinge on rounding.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from fractions import Fraction
from operator import index

from .gf2 import Gf2Matrix, nullspace_basis
from .subsets import (
    DEFAULT_SUBSET_BUDGET,
    RightSubset,
    _Value,
    _int_field,
    _setattr,
    bit_indices,
    charge,
    count_sizes,
    first_hit_by_level,
    level_min_union,
    scan_union_below,
    _unions_below,
    _xor,
)


def exact_rational(value, name: str) -> Fraction:
    """Coerce a positive parameter (gamma, alpha, epsilon) to Fraction,
    rejecting floats outright and values <= 0."""
    if isinstance(value, float):
        raise TypeError(f"{name} must be an exact rational (int or Fraction), not float")
    if not isinstance(value, (int, Fraction)):
        raise TypeError(f"{name} must be an exact rational (int or Fraction)")
    if value <= 0:
        raise ValueError(f"{name} must be > 0, got {value}")
    return value if type(value) is Fraction else Fraction(value)


def exact_epsilon(value) -> Fraction:
    """Coerce epsilon to Fraction and require the paper's slack range,
    below 1/2 as well as positive."""
    epsilon = exact_rational(value, "epsilon")
    if 2 * epsilon.numerator >= epsilon.denominator:
        raise ValueError(f"epsilon must satisfy 0 < epsilon < 1/2, got {epsilon}")
    return epsilon


def size_cap(gamma, n: int) -> int:
    """Largest subset size the expansion hypothesis constrains on n right
    vertices: min(n, floor(gamma*n)) for gamma > 0 and an int n >= 0."""
    gamma = exact_rational(gamma, "gamma")
    n = _int_field("n", n)
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    return min(n, gamma.numerator * n // gamma.denominator)


def _expansion_degree(d: int | None) -> int:
    """The right-degree d in |N(S)| >= d*alpha*|S|; refuse an irregular
    graph, and d = 0, where every ratio to d*|S| divides by zero."""
    if d is None or d < 1:
        raise ValueError("expansion checking requires a right-regular graph with d >= 1")
    return d


class BipartiteGraph(_Value):
    """Immutable bipartite graph stored as sorted neighbor tuples per right
    vertex; its biadjacency columns are packed from them once, on first use.

    ``d`` is the uniform right-degree when every right vertex has the same
    number of neighbors, else None; it is derived, so it is neither a
    constructor parameter nor compared.
    """

    _biadjacency: Gf2Matrix | None = None  # stored by the first biadjacency() call

    def __init__(self, m: int, n: int, right_adj: Iterable[Iterable[int]]):
        if not type(m) is type(n) is int:
            m, n = map(_int_field, ("m", "n"), (m, n))
        if m < 0 or n < 0:
            raise ValueError("vertex counts must be >= 0")
        lists = list(right_adj)
        if len(lists) != n:
            raise ValueError(f"expected {n} right adjacency lists, got {len(lists)}")
        adj = []
        for j, neigh in enumerate(lists):
            neigh = list(neigh)
            try:
                neigh.sort()
            except TypeError:  # sort() compared an int with, say, a str
                neigh = sorted(map(index, neigh))  # index() names the entry
            while True:
                last = -1  # sorted, so valid indices climb strictly from 0 to below m
                for i in neigh:
                    if type(i) is not int or not last < i < m:
                        break
                    last = i
                else:
                    break
                if type(i) is not int:  # index(): a bool becomes an int, a float fails
                    neigh = sorted(map(index, neigh))
                    continue
                if len(set(neigh)) != len(neigh):
                    raise ValueError(f"right vertex {j} has a duplicate edge")
                # No repeat, so the loop stopped at the smallest index out of range.
                raise ValueError(f"right vertex {j}: left index {i} out of range [0, {m})")
            adj.append(tuple(neigh))
        adj = tuple(adj)
        degrees = set(map(len, adj))
        _setattr(self, "m", m)
        _setattr(self, "n", n)
        _setattr(self, "right_adj", adj)
        _setattr(self, "d", degrees.pop() if len(degrees) == 1 else None)

    @classmethod
    def from_edges(cls, m: int, n: int, edges: Iterable[tuple[int, int]]) -> "BipartiteGraph":
        n = _int_field("n", n)
        adj: list[list[int]] = [[] for _ in range(n)]
        for left, right in edges:
            if not 0 <= right < n:
                raise ValueError(f"right index {right} out of range [0, {n})")
            adj[right].append(left)
        return cls(m, n, adj)

    def neighbor_set(self, subset: RightSubset) -> frozenset[int]:
        """N(S): union of the neighborhoods of the vertices in S."""
        self._check_subset(subset)
        return frozenset(i for j in subset.indices for i in self.right_adj[j])

    def odd_neighborhood(self, subset: RightSubset) -> frozenset[int]:
        """Left vertices with an odd number of neighbors in S.

        Equals the support of the mod-2 column sum of the biadjacency
        matrix over S, so it is empty exactly when the indicator vector of
        S is a codeword.
        """
        self._check_subset(subset)
        return frozenset(bit_indices(_xor(self.biadjacency().columns, subset.indices)))

    def biadjacency(self) -> Gf2Matrix:
        """m x n matrix with entry (i, j) = 1 iff left i is adjacent to right j,
        packed and checked on the first call and stored for every later one."""
        matrix = self._biadjacency
        if matrix is not None:
            return matrix
        columns = []
        for neigh in self.right_adj:
            mask = 0
            for i in neigh:  # not 0 | (1 << i), a second m-bit int
                mask = mask | 1 << i if mask else 1 << i
            columns.append(mask)
        matrix = Gf2Matrix(self.m, self.n, columns)
        _setattr(self, "_biadjacency", matrix)
        return matrix

    def _check_subset(self, subset: RightSubset) -> None:
        if subset.n != self.n:
            raise IndexError(
                f"subset universe size {subset.n} does not match right side {self.n}"
            )


def _violation_sentence(rec: dict) -> str:
    """A certificate record's ``"violation"`` as one sentence, naming the
    subset by indices and by labels (see ``RightSubset.to_record``)."""
    return (
        f"subset {' '.join(map(str, rec['indices']))} "
        f"(labels {' '.join(map(str, rec['labels']))}) has {rec['neighbors']} "
        f"neighbors, needs at least {rec['required']}"
    )


class ExpanderCertificate(_Value):
    """Outcome of exhaustively checking the expansion inequality on one graph.

    ``violation`` is the first subset in (cardinality, lex) enumeration
    order with |N(S)| < d*alpha*|S|, or None when no nonempty subset of
    size <= size_cap(gamma, n) has one; the certificate is then verified.
    """

    def __init__(
        self,
        graph: BipartiteGraph,
        gamma: Fraction,
        alpha: Fraction,
        violation: RightSubset | None,
    ):
        _setattr(self, "graph", graph)
        _setattr(self, "gamma", gamma)
        _setattr(self, "alpha", alpha)
        _setattr(self, "violation", violation)

    @property
    def verified(self) -> bool:
        return self.violation is None

    def to_record(self) -> dict:
        g, v = self.graph, self.violation
        return {
            "m": g.m,
            "n": g.n,
            "d": g.d,
            "gamma": str(self.gamma),
            "alpha": str(self.alpha),
            "verified": self.verified,
            "violation": None if v is None else {
                **v.to_record(g.m),
                "neighbors": len(g.neighbor_set(v)),
                "required": str(g.d * self.alpha * len(v)),
            },
        }

    def describe(self) -> str:
        """The counterexample as one sentence (``_violation_sentence``);
        ValueError when the certificate is verified and has none."""
        rec = self.to_record()["violation"]
        if rec is None:
            raise ValueError("a verified certificate has no counterexample")
        return _violation_sentence(rec)

    def require(self, gamma: Fraction, epsilon: Fraction, graph: BipartiteGraph) -> None:
        """Refuse with ValueError unless this certificate is verified for
        ``graph``, gamma and alpha = 1 - epsilon."""
        if not self.verified:
            raise ValueError("expected a verified expansion certificate")
        if self.graph != graph:
            raise ValueError("the certificate was issued for a different graph")
        if self.gamma != gamma:
            raise ValueError(f"certificate gamma {self.gamma} does not match {gamma}")
        if self.alpha != 1 - epsilon:
            raise ValueError(
                f"certificate alpha {self.alpha} does not match 1 - epsilon = {1 - epsilon}"
            )


class ExpansionProfile(_Value):
    """Exact min |N(S)| per subset size, for sizes 1..s_max:
    ``min_neighbors[s - 1]`` is the minimum over the s-subsets."""

    def __init__(self, n: int, d: int | None, min_neighbors: tuple[int, ...]):
        _setattr(self, "n", n)
        _setattr(self, "d", d)
        _setattr(self, "min_neighbors", tuple(min_neighbors))

    @property
    def s_max(self) -> int:
        return len(self.min_neighbors)

    def best_alpha(self, gamma) -> Fraction | None:
        """Largest alpha for which the graph expands at this gamma, i.e.
        min over sizes s <= size_cap(gamma, n) of min_neighbors(s) / (d*s).

        None when the cap is 0 (nothing to constrain).
        """
        d = _expansion_degree(self.d)
        cap = size_cap(gamma, self.n)
        if cap < 1:
            return None
        if cap > self.s_max:
            raise ValueError(
                f"profile covers sizes up to {self.s_max}, need {cap} for this gamma"
            )
        return min(Fraction(self.min_neighbors[s - 1], d * s) for s in range(1, cap + 1))

    def to_record(self) -> dict:
        return {
            "n": self.n,
            "d": self.d,
            "min_neighbors": list(self.min_neighbors),
        }


def check_expansion(
    graph: BipartiteGraph,
    gamma,
    alpha,
    budget: int = DEFAULT_SUBSET_BUDGET,
) -> ExpanderCertificate:
    """Exhaustively certify |N(S)| >= d*alpha*|S| for all nonempty S with
    |S| <= size_cap(gamma, n).

    Comparisons are exact rational; the reported counterexample (if any) is
    the first in (cardinality, lex) order.
    """
    gamma = exact_rational(gamma, "gamma")
    alpha = exact_rational(alpha, "alpha")
    d, n = _expansion_degree(graph.d), graph.n
    cap = size_cap(gamma, n)
    # ceil(d*alpha*k) in integers: d*alpha = p/q.
    p, q = d * alpha.numerator, alpha.denominator

    def scan(k):
        return scan_union_below(graph.biadjacency().columns, range(n), k, -(-p * k // q))

    hit, _ = first_hit_by_level(scan, n, 1, cap, budget)
    violation = None if hit is None else RightSubset.of(n, hit)
    return ExpanderCertificate(graph, gamma, alpha, violation)


def expansion_profile(
    graph: BipartiteGraph,
    s_max: int,
    budget: int = DEFAULT_SUBSET_BUDGET,
) -> ExpansionProfile:
    """Exact min |N(S)| for every subset size 1..s_max (full enumeration)."""
    s_max = _int_field("s_max", s_max)
    if s_max < 0 or s_max > graph.n:
        raise ValueError(f"s_max must be in [0, {graph.n}], got {s_max}")
    # Every level is walked, so the whole range is charged up front.
    charge(graph.n, 1, s_max, budget)
    masks = graph.biadjacency().columns
    mins = tuple(level_min_union(masks, graph.n, k) for k in range(1, s_max + 1))
    return ExpansionProfile(graph.n, graph.d, mins)


def odd_neighborhood_bounds(graph: BipartiteGraph, subset: RightSubset, epsilon):
    """The sandwich (d*(1-2*eps)*|S|, |odd neighborhood of S|, |N(S)|).

    On a graph certified to expand with alpha = 1 - eps and |S| <= gamma*n,
    the three values are nondecreasing left to right.
    """
    epsilon = exact_rational(epsilon, "epsilon")
    if graph.d is None:
        raise ValueError("bounds require a right-regular graph")
    if len(subset) == 0:
        raise ValueError("bounds require a nonempty subset")
    graph._check_subset(subset)
    lower = graph.d * (1 - 2 * epsilon) * len(subset)
    odd = _xor(graph.biadjacency().columns, subset.indices).bit_count()
    nbhd = len(graph.neighbor_set(subset))
    return lower, odd, nbhd


class BoundsSweep(_Value):
    """The sandwich inequality over all nonempty subsets up to
    size_cap(gamma, n). ``subsets_checked`` counts the subsets it was
    established for, walked or not: all of them when it holds, otherwise
    those up to and including ``violation``, the first failure."""

    def __init__(
        self,
        gamma: Fraction,
        epsilon: Fraction,
        size_cap: int,
        subsets_checked: int,
        violation: tuple[RightSubset, Fraction, int, int] | None,
    ):
        _setattr(self, "gamma", gamma)
        _setattr(self, "epsilon", epsilon)
        _setattr(self, "size_cap", size_cap)
        _setattr(self, "subsets_checked", subsets_checked)
        _setattr(self, "violation", None if violation is None else tuple(violation))

    def to_record(self, m: int) -> dict:
        rec = {
            "gamma": str(self.gamma),
            "epsilon": str(self.epsilon),
            "size_cap": self.size_cap,
            "subsets_checked": self.subsets_checked,
            "violation": None,
        }
        if self.violation is not None:
            subset, lower, odd, nbhd = self.violation
            rec["violation"] = {
                **subset.to_record(m),
                "lower": str(lower),
                "odd_neighborhood": odd,
                "neighborhood": nbhd,
            }
        return rec


def find_bounds_violation(
    graph: BipartiteGraph,
    gamma,
    epsilon,
    budget: int = DEFAULT_SUBSET_BUDGET,
    *,
    certificate: ExpanderCertificate | None = None,
) -> BoundsSweep:
    """Find the first nonempty S with |S| <= size_cap(gamma, n), in
    (cardinality, lex) order, that fails d*(1-2*eps)*|S| <= |odd(S)| <= |N(S)|.

    odd(S) lies in N(S), so only the lower bound is tested. A left vertex
    of N(S) that is not a unique neighbor takes two or more of the d|S|
    edges, so |odd(S)| >= 2|N(S)| - d|S| (Sipser-Spielman, "Expander
    codes", 1996), and only an S with |N(S)| < d(1-eps)|S| can fail: each
    level walks just those, by the union walk of ``check_expansion``.

    ``certificate``, when given, must be verified for this graph, gamma and
    alpha = 1 - epsilon (ValueError otherwise); then no S is that small, and
    the sweep's result (no violation, all subsets to the cap) needs no walk.
    """
    gamma = exact_rational(gamma, "gamma")
    epsilon = exact_epsilon(epsilon)
    n, d = graph.n, _expansion_degree(graph.d)
    cap = size_cap(gamma, n)
    if certificate is not None:
        certificate.require(gamma, epsilon, graph)
        return BoundsSweep(gamma, epsilon, cap, count_sizes(n, 1, cap), None)

    masks = graph.biadjacency().columns

    def scan(k):
        # For an integer count c, c < x exactly when c < ceil(x).
        lower = math.ceil(d * (1 - 2 * epsilon) * k)
        below = math.ceil(d * (1 - epsilon) * k)

        def visit(combo, count):
            return 0 if _xor(masks, combo).bit_count() < lower else below

        bound, combo = _unions_below(masks, k, below, visit)
        return None if bound else tuple(combo)

    hit, checked = first_hit_by_level(scan, n, 1, cap, budget)
    if hit is None:
        return BoundsSweep(gamma, epsilon, cap, checked, None)
    subset = RightSubset.of(n, hit)
    violation = (subset, *odd_neighborhood_bounds(graph, subset, epsilon))
    return BoundsSweep(gamma, epsilon, cap, checked, violation)


class PartitionSweep(_Value):
    """Counts behind the partition property: splitting any S with empty odd
    neighborhood into nonempty halves A and B gives odd(A) = odd(B).

    The property holds on every graph, so there is no violation to carry;
    ``to_record`` still reports ``"violation": null``.
    """

    def __init__(self, subsets_checked: int, empty_odd_found: int, partitions_checked: int):
        _setattr(self, "subsets_checked", subsets_checked)
        _setattr(self, "empty_odd_found", empty_odd_found)
        _setattr(self, "partitions_checked", partitions_checked)

    def to_record(self) -> dict:
        return {
            "subsets_checked": self.subsets_checked,
            "empty_odd_found": self.empty_odd_found,
            "partitions_checked": self.partitions_checked,
            "violation": None,
        }


def find_partition_violation(
    graph: BipartiteGraph,
    budget: int = DEFAULT_SUBSET_BUDGET,
) -> PartitionSweep:
    """Count the subsets S with empty odd neighborhood and their
    bipartitions S = A disjoint-union B into nonempty parts.

    The odd neighborhood is linear over GF(2), so odd(A) xor odd(B) =
    odd(S) = 0 and every bipartition has odd(A) = odd(B); no bipartition
    needs checking. The empty-odd subsets are the supports of the nonzero
    codewords, walked once from a null-space basis in Gray-code order; a
    codeword of weight w has 2^(w-1) - 1 bipartitions. Every other nonempty
    subset has a nonempty odd neighborhood, so ``subsets_checked`` is all
    2^n - 1 of them. The 2^k - 1 codewords of a dimension-k code are the
    nonempty subsets of its basis, and are charged as such.
    """
    basis = [v.bits for v in nullspace_basis(graph.biadjacency())]
    k = len(basis)
    charge(k, 1, k, budget)
    codewords = (1 << k) - 1
    partitions = 0
    acc = 0
    for i in range(1, codewords + 1):
        # Gray codes i - 1 and i differ in the lowest set bit of i.
        acc ^= basis[(i & -i).bit_length() - 1]
        partitions += (1 << (acc.bit_count() - 1)) - 1
    return PartitionSweep((1 << graph.n) - 1, codewords, partitions)

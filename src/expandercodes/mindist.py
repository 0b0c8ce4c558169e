"""Exact minimum distance of the code whose parity-check matrix is a
graph's biadjacency matrix, by three mutually validating methods.

* kernel: walk sums of r null-space basis vectors for r = 1, 2, ... and
  take the minimum Hamming weight, stopping once r exceeds the lightest
  weight found (the basis is systematic, so such a sum weighs at least r).
* subset: enumerate right subsets by increasing cardinality and return the
  first whose odd neighborhood is empty (its indicator vector is then a
  minimum-weight codeword). A level is scanned only if two of its
  half-size subsets share a column XOR (``subsets.XorZeroLevels``), since
  a zero-sum set splits into two such halves.
* pruned: the subset search restricted to sizes at or above the certified
  expansion bound 2*(1-eps)*size_cap(gamma, n), which is sound only under
  a verified expansion certificate and is therefore refused without one.

The trivial code {0} has no nonzero codeword; its distance is reported as
the dedicated INFINITE marker, which deliberately does not support order
comparison with ints.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .gf2 import Gf2Matrix, nullspace_basis, rank, xor_columns
from .graph import (
    BipartiteGraph,
    ExpanderCertificate,
    check_expansion,
    exact_epsilon,
    size_cap,
)
from .subsets import (
    DEFAULT_SUBSET_BUDGET,
    RightSubset,
    XorZeroLevels,
    _Value,
    _setattr,
    charge,
    count_sizes,
    first_hit_by_level,
)


class _InfiniteDistance:
    """Marker for the distance of the trivial code {0}.

    Equality with itself only; ordering against ints raises TypeError so an
    infinite distance can never silently win or lose a comparison.
    """

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "INFINITE"


INFINITE = _InfiniteDistance()


class MinDistanceResult(_Value):
    """A witness subset whose odd neighborhood is empty, or None for the
    trivial code; ``distance`` is its size, INFINITE without one.

    ``examined`` is, for the kernel method, the 2^k - 1 nonzero codewords
    decided, walked or bounded out; for the subset searches, the subsets in
    enumeration order up to and including the witness. ``threshold`` is the
    certified size bound for the pruned method, else None.
    """

    def __init__(
        self,
        witness: RightSubset | None,
        method: str,
        examined: int,
        threshold: Fraction | None = None,
    ):
        _setattr(self, "witness", witness)
        _setattr(self, "method", method)
        _setattr(self, "examined", examined)
        _setattr(self, "threshold", threshold)

    @property
    def distance(self) -> int | _InfiniteDistance:
        return INFINITE if self.witness is None else len(self.witness)

    @property
    def is_infinite(self) -> bool:
        return self.distance is INFINITE

    def to_record(self, left_count: int) -> dict:
        return {
            "method": self.method,
            "distance": "infinite" if self.is_infinite else self.distance,
            "witness": None if self.witness is None else self.witness.to_record(left_count),
            "examined": self.examined,
            "threshold": None if self.threshold is None else str(self.threshold),
        }


class PruningParams(_Value):
    """Certified input for the pruned search: an expansion certificate,
    whose gamma and alpha = 1 - epsilon the search reads.

    ``min_distance_pruned`` refuses, before it walks any subset, a
    certificate that is unverified, issued for another graph, or at an
    alpha that ``exact_epsilon`` does not admit as 1 - epsilon, so the
    pruned search never runs on an unproven expansion claim.
    """

    def __init__(self, certificate: ExpanderCertificate):
        _setattr(self, "certificate", certificate)

    @property
    def gamma(self) -> Fraction:
        return self.certificate.gamma

    @property
    def epsilon(self) -> Fraction:
        return 1 - self.certificate.alpha

    @classmethod
    def certify(
        cls,
        graph: BipartiteGraph,
        gamma,
        epsilon,
        budget: int = DEFAULT_SUBSET_BUDGET,
    ) -> "PruningParams":
        """Run the expansion check for (gamma, 1 - epsilon) and wrap it;
        refuse with the first counterexample if the graph does not expand."""
        epsilon = exact_epsilon(epsilon)
        cert = check_expansion(graph, gamma, 1 - epsilon, budget=budget)
        if not cert.verified:
            raise ValueError(
                f"graph is not a (gamma={cert.gamma}, alpha={cert.alpha}) expander: "
                + cert.describe()
            )
        return cls(cert)


def _search_by_size(graph, start_size, method, threshold, budget):
    n = graph.n
    matrix = graph.biadjacency()
    if graph.m >= n and rank(matrix) == n:
        # n independent columns (possible only when m >= n): no nonempty
        # subset sums to zero, and the walk would end with every subset
        # from start_size up examined.
        return MinDistanceResult(None, method, count_sizes(n, start_size, n), threshold)
    scan = XorZeroLevels(matrix.columns)
    hit, examined = first_hit_by_level(scan, n, start_size, n, budget)
    witness = None if hit is None else RightSubset.of(n, hit)
    return MinDistanceResult(witness, method, examined, threshold)


def min_distance_subset(
    graph: BipartiteGraph,
    budget: int = DEFAULT_SUBSET_BUDGET,
) -> MinDistanceResult:
    """Smallest nonempty right subset with empty odd neighborhood.

    Enumerates by increasing cardinality, lexicographically within one
    cardinality, and stops at the first hit; the witness is therefore the
    lexicographically smallest among all minimum-size witnesses. INFINITE
    when the biadjacency matrix has full column rank, which its rank
    settles with no walk.

    A level k below the distance is ruled out without a scan: it could
    hold a witness only if two disjoint subsets of sizes floor(k/2) and
    ceil(k/2) had equal column XOR. Conversely, while every smaller level
    is empty, two distinct such subsets with equal XOR differ in a witness
    of size k. So only the witness level is scanned, wherever
    C(n, ceil(k/2)) <= C(n, k); the XORs of the half-size subsets are the
    memory this takes, and ``examined`` still counts every subset up to
    the witness.
    """
    return _search_by_size(graph, 1, "subset", None, budget)


def min_distance_kernel(
    matrix: Gf2Matrix,
    budget: int = DEFAULT_SUBSET_BUDGET,
) -> MinDistanceResult:
    """Minimum Hamming weight over all 2^k - 1 nonzero codewords, from a
    null-space basis of the parity-check matrix.

    Codewords are walked as sums of r basis vectors for r = 1, 2, ...,
    and the walk stops before level r once r exceeds the lightest weight
    found. That cut is exact: the basis is systematic on its free columns
    (each vector holds its own free column and otherwise only pivot
    columns), so a sum of r basis vectors has weight >= r and every
    minimum-weight codeword lies on a level that is walked in full.
    ``examined`` is 2^k - 1, the codewords decided, walked or bounded out.

    Level r is charged C(k, <= r) sums against ``budget`` just before it is
    walked, after the stop test, so the budget is the only limit on k and a
    level the cut skips costs nothing.

    The witness is the lexicographically smallest support among the
    minimum-weight codewords, matching the subset search tie-break.
    """
    basis = nullspace_basis(matrix)
    k = len(basis)
    if k == 0:
        return MinDistanceResult(None, "kernel", 0)
    vectors = [b.bits for b in basis]
    best_weight = math.inf
    best_bits = 0

    def walk(start: int, acc: int, depth: int):
        # Every sum of ``depth`` more vectors from ``start`` on; each costs
        # one XOR from its prefix sum ``acc``.
        nonlocal best_weight, best_bits
        if depth > 1:
            for j in range(start, k - depth + 1):
                walk(j + 1, acc ^ vectors[j], depth - 1)
            return
        for v in vectors[start:]:
            word = acc ^ v
            weight = word.bit_count()
            if weight > best_weight:
                continue
            # Of two supports of one size, the lex-smaller one holds the
            # lowest element of their symmetric difference.
            diff = word ^ best_bits
            if weight < best_weight or diff & -diff & word:
                best_weight = weight
                best_bits = word

    try:
        for r in range(1, k + 1):
            if r > best_weight:
                break
            charge(k, 1, r, budget)
            walk(0, 0, r)
    finally:
        del walk  # the closure refers to itself
    return MinDistanceResult(RightSubset(matrix.cols, best_bits), "kernel", (1 << k) - 1)


def min_distance_pruned(
    graph: BipartiteGraph,
    params: PruningParams,
    budget: int = DEFAULT_SUBSET_BUDGET,
) -> MinDistanceResult:
    """Subset search restricted to sizes >= the certified expansion bound
    2*(1-eps)*size_cap(gamma, n) (``distance_lower_bound``).

    The certified bound says no smaller witness exists, so the result
    equals the unpruned search while skipping every smaller cardinality.
    Sizes exactly equal to an integer bound are still searched: the bound
    is attainable (the bundled 5x4 demo graph attains it at its tight
    alpha), so a strictly-greater cut would miss such witnesses.
    """
    params.certificate.require(params.gamma, params.epsilon, graph)
    threshold = distance_lower_bound(params.gamma, params.epsilon, graph.n)
    start = max(1, math.ceil(threshold))
    return _search_by_size(graph, start, "pruned", threshold, budget)


def distance_lower_bound(gamma, epsilon, n: int) -> Fraction:
    """The certified-expansion distance bound 2*(1-eps)*size_cap(gamma, n),
    exactly: the paper's 2*(1-eps)*gamma*n wherever gamma*n is an integer <= n.

    Proof on a graph certified at gamma and alpha = 1 - eps, with c that
    cap. Let S be a nonzero codeword. Every nonempty T with |T| <= c has at
    least 2|N(T)| - d|T| >= d(1-2*eps)|T| > 0 unique neighbors, so odd(T)
    is nonempty and |S| > c. Now take T inside S with |T| = c. Each unique
    neighbor of T has an even number of neighbors in S, so it also has one
    in S minus T. Those edges are distinct, so d(|S| - c) >= d(1-2*eps)c,
    that is, |S| >= 2(1-eps)c. Every vertex of odd(T), odd in T and even in
    S, also has a neighbor in S minus T, so the proof needs only |odd(T)|
    >= d(1-2*eps)|T| for 1 <= |T| <= c, which an uncertified
    ``find_bounds_violation`` that finds no violation also proves.
    """
    cap = size_cap(gamma, n)
    return 2 * (1 - exact_epsilon(epsilon)) * cap


def verify_distance_result(
    matrix: Gf2Matrix,
    result: MinDistanceResult,
    budget: int = DEFAULT_SUBSET_BUDGET,
) -> bool:
    """Independently validate a finite distance result against the matrix.

    True iff the witness columns sum to zero and no nonempty subset of
    fewer than ``result.distance`` columns does (equivalently: any
    distance-1 columns are linearly independent).
    """
    if result.is_infinite:
        raise ValueError("verification requires a finite distance result")
    d = result.distance
    witness = result.witness
    if witness.n != matrix.cols:
        return False
    if xor_columns(matrix, witness) != 0:
        return False
    hit, _ = first_hit_by_level(XorZeroLevels(matrix.columns), matrix.cols, 1, d - 1, budget)
    return hit is None

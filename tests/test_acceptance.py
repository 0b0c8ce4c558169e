"""Acceptance suite: one test per criterion, each printing a PASS line.

The corpus is seeded through the package's own documented PRNG, so every
run (any platform) sees the same 500 graphs.
"""

import json
import math
import time
from fractions import Fraction

import pytest

from expandercodes import (
    INFINITE,
    GenSpec,
    RightSubset,
    SplitMix64,
    check_expansion,
    distance_lower_bound,
    expansion_profile,
    figure1,
    find_bounds_violation,
    find_partition_violation,
    min_distance_kernel,
    min_distance_pruned,
    min_distance_subset,
    random_right_regular,
    PruningParams,
)

CORPUS_SEED = 0xACCE57
CORPUS_SIZE = 500


@pytest.fixture(scope="module")
def corpus():
    rng = SplitMix64(CORPUS_SEED)
    graphs = []
    for _ in range(CORPUS_SIZE):
        d = 2 + rng.below(3)  # {2, 3, 4}
        m = d + rng.below(15 - d)  # [d, 14]
        n = 1 + rng.below(14)  # [1, 14]
        graphs.append(random_right_regular(GenSpec(m, n, d, rng.next_u64())))
    return graphs


def certified_cases(graph):
    """(gamma, epsilon, params) choices with gamma*n in {1, 3/2, 2} for
    which the graph certifiably expands with 0 < epsilon < 1/2. At
    gamma*n = 3/2 the hypothesis constrains sizes up to 1 only (with
    gamma = 3/2 > 1 when n = 1)."""
    cases = []
    for target in (Fraction(1), Fraction(3, 2), Fraction(2)):
        cap = math.floor(target)
        if cap > graph.n:
            continue
        gamma = target / graph.n
        profile = expansion_profile(graph, cap)
        best = profile.best_alpha(gamma)
        if best <= Fraction(1, 2):
            continue
        if best < 1:
            epsilon = 1 - best
        else:
            # the tight slack would be 0, outside the required open interval;
            # certify the weaker (still true) alpha = 3/4 instead
            epsilon = Fraction(1, 4)
        cases.append((gamma, epsilon, PruningParams.certify(graph, gamma, epsilon)))
    return cases


def test_golden_instance():
    started = time.perf_counter()
    g = figure1()
    # column j has bit i set iff left i is adjacent to right j
    assert g.biadjacency().columns == (0b00011, 0b11000, 0b00110, 0b00101)
    assert g.odd_neighborhood(RightSubset.of(4, (0, 1, 2))) == {0, 2, 3, 4}
    assert g.odd_neighborhood(RightSubset.of(4, (0, 2, 3))) == frozenset()
    witness = RightSubset.of(4, (0, 2, 3))  # labels {6, 8, 9}
    by_kernel = min_distance_kernel(g.biadjacency())
    by_subset = min_distance_subset(g)
    params = PruningParams.certify(g, Fraction(1, 2), Fraction(1, 3))
    by_pruned = min_distance_pruned(g, params)
    for result in (by_kernel, by_subset, by_pruned):
        assert result.distance == 3
        assert result.witness == witness
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    print(f"PASS golden-instance: distance 3, witness labels {{6,8,9}} "
          f"by kernel/subset/pruned in {elapsed:.3f}s")


def test_expansion_certification():
    started = time.perf_counter()
    g = figure1()
    cert = check_expansion(g, Fraction(1, 2), Fraction(2, 3))
    assert cert.verified
    profile = expansion_profile(g, 2)
    assert profile.min_neighbors == (2, 3)
    best = profile.best_alpha(Fraction(1, 2))
    assert best == Fraction(3, 4)
    assert best >= Fraction(2, 3)
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    print(f"PASS expansion-certification: verified at (1/2, 2/3), "
          f"min_neighbors (2, 3), best alpha 3/4 in {elapsed:.3f}s")


def test_lower_bound_reproduction():
    bound = distance_lower_bound(Fraction(1, 2), Fraction(1, 3), 4)
    assert bound == Fraction(8, 3)
    assert bound <= min_distance_subset(figure1()).distance
    print("PASS lower-bound: 2(1-1/3)(1/2)(4) = 8/3 <= 3")


def test_kernel_subset_agreement_sweep(corpus):
    started = time.perf_counter()
    finite = infinite = 0
    for graph in corpus:
        by_kernel = min_distance_kernel(graph.biadjacency())
        by_subset = min_distance_subset(graph)
        assert by_kernel.distance == by_subset.distance
        assert by_kernel.witness == by_subset.witness
        if by_subset.distance is INFINITE:
            infinite += 1
        else:
            finite += 1
    elapsed = time.perf_counter() - started
    assert finite + infinite == CORPUS_SIZE >= 500
    assert elapsed < 300.0
    print(f"PASS kernel-subset-agreement: {finite} finite + {infinite} trivial "
          f"codes agree on {CORPUS_SIZE} graphs in {elapsed:.1f}s")


def test_pruning_soundness_sweep(corpus):
    ran = half_integer = 0
    for graph in corpus:
        unpruned = None
        for gamma, epsilon, params in certified_cases(graph):
            if unpruned is None:
                unpruned = min_distance_subset(graph)
            pruned = min_distance_pruned(graph, params)
            bound = distance_lower_bound(gamma, epsilon, graph.n)
            assert pruned.threshold == bound
            assert pruned.distance == unpruned.distance
            assert pruned.witness == unpruned.witness
            if pruned.distance is not INFINITE:
                assert pruned.distance >= bound
            assert pruned.examined <= unpruned.examined
            ran += 1
            half_integer += (gamma * graph.n).denominator == 2
    assert ran > 0
    assert half_integer > 0
    print(f"PASS pruning-soundness: {ran} certified (gamma, epsilon) cases "
          f"({half_integer} with gamma*n = 3/2), pruned == unpruned with "
          f"examined <= unpruned throughout")


def test_bound_and_partition_sweeps(corpus):
    bounds_cases = partition_cases = 0
    for graph in corpus:
        cases = certified_cases(graph)
        distance = min_distance_subset(graph).distance if cases else None
        for gamma, epsilon, _ in cases:
            sweep = find_bounds_violation(graph, gamma, epsilon)
            assert sweep.violation is None
            # slack below 1/2 forces a nonempty odd neighborhood at every
            # size within gamma*n, so no witness can fit in that range
            if distance is not INFINITE:
                assert distance > int(gamma * graph.n)
            bounds_cases += 1
        if cases and graph.n <= 12:
            # odd(A) = odd(B) holds by linearity; recount what the sweep
            # reports by enumerating all 2^n subsets in Gray-code order
            cols = graph.biadjacency().columns
            weights = []
            acc = gray = 0
            for i in range(1, 1 << graph.n):
                flip = (i & -i).bit_length() - 1
                acc ^= cols[flip]
                gray ^= 1 << flip
                if acc == 0:
                    weights.append(gray.bit_count())
            sweep = find_partition_violation(graph)
            assert sweep.to_record()["violation"] is None
            assert sweep.subsets_checked == (1 << graph.n) - 1
            assert sweep.empty_odd_found == len(weights)
            assert sweep.partitions_checked == sum((1 << (w - 1)) - 1 for w in weights)
            partition_cases += 1
    assert bounds_cases > 0 and partition_cases > 0
    print(f"PASS bound-and-partition-sweeps: {bounds_cases} bounds sweeps and "
          f"{partition_cases} partition sweeps, zero violations")


def test_structural_invariants(corpus):
    rng = SplitMix64(0x57A71C)
    pairs = 0
    per_graph = 20
    for graph in corpus:
        n = graph.n
        adj_sets = [set(a) for a in graph.right_adj]
        for _ in range(per_graph):
            subset = RightSubset(n, rng.below(1 << n))
            odd = graph.odd_neighborhood(subset)
            # definition-level recount, independent of the XOR path
            by_definition = {
                i
                for i in range(graph.m)
                if sum(1 for j in subset if i in adj_sets[j]) % 2 == 1
            }
            assert odd == by_definition
            v = rng.below(n)
            toggled = RightSubset(n, subset.bits ^ (1 << v))
            neighbors = graph.neighbor_set(RightSubset.of(n, [v]))
            assert graph.odd_neighborhood(toggled) == odd ^ neighbors
            assert len(odd) % 2 == (graph.d * len(subset)) % 2
            pairs += 1
    assert pairs == CORPUS_SIZE * per_graph >= 10_000
    print(f"PASS structural-invariants: {pairs} (graph, subset) pairs, "
          f"zero violations of support/toggle/parity identities")


def test_repeat_determinism(corpus):
    started = time.perf_counter()
    for graph in corpus:
        gamma = Fraction(min(2, graph.n), graph.n)
        runs = {
            json.dumps(
                [
                    min_distance_subset(graph).to_record(graph.m),
                    check_expansion(graph, gamma, Fraction(3, 4)).to_record(),
                ],
                sort_keys=True,
            )
            for _ in range(2)
        }
        assert len(runs) == 1
    elapsed = time.perf_counter() - started
    print(f"PASS determinism: repeated subset-search and expansion runs "
          f"byte-identical on {CORPUS_SIZE} graphs in {elapsed:.1f}s")

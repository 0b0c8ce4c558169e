"""Subset enumeration: the meet-in-the-middle XOR-zero scan and the
prefix-cut union walk against brute-force references, and the scan
signatures the benchmark binds."""

import inspect
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from expandercodes import subsets
from expandercodes.subsets import level_min_union, scan_union_below, scan_xor_zero


def brute_force_scan(cols, universe, k):
    """Oracle: the first k-combination of ``universe`` in lex order whose
    columns XOR to zero, by plain enumeration."""
    for combo in combinations(universe, k):
        acc = 0
        for v in combo:
            acc ^= cols[v]
        if acc == 0:
            return combo
    return None


@st.composite
def columns_and_universe(draw):
    # Narrow columns make zero columns, repeated columns and colliding
    # table keys common.
    width = draw(st.integers(1, 5))
    cols = draw(st.lists(st.integers(0, (1 << width) - 1), max_size=14))
    universe = draw(st.lists(st.sampled_from(range(len(cols))), unique=True)
                    if cols else st.just([]))
    return cols, sorted(universe)


@settings(max_examples=300, deadline=None)
@given(columns_and_universe())
@example(([0b011, 0b101, 0b000, 0b110, 0b011, 0b101], range(6)))
@example(([0b011, 0b101, 0b000, 0b110, 0b011, 0b101], [0, 1, 3, 5]))
@example(([0b1] * 12, range(12)))
def test_scan_xor_zero_matches_brute_force(case):
    cols, universe = case
    # At k <= 2 and at k >= u - 1 no table is smaller than the head walk,
    # so the split falls to t = 0 there; k = u + 1 has no combination.
    for k in range(len(universe) + 2):
        assert scan_xor_zero(cols, universe, k) == brute_force_scan(cols, universe, k)


def union_size(masks, combo):
    acc = 0
    for v in combo:
        acc |= masks[v]
    return acc.bit_count()


@st.composite
def masks_and_universe(draw):
    # Narrow masks make equal unions, and so ties for the minimum, common.
    width = draw(st.integers(1, 5))
    masks = draw(st.lists(st.integers(0, (1 << width) - 1), max_size=12))
    universe = draw(st.one_of(
        st.just(range(len(masks))),
        st.lists(st.sampled_from(range(len(masks))), unique=True).map(sorted)
        if masks else st.just([]),
    ))
    return masks, universe, width


@settings(max_examples=300, deadline=None)
@given(masks_and_universe())
# Disjoint neighborhoods: every k-union has k bits, so the minimum search
# never cuts a prefix.
@example(([1 << i for i in range(8)], range(8), 8))
@example(([0b011, 0b101, 0b000, 0b110, 0b011, 0b101], [0, 1, 3, 5], 3))
def test_union_scans_match_brute_force(case):
    masks, universe, width = case
    n = len(masks)
    for k in range(len(universe) + 2):
        combos = list(combinations(universe, k))
        for min_required in range(width + 2):
            expected = next(
                (c for c in combos if union_size(masks, c) < min_required), None
            )
            assert scan_union_below(masks, universe, k, min_required) == expected
    for k in range(n + 2):
        expected = (min(union_size(masks, c) for c in combinations(range(n), k))
                    if 1 <= k <= n else None)
        assert level_min_union(masks, n, k) == expected


# The benchmark's tracer binds these functions' arguments by name, so a
# rename would break every traced run.
@pytest.mark.parametrize("func, params", [
    (subsets.scan_xor_zero, ["cols", "universe", "k"]),
    (subsets.scan_union_below, ["masks", "universe", "k", "min_required"]),
    (subsets.level_min_union, ["masks", "n", "k"]),
    (subsets.find_first_at_level, ["scan", "n", "k"]),
])
def test_traced_parameter_names(func, params):
    assert list(inspect.signature(func).parameters) == params

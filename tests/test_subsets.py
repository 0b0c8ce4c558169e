"""Subset enumeration: the meet-in-the-middle XOR-zero scan against a
brute-force reference, and the scan signatures the benchmark binds."""

import inspect
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from expandercodes import subsets
from expandercodes.subsets import scan_xor_zero


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

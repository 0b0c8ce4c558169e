"""Subset enumeration: the range checks of ``RightSubset``, the
meet-in-the-middle XOR-zero scan and the prefix-cut union walk against
brute-force references, and the scan signatures and layer names the
benchmark binds."""

import gc
import importlib
import inspect
import math
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from expandercodes import CapabilityError, RightSubset, gf2, instances, mindist, subsets
from expandercodes.subsets import (
    XorZeroLevels,
    combination_rank,
    count_sizes,
    first_hit_by_level,
    level_min_union,
    scan_union_below,
    scan_xor_zero,
)


def test_right_subset_range_checks():
    with pytest.raises(ValueError, match="universe size must be >= 0, got -1"):
        RightSubset(-1, 0)
    with pytest.raises(ValueError):
        RightSubset(3, 0b1000)
    with pytest.raises(ValueError):
        RightSubset(3, -1)
    with pytest.raises(IndexError):
        RightSubset.of(3, (3,))
    with pytest.raises(IndexError):
        RightSubset.of(3, (-1,))
    v = RightSubset(3, 0b101)
    assert v == RightSubset.of(3, (2, 0))
    assert v.indices == (0, 2) and list(v) == [0, 2]
    assert len(v) == 2


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
# At k = 5 the split is t = 2. Head (0, 1, 4) sums to 0, the XOR of the
# tails (4, 5), (4, 6) and (5, 6); only (5, 6) starts after the head's
# last position 4, so the pick must skip (4, 5) to find (0, 1, 4, 5, 6).
@example(([1, 2, 4, 8, 3, 3, 3, 16, 32, 64], range(10)))
# At k = 5 each head (0, 1, j), 4 <= j <= 7, finds its XOR under the one
# tail (3, j), which starts before j: no tail fits, and the level is empty.
@example(([1, 2, 4, 3, 8, 16, 32, 64, 128, 256], range(10)))
def test_scan_xor_zero_matches_brute_force(case):
    cols, universe = case
    # At k <= 2 and at k >= u - 1 no table is smaller than the head walk,
    # so the split falls to t = 0 there; k = u + 1 has no combination.
    for k in range(len(universe) + 2):
        assert scan_xor_zero(cols, universe, k) == brute_force_scan(cols, universe, k)


def test_interrupted_scan_leaves_no_reference_cycle():
    # The head walk is a closure that calls itself. A Ctrl-C inside it
    # must still drop that reference, or the cycle waits for the collector.
    class Interrupt(int):
        def __rxor__(self, other):
            raise KeyboardInterrupt

    gc.collect()
    gc.disable()
    try:
        with pytest.raises(KeyboardInterrupt):
            scan_xor_zero([Interrupt(1), 2, 4, 8], range(4), 2)
        assert gc.collect() == 0
    finally:
        gc.enable()


@settings(max_examples=200, deadline=None)
@given(columns_and_universe())
# Index 0 is a zero column, and no larger set sums to zero, so a walk from
# lo >= 2 meets collisions on the odd levels that the exact scan rejects.
@example(([0, 1, 2, 4, 8, 16], range(6)))
@example(([0b011, 0b101, 0b000, 0b110, 0b011, 0b101], range(6)))
@example(([0b1] * 12, range(12)))
def test_xor_zero_levels_match_scan(case):
    # Every range of levels: the collision test may only skip scans, never
    # change a hit or its position.
    cols, _ = case
    n = len(cols)
    for lo in range(1, n + 1):
        for hi in range(lo, n + 1):
            expected = first_hit_by_level(
                lambda k: scan_xor_zero(cols, range(n), k), n, lo, hi, 1 << 20)
            assert first_hit_by_level(XorZeroLevels(cols), n, lo, hi, 1 << 20) == expected


def scanned_levels(monkeypatch):
    levels = []

    def spy(cols, universe, k):
        levels.append(k)
        return scan_xor_zero(cols, universe, k)

    monkeypatch.setattr(subsets, "scan_xor_zero", spy)
    return levels


def test_xor_zero_levels_scan_only_maybe_levels(monkeypatch):
    levels = scanned_levels(monkeypatch)
    # From level 1 the test is exact: only the witness level is scanned.
    cols = [1, 2, 4, 8, 3]  # columns 0, 1, 4 sum to zero
    assert first_hit_by_level(XorZeroLevels(cols), 5, 1, 5, 100) == ((0, 1, 4), 5 + 10 + 3)
    assert levels == [3]
    # Column 0 is zero and no larger set sums to zero. Walking levels 2..6,
    # a set with column 0 and one without it share an XOR on the odd levels
    # 3 and 5, so both are scanned and found empty; the even levels have no
    # two equal half-size XORs and are skipped. (Level 7 would be scanned
    # anyway: C(10, 4) > C(10, 7).)
    levels.clear()
    cols = [0] + [1 << i for i in range(9)]
    assert first_hit_by_level(XorZeroLevels(cols), 10, 2, 6, 1000) == (
        None, count_sizes(10, 2, 6))
    assert levels == [3, 5]


@pytest.mark.parametrize("cols, hit", [([1, 2, 1, 4], (0, 2)), ([1, 2, 4, 8], None)],
                         ids=["repeated-column", "independent"])
def test_xor_zero_levels_see_only_levels_in_range(monkeypatch, cols, hit):
    # find_first_at_level keeps every level in [1, n], so a walk from 0 to
    # n + 1 finds what a walk over 1..n finds (its count adds the empty
    # set) and scans the same levels: never 0, where a repeated column
    # passes the collision test, nor n + 1, which no test rules out.
    levels = scanned_levels(monkeypatch)
    n = len(cols)
    inner = first_hit_by_level(XorZeroLevels(cols), n, 1, n, 100)
    inner_levels = levels[:]
    levels.clear()
    found, examined = first_hit_by_level(XorZeroLevels(cols), n, 0, n + 1, 100)
    assert (found, examined - 1) == inner and found == hit
    assert levels == inner_levels


def test_combination_rank_is_lex_position():
    for n in range(9):
        for k in range(n + 1):
            for position, combo in enumerate(combinations(range(n), k)):
                assert combination_rank(combo, n) == position


def test_xor_zero_levels_guard(monkeypatch):
    # Levels 38..40 of 40: the half-size sums would number C(40, 20), far
    # more than the levels' 821 subsets, so no sums are built and each
    # level is scanned exactly.
    def grow(self):
        raise AssertionError("half-size sums built past the guard")

    monkeypatch.setattr(XorZeroLevels, "_grow", grow)
    cols = tuple(1 << i for i in range(40))
    assert first_hit_by_level(XorZeroLevels(cols), 40, 38, 40, 1 << 20) == (None, 821)


def test_xor_zero_levels_charge_first():
    # Level 5 is charged before its test: the refusal is charge's, and the
    # sums stop at size 2, the half size of level 4.
    cols = tuple(1 << i for i in range(12))
    scan = XorZeroLevels(cols)
    budget = count_sizes(12, 1, 4)
    with pytest.raises(CapabilityError, match=f"sizes 1..5 of 12 .* over the budget of {budget}"):
        first_hit_by_level(scan, 12, 1, 12, budget)
    assert scan.size == 2 and len(scan.top) == math.comb(12, 2)


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
    # A visitor that holds the bound fixed is called on every combination
    # below it, in lex order, and a walk that no visitor stops returns the
    # bound it was given.
    for k in range(1, n + 1):
        for bound in range(width + 2):
            expected = [(c, union_size(masks, c)) for c in combinations(range(n), k)
                        if union_size(masks, c) < bound]
            visits = []

            def visit(combo, count):
                visits.append((tuple(combo), count))
                return bound

            assert subsets._unions_below(masks, k, bound, visit)[0] == bound
            assert visits == expected


class ReadMasks(list):
    """Masks that log each index read, to show where a walk stopped."""

    def __init__(self, masks):
        super().__init__(masks)
        self.reads = []

    def __getitem__(self, i):
        self.reads.append(i)
        return super().__getitem__(i)


def test_union_walk_stops_at_once():
    # A visitor that returns a bound of 0 ends the walk on the combination
    # it was given: the walk returns 0 and that combination, and reads no
    # mask after the one that completed it.
    masks = ReadMasks([0b0011, 0b0110, 0b1100, 0b1001, 0b0101])
    for k in range(1, 6):
        combos = list(combinations(range(5), k))
        for stop_at, combo in enumerate(combos):
            masks.reads.clear()
            visits = []

            def visit(seen, count):
                visits.append(tuple(seen))
                return 0 if len(visits) > stop_at else math.inf

            assert subsets._unions_below(masks, k, math.inf, visit) == (0, list(combo))
            assert visits == combos[:stop_at + 1] and masks.reads[-1] == combo[-1]


def test_union_walk_stops_at_empty_union():
    # Two all-zero columns: a visitor that lowers the bound to each count
    # reaches 0 at the first 0-bit union, (1, 3), the least possible, and
    # the walk ends there without reading mask 2 again.
    masks = ReadMasks([0b1, 0, 0b10, 0])
    assert subsets._unions_below(masks, 2, math.inf, lambda combo, count: count) == (0, [1, 3])
    assert masks.reads[-1] == 3
    assert level_min_union(masks, 4, 2) == 0


# The benchmark's tracer binds these functions' arguments by name, so a
# rename would break every traced run.
@pytest.mark.parametrize("func, params", [
    (subsets.scan_xor_zero, ["cols", "universe", "k"]),
    (subsets.scan_union_below, ["masks", "universe", "k", "min_required"]),
    (subsets.level_min_union, ["masks", "n", "k"]),
    (subsets.find_first_at_level, ["scan", "n", "k"]),
    (mindist.min_distance_pruned, ["graph", "params", "budget"]),
    (gf2.nullspace_basis, ["matrix"]),
    (instances.parse_graph, ["text", "fmt"]),
])
def test_traced_parameter_names(func, params):
    assert list(inspect.signature(func).parameters) == params


def test_traced_layers_resolve(monkeypatch):
    # Every layer a benchmark workload records must still name a function
    # or classmethod of the package, or traced runs miss it. The names are
    # read from bench/workloads.py, which imports oracle from beside it.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    workloads = importlib.import_module("workloads")
    names = workloads.COMMON_LAYERS | workloads.PROFILE_LAYERS | workloads.DISTANCE_LAYERS
    names = names.union(*(w.layers for w in workloads.WORKLOADS.values()))
    missing = []
    for name in sorted(names - {"trace"}):  # "trace" is the tracer's own overhead
        short, _, rest = name.partition(".")
        module = importlib.import_module(f"expandercodes.{short}")
        if short == "cli":
            # cli.X traces cmd_X or X; cli.mindist_<method> traces cmd_mindist.
            rest = "mindist" if rest.startswith("mindist_") else rest
            found = [vars(module).get(attr) for attr in (f"cmd_{rest}", rest)]
        else:
            owner, _, attr = rest.rpartition(".")
            if owner:
                method = vars(vars(module).get(owner, object)).get(attr)
                found = [method.__func__] if isinstance(method, classmethod) else []
            else:
                found = [vars(module).get(attr)]
        if not any(inspect.isfunction(f) and f.__module__ == module.__name__ for f in found):
            missing.append(name)
    assert missing == []

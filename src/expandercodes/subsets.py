"""Right-vertex subsets as fixed-width bitsets, plus deterministic subset
enumeration and the budget rule shared by every exhaustive search in the
package.

``RightSubset`` is the package's one GF(2) vector type. A set S of right
vertices, the indicator vector of a candidate codeword and the mod-2 sum
of S's biadjacency columns are one object: S is a codeword exactly when
that sum is zero. ``nullspace_basis`` returns its basis as RightSubsets,
and the witness of a distance result is one. ``_xor`` sums the columns of
one subset, for ``gf2.xor_columns``, the odd neighborhood and the bounds
sweep. The XOR-zero scan and its collision test sum many subsets with no
call per subset: ``_sums_up`` lists the XORs of one size in lex order,
each one XOR from the list one size down, and the head walk carries its
prefix XOR.

Order contract: subsets are visited by increasing cardinality and, within
one cardinality, lexicographically on the sorted index tuple (the order
``itertools.combinations`` produces). ``combination_rank`` converts a
combination back to its position in that order; a search reports its
first hit's position as its ``examined`` count, whatever work it did to
find the hit.

Budget rule: a walk by levels over [0, n) (``first_hit_by_level``, whose
scan takes the level k alone) charges each level just before walking it,
as the number of subsets on the levels walked so far plus that one
(``charge``), and refuses with ``CapabilityError`` only when that count
would pass the budget. A level that is never walked is never charged.
Every budget refusal in the package comes from ``charge``.

Collision test: ``XorZeroLevels`` walks the XOR-zero levels of one search
and runs the exact scan only on a level that could hold a zero-sum set. A
zero-sum k-set splits into disjoint halves of sizes floor(k/2) and
ceil(k/2) with equal XOR, so a level where no two distinct subsets of
those sizes share an XOR is empty. The test runs after the level is
charged, so a level it rules out is still charged in full. Its memory is
the XORs of the half-size subsets and a set of the larger size's, which it
builds only where they number at most the level's own C(n, k). It grows
them as its walk climbs, so each walk takes a new one.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable, Sequence
from functools import reduce
from itertools import combinations, islice
from operator import attrgetter, index, xor

from .errors import CapabilityError

# Default ceiling on the subsets one exhaustive operation may walk, counted
# by ``charge``. Passing it raises CapabilityError, never a truncated answer.
DEFAULT_SUBSET_BUDGET = 1 << 28


def bit_indices(bits: int) -> tuple[int, ...]:
    """Positions of the set bits of a nonnegative int, ascending."""
    out = []
    while bits:
        low = bits & -bits
        out.append(low.bit_length() - 1)
        bits ^= low
    return tuple(out)


# Stores a field past ``_Value.__setattr__``: bound once here, it costs
# less per call than looking up ``object.__setattr__`` in a constructor.
_setattr = object.__setattr__


class _Value:
    """Base of the package's immutable value types.

    A type's fields are its ``__init__`` parameters, in order: the
    subclass hook reads them from the constructor's code into ``_fields``,
    so they are named once. Equality, hashing and ``repr`` read those
    fields, and assigning or deleting any attribute raises AttributeError.
    Each type's ``__init__`` validates its arguments and stores them with
    ``_setattr``, which bypasses that refusal. They live in the instance
    ``__dict__`` like any attribute, so ``copy`` and ``pickle`` work
    unchanged.
    """

    _fields: tuple[str, ...]

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        code = cls.__init__.__code__
        cls._fields = code.co_varnames[1 : code.co_argcount]  # after self
        # Reads every field in one C call (a lone field bare, not in a tuple).
        cls._field_values = attrgetter(*cls._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        values = self._field_values
        return values(self) == values(other)

    def __hash__(self):
        return hash(self._field_values(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: {type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: {type(self).__name__} is immutable")


def _int_field(name: str, value) -> int:
    """``operator.index`` of a field: a bool becomes 0 or 1; a float or str
    is refused with a TypeError that names the field."""
    try:
        return index(value)
    except TypeError:
        raise TypeError(f"{name} must be an int, not {type(value).__name__}") from None


class RightSubset(_Value):
    """A subset of the right vertices [0, n) packed into one int, which is
    also a length-n vector over GF(2) (bit i <-> entry i).

    Immutable; set bits may only appear at positions below ``n``.
    """

    def __init__(self, n: int, bits: int):
        if type(n) is not int:
            n = _int_field("n", n)
        if n < 0:
            raise ValueError(f"universe size must be >= 0, got {n}")
        if type(bits) is not int:
            bits = _int_field("bits", bits)
        if bits < 0 or bits >> n:
            raise ValueError("subset has bits outside the universe [0, n)")
        _setattr(self, "n", n)
        _setattr(self, "bits", bits)

    @classmethod
    def of(cls, n: int, indices: Iterable[int]) -> "RightSubset":
        bits = 0
        for i in indices:
            if type(i) is not int:
                i = _int_field("right-vertex index", i)
            if not 0 <= i < n:
                raise IndexError(f"right-vertex index {i} out of range [0, {n})")
            bits |= 1 << i
        return cls(n, bits)

    @property
    def indices(self) -> tuple[int, ...]:
        return bit_indices(self.bits)

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __iter__(self):
        return iter(self.indices)

    def to_record(self, m: int) -> dict:
        """0-based indices and 1-based display labels: with ``m`` left
        vertices labeled 1..m, the right ones are labeled m+1..m+n."""
        indices = list(self.indices)
        return {"indices": indices, "labels": [m + 1 + j for j in indices]}


def combination_rank(combo: Sequence[int], n: int) -> int:
    """0-based position of a sorted combination among C(n, k) in lex order:
    C(n, k) - 1 less the C(n - 1 - combo[i], k - i) combinations that follow
    it by agreeing before position i and taking a larger entry there."""
    k = len(combo)
    rank = math.comb(n, k) - 1
    for i, c in enumerate(combo):
        rank -= math.comb(n - 1 - c, k - i)
    return rank


def count_sizes(n: int, lo: int, hi: int) -> int:
    """Number of subsets of [0, n) with size in [lo, hi]."""
    return sum(math.comb(n, s) for s in range(max(lo, 0), min(hi, n) + 1))


def charge(n: int, lo: int, k: int, budget: int) -> None:
    """Admit level k of a walk over subsets of [0, n) that began at size
    ``lo``: refuse with CapabilityError if the subsets of sizes lo..k
    number more than ``budget``.

    This is the one place a budget is read, so it takes the int rule of
    the other size parameters here: a bool counts as 0 or 1, and a float
    or str is refused with a TypeError that names ``budget``. A search
    that never charges a level, such as the kernel search of a full-rank
    code, does not read its budget."""
    if type(budget) is not int:
        budget = _int_field("budget", budget)
    spent = count_sizes(n, lo, k)
    if spent > budget:
        raise CapabilityError(
            f"walking sizes {lo}..{k} of {n} elements takes {spent} subsets, "
            f"over the budget of {budget}"
        )


def _sums_up(c: Sequence[int], start: int, sums: Sequence[int], r: int) -> list[int]:
    """XORs of the (r + 1)-combinations of positions range(start, len(c)) in
    lex order, from ``sums``, those of the r-combinations: the ones that
    start at i are c[i] XOR the last C(len(c) - 1 - i, r) entries of sums."""
    u, end = len(c), len(sums)
    return [ci ^ x for i in range(start, u) for ci in (c[i],)
            for x in sums[end - math.comb(u - 1 - i, r):]]


def scan_xor_zero(cols: Sequence[int], universe: Sequence[int], k: int):
    """First k-combination of ``universe`` (lex order) whose selected columns
    XOR to zero; None if there is none.

    Meet in the middle: a combination splits into a head A (its first k - t
    positions) and a tail B (its last t), with min(B) > max(A). The tail
    XORs are listed in lex order of the tails, and a table maps each XOR(B)
    to the index of its last tail, the one that starts latest. The tails
    that start after position j are the last C(u - 1 - j, t) of the list,
    so a head ending at j fits when the table's index is among them, and
    the lex-first fit is the first index with key XOR(A) from there on.
    Heads are walked in lex order, and combinations order by head first,
    then by tail, so the first fit is the lex-first witness. At t = 0 the
    list holds the one empty tail, which fits after every head, with no
    separate case. The walk returns the witness's head positions and its
    tail's index, and the tail's positions are read once, from that index.
    ``t`` starts at k // 2 and falls until C(u, t) <= C(u - t, k - t), so
    the table never outgrows the head walk it serves and a level costs at
    most twice C(u, k).

    Each subset XOR is one XOR from a shorter one: ``_sums_up`` builds the
    tail XORs, and the head walk carries its prefix XOR.
    """
    u = len(universe)
    if k == 0:
        return ()
    if k > u:
        return None
    c = [cols[v] for v in universe]
    t = k // 2
    while math.comb(u, t) > math.comb(u - t, k - t):
        t -= 1
    h = k - t
    # max(A) >= h - 1, so a usable tail starts at position h or later.
    sums = [0]
    for r in range(t):
        sums = _sums_up(c, h, sums, r)
    # Later tails overwrite earlier ones: each XOR keeps its last index.
    table = dict(zip(sums, range(len(sums))))
    stop = u - t
    last = h - 1

    def walk(first: int, acc: int, depth: int):
        # The heads from position ``first`` on at ``depth``, after a prefix
        # with XOR ``acc``; returns the first witness's head positions from
        # ``depth`` on and its tail's index, or None.
        if depth == last:
            # Most heads miss, and ``in`` tests for that without a call.
            for j in range(first, stop):
                if acc ^ c[j] in table:
                    key = acc ^ c[j]
                    fits = len(sums) - math.comb(u - 1 - j, t)
                    if table[key] >= fits:
                        return j, sums.index(key, fits)
            return None
        for p in range(first, stop - last + depth):
            hit = walk(p + 1, acc ^ c[p], depth + 1)
            if hit is not None:
                return (p, *hit)
        return None

    try:
        hit = walk(0, 0, 0)
    finally:
        del walk  # the closure refers to itself
    if hit is None:
        return None
    tail = next(islice(combinations(range(h, u), t), hit[-1], None))
    return tuple(universe[p] for p in (*hit[:-1], *tail))


class XorZeroLevels:
    """``scan_xor_zero`` over all of the columns ``cols`` for one walk by
    levels (``first_hit_by_level``): called as ``scan(k)`` on a level k in
    [1, len(cols)], which ``find_first_at_level`` ensures, it returns what
    ``scan_xor_zero(cols, range(len(cols)), k)`` returns, but calls it only
    on a level that the collision test cannot rule out.

    Collision test: a zero-sum k-set splits into disjoint parts of sizes
    floor(k/2) and ceil(k/2) with equal XOR. So level 2s can hold one only
    if two distinct s-subsets share an XOR, and level 2s + 1 only if some
    s-subset and some (s + 1)-subset do. Where every level below k is
    empty, as in a walk from level 1, any such pair differs in a zero-sum
    k-set, so the test is exact. A walk that starts higher can get a
    spurious "maybe" from a smaller zero-sum set, which costs one exact
    scan of that level.

    Memory: the XORs of the subsets of the two half sizes, in lex order and
    grown one size at a time by ``_sums_up``, and a set of the larger
    size's. The test runs only where C(n, ceil(k/2)) <= C(n, k), so they
    never outnumber the subsets of the level they may skip; past that,
    every level is scanned.
    """

    def __init__(self, cols: Sequence[int]):
        self.cols = cols
        # ``top`` holds the XORs of the ``size``-subsets and ``below`` those
        # of the (size - 1)-subsets: at size 1, the columns and the empty
        # set's 0. ``seen`` is ``top`` as a set, built by the first of the
        # two levels that test this size.
        self.size, self.below, self.top, self.seen = 1, [0], cols, None

    def __call__(self, k: int):
        n = len(self.cols)
        half = (k + 1) // 2
        if math.comb(n, half) <= math.comb(n, k):
            while self.size < half:
                self._grow()
            if self.seen is None:
                self.seen = set(self.top)
            if k % 2 == 0:
                maybe = len(self.seen) < len(self.top)
            else:
                maybe = not self.seen.isdisjoint(self.below)
            if not maybe:
                return None
        return scan_xor_zero(self.cols, range(n), k)

    def _grow(self):
        self.below, self.seen = self.top, None
        self.top = _sums_up(self.cols, 0, self.top, self.size)
        self.size += 1


def _xor(c: Sequence[int], positions: Iterable[int]) -> int:
    """Mod-2 sum of the columns ``c[p]`` for p in ``positions``; 0 for none."""
    return reduce(xor, map(c.__getitem__, positions), 0)


def _unions_below(masks: Sequence[int], k: int, bound, visit) -> tuple[int | float, list[int]]:
    """Walk the k-combinations of positions of ``masks`` in lex order, for
    k >= 1 and a positive ``bound``, and call ``visit(combo, count)`` on
    each whose union (OR) has ``count`` < ``bound`` set bits.

    ``combo`` is one list that the walk rewrites, so a visitor copies it to
    keep it. ``visit`` returns the bound for the rest of the walk; a bound
    of 0 ends it at once, since no union has fewer than 0 bits. The walk
    returns its final bound and ``combo``, which then holds the last
    combination visited. Unions only grow as positions are added, so a
    prefix whose union has ``bound`` bits has no leaf below the bound and
    is cut; each leaf is evaluated at most once.
    """
    u = len(masks)
    combo = [0] * k
    last = k - 1

    def walk(start: int, acc: int, depth: int) -> None:
        nonlocal bound
        if depth == last:
            for j in range(start, u):
                count = (acc | masks[j]).bit_count()
                if count < bound:
                    combo[last] = j
                    bound = visit(combo, count)
                    if not bound:
                        return
        else:
            for j in range(start, u - last + depth):
                union = acc | masks[j]
                if union.bit_count() < bound:
                    combo[depth] = j
                    walk(j + 1, union, depth + 1)
                    # Checked after the call, not returned by it: a flag
                    # from every call measured slower.
                    if not bound:
                        return

    try:
        walk(0, 0, 0)
    finally:
        del walk  # the closure refers to itself
    return bound, combo


def _end(combo, count):
    return 0


def _lower(combo, count):
    return count


def scan_union_below(
    masks: Sequence[int],
    universe: Sequence[int],
    k: int,
    min_required: int,
):
    """First k-combination of ``universe`` (lex order) whose neighborhood
    union (OR of masks) has fewer than ``min_required`` set bits; None if
    every combination meets the requirement."""
    if min_required <= 0:
        return None
    if k == 0:
        return ()
    bound, combo = _unions_below([masks[v] for v in universe], k, min_required, _end)
    return None if bound else tuple(universe[i] for i in combo)


def level_min_union(masks: Sequence[int], n: int, k: int) -> int | None:
    """Minimum popcount of the mask union over all k-subsets of [0, n)."""
    if k == 0 or k > n:
        return None
    # Each visit lowers the bound to its count, so the final bound is the minimum.
    return _unions_below(masks[:n], k, math.inf, _lower)[0]


def find_first_at_level(
    scan: Callable[[int], tuple | None],
    n: int,
    k: int,
):
    """First k-subset of [0, n) in lex order that ``scan`` reports, or None."""
    if k > n or k < 1:
        return None
    return scan(k)


def first_hit_by_level(
    scan: Callable[[int], tuple | None],
    n: int,
    lo: int,
    hi: int,
    budget: int,
):
    """First subset of [0, n) that ``scan`` reports, by size from ``lo`` to
    ``hi`` and lex within a size, with its 1-based position in that order;
    (None, the count of all those subsets) if there is none. Each level is
    charged just before it is walked. ``scan(k)`` returns the lex-first hit
    among the k-subsets of [0, n), as a sorted index tuple, or None."""
    for k in range(lo, hi + 1):
        charge(n, lo, k, budget)
        hit = find_first_at_level(scan, n, k)
        if hit is not None:
            return hit, count_sizes(n, lo, k - 1) + combination_rank(hit, n) + 1
    return None, count_sizes(n, lo, hi)

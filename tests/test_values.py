"""Value semantics of the public types: construction by position and by
keyword, equality and hashing over the same fields, no assignment or
deletion, and copies and pickles that compare equal."""

import copy
import pickle
from fractions import Fraction

import pytest

from expandercodes import (
    BipartiteGraph,
    BoundsSweep,
    ExpanderCertificate,
    ExpansionProfile,
    GenSpec,
    Gf2Matrix,
    MinDistanceResult,
    PartitionSweep,
    PruningParams,
    RightSubset,
    check_expansion,
    figure1,
)

G = figure1()
HALF, TWO_THIRDS = Fraction(1, 2), Fraction(2, 3)
CERT = check_expansion(G, HALF, TWO_THIRDS)
WITNESS = RightSubset(4, 0b1101)

# Each type with its constructor's parameter names in order, one set of
# arguments, and the same arguments with one field changed.
CASES = [
    (RightSubset, ("n", "bits"), (4, 0b1010), (4, 0b1011)),
    (Gf2Matrix, ("rows", "cols", "columns"), (2, 3, (1, 2, 3)), (2, 3, (1, 2, 0))),
    (BipartiteGraph, ("m", "n", "right_adj"), (5, 4, G.right_adj), (5, 4, ((0, 1),) * 4)),
    (ExpanderCertificate, ("graph", "gamma", "alpha", "violation"),
     (G, HALF, TWO_THIRDS, None), (G, HALF, TWO_THIRDS, RightSubset(4, 1))),
    (ExpansionProfile, ("n", "d", "min_neighbors"), (4, 2, (2, 3)), (4, 2, (2, 4))),
    (BoundsSweep, ("gamma", "epsilon", "size_cap", "subsets_checked", "violation"),
     (HALF, Fraction(1, 3), 2, 10, None),
     (HALF, Fraction(1, 3), 2, 3, (RightSubset(4, 3), Fraction(4, 3), 1, 3))),
    (PartitionSweep, ("subsets_checked", "empty_odd_found", "partitions_checked"),
     (15, 1, 3), (15, 1, 4)),
    (MinDistanceResult, ("witness", "method", "examined", "threshold"),
     (WITNESS, "pruned", 9, Fraction(8, 3)), (WITNESS, "pruned", 9, Fraction(3))),
    (PruningParams, ("certificate",), (CERT,), (check_expansion(G, HALF, Fraction(1, 2)),)),
    (GenSpec, ("m", "n", "d", "seed"), (5, 8, 2, 7), (5, 8, 2, 8)),
]


@pytest.mark.parametrize("cls, names, args, other", CASES, ids=[c[0].__name__ for c in CASES])
def test_value_semantics(cls, names, args, other):
    value = cls(*args)
    by_keyword = cls(**dict(zip(names, args)))
    for name, arg in zip(names, args):
        assert getattr(value, name) == arg
    assert value == by_keyword and hash(value) == hash(by_keyword)
    assert value != cls(*other)
    assert value != args
    for name in (*names, "unknown"):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
    for name in names:
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert value == by_keyword
    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(twin) is cls
        assert twin == value and hash(twin) == hash(value)


# Each type with a sequence field, arguments giving that field as a list,
# and the field's position.
LIST_CASES = [
    (Gf2Matrix, (2, 2, [1, 2]), 2),
    (ExpansionProfile, (4, 2, [2, 3]), 2),
    (BoundsSweep, (HALF, Fraction(1, 3), 2, 3, [RightSubset(4, 3), Fraction(4, 3), 1, 3]), 4),
]


@pytest.mark.parametrize("cls, args, pos", LIST_CASES, ids=[c[0].__name__ for c in LIST_CASES])
def test_sequence_fields_are_owned_tuples(cls, args, pos):
    items = args[pos]
    tupled = cls(*args[:pos], tuple(items), *args[pos + 1:])
    value = cls(*args)
    assert getattr(value, cls._fields[pos]) == tuple(items)
    assert value == tupled and hash(value) == hash(tupled)
    items[0] = items[1]
    items.append(items[0])
    assert value == tupled and hash(value) == hash(tupled)


@pytest.mark.parametrize("columns, error, message", [
    ([99, "x"], ValueError, r"^column 0 has bits outside \[0, 2\)$"),
    ([True, 99, "x"], ValueError, r"^column 1 has bits outside \[0, 2\)$"),
    ([True, "x", 99], TypeError, "^column 1 must be an int, not str$"),
], ids=["bits-before-type", "bool-then-bits", "type-before-bits"])
def test_first_faulty_column_wins(columns, error, message):
    with pytest.raises(error, match=message):
        Gf2Matrix(2, len(columns), columns)


def test_defaults_and_derived_fields():
    assert MinDistanceResult(WITNESS, "subset", 9).threshold is None
    # d is derived from the adjacency, so it is neither a parameter nor
    # compared; neighbour order within a right vertex is not either.
    permuted = BipartiteGraph(5, 4, ((1, 0), (4, 3), (2, 1), (2, 0)))
    assert permuted == G and hash(permuted) == hash(G) and permuted.d == 2
    with pytest.raises(TypeError):
        BipartiteGraph(m=5, n=4, right_adj=G.right_adj, d=2)
    with pytest.raises(AttributeError):
        G.d = 3
    # A graph copied or pickled after packing keeps its packed columns.
    packed = BipartiteGraph(5, 4, G.right_adj)
    columns = packed.biadjacency().columns
    for twin in (copy.deepcopy(packed), pickle.loads(pickle.dumps(packed))):
        assert twin.biadjacency().columns == columns

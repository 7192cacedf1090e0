"""The value-type base: immutability, equality, hashing, repr, replace and
pickling."""

import copy
import pickle
from fractions import Fraction
from types import MappingProxyType

import pytest

import pinkey
from pinkey import (
    Broadcast,
    CapacityResult,
    ConsistencyReport,
    EdgeKeyBits,
    Gf2Matrix,
    Multigraph,
    PairPmf,
    Partition,
    PinModel,
    ProtocolRun,
    SecurityReport,
    SubsetFamily,
    TerminalSet,
    Tree,
    TreePacking,
    WeightAssignment,
    audit,
    base_scale,
    draw_edge_keys,
    realize_multigraph,
    run_protocol,
    solve_capacity,
    spanning_packing,
    subset_family,
    upper_bound,
)
from pinkey.simplex import SimplexResult
from pinkey.value import Value, View, replace


class Interval(Value):
    """A value type defined outside pinkey, with a defaulted parameter."""

    def __init__(self, low: int, high: int = 10) -> None:
        if not low <= high:
            raise ValueError(f"empty interval {low}..{high}")
        self._store(low=low, high=high)


def report(**recoverability):
    return SecurityReport(1, Fraction(1), Fraction(1), "rank", **recoverability)


def test_fields_cannot_be_assigned_or_deleted():
    target = TerminalSet.of(1, 2)
    with pytest.raises(AttributeError, match="members"):
        target.members = (1, 3)
    with pytest.raises(AttributeError):
        target.extra = 1
    with pytest.raises(AttributeError):
        del target.members
    assert target.members == (1, 2)


def test_equality_and_hash_read_the_fields_of_one_class():
    assert TerminalSet((2, 1, 2)) == TerminalSet.of(1, 2)
    assert hash(TerminalSet((2, 1))) == hash(TerminalSet.of(1, 2)) == hash(((1, 2),))
    assert EdgeKeyBits((0, 1), seed=3) != EdgeKeyBits((0, 1), seed=4)
    # another class with equal fields is not equal
    assert Partition((0, 1)) != TerminalSet.of(1, 2)
    assert Partition((0, 1)).__eq__(Tree(((1, 2, 0),))) is NotImplemented
    assert len({Partition((0, 1)), Partition((0, 1)), Partition((0, 1, 1))}) == 2


def test_repr_shows_the_fields_only():
    assert repr(TerminalSet((3, 1))) == "TerminalSet(members=(1, 3))"
    assert repr(Partition((0, 1, 1))) == "Partition(assignment=(0, 1, 1))"
    assert repr(Tree([(2, 3, 0), (1, 2, 0)])) == "Tree(edges=((1, 2, 0), (2, 3, 0)))"
    assert repr(EdgeKeyBits((1,))) == "EdgeKeyBits(bits=(1,), seed=None)"


def test_a_new_value_type_takes_its_fields_from_its_constructor():
    assert Interval._fields == ("low", "high")
    interval = Interval(3)
    assert repr(interval) == "Interval(low=3, high=10)"
    assert interval == Interval(3, 10) != Interval(3, 9)
    assert hash(interval) == hash(Interval(low=3))
    assert replace(interval, high=5) == Interval(3, 5)
    with pytest.raises(ValueError, match="empty interval 11..10"):
        replace(interval, low=11)
    for again in (pickle.loads(pickle.dumps(interval)), copy.deepcopy(interval)):
        assert type(again) is Interval and again == interval


def test_derived_attributes_stay_out_of_equality():
    tree = Tree(((1, 2, 0), (2, 3, 0)))
    assert tree.walk == ((2, (2, 3, 0)),) and tree.vertices() == (1, 2, 3)
    assert tree == Tree([(2, 3, 0), (1, 2, 0)])
    assert Partition((0, 1, 1)).size == 2
    graph = Multigraph(2, {(1, 2): 2})
    graph.edge_refs()
    assert "_edge_refs" in vars(graph)
    assert graph == Multigraph(2, {(2, 1): 2})


def test_consistency_report_gaps_count_in_equality_not_repr():
    full = ConsistencyReport(discrepancies=(0.5, 0.0))
    assert repr(full) == "ConsistencyReport(trials=2, max_discrepancy=0.5)"
    assert full != ConsistencyReport((0.0, 0.5))
    assert repr(ConsistencyReport(())) == "ConsistencyReport(trials=0, max_discrepancy=0.0)"


def test_gf2_matrix_keeps_its_row_equality():
    blocks = Gf2Matrix(((2, ((0, None),)),), 2)
    rows = Gf2Matrix.from_rows([(0,), (1,)], 2)
    assert blocks == rows and hash(blocks) == hash(rows)
    assert repr(rows) == "Gf2Matrix(blocks=((1, ((0, None),)), (1, ((1, None),))), ncols=2)"


def test_security_report_gets_a_fresh_recoverability_dict():
    first, second = report(), report()
    assert first.recoverability == {} and first.recoverability is not second.recoverability
    assert report(recoverability={1: True}).passed


def test_security_report_hashes_by_its_recoverability_items():
    assert hash(report(recoverability={1: True, 2: False})) == hash(
        report(recoverability={2: False, 1: True}))
    assert len({report(recoverability={1: True}), report(recoverability={1: True}),
                report(recoverability={1: False})}) == 2


def test_security_report_keeps_its_own_recoverability():
    given = {1: True}
    first = report(recoverability=given)
    given[1] = False
    assert first.passed and first.recoverability == {1: True}


def test_security_report_recoverability_is_read_only():
    first = report(recoverability={1: True})
    with pytest.raises(TypeError):
        first.recoverability[2] = False
    assert dict(first.recoverability) == {1: True} and first.recoverability[1]
    assert list(first.recoverability.values()) == [True]


def test_replace_runs_the_constructor_checks_again():
    target = TerminalSet.of(1, 2)
    assert replace(target, members=(4, 3, 3)) == TerminalSet.of(3, 4)
    with pytest.raises(ValueError, match="1-indexed"):
        replace(target, members=(0, 1))
    tree = replace(Tree(((1, 2, 0),)), edges=((1, 2, 0), (1, 3, 0)))
    assert tree.walk == ((1, (1, 3, 0)),)
    with pytest.raises(TypeError):
        replace(target, size=2)
    failed = replace(report(), recoverability={1: False})
    assert (failed.method, failed.passed) == ("rank", False)


@pytest.mark.parametrize("build", [
    lambda sequence: Partition(sequence([0, 1, 0])),
    lambda sequence: PairPmf(sequence([sequence([0.5, 0.0]), sequence([0.0, 0.5])])),
    lambda sequence: EdgeKeyBits(sequence([1, 0, 1]), seed=3),
    lambda sequence: Broadcast(0, 2, 1, sequence([(1, 2, 0), (2, 3, 0)])),
], ids=["Partition", "PairPmf", "EdgeKeyBits", "Broadcast"])
def test_list_arguments_are_stored_as_tuples(build):
    # a value built from lists equals and hashes as the one built from tuples
    listed, tupled = build(list), build(tuple)
    assert listed == tupled
    assert hash(listed) == hash(tupled)


def _doubled_triangle_run() -> ProtocolRun:
    graph = Multigraph(3, {(1, 2): 2, (1, 3): 2, (2, 3): 2})
    packing = spanning_packing(graph)
    return run_protocol(packing, draw_edge_keys(graph, 7))


def test_views_equal_views_and_tuples_of_equal_items():
    run = _doubled_triangle_run()
    packing = run.packing
    assert packing.trees == packing.trees
    assert run.transcript == run.transcript
    assert run.transcript == tuple(run.transcript)
    assert tuple(run.transcript) == run.transcript
    assert not run.transcript != tuple(run.transcript)
    # a view is no list, and does not hash, as a list does not
    assert run.transcript != list(run.transcript)
    with pytest.raises(TypeError, match="unhashable"):
        hash(packing.trees)


def test_views_of_other_items_are_unequal():
    # one tree each, of other edges
    path = spanning_packing(Multigraph(3, {(1, 2): 1, (2, 3): 1}))
    triangle = spanning_packing(Multigraph(3, {(1, 2): 1, (1, 3): 1, (2, 3): 1}))
    assert len(path.trees) == len(triangle.trees) == 1
    assert path.trees != triangle.trees
    assert path.trees != tuple(triangle.trees)
    assert not path.trees == triangle.trees


def test_views_of_unequal_lengths_build_no_item():
    built = []

    def item(k):
        built.append(k)
        return k

    assert View(3, item) != View(2, item)
    assert View(3, item) != (0, 1)
    assert (0, 1) != View(3, item)
    assert built == []
    assert View(3, item) == (0, 1, 2)
    assert built == [0, 1, 2]


def _triangle() -> PinModel:
    return PinModel.from_weights(3, {(1, 2): 1, (1, 3): 1, (2, 3): 1})


def _every_value() -> list[Value]:
    """One value of every ``Value`` subclass the package exports, and of
    ``SimplexResult``, built from list and dict arguments, with the caches
    their methods build on first use filled in."""
    target = TerminalSet([1, 2, 3])
    pmf = PairPmf([[0.5, 0.0], [0.0, 0.5]])
    model = PinModel(3, 2, {(1, 2): 2, (3, 1): 1, (2, 3): 2}, {(2, 1): pmf})
    model.weights
    base_scale(model)
    graph = realize_multigraph(model, 2)
    graph.edge_refs()
    packing = spanning_packing(graph)
    packing = TreePacking(graph, target, [list(group) for group in packing.groups])
    keys = draw_edge_keys(graph, 3)
    run = run_protocol(packing, EdgeKeyBits(list(keys.bits), seed=3))
    run = ProtocolRun(run.packing, run.keys, list(run.key_bits), list(run.transcript_bits),
                      run.key_map, run.transcript_map)
    tuple(run.transcript), run.residual_bits, run.key_map.rows
    family = subset_family(3, target)
    result = solve_capacity(model, target)
    result = CapacityResult(result.value, result.assignment)
    result.coefficients
    simplex = SimplexResult([0, 1, 2], 2, [1, 1, 1], 3, len(family.subsets))
    simplex.value, simplex.solution
    return [
        target, pmf, model, graph, Partition([0, 1, 0]), Tree([(2, 3, 0), (1, 2, 0)]),
        packing, keys, run, Broadcast(0, 2, 1, [(1, 2, 0), (2, 3, 0)]),
        Gf2Matrix([[2, [[0, None], [0, 2]]]], 4),
        family,
        WeightAssignment(3, target, dict(result.assignment.weights)),
        result,
        ConsistencyReport([0.5, 0.0]),
        audit(run), SecurityReport(1, Fraction(1), Fraction(1), "rank", {1: True, 2: True}),
        simplex,
    ]


def _held(obj):
    """Every object a value holds in its fields and caches, nested values,
    tuples and tables included."""
    if isinstance(obj, Value):
        for held in vars(obj).values():
            yield held
            yield from _held(held)
    elif isinstance(obj, tuple):
        for item in obj:
            yield item
            yield from _held(item)
    elif isinstance(obj, MappingProxyType):
        for key, item in obj.items():
            yield from (key, item)
            yield from _held(key)
            yield from _held(item)


def test_every_exported_value_type_is_covered():
    exported = {obj for obj in vars(pinkey).values()
                if isinstance(obj, type) and issubclass(obj, Value)}
    assert exported <= {type(value) for value in _every_value()}


@pytest.mark.parametrize("value", _every_value(), ids=lambda value: type(value).__name__)
def test_every_value_hashes_pickles_and_copies(value):
    hash(value)
    for again in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value), copy.copy(value)):
        assert type(again) is type(value) and again == value
        assert hash(again) == hash(value)


@pytest.mark.parametrize("value", _every_value(), ids=lambda value: type(value).__name__)
def test_no_field_or_cache_holds_a_mutable_container(value):
    held = list(_held(value))
    assert [obj for obj in held if isinstance(obj, (dict, list, set, bytearray))] == []
    for table in (obj for obj in held if isinstance(obj, MappingProxyType)):
        with pytest.raises(TypeError):
            table[next(iter(table), 0)] = 0


def test_unpickling_runs_the_constructor_checks():
    graph = Multigraph(2, {(1, 2): 77777})
    assert graph.__reduce__() == (Multigraph, (2, {(1, 2): 77777}))
    # the same pickle with the count's 4-byte int opcode negated
    count, negated = (pickle.dumps(n, protocol=2)[2:-1] for n in (77777, -77777))
    tampered = pickle.dumps(graph, protocol=2).replace(count, negated)
    with pytest.raises(ValueError, match="negative multiplicity"):
        pickle.loads(tampered)


def test_base_weights_and_pair_offsets_are_read_only_from_the_first_read():
    # a write to either table would move capacity from 3/2 to 2; the base
    # weights are a field, and the first read of the offsets builds them,
    # the second returns the kept ones
    model = _triangle()
    for _ in range(2):
        with pytest.raises(TypeError):
            model.base_weights[(1, 2)] = 100
    target = TerminalSet.full(3)
    assert solve_capacity(model, target).value == upper_bound(model, target) == Fraction(3, 2)
    graph = realize_multigraph(model, 1)
    assert graph.multiplicity(1, 2) == 1 and model == _triangle()
    for _ in range(2):
        with pytest.raises(TypeError):
            graph.pair_offsets()[(1, 2)] = 5
    assert dict(graph.pair_offsets()) == {(1, 2): 0, (1, 3): 1, (2, 3): 2}
    with pytest.raises(TypeError):
        graph.multiplicities[(1, 2)] = 3
    assert hash(model) == hash(_triangle())


# a caller's later write to the lists or dict a value was built from
# leaves the value as its constructor checked it


def test_packing_groups_ignore_a_later_write():
    groups = [[Tree([(1, 2, 0)]), 2]]
    packing = TreePacking(Multigraph(2, {(1, 2): 3}), TerminalSet.of(1, 2), groups)
    groups[0][1] = 3
    assert (packing.count, packing.groups) == (2, ((Tree([(1, 2, 0)]), 2),))
    assert packing.residual_mask() == b"\0\0\1"


def test_gf2_blocks_ignore_a_later_write():
    steps = [[0, None]]
    blocks = [[1, steps]]
    matrix = Gf2Matrix(blocks, 2)
    steps[0][0] = 5
    blocks[0][0] = 2
    assert (matrix.blocks, matrix.apply((1, 0))) == (((1, ((0, None),)),), (1,))


def test_protocol_run_bits_ignore_a_later_write():
    graph = Multigraph(2, {(1, 2): 1})
    honest = run_protocol(TreePacking(graph, TerminalSet.of(1, 2), [(Tree([(1, 2, 0)]), 1)]),
                          EdgeKeyBits((1,)))
    key_bits, transcript_bits = [1], []
    run = ProtocolRun(honest.packing, honest.keys, key_bits, transcript_bits,
                      honest.key_map, honest.transcript_map)
    key_bits[0] = 0
    transcript_bits.append(1)
    assert (run.key_bits, run.transcript_bits, run.residual_bits) == ((1,), (), ())


def test_simplex_result_ignores_a_later_write():
    basis, beta = [0, 1], [1, 1]
    result = SimplexResult(basis, 1, beta, 2, 3)
    basis[1], beta[1] = 2, 5
    assert (result.basis, result.beta) == ((0, 1), (1, 1))
    assert result.solution == (1, 1, 0)


def test_subset_family_and_consistency_report_ignore_a_later_write():
    # a family takes no list: it builds its own subsets
    family = SubsetFamily(2, TerminalSet.of(1, 2))
    gaps = [0.5]
    report_card = ConsistencyReport(gaps)
    gaps.append(1.0)
    assert (family.subsets, report_card.discrepancies) == ((1, 2), (0.5,))
    assert (report_card.trials, report_card.max_discrepancy) == (1, 0.5)


def test_capacity_result_ignores_a_later_write():
    # the coefficients are built on first read from the assignment and kept
    # as a read-only table, so a write to them is refused
    result = solve_capacity(_triangle(), TerminalSet.full(3))
    for _ in range(2):
        with pytest.raises(TypeError):
            result.coefficients[(1, 2)] = Fraction(7)
    assert dict(result.coefficients) == {(1, 2): Fraction(1, 2), (1, 3): Fraction(1, 2),
                                         (2, 3): Fraction(1, 2)}

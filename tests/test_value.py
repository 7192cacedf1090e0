"""The value-type base: immutability, equality, hashing, repr and replace."""

from fractions import Fraction

import pytest

from pinkey import (
    Broadcast,
    ConsistencyReport,
    EdgeKeyBits,
    Gf2Matrix,
    Multigraph,
    PairPmf,
    Partition,
    SecurityReport,
    TerminalSet,
    Tree,
)
from pinkey.value import replace


def report(**recoverability):
    return SecurityReport(Fraction(0), Fraction(1), Fraction(1), Fraction(0), "rank",
                          **recoverability)


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
    full = ConsistencyReport(trials=2, max_discrepancy=0.5, discrepancies=(0.5, 0.0))
    assert repr(full) == "ConsistencyReport(trials=2, max_discrepancy=0.5)"
    assert full != ConsistencyReport(2, 0.5)
    assert ConsistencyReport(2, 0.5).discrepancies == ()


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
    lambda sequence: Broadcast(0, 1, 1, sequence([(1, 2, 0), (2, 3, 0)])),
], ids=["Partition", "PairPmf", "EdgeKeyBits", "Broadcast"])
def test_list_arguments_are_stored_as_tuples(build):
    # a value built from lists equals and hashes as the one built from tuples
    listed, tupled = build(list), build(tuple)
    assert listed == tupled
    assert hash(listed) == hash(tupled)

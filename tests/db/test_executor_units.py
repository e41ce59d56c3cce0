"""Operator-level unit tests (executor classes in isolation).

Most tests read operators through the row adapter
(``Operator.__iter__``); the ``batches()`` tests pin the batch stream
itself for the operators that build their batches from rows.
"""

import pytest

from repro.db.executor import (
    BATCH_SIZE,
    Distinct,
    Filter,
    GroupAggregate,
    HashJoin,
    IndexScan,
    Limit,
    MaterializedSource,
    NestedLoopJoin,
    Project,
    SeqScan,
    Sort,
    StripColumns,
    Union,
)
from repro.db.provtypes import TupleRef
from repro.db.sql.parser import parse_expression
from repro.db.storage import HeapTable
from repro.db.types import Column, Schema, SQLType
from repro.errors import ExecutionError


def make_table(name="t", rows=((1, "a"), (2, "b"), (3, "a"))):
    table = HeapTable(name, Schema([Column("k", SQLType.INTEGER),
                                    Column("s", SQLType.TEXT)]))
    for row in rows:
        table.insert(row, tick=1)
    return table


def rows_of(operator):
    return [values for values, _lineage in operator]


def lineages_of(operator):
    return [lineage for _values, lineage in operator]


def drained(operator):
    """``(values, lineage)`` pairs read from ``batches()`` directly,
    plus the batch sizes."""
    pairs, sizes = [], []
    for batch in operator.batches():
        sizes.append(len(batch))
        pairs.extend(zip(batch.rows(), batch.picked_lineages()))
    return pairs, sizes


class TestSeqScan:
    def test_yields_rows_in_rowid_order(self):
        scan = SeqScan(make_table(), "t", track_lineage=False)
        assert rows_of(scan) == [(1, "a"), (2, "b"), (3, "a")]

    def test_lineage_singletons(self):
        scan = SeqScan(make_table(), "t", track_lineage=True)
        assert lineages_of(scan) == [
            frozenset({TupleRef("t", 1, 1)}),
            frozenset({TupleRef("t", 2, 1)}),
            frozenset({TupleRef("t", 3, 1)})]

    def test_no_lineage_means_empty_sets(self):
        scan = SeqScan(make_table(), "t", track_lineage=False)
        assert all(lineage == frozenset() for lineage in lineages_of(scan))

    def test_qualified_schema(self):
        scan = SeqScan(make_table(), "alias", track_lineage=False)
        assert scan.schema.index_of("k", "alias") == 0


class TestIndexScan:
    def test_point_lookup(self):
        table = make_table()
        index = table.create_index("idx", "s")
        scan = IndexScan(table, "t", index, parse_expression("'a'"),
                         track_lineage=True)
        assert rows_of(scan) == [(1, "a"), (3, "a")]
        assert lineages_of(scan)[0] == frozenset({TupleRef("t", 1, 1)})

    def test_miss_yields_nothing(self):
        table = make_table()
        index = table.create_index("idx", "s")
        scan = IndexScan(table, "t", index, parse_expression("'zz'"),
                         track_lineage=False)
        assert rows_of(scan) == []


class TestFilterProject:
    def test_filter_keeps_matches(self):
        scan = SeqScan(make_table(), "t", False)
        filtered = Filter(scan, parse_expression("k > 1"))
        assert rows_of(filtered) == [(2, "b"), (3, "a")]

    def test_project_evaluates_expressions(self):
        scan = SeqScan(make_table(), "t", False)
        out_schema = Schema([Column("double_k", SQLType.INTEGER)])
        projected = Project(scan, [parse_expression("k * 2")], out_schema)
        assert rows_of(projected) == [(2,), (4,), (6,)]

    def test_lineage_flows_through(self):
        scan = SeqScan(make_table(), "t", True)
        filtered = Filter(scan, parse_expression("k = 2"))
        projected = Project(filtered, [parse_expression("s")],
                            Schema([Column("s", SQLType.TEXT)]))
        assert lineages_of(projected) == [frozenset({TupleRef("t", 2, 1)})]


class TestJoins:
    def make_sides(self):
        left = SeqScan(make_table("l"), "l", True)
        right = SeqScan(make_table(
            "r", rows=((2, "x"), (3, "y"), (9, "z"))), "r", True)
        return left, right

    def test_hash_join_matches(self):
        left, right = self.make_sides()
        join = HashJoin(left, right, [parse_expression("l.k")],
                        [parse_expression("r.k")])
        assert rows_of(join) == [(2, "b", 2, "x"), (3, "a", 3, "y")]

    def test_hash_join_lineage_union(self):
        left, right = self.make_sides()
        join = HashJoin(left, right, [parse_expression("l.k")],
                        [parse_expression("r.k")])
        first = lineages_of(join)[0]
        assert first == frozenset({TupleRef("l", 2, 1),
                                   TupleRef("r", 1, 1)})

    def test_left_join_pads(self):
        left, right = self.make_sides()
        join = HashJoin(left, right, [parse_expression("l.k")],
                        [parse_expression("r.k")], kind="left")
        padded = [row for row in rows_of(join) if row[2] is None]
        assert padded == [(1, "a", None, None)]

    def test_hash_join_requires_keys(self):
        left, right = self.make_sides()
        with pytest.raises(ExecutionError):
            HashJoin(left, right, [], [])

    def test_hash_join_residual(self):
        left, right = self.make_sides()
        join = HashJoin(left, right, [parse_expression("l.k")],
                        [parse_expression("r.k")],
                        residual=parse_expression("r.s = 'y'"))
        assert rows_of(join) == [(3, "a", 3, "y")]

    def test_nested_loop_theta_join(self):
        left, right = self.make_sides()
        join = NestedLoopJoin(left, right, parse_expression("l.k < r.k"))
        # pairs with l.k < r.k over {1,2,3} x {2,3,9}
        assert len(rows_of(join)) == 6

    def test_cross_join(self):
        left, right = self.make_sides()
        join = NestedLoopJoin(left, right, None, "cross")
        assert len(rows_of(join)) == 9

    def test_invalid_kind_rejected(self):
        left, right = self.make_sides()
        with pytest.raises(ExecutionError):
            NestedLoopJoin(left, right, None, "full")
        with pytest.raises(ExecutionError):
            HashJoin(left, right, [parse_expression("l.k")],
                     [parse_expression("r.k")], kind="full")


class TestAggregateDistinctSort:
    def test_group_aggregate(self):
        scan = SeqScan(make_table(), "t", True)
        out_schema = Schema([Column("s", SQLType.TEXT),
                             Column("n", SQLType.INTEGER)])
        aggregate = GroupAggregate(
            scan, [parse_expression("s")],
            [parse_expression("s"), parse_expression("count(*)")],
            out_schema)
        assert sorted(rows_of(aggregate)) == [("a", 2), ("b", 1)]

    def test_group_lineage_partition(self):
        scan = SeqScan(make_table(), "t", True)
        aggregate = GroupAggregate(
            scan, [parse_expression("s")],
            [parse_expression("count(*)")],
            Schema([Column("n", SQLType.INTEGER)]))
        sizes = sorted(len(lineage) for lineage in lineages_of(aggregate))
        assert sizes == [1, 2]

    def test_distinct_merges_lineage(self):
        source = MaterializedSource(
            Schema([Column("x", SQLType.INTEGER)]),
            [((1,), frozenset({TupleRef("t", 1, 1)})),
             ((1,), frozenset({TupleRef("t", 2, 1)})),
             ((2,), frozenset({TupleRef("t", 3, 1)}))])
        distinct = Distinct(source)
        assert rows_of(distinct) == [(1,), (2,)]
        assert lineages_of(distinct)[0] == frozenset(
            {TupleRef("t", 1, 1), TupleRef("t", 2, 1)})

    def test_sort_multi_key_stable(self):
        source = MaterializedSource(
            Schema([Column("a", SQLType.INTEGER),
                    Column("b", SQLType.INTEGER)]),
            [((1, 2), frozenset()), ((2, 1), frozenset()),
             ((1, 1), frozenset())])
        ordered = Sort(source, [(0, False), (1, True)])
        assert rows_of(ordered) == [(1, 2), (1, 1), (2, 1)]

    def test_sort_nulls_last(self):
        source = MaterializedSource(
            Schema([Column("a", SQLType.INTEGER)]),
            [((None,), frozenset()), ((1,), frozenset())])
        assert rows_of(Sort(source, [(0, False)])) == [(1,), (None,)]

    def test_limit_offset(self):
        source = MaterializedSource(
            Schema([Column("a", SQLType.INTEGER)]),
            [((i,), frozenset()) for i in range(5)])
        assert rows_of(Limit(source, 2, 1)) == [(1,), (2,)]

    def test_strip_columns(self):
        source = MaterializedSource(
            Schema([Column("a", SQLType.INTEGER),
                    Column("_sort0", SQLType.INTEGER)]),
            [((1, 9), frozenset())])
        stripped = StripColumns(source, 1,
                                Schema([Column("a", SQLType.INTEGER)]))
        assert rows_of(stripped) == [(1,)]


class TestUnionOperator:
    def test_concatenates(self):
        first = MaterializedSource(
            Schema([Column("a", SQLType.INTEGER)]),
            [((1,), frozenset())])
        second = MaterializedSource(
            Schema([Column("a", SQLType.INTEGER)]),
            [((2,), frozenset())])
        assert rows_of(Union([first, second])) == [(1,), (2,)]

    def test_width_mismatch_rejected(self):
        first = MaterializedSource(
            Schema([Column("a", SQLType.INTEGER)]), [])
        second = MaterializedSource(
            Schema([Column("a", SQLType.INTEGER),
                    Column("b", SQLType.INTEGER)]), [])
        with pytest.raises(ExecutionError):
            Union([first, second])

    def test_empty_union_rejected(self):
        with pytest.raises(ExecutionError):
            Union([])


class TestRowBuiltBatches:
    """NestedLoopJoin and MaterializedSource assemble their batches
    from rows; ``batches()`` and the row adapter must agree."""

    def make_sides(self):
        left = SeqScan(make_table("l"), "l", True)
        right = SeqScan(make_table(
            "r", rows=((2, "x"), (3, "y"), (9, "z"))), "r", True)
        return left, right

    def test_nested_loop_inner_batches(self):
        left, right = self.make_sides()
        join = NestedLoopJoin(left, right, parse_expression("l.k < r.k"))
        pairs, sizes = drained(join)
        assert sizes == [6]
        assert [values for values, _ in pairs] == [
            (1, "a", 2, "x"), (1, "a", 3, "y"), (1, "a", 9, "z"),
            (2, "b", 3, "y"), (2, "b", 9, "z"), (3, "a", 9, "z")]
        assert pairs[0][1] == frozenset({TupleRef("l", 1, 1),
                                         TupleRef("r", 1, 1)})
        assert list(join) == pairs

    def test_nested_loop_left_batches_pad_unmatched_rows(self):
        left, right = self.make_sides()
        join = NestedLoopJoin(left, right,
                              parse_expression("l.k = r.k + 5"), "left")
        pairs, sizes = drained(join)
        assert sizes == [3]
        assert pairs == [
            ((1, "a", None, None), frozenset({TupleRef("l", 1, 1)})),
            ((2, "b", None, None), frozenset({TupleRef("l", 2, 1)})),
            ((3, "a", None, None), frozenset({TupleRef("l", 3, 1)}))]
        assert list(join) == pairs

    def test_nested_loop_cross_batches(self):
        left, right = self.make_sides()
        join = NestedLoopJoin(left, right, None, "cross")
        pairs, sizes = drained(join)
        assert sizes == [9]
        assert [values[0] for values, _ in pairs] == [1, 1, 1, 2, 2, 2,
                                                      3, 3, 3]
        assert all(len(lineage) == 2 for _, lineage in pairs)
        assert list(join) == pairs

    def test_nested_loop_without_lineage_has_no_annotations(self):
        left = SeqScan(make_table("l"), "l", False)
        right = SeqScan(make_table("r"), "r", False)
        join = NestedLoopJoin(left, right, None, "cross")
        assert all(batch.lineages is None for batch in join.batches())
        assert lineages_of(join) == [frozenset()] * 9

    def test_materialized_source_batches(self):
        schema = Schema([Column("x", SQLType.INTEGER)])
        rows = [((n,), frozenset({TupleRef("t", n, 1)}))
                for n in range(BATCH_SIZE + 5)]
        source = MaterializedSource(schema, rows)
        pairs, sizes = drained(source)
        assert sizes == [BATCH_SIZE, 5]
        assert pairs == rows
        assert list(source) == rows

    def test_materialized_source_without_lineage(self):
        source = MaterializedSource(Schema([]), [((), frozenset())])
        batches = list(source.batches())
        assert [len(batch) for batch in batches] == [1]
        assert batches[0].lineages is None
        assert list(source) == [((), frozenset())]

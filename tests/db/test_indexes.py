"""Hash index tests: maintenance, planning, persistence, lineage."""

import pytest

from repro.db import Database
from repro.db.storage import HeapTable
from repro.errors import CatalogError


@pytest.fixture
def db():
    database = Database()
    database.execute(
        "CREATE TABLE t (id integer PRIMARY KEY, k integer, s text)")
    database.execute(
        "INSERT INTO t VALUES (1, 10, 'a'), (2, 20, 'b'), "
        "(3, 10, 'c'), (4, NULL, 'd')")
    database.execute("CREATE INDEX idx_k ON t (k)")
    return database


def plan_text(db, sql):
    return "\n".join(row[0] for row in db.execute(f"EXPLAIN {sql}").rows)


class TestIndexDDL:
    def test_create_and_drop(self, db):
        db.execute("CREATE INDEX idx_s ON t (s)")
        assert db.catalog.has_index("idx_s")
        db.execute("DROP INDEX idx_s")
        assert not db.catalog.has_index("idx_s")

    def test_duplicate_name_raises(self, db):
        with pytest.raises(CatalogError):
            db.execute("CREATE INDEX idx_k ON t (s)")

    def test_if_not_exists(self, db):
        db.execute("CREATE INDEX IF NOT EXISTS idx_k ON t (s)")

    def test_drop_missing_raises(self, db):
        with pytest.raises(CatalogError):
            db.execute("DROP INDEX ghost")
        db.execute("DROP INDEX IF EXISTS ghost")

    def test_unknown_column_raises(self, db):
        with pytest.raises(CatalogError):
            db.execute("CREATE INDEX idx_bad ON t (nope)")

    def test_render_round_trip(self):
        from repro.db.sql.parser import parse_one
        from repro.db.sql.render import render_statement
        for sql in ("CREATE INDEX i ON t (k)",
                    "CREATE INDEX IF NOT EXISTS i ON t (k)",
                    "DROP INDEX i", "DROP INDEX IF EXISTS i"):
            tree = parse_one(sql)
            assert parse_one(render_statement(tree)) == tree


class TestIndexPlanning:
    def test_equality_uses_index_scan(self, db):
        assert "IndexScan on t using idx_k" in plan_text(
            db, "SELECT * FROM t WHERE k = 10")

    def test_reversed_equality_uses_index(self, db):
        assert "IndexScan" in plan_text(
            db, "SELECT * FROM t WHERE 10 = k")

    def test_unindexed_column_scans(self, db):
        assert "SeqScan" in plan_text(db, "SELECT * FROM t WHERE s = 'a'")

    def test_range_predicate_scans(self, db):
        assert "IndexScan" not in plan_text(
            db, "SELECT * FROM t WHERE k > 10")

    def test_extra_conjunct_filters_on_top(self, db):
        text = plan_text(db, "SELECT * FROM t WHERE k = 10 AND s = 'a'")
        assert "IndexScan" in text
        assert "Filter" in text


class TestRangeProbes:
    """``int_col BETWEEN lo AND hi`` probes every key of the range
    when a hash index covers an INTEGER column; every other range
    shape stays on the scan."""

    def test_integer_range_shows_its_probe_count(self, db):
        db.execute("INSERT INTO t VALUES (5, 1, 'e'), (6, 2, 'f')")
        text = plan_text(db, "SELECT * FROM t WHERE k BETWEEN 1 AND 5")
        assert ("IndexScan on t using idx_k "
                "(k BETWEEN 1 AND 5, 5 probes)") in text

    def test_range_answer_matches_the_scan(self, db):
        sql = "SELECT id FROM t WHERE k BETWEEN 10 AND 13 ORDER BY id"
        indexed = db.query(sql)
        db.execute("DROP INDEX idx_k")
        assert indexed == db.query(sql) == [(1,), (3,)]

    def test_lineage_through_a_range_probe(self, db):
        sql = "SELECT id FROM t WHERE k BETWEEN 9 AND 11"
        assert "IndexScan" in plan_text(db, sql)
        result = db.execute(sql, provenance=True)
        assert sorted(ref.rowid for lineage in result.lineages
                      for ref in lineage) == [1, 3]

    def test_non_integer_column_scans(self, db):
        db.execute("CREATE TABLE p (pk text PRIMARY KEY, x float)")
        db.execute("INSERT INTO p VALUES ('1', 1.0), ('3', 3.5)")
        db.execute("CREATE INDEX idx_pk ON p (pk)")
        db.execute("CREATE INDEX idx_x ON p (x)")
        assert "SeqScan" in plan_text(
            db, "SELECT * FROM p WHERE pk BETWEEN 1 AND 5")
        assert "IndexScan" not in plan_text(
            db, "SELECT * FROM p WHERE x BETWEEN 1 AND 5")
        assert db.query("SELECT x FROM p WHERE x BETWEEN 1 AND 5") == [
            (1.0,), (3.5,)]

    @pytest.mark.parametrize("where", [
        "k NOT BETWEEN 1 AND 5",
        "k BETWEEN $1 AND $2",
        "k BETWEEN 1 AND $1",
        "k BETWEEN 1.0 AND 5",
        "k BETWEEN NULL AND 5",
        "k BETWEEN 5 AND 1",
    ])
    def test_other_range_shapes_scan(self, db, where):
        text = plan_text(db, f"SELECT * FROM t WHERE {where}")
        assert "SeqScan" in text and "IndexScan" not in text

    def test_span_larger_than_the_table_scans(self, db):
        text = plan_text(db, "SELECT * FROM t WHERE k BETWEEN 1 AND 5000")
        assert "SeqScan" in text and "IndexScan" not in text
        assert "idx_k skipped: 5000 probes for 4 rows" in text

    def test_prepared_range_bounds_scan_and_answer(self, db):
        prepared = db.prepare("SELECT id FROM t WHERE k BETWEEN $1 AND $2")
        assert db.execute_prepared(prepared, (10, 20)).rows == [
            (1,), (2,), (3,)]


class TestIndexCorrectness:
    def test_index_scan_results_match_seq_scan(self, db):
        indexed = db.query("SELECT id FROM t WHERE k = 10 ORDER BY id")
        db.execute("DROP INDEX idx_k")
        scanned = db.query("SELECT id FROM t WHERE k = 10 ORDER BY id")
        assert indexed == scanned == [(1,), (3,)]

    def test_null_key_never_matches(self, db):
        assert db.query("SELECT id FROM t WHERE k = NULL") == []

    def test_maintained_on_insert(self, db):
        db.execute("INSERT INTO t VALUES (5, 10, 'e')")
        assert db.query("SELECT count(*) FROM t WHERE k = 10") == [(3,)]

    def test_maintained_on_update(self, db):
        db.execute("UPDATE t SET k = 99 WHERE id = 1")
        assert db.query("SELECT id FROM t WHERE k = 99") == [(1,)]
        assert db.query("SELECT id FROM t WHERE k = 10") == [(3,)]

    def test_maintained_on_delete(self, db):
        db.execute("DELETE FROM t WHERE id = 1")
        assert db.query("SELECT id FROM t WHERE k = 10") == [(3,)]

    def test_maintained_on_rollback(self, db):
        db.execute("BEGIN")
        db.execute("UPDATE t SET k = 99 WHERE id = 1")
        db.execute("ROLLBACK")
        assert sorted(db.query("SELECT id FROM t WHERE k = 10")) == [
            (1,), (3,)]

    def test_lineage_through_index_scan(self, db):
        result = db.execute("SELECT id FROM t WHERE k = 10",
                            provenance=True)
        rowids = sorted(ref.rowid for lineage in result.lineages
                        for ref in lineage)
        assert rowids == [1, 3]

    def test_index_in_join_fragment(self, db):
        db.execute("CREATE TABLE u (k integer, note text)")
        db.execute("INSERT INTO u VALUES (10, 'ten'), (20, 'twenty')")
        rows = db.query(
            "SELECT t.id, u.note FROM t, u "
            "WHERE t.k = u.k AND t.k = 10 ORDER BY t.id")
        assert rows == [(1, "ten"), (3, "ten")]


class TestIndexPersistence:
    def test_index_definition_survives_restart(self, tmp_path):
        first = Database(data_directory=tmp_path / "d")
        first.execute("CREATE TABLE t (k integer)")
        first.execute("CREATE INDEX idx ON t (k)")
        first.execute("INSERT INTO t VALUES (5)")
        first.close()
        second = Database(data_directory=tmp_path / "d")
        assert second.catalog.has_index("idx")
        assert "IndexScan" in "\n".join(
            row[0] for row in second.execute(
                "EXPLAIN SELECT * FROM t WHERE k = 5").rows)
        assert second.query("SELECT * FROM t WHERE k = 5") == [(5,)]

    def test_serialize_round_trip_rebuilds_buckets(self):
        table = HeapTable.deserialize(
            _indexed_table().serialize())
        index = table.index_on("k")
        assert index is not None
        assert index.lookup(10) == frozenset({1, 3})


def _indexed_table():
    from repro.db.types import Column, Schema, SQLType
    table = HeapTable("t", Schema([Column("id", SQLType.INTEGER),
                                   Column("k", SQLType.INTEGER)]))
    table.insert((1, 10), tick=1)
    table.insert((2, 20), tick=1)
    table.insert((3, 10), tick=1)
    table.create_index("idx", "k")
    return table


class TestRollbackIndexConsistency:
    """Undoing a DELETE restores the row under its original rowid; the
    secondary indexes must follow that identity move (regression: they
    kept the temporary rowid, so a later IndexScan dereferenced a dead
    row)."""

    def test_rollback_of_delete_repoints_secondary_indexes(self, db):
        db.execute("BEGIN")
        db.execute("INSERT INTO t VALUES (5, 30, 'e')")
        db.execute("DELETE FROM t WHERE id = 3")
        db.execute("ROLLBACK")
        # rowids churned during the transaction: lookups must not
        # reference the temporary identity
        assert db.query("SELECT id, s FROM t WHERE k = 10 "
                        "ORDER BY id") == [(1, "a"), (3, "c")]
        assert db.query("SELECT id FROM t WHERE k = 30") == []
        table = db.catalog.get_table("t")
        index = table.index_on("k")
        assert set().union(*index.buckets.values()) <= set(table.rows)

    def test_rollback_restores_pk_rejection(self, db):
        from repro.errors import IntegrityError

        db.execute("BEGIN")
        db.execute("DELETE FROM t WHERE id = 2")
        db.execute("ROLLBACK")
        with pytest.raises(IntegrityError):
            db.execute("INSERT INTO t VALUES (2, 99, 'dup')")

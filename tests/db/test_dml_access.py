"""How UPDATE and DELETE find their target rows.

The planner picks the access path (:func:`repro.db.planner.
plan_dml_access`): an IndexScan when a WHERE conjunct probes a hash
index — ``=``, ``IN`` or an integer ``BETWEEN`` — otherwise the heap
scan, with the leftover conjuncts run by the compiled batch predicate.
The twin test runs one UPDATE/DELETE stream against an indexed
database and an index-free one and requires every observable output
to be identical: row counts, write provenance in order, WAL bytes and
the checkpointed directory.
"""

from __future__ import annotations

import pytest

from repro.db import Database
from repro.db.chaos import tree_bytes
from repro.db.executor import IndexScan
from repro.db.planner import plan_dml_access
from repro.db.sql.parser import parse_sql
from repro.errors import ExecutionError


def where_of(sql):
    return parse_sql(sql)[0].where


@pytest.fixture
def db():
    database = Database()
    database.execute("CREATE TABLE t (k integer, v integer, s text)")
    values = ", ".join(f"({k % 20}, {k}, 's{k % 3}')" for k in range(40))
    database.execute(f"INSERT INTO t VALUES {values}, (NULL, 99, 'n')")
    database.execute("CREATE INDEX ix_k ON t (k)")
    database.execute("CREATE INDEX ix_s ON t (s)")
    return database


class TestAccessPath:
    def access(self, db, where):
        table = db.catalog.get_table("t")
        return plan_dml_access(table, where_of(
            f"DELETE FROM t WHERE {where}"), db.catalog)

    def test_integer_range_probes_the_index(self, db):
        access, residual = self.access(db, "k BETWEEN 3 AND 7 AND v > 1")
        assert isinstance(access, IndexScan)
        assert access.key_range == (3, 7)
        assert len(residual) == 1
        keys = {values[0] for values, _ in access}
        assert sorted(keys) == [3, 4, 5, 6, 7]

    def test_equality_and_in_probe_the_index(self, db):
        access, residual = self.access(db, "s = 's1'")
        assert isinstance(access, IndexScan) and residual == []
        access, _ = self.access(db, "k IN (1, 2)")
        assert isinstance(access, IndexScan)

    @pytest.mark.parametrize("where", [
        "v BETWEEN 1 AND 5",          # no index on v
        "k BETWEEN 1 AND 500",        # more probes than rows
        "k = 1 OR v = 2",
    ])
    def test_other_predicates_scan(self, db, where):
        access, residual = self.access(db, where)
        assert access is None and len(residual) == 1

    def test_no_where_scans_everything(self, db):
        table = db.catalog.get_table("t")
        assert plan_dml_access(table, None, db.catalog) == (None, [])


class TestTargets:
    def test_update_through_the_index_inside_a_transaction(self, db):
        db.execute("BEGIN")
        db.execute("INSERT INTO t VALUES (4, 500, 'new')")
        db.execute("DELETE FROM t WHERE v = 24")
        result = db.execute("UPDATE t SET v = v + 1000 "
                            "WHERE k BETWEEN 4 AND 5")
        assert result.rowcount == 4  # v 4, 5, 25 and the new 500
        assert sorted(db.query("SELECT v FROM t WHERE v > 1000")) == [
            (1004,), (1005,), (1025,), (1500,)]
        db.execute("COMMIT")
        assert sorted(db.query("SELECT v FROM t WHERE v > 1000")) == [
            (1004,), (1005,), (1025,), (1500,)]

    def test_set_error_leaves_the_table_untouched(self, db):
        before = db.query("SELECT * FROM t")
        with pytest.raises(ExecutionError):
            db.execute("UPDATE t SET v = 10 / (v - 30) "
                       "WHERE k BETWEEN 5 AND 15")
        assert db.query("SELECT * FROM t") == before

    def test_insert_values_are_compiled_expressions(self, db):
        db.execute("INSERT INTO t VALUES (1 + 2, 7 * 6, 'a' || 'b')")
        assert db.query("SELECT k, v, s FROM t WHERE v = 42") == [
            (3, 42, "ab")]


# -- indexed / index-free twins ----------------------------------------------

STREAM = [
    ["UPDATE t SET v = v * 2 WHERE k BETWEEN 3 AND 6"],
    ["DELETE FROM t WHERE k BETWEEN -2 AND 1"],
    ["UPDATE t SET k = k + 1, s = 'moved' WHERE k BETWEEN 7 AND 9"],
    ["UPDATE t SET v = 0 WHERE k BETWEEN 9 AND 7"],
    ["DELETE FROM t WHERE k BETWEEN NULL AND 4"],
    ["UPDATE t SET v = v - 1 WHERE k = 12 AND v > 20"],
    ["DELETE FROM t WHERE k IN (13, 14) OR v = 3"],
    ["BEGIN",
     "INSERT INTO t VALUES (15, 1, 'txn'), (16, 2, 'txn')",
     "UPDATE t SET v = v + 100 WHERE k BETWEEN 14 AND 16",
     "DELETE FROM t WHERE k BETWEEN 16 AND 17",
     "COMMIT"],
    ["UPDATE t SET v = 1 WHERE k BETWEEN -100 AND 100"],
    ["DELETE FROM t WHERE s = 'moved'"],
]


def run_twin(data_dir, indexed):
    database = Database(data_directory=data_dir)
    database.execute("CREATE TABLE t (k integer, v integer, s text)")
    values = ", ".join(f"({k % 20}, {k}, 's{k % 3}')" for k in range(60))
    database.execute(f"INSERT INTO t VALUES {values}, (NULL, 7, 'n')")
    if indexed:
        database.execute("CREATE INDEX ix_k ON t (k)")
    database.checkpoint()  # the WAL now holds only the stream
    outputs = []
    for unit in STREAM:
        for sql in unit:
            result = database.execute(sql)
            outputs.append((sql, result.rowcount, result.written,
                            list(result.written_lineage.items()),
                            result.deleted))
    wal = (data_dir / "wal.log").read_bytes()
    if indexed:
        database.execute("DROP INDEX ix_k")
    database.checkpoint()
    return outputs, wal


def test_indexed_and_index_free_twins_are_identical(tmp_path):
    indexed = run_twin(tmp_path / "indexed", indexed=True)
    scanned = run_twin(tmp_path / "scanned", indexed=False)
    for mine, theirs in zip(indexed[0], scanned[0]):
        assert mine == theirs, mine[0]
    assert indexed[1] == scanned[1]
    assert (tree_bytes(tmp_path / "indexed")
            == tree_bytes(tmp_path / "scanned"))


def test_twin_stream_takes_the_index_path(tmp_path, monkeypatch):
    """The parity above is only a referee if the indexed twin really
    probes: count the statements whose targets came from an
    IndexScan."""
    probed = []
    original = IndexScan.scan_versions

    def counting(self):
        probed.append(self.key_range)
        return original(self)

    monkeypatch.setattr(IndexScan, "scan_versions", counting)
    run_twin(tmp_path / "indexed", indexed=True)
    assert len([key_range for key_range in probed
                if key_range is not None]) >= 5

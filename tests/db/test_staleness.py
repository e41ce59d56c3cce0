"""Staleness referee: no cache may serve an answer older than the heap.

Every cache keys on the catalog's per-table version records, so any
write that goes through the heap — including the paths that bypass DML
and the WAL/MVCC bookkeeping — must make every dependent cached answer
unreachable. This file drives each such path against each cache and
compares the served answer with a cache-free recomputation:

* write paths: ``HeapTable.insert`` the way dbgen bulk-loads,
  ``put_row``/``remove_row`` the way WAL redo applies records,
  ``restore_row`` the way package replay restores tuples, and
  ``truncate``;
* caches: the server result cache, the columnar scan cache, and the
  plan cache after index DDL, ANALYZE, repartitioning, and dropping
  and recreating a table under a different schema;
* the checkpoint, which skips a table whose file is current: each
  write path above, plus a rolled-back transactional insert (which
  reserves a rowid without touching the heap), must make the next
  checkpoint rewrite that table to exactly its serialized bytes.

The converse holds too: a direct load moves no commit watermark, so a
transaction whose snapshot predates it must not be served the loaded
rows by either the scan cache or the result cache.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.db import Database, DBClient, DBServer
from repro.db import parallel
from repro.db.fileio import FileIO

SQL = "SELECT count(*), sum(k) FROM t"


def dbgen_insert(table):
    table.insert((100, "loaded"), tick=1)


def wal_put_new(table):
    table.put_row(50, (50, "redo"), version=1)


def wal_put_overwrite(table):
    table.put_row(2, (200, "redo"), version=1)


def wal_remove(table):
    table.remove_row(1)


def restore(table):
    table.restore_row(60, (60, "restored"), version=1)


def truncate(table):
    table.truncate()


WRITE_PATHS = [dbgen_insert, wal_put_new, wal_put_overwrite, wal_remove,
               restore, truncate]


def make_db() -> Database:
    database = Database()
    database.execute("CREATE TABLE t (k integer, label text)")
    database.execute("INSERT INTO t VALUES (1, 'a'), (2, 'b'), (3, 'c')")
    return database


def uncached(database: Database, sql: str = SQL) -> list[tuple]:
    """The answer with the scan cache off and no server in the way."""
    cache = database.scan_cache
    cache.enabled = False
    try:
        return database.query(sql)
    finally:
        cache.enabled = True


def test_result_cache_misses_a_direct_load():
    """The motivating case: a dbgen-style load of 3 rows into an empty
    table must not leave a cached ``count(*) = 0`` behind."""
    database = Database()
    database.execute("CREATE TABLE t (k integer, label text)")
    server = DBServer(database)
    client = DBClient(server.transport(), "app", "pid-1")
    client.connect()
    sql = "SELECT count(*) FROM t"
    assert client.query(sql) == [(0,)]
    assert client.query(sql) == [(0,)]
    assert server.result_cache.counters()["hits"] == 1
    table = database.catalog.get_table("t")
    tick = database.clock.tick()
    for k in range(3):
        table.insert((k, "row"), tick)
    assert client.query(sql) == [(3,)]
    client.close()


@pytest.mark.parametrize("write", WRITE_PATHS, ids=lambda fn: fn.__name__)
def test_result_cache_never_serves_stale(write):
    database = make_db()
    server = DBServer(database)
    client = DBClient(server.transport(), "app", "pid-1")
    client.connect()
    before = client.query(SQL)
    assert client.query(SQL) == before
    assert server.result_cache.counters()["hits"] == 1
    write(database.catalog.get_table("t"))
    expected = uncached(database)
    assert expected != before
    assert client.query(SQL) == expected
    client.close()


@pytest.mark.parametrize("write", WRITE_PATHS, ids=lambda fn: fn.__name__)
def test_scan_cache_never_serves_stale(write):
    database = make_db()
    cache = database.scan_cache
    table = database.catalog.get_table("t")
    before = database.query(SQL)
    hits = cache.hits
    assert database.query(SQL) == before
    assert cache.hits == hits + 1
    assert cache.has_cached_scan(table)
    write(table)
    assert not cache.has_cached_scan(table)
    expected = uncached(database)
    assert expected != before
    assert database.query(SQL) == expected
    # and the rebuilt segment answers warm at the new version
    assert database.query(SQL) == expected
    assert cache.has_cached_scan(table)


class TestPlanCache:
    def counters(self, database):
        return database.plan_cache.hits, database.plan_cache.misses

    def test_index_ddl_replans(self):
        database = make_db()
        sql = "SELECT label FROM t WHERE k = 2"
        database.query(sql)
        database.query(sql)
        assert self.counters(database) == (1, 1)
        database.execute("CREATE INDEX idx_k ON t (k)")
        assert database.query(sql) == [("b",)]
        assert self.counters(database) == (1, 2)
        database.execute("DROP INDEX idx_k")
        assert database.query(sql) == [("b",)]
        assert self.counters(database) == (1, 3)

    def test_analyze_replans(self):
        database = make_db()
        database.query(SQL)
        database.execute("ANALYZE t")
        database.query(SQL)
        assert self.counters(database) == (0, 2)

    def test_repartitioning_replans(self):
        database = make_db()
        expected = uncached(database)
        database.set_parallel_workers(
            2, pool_factory=parallel.InProcessPool, min_rows=0)
        hits, misses = self.counters(database)
        database.query(SQL)
        database.set_table_partitioning("t", "k", 2)
        assert database.query(SQL) == expected
        database.set_table_partitioning("t", None)
        assert database.query(SQL) == expected
        assert self.counters(database) == (hits, misses + 3)

    def test_drop_and_recreate_with_another_schema(self):
        database = make_db()
        sql = "SELECT * FROM t"
        assert database.query(sql) == [(1, "a"), (2, "b"), (3, "c")]
        database.query(sql)
        database.execute("DROP TABLE t")
        database.execute("CREATE TABLE t (label text, k integer, "
                         "extra float)")
        database.execute("INSERT INTO t VALUES ('z', 9, 1.5)")
        assert database.query(sql) == [("z", 9, 1.5)]
        assert self.counters(database) == (1, 2)

    def test_data_writes_keep_the_plan(self):
        """Plans do not depend on data versions: every write path
        above leaves the cached plan in place (and its answer fresh)."""
        database = make_db()
        database.query(SQL)
        table = database.catalog.get_table("t")
        for write in WRITE_PATHS:
            write(table)
            assert database.query(SQL) == uncached(database)
        hits, misses = self.counters(database)
        assert misses == 1 and hits == 2 * len(WRITE_PATHS)


def test_scan_cache_hides_a_direct_load_from_an_older_snapshot():
    """A direct heap load at a fresh tick moves no commit watermark, so
    a transaction whose snapshot predates the load must still not see
    the loaded rows through a cached segment."""
    database = Database()
    database.execute("CREATE TABLE t (a integer)")
    database.execute("INSERT INTO t VALUES (1), (2)")
    session = database.create_session("s")
    database.execute("BEGIN", session=session)
    sql = "SELECT a FROM t"
    assert database.query(sql, session=session) == [(1,), (2,)]
    database.catalog.get_table("t").insert((99,), database.clock.tick())
    cache = database.scan_cache
    cache.enabled = False
    try:
        expected = database.query(sql, session=session)
    finally:
        cache.enabled = True
    assert expected == [(1,), (2,)]
    assert database.query(sql, session=session) == expected
    database.execute("COMMIT", session=session)
    # the next snapshot sees the load, and the cache serves it again
    assert database.query(sql, session=session) == [(1,), (2,), (99,)]
    hits = cache.hits
    assert database.query(sql, session=session) == [(1,), (2,), (99,)]
    assert cache.hits == hits + 1


def test_result_cache_hides_a_direct_load_from_an_older_snapshot():
    """Same gap through the server result cache: an autocommit reader
    caches the post-load answer, which an older snapshot must not be
    served."""
    database = Database()
    database.execute("CREATE TABLE t (a integer)")
    database.execute("INSERT INTO t VALUES (1), (2)")
    server = DBServer(database)
    reader = DBClient(server.transport(), "app", "pid-1")
    reader.connect()
    txn = DBClient(server.transport(), "app", "pid-2")
    txn.connect()
    sql = "SELECT a FROM t"
    txn.execute("BEGIN")
    assert txn.query(sql) == [(1,), (2,)]
    database.catalog.get_table("t").insert((99,), database.clock.tick())
    assert reader.query(sql) == [(1,), (2,), (99,)]
    assert reader.query(sql) == [(1,), (2,), (99,)]
    hits = server.result_cache.counters()["hits"]
    assert txn.query(sql) == [(1,), (2,)]
    assert server.result_cache.counters()["hits"] == hits
    txn.execute("COMMIT")
    assert txn.query(sql) == [(1,), (2,), (99,)]
    reader.close()
    txn.close()


def aborted_insert(database):
    """A rolled-back transactional insert: the heap never sees the
    row, but the reserved rowid stays reserved."""
    database.execute("BEGIN")
    database.execute("INSERT INTO t VALUES (70, 'aborted')")
    database.execute("ROLLBACK")


class RecordingIO(FileIO):
    """Records the name of every table file written."""

    def __init__(self) -> None:
        self.saved: list[str] = []

    def atomic_write_bytes(self, path, data, point="io.atomic") -> None:
        if point == "checkpoint.table":
            self.saved.append(Path(path).name)
        super().atomic_write_bytes(path, data, point=point)


@pytest.mark.parametrize("write", WRITE_PATHS + [aborted_insert],
                         ids=lambda fn: fn.__name__)
def test_checkpoint_never_skips_a_changed_table(tmp_path, write):
    io = RecordingIO()
    database = Database(data_directory=tmp_path / "d", io=io)
    database.execute("CREATE TABLE t (k integer, label text)")
    database.execute("INSERT INTO t VALUES (1, 'a'), (2, 'b'), (3, 'c')")
    database.execute("CREATE TABLE u (k integer)")
    database.execute("INSERT INTO u VALUES (1)")
    database.checkpoint()
    io.saved.clear()
    database.checkpoint()
    assert io.saved == []  # both tables skipped
    table = database.catalog.get_table("t")
    if write is aborted_insert:
        write(database)
    else:
        write(table)
    database.checkpoint()
    assert io.saved == ["t.tbl"]
    assert ((tmp_path / "d" / "t.tbl").read_text()
            == table.serialize())

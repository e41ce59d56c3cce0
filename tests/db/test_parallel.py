"""Partition-parallel execution: pools, partitioned storage, planner
placement, EXPLAIN integration, MVCC snapshots, and crash surfacing.

The parity-first harness lives in ``test_differential_parallel.py``;
this file covers the machinery itself — the resident/in-process pools, the
hash-partition bookkeeping on the heap, the WAL/checkpoint persistence
of partition specs (with the packaged ``.tbl`` bytes provably
unchanged), the cost-gated Gather placement, and the failure path
(:class:`repro.errors.WorkerCrashError` with every worker reaped).
"""

from __future__ import annotations

import os

import pytest

from repro.db import Database
from repro.db import parallel
from repro.db.storage import stable_hash
from repro.errors import CatalogError, WorkerCrashError

pytestmark = pytest.mark.parallel


# -- worker pools -------------------------------------------------------------

class TestPools:
    def test_in_process_pool_runs_in_order(self):
        seen = []
        pool = parallel.InProcessPool()
        results = pool.run([lambda i=i: (seen.append(i), i * 10)[1]
                            for i in range(4)])
        assert results == [0, 10, 20, 30]
        assert seen == [0, 1, 2, 3]

    def test_in_process_pool_child_hook_sees_partition_index(self):
        hooked = []
        pool = parallel.InProcessPool(child_hook=hooked.append)
        pool.run([lambda: None, lambda: None, lambda: None])
        assert hooked == [0, 1, 2]


class _Square:
    """Picklable task: ships through the resident frame protocol."""

    def __init__(self, n):
        self.n = n

    def __call__(self):
        return self.n * self.n


class _Boom:
    """Picklable task that raises inside the resident."""

    def __call__(self):
        raise ValueError("inside the resident")


class _Die:
    """Picklable task that kills its resident before the result frame."""

    def __call__(self):
        os._exit(7)


class TestPersistentPool:
    """The resident protocol itself: frames, reuse, error propagation,
    crash surfacing, respawn, and the in-process fallback."""

    def test_runs_tasks_in_order_and_reuses_residents(self):
        pool = parallel.PersistentForkPool(2)
        try:
            assert pool.run([_Square(i) for i in range(5)]) \
                == [0, 1, 4, 9, 16]
            first_pids = pool.worker_pids()
            assert len(first_pids) == 2
            assert pool.run([_Square(i) for i in range(3)]) == [0, 1, 4]
            assert pool.worker_pids() == first_pids  # no new forks
            counters = pool.counters()
            assert counters["forks"] == 2
            assert counters["reuse_hits"] == 1
            assert counters["worker_crashes"] == 0
        finally:
            pool.close()

    def test_close_reaps_every_resident(self):
        pool = parallel.PersistentForkPool(3)
        pool.run([_Square(1)] * 3)
        pids = pool.worker_pids()
        assert len(pids) == 3
        pool.close()
        assert pool.worker_pids() == []
        for pid in pids:
            with pytest.raises(ChildProcessError):
                os.waitpid(pid, os.WNOHANG)

    def test_task_error_propagates_and_residents_survive(self):
        pool = parallel.PersistentForkPool(2)
        try:
            pool.run([_Square(1), _Square(2)])
            pids = pool.worker_pids()
            with pytest.raises(ValueError, match="inside the resident"):
                pool.run([_Square(1), _Boom()])
            # an ordinary exception is a result, not a crash: the
            # residents live on and the next statement reuses them
            assert pool.worker_pids() == pids
            assert pool.run([_Square(3), _Square(4)]) == [9, 16]
            assert pool.counters()["worker_crashes"] == 0
        finally:
            pool.close()

    def test_crashed_resident_surfaces_reaps_and_respawns(self):
        pool = parallel.PersistentForkPool(2)
        try:
            pool.run([_Square(1), _Square(2)])
            doomed = pool.worker_pids()[1]
            with pytest.raises(WorkerCrashError, match=r"\[1\]"):
                pool.run([_Square(1), _Die()])
            with pytest.raises(ChildProcessError):
                os.waitpid(doomed, os.WNOHANG)  # already reaped
            assert pool.counters()["worker_crashes"] == 1
            # the dead slot respawns on the next dispatch
            assert pool.run([_Square(5), _Square(6)]) == [25, 36]
            counters = pool.counters()
            assert counters["respawns"] == 1
            assert counters["forks"] == 3
        finally:
            pool.close()

    def test_sigkilled_resident_surfaces_and_next_run_succeeds(self):
        import signal as signal_module

        pool = parallel.PersistentForkPool(2)
        try:
            pool.run([_Square(1), _Square(2)])
            os.kill(pool.worker_pids()[0], signal_module.SIGKILL)
            with pytest.raises(WorkerCrashError):
                pool.run([_Square(1), _Square(2)])
            assert pool.run([_Square(3), _Square(4)]) == [9, 16]
            assert pool.counters()["respawns"] >= 1
        finally:
            pool.close()

    def test_unpicklable_tasks_fall_back_to_in_process(self):
        hooked = []
        pool = parallel.PersistentForkPool(2, child_hook=hooked.append)
        try:
            value = object()  # unpicklable payload in the closure
            parent = os.getpid()
            assert pool.run([lambda: 7, lambda v=value: v is value,
                             os.getpid]) == [7, True, parent]
            # the tasks ran here, in order, through the same hook; no
            # resident was spawned and nothing forked
            assert hooked == [0, 1, 2]
            assert pool.worker_pids() == []
            assert pool.counters()["forks"] == 0
        finally:
            pool.close()


class TestPersistentPoolEngineLifecycle:
    """The engine-owned resident pool: spawned by
    ``set_parallel_workers``, reused across read statements, recycled
    on any engine-state change, torn down on ``close``."""

    def pooled_db(self, workers=2, rows=300):
        database = make_db(rows=rows)
        database.set_parallel_workers(workers, min_rows=0)
        assert isinstance(database.parallel_pool,
                          parallel.PersistentForkPool)
        return database

    def test_read_only_statements_fork_once_per_worker(self):
        database = self.pooled_db(workers=2)
        for bound in (10, 20, 30, 40, 50):
            database.query(f"SELECT a, b FROM t WHERE a < {bound}")
        counters = database.parallel_pool.counters()
        assert counters["forks"] == 2  # exactly once per worker
        assert counters["reuse_hits"] == 4
        assert len(counters["resident_pids"]) == 2
        database.close()

    def test_any_commit_recycles_the_residents(self):
        database = self.pooled_db(workers=2)
        database.query("SELECT a FROM t WHERE a < 10")
        stale = set(database.parallel_pool.worker_pids())
        database.execute("INSERT INTO t VALUES (900, 'new', 9.0)")
        # the next dispatch forks a fresh generation that sees the row
        assert database.query(
            "SELECT count(*) FROM t WHERE a = 900") == [(1,)]
        fresh = set(database.parallel_pool.worker_pids())
        assert fresh and fresh.isdisjoint(stale)
        assert database.parallel_pool.forks == 4
        database.close()

    def test_ddl_analyze_and_repartition_each_recycle(self):
        database = self.pooled_db(workers=2)
        pool = database.parallel_pool

        def generation():
            database.query("SELECT a FROM t WHERE a < 25")
            return set(pool.worker_pids())

        seen = [generation()]
        database.execute("CREATE TABLE other (x integer)")   # DDL
        seen.append(generation())
        database.execute("ANALYZE t")                        # stats
        seen.append(generation())
        database.set_table_partitioning("t", "a", 4)         # epoch
        seen.append(generation())
        for left, right in zip(seen, seen[1:]):
            assert left.isdisjoint(right)
        assert pool.forks == 2 * len(seen)
        database.close()

    def test_checkpoint_recycles_residents(self, tmp_path):
        database = Database(data_directory=tmp_path)
        database.execute("CREATE TABLE t (a integer, b text)")
        database.execute("INSERT INTO t VALUES " + ", ".join(
            f"({i}, 'x{i}')" for i in range(100)))
        database.set_parallel_workers(2, min_rows=0)
        database.query("SELECT a FROM t WHERE a < 50")
        assert database.parallel_pool.worker_pids()
        database.checkpoint()
        # checkpoint retires the generation; the next statement respawns
        assert database.parallel_pool.worker_pids() == []
        database.query("SELECT a FROM t WHERE a < 50")
        assert database.parallel_pool.forks == 4
        database.close()

    def test_close_tears_down_the_pool(self):
        database = self.pooled_db(workers=2)
        database.query("SELECT a FROM t WHERE a < 10")
        pids = database.parallel_pool.worker_pids()
        database.close()
        assert database.parallel_pool is None
        for pid in pids:
            with pytest.raises(ChildProcessError):
                os.waitpid(pid, os.WNOHANG)

    def test_crash_respawn_next_statement_succeeds(self):
        import signal as signal_module

        database = make_db(rows=300)
        serial_answer = database.query("SELECT b, count(*) FROM t GROUP BY b")
        database.set_parallel_workers(2, min_rows=0)
        database.query("SELECT a FROM t WHERE a < 10")
        os.kill(database.parallel_pool.worker_pids()[0],
                signal_module.SIGKILL)
        with pytest.raises(WorkerCrashError):
            database.query("SELECT b, count(*) FROM t GROUP BY b")
        # the statement failed whole; the dead slot respawns and the
        # very next statement answers exactly like serial
        assert database.query(
            "SELECT b, count(*) FROM t GROUP BY b") == serial_answer
        assert database.parallel_pool.counters()["respawns"] >= 1
        assert database.mvcc.active_count() == 0
        database.close()

    def test_explain_analyze_reports_pool_counters(self):
        database = self.pooled_db(workers=2)
        database.query("SELECT a FROM t WHERE a < 30")
        result = database.execute(
            "EXPLAIN ANALYZE SELECT a FROM t WHERE a < 30")
        pool_stats = result.stats["analyze"]["parallel_pool"]
        assert pool_stats["workers"] == 2
        assert pool_stats["forks"] == 2
        assert pool_stats["reuse_hits"] >= 1
        assert len(pool_stats["resident_pids"]) == 2
        database.close()


class TestSplitting:
    def test_split_ranges_round_trips(self):
        items = list(range(17))
        for parts in (1, 2, 3, 4, 16, 17, 40):
            chunks = parallel.split_ranges(items, parts)
            assert [x for chunk in chunks for x in chunk] == items
            assert all(chunks)
            assert len(chunks) <= max(parts, 1)

    def test_split_ranges_empty_input(self):
        assert parallel.split_ranges([], 4) == [[]] or \
            parallel.split_ranges([], 4) == []

    def test_bucket_lists_sorts_each_worker_stream(self):
        buckets = [[9, 1], [4, 2], [7], [3, 8]]
        lists = parallel.bucket_lists(buckets, 2)
        assert len(lists) == 2
        assert all(rowids == sorted(rowids) for rowids in lists)
        merged = sorted(x for rowids in lists for x in rowids)
        assert merged == [1, 2, 3, 4, 7, 8, 9]


# -- partitioned storage ------------------------------------------------------

def make_db(rows=60):
    database = Database()
    database.execute("CREATE TABLE t (a integer, b text, c float)")
    if rows:
        database.execute("INSERT INTO t VALUES " + ", ".join(
            f"({i}, 'tag{i % 5}', {i * 0.5})" for i in range(rows)))
    return database


class TestPartitionedHeap:
    def test_stable_hash_is_deterministic_across_types(self):
        assert stable_hash(None) == 0
        assert stable_hash(7) == 7
        assert stable_hash("amber") == stable_hash("amber")
        assert stable_hash(1.5) == stable_hash(1.5)

    def test_buckets_cover_exactly_the_committed_rows(self):
        database = make_db()
        table = database.catalog.get_table("t")
        table.set_partitioning("b", 4)
        buckets = table.partition_rowids()
        assert len(buckets) == 4
        flat = sorted(r for bucket in buckets for r in bucket)
        assert flat == sorted(table.rows)
        for bucket in buckets:
            assert bucket == sorted(bucket)

    def test_buckets_track_insert_update_delete(self):
        database = make_db()
        table = database.catalog.get_table("t")
        table.set_partitioning("a", 3)
        database.execute("INSERT INTO t VALUES (100, 'new', 1.0)")
        database.execute("UPDATE t SET a = 200 WHERE a = 10")
        database.execute("DELETE FROM t WHERE a < 5")
        flat = sorted(r for bucket in table.partition_rowids()
                      for r in bucket)
        assert flat == sorted(table.rows)
        for bucket_index, bucket in enumerate(table.partition_rowids()):
            for rowid in bucket:
                assert table.partition_of(table.rows[rowid]) \
                    == bucket_index

    def test_partition_count_must_be_positive(self):
        database = make_db(rows=0)
        table = database.catalog.get_table("t")
        with pytest.raises(CatalogError):
            table.set_partitioning("a", 0)

    def test_partition_column_must_exist(self):
        database = make_db(rows=0)
        with pytest.raises(CatalogError):
            database.set_table_partitioning("t", "nope", 4)


class TestPartitionPersistence:
    def test_spec_survives_wal_replay(self, tmp_path):
        database = Database(data_directory=tmp_path)
        database.execute("CREATE TABLE t (a integer, b text)")
        database.execute("INSERT INTO t VALUES (1, 'x'), (2, 'y')")
        database.set_table_partitioning("t", "b", 8)
        # no checkpoint: the spec must come back through the WAL
        reopened = Database(data_directory=tmp_path)
        spec = reopened.catalog.get_table("t").partition_spec
        assert spec is not None
        assert (spec.column, spec.count) == ("b", 8)
        flat = sorted(
            r for bucket in
            reopened.catalog.get_table("t").partition_rowids()
            for r in bucket)
        assert flat == sorted(reopened.catalog.get_table("t").rows)

    def test_spec_survives_checkpoint(self, tmp_path):
        database = Database(data_directory=tmp_path)
        database.execute("CREATE TABLE t (a integer, b text)")
        database.execute("INSERT INTO t VALUES (1, 'x')")
        database.set_table_partitioning("t", "a", 2)
        database.checkpoint()  # resets the WAL: meta must carry it
        reopened = Database(data_directory=tmp_path)
        spec = reopened.catalog.get_table("t").partition_spec
        assert spec is not None
        assert (spec.column, spec.count) == ("a", 2)

    def test_clearing_partitioning_is_durable(self, tmp_path):
        database = Database(data_directory=tmp_path)
        database.execute("CREATE TABLE t (a integer, b text)")
        database.set_table_partitioning("t", "a", 2)
        database.set_table_partitioning("t", None)
        database.checkpoint()
        reopened = Database(data_directory=tmp_path)
        assert reopened.catalog.get_table("t").partition_spec is None

    def test_table_file_bytes_do_not_change(self, tmp_path):
        database = Database(data_directory=tmp_path)
        database.execute("CREATE TABLE t (a integer, b text)")
        database.execute("INSERT INTO t VALUES " + ", ".join(
            f"({i}, 'v{i}')" for i in range(20)))
        database.checkpoint()
        before = (tmp_path / "t.tbl").read_bytes()
        database.set_table_partitioning("t", "b", 4)
        database.checkpoint()
        after = (tmp_path / "t.tbl").read_bytes()
        assert before == after  # partitioning is metadata, not layout


# -- planner placement and EXPLAIN --------------------------------------------

def explain_text(database, sql):
    return "\n".join(
        row[0] for row in database.execute("EXPLAIN " + sql).rows)


class TestPlannerPlacement:
    def test_serial_below_min_rows_threshold(self):
        database = make_db()  # 60 rows << DEFAULT_MIN_ROWS
        database.set_parallel_workers(4)
        assert "Gather" not in explain_text(
            database, "SELECT a FROM t WHERE a < 10")

    def test_gather_above_threshold(self):
        database = make_db()
        database.set_parallel_workers(4, min_rows=0)
        text = explain_text(database, "SELECT a FROM t WHERE a < 10")
        assert "Gather (workers=4)" in text
        assert "SeqScan on t" in text

    def test_one_worker_never_gathers(self):
        database = make_db()
        database.set_parallel_workers(1, min_rows=0)
        assert "Gather" not in explain_text(
            database, "SELECT a FROM t")

    def test_merge_exact_aggregate_gathers_partials(self):
        database = make_db()
        database.set_parallel_workers(2, min_rows=0)
        text = explain_text(
            database, "SELECT b, count(*), sum(a) FROM t GROUP BY b")
        assert "AggregateGather (workers=2" in text

    def test_float_aggregate_keeps_serial_fold(self):
        # avg (and sum over floats) must accumulate in serial order:
        # the scan parallelizes, the fold does not
        database = make_db()
        database.set_parallel_workers(2, min_rows=0)
        text = explain_text(
            database, "SELECT b, avg(c) FROM t GROUP BY b")
        assert "AggregateGather" not in text
        assert text.index("GroupAggregate") < text.index("Gather")

    def test_join_scan_sides_parallelize(self):
        database = make_db()
        database.execute("CREATE TABLE d (b text, label text)")
        database.execute("INSERT INTO d VALUES " + ", ".join(
            f"('tag{i}', 'L{i}')" for i in range(5)))
        database.set_parallel_workers(2, min_rows=0)
        text = explain_text(
            database,
            "SELECT t.a, d.label FROM t, d WHERE t.b = d.b")
        assert "HashJoin" in text
        # not co-partitioned: each scan side gets its own gather and
        # the hash table builds serially in the parent
        assert "Parallel Hash Build" not in text
        assert text.count("Gather (workers=2)") == 2

    def test_index_scan_stays_serial(self):
        database = make_db()
        database.execute("CREATE INDEX t_a ON t (a)")
        database.set_parallel_workers(4, min_rows=0)
        text = explain_text(database, "SELECT b FROM t WHERE a = 3")
        assert "IndexScan" in text
        assert "Gather" not in text

    def test_explain_analyze_reports_per_partition_stats(self):
        database = make_db()
        database.set_parallel_workers(
            2, pool_factory=parallel.InProcessPool, min_rows=0)
        result = database.execute(
            "EXPLAIN ANALYZE SELECT a FROM t WHERE a < 30")
        operators = result.stats["analyze"]["operators"]
        gather = next(entry for entry in operators
                      if entry["operator"] == "Gather")
        assert gather["workers"] == 2
        partitions = gather["partitions"]
        assert len(partitions) == 2
        assert sum(entry["rows"] for entry in partitions) == 30
        text = "\n".join(row[0] for row in result.rows)
        assert "Gather (workers=2)" in text
        assert "Partition 0:" in text and "Partition 1:" in text


# -- execution semantics ------------------------------------------------------

class TestParallelExecution:
    def test_fork_pool_answers_match_serial(self):
        database = make_db(rows=500)
        serial = database.query(
            "SELECT b, count(*), sum(a), min(a), max(a) FROM t "
            "GROUP BY b")
        database.set_parallel_workers(4, min_rows=0)
        assert database.query(
            "SELECT b, count(*), sum(a), min(a), max(a) FROM t "
            "GROUP BY b") == serial

    def test_hash_partitioned_merge_matches_serial(self):
        database = make_db(rows=500)
        database.set_table_partitioning("t", "b", 8)
        serial = database.query("SELECT a, b FROM t WHERE a % 3 = 0")
        database.set_parallel_workers(
            4, pool_factory=parallel.InProcessPool, min_rows=0)
        assert database.query(
            "SELECT a, b FROM t WHERE a % 3 = 0") == serial

    def test_worker_crash_aborts_statement_and_recovers(self):
        database = make_db(rows=200)
        crashing = parallel.PersistentForkPool(
            2, engine=database,
            child_hook=lambda index: os._exit(1) if index else None)
        database.set_parallel_workers(
            2, pool_factory=lambda: crashing, min_rows=0)
        with pytest.raises(WorkerCrashError):
            database.query("SELECT count(*) FROM t")
        # the crashed resident is reaped with the error; close() reaps
        # the survivor
        survivor, crashed = crashing.last_pids
        with pytest.raises(ChildProcessError):
            os.waitpid(crashed, os.WNOHANG)
        assert crashing.worker_pids() == [survivor]
        crashing.close()
        for pid in crashing.last_pids:
            with pytest.raises(ChildProcessError):
                os.waitpid(pid, os.WNOHANG)
        # the statement failed whole; the engine serves the next one
        database.set_parallel_workers(2, min_rows=0)
        assert database.query("SELECT count(*) FROM t") == [(200,)]
        assert database.mvcc.active_count() == 0

    def test_parallel_read_respects_transaction_snapshot(self):
        database = make_db(rows=100)
        database.set_parallel_workers(
            2, pool_factory=parallel.InProcessPool, min_rows=0)
        reader = database.create_session("reader")
        database.execute("BEGIN", session=reader)
        before = database.query("SELECT count(*), sum(a) FROM t",
                                session=reader)
        # another session commits while the snapshot is open
        database.execute("INSERT INTO t VALUES (999, 'zz', 0.0)")
        database.execute("DELETE FROM t WHERE a = 0")
        assert database.query("SELECT count(*), sum(a) FROM t",
                              session=reader) == before
        database.execute("COMMIT", session=reader)
        after = database.query("SELECT count(*), sum(a) FROM t",
                               session=reader)
        assert after != before

    def test_transaction_overlay_is_visible_to_its_own_workers(self):
        database = make_db(rows=100)
        database.set_parallel_workers(
            2, pool_factory=parallel.InProcessPool, min_rows=0)
        writer = database.create_session("writer")
        database.execute("BEGIN", session=writer)
        database.execute("INSERT INTO t VALUES (500, 'mine', 1.0)",
                         session=writer)
        assert database.query(
            "SELECT count(*) FROM t WHERE a = 500",
            session=writer) == [(1,)]
        # other sessions do not see the uncommitted row
        assert database.query(
            "SELECT count(*) FROM t WHERE a = 500") == [(0,)]
        database.execute("ROLLBACK", session=writer)

    def test_partitioned_transaction_falls_back_to_range_mode(self):
        # hash buckets reflect committed-latest rows only; under an
        # open snapshot the gather must ignore them and still answer
        # exactly like serial
        database = make_db(rows=120)
        database.set_table_partitioning("t", "a", 4)
        session = database.create_session("txn")
        database.execute("BEGIN", session=session)
        database.execute("UPDATE t SET b = 'moved' WHERE a < 10",
                         session=session)
        serial = database.query(
            "SELECT a, b FROM t ORDER BY a", session=session)
        database.set_parallel_workers(
            4, pool_factory=parallel.InProcessPool, min_rows=0)
        assert database.query(
            "SELECT a, b FROM t ORDER BY a", session=session) == serial
        database.execute("ROLLBACK", session=session)

    def test_dropping_a_table_drops_its_partition_spec(self, tmp_path):
        database = Database(data_directory=tmp_path)
        database.execute("CREATE TABLE t (a integer)")
        database.set_table_partitioning("t", "a", 2)
        database.execute("DROP TABLE t")
        database.execute("CREATE TABLE t (a integer)")
        assert database.catalog.get_table("t").partition_spec is None
        database.checkpoint()
        reopened = Database(data_directory=tmp_path)
        assert reopened.catalog.get_table("t").partition_spec is None

"""Parity-first harness for partition-parallel execution.

Every query answered by a parallel plan must be *indistinguishable*
from its serial execution — same row list (same order, not merely the
same multiset), same lineage vectors, same wire bytes — and running
parallel queries must leave the packaged database directory
byte-identical to a serial twin.

Three layers of evidence:

1. the seeded sqlite3-differential grammar from
   ``test_differential_sqlite`` re-run at workers ∈ {1, 2, 4}, both
   over unpartitioned heaps (contiguous range mode) and hash-partitioned
   heaps (bucket merge mode), against serial *and* against sqlite;
2. the 23 mode-parity shapes from ``test_vectorized`` compared on full
   wire frames, with and without provenance;
3. ``tree_bytes`` identity of packaged directories between a serial
   twin and a parallel twin running the same workload.

The deterministic ``InProcessPool`` drives most cases so failures
reproduce exactly; a representative subset re-runs on the engine's
resident ``PersistentForkPool`` to prove the fork path answers
identically too.
"""

from __future__ import annotations

import pytest

from repro.db import Database
from repro.db import parallel
from repro.db.chaos import tree_bytes
from repro.db.protocol import encode_frame, result_to_wire

from tests.db.test_differential_sqlite import (
    QUERIES_PER_SEED, SEED_COUNT, build_engines, canonical,
    generate_query)
from tests.db.test_vectorized import PARITY_QUERIES

pytestmark = pytest.mark.parallel

WORKER_SWEEP = (1, 2, 4)


def pytest_generate_tests(metafunc):
    if "oracle_seed" in metafunc.fixturenames:
        count = metafunc.config.getoption("--seeds") or SEED_COUNT
        metafunc.parametrize("oracle_seed", range(count))


def set_workers(database, workers):
    database.set_parallel_workers(
        workers, pool_factory=parallel.InProcessPool, min_rows=0)


def serial(database):
    database.set_parallel_workers(1)


# -- sqlite3-differential grammar under parallel execution --------------------

def test_differential_oracle_parallel(oracle_seed):
    """All generated families, serial vs parallel vs sqlite, in both
    range mode (unpartitioned) and merge mode (hash-partitioned)."""
    rng, database, connection = build_engines(oracle_seed)
    cases = [generate_query(rng, family)
             for family in range(QUERIES_PER_SEED)]
    for partitioned in (False, True):
        if partitioned:
            database.set_table_partitioning("t0", "a", 3)
            database.set_table_partitioning("t1", "a", 2)
        for sql, ordered in cases:
            serial(database)
            baseline = database.query(sql)
            reference = connection.execute(sql).fetchall()
            assert (canonical(baseline, ordered)
                    == canonical(reference, ordered))
            for workers in WORKER_SWEEP:
                set_workers(database, workers)
                assert database.query(sql) == baseline, (
                    f"seed {oracle_seed}, workers {workers}, "
                    f"partitioned {partitioned}: parallel diverges "
                    f"from serial on\n  {sql}")
    connection.close()


# -- the 23 mode-parity shapes on full wire frames ----------------------------

def build_parity_db(partitioned):
    database = Database()
    database.execute(
        "CREATE TABLE t (k integer, grp integer, a integer, b float, "
        "name text)")
    database.execute("CREATE TABLE small (k integer, label text)")
    rows = []
    for k in range(700):
        b_text = "NULL" if k % 7 == 0 else str(k * 0.5)
        name = "NULL" if k % 11 == 0 else f"'name{k % 13}'"
        rows.append(f"({k}, {k % 5}, {(k * 37) % 100}, {b_text}, {name})")
    database.execute("INSERT INTO t VALUES " + ", ".join(rows))
    database.execute(
        "INSERT INTO small VALUES " + ", ".join(
            f"({k}, 'L{k}')" for k in range(0, 40)))
    if partitioned:
        database.set_table_partitioning("t", "grp", 4)
        database.set_table_partitioning("small", "k", 4)
    return database


@pytest.fixture(scope="module")
def parity_pair():
    return build_parity_db(False), build_parity_db(True)


@pytest.mark.parametrize("sql", PARITY_QUERIES)
def test_parity_shape_wire_identical(parity_pair, sql):
    for database in parity_pair:
        for provenance in (False, True):
            serial(database)
            baseline = database.execute(sql, provenance)
            frame = encode_frame(result_to_wire(baseline))
            for workers in WORKER_SWEEP:
                set_workers(database, workers)
                result = database.execute(sql, provenance)
                assert result.rows == baseline.rows
                assert result.lineages == baseline.lineages
                assert encode_frame(result_to_wire(result)) == frame


FORK_SUBSET = [
    PARITY_QUERIES[0],    # fused scan/filter/project
    PARITY_QUERIES[11],   # grouped mixed aggregates (merge-exact)
    PARITY_QUERIES[12],   # avg + HAVING (serial fold below gather)
    PARITY_QUERIES[13],   # ungrouped aggregate over nullable float
    PARITY_QUERIES[15],   # equi-join with parallel scan sides
    PARITY_QUERIES[18],   # ORDER BY ... LIMIT above the gather
]


@pytest.mark.parametrize("sql", FORK_SUBSET)
def test_fork_pool_wire_identical(parity_pair, sql):
    """The real fork-based pool answers bit-identically too."""
    for database in parity_pair:
        for provenance in (False, True):
            serial(database)
            baseline = database.execute(sql, provenance)
            database.set_parallel_workers(4, min_rows=0)
            result = database.execute(sql, provenance)
            assert result.rows == baseline.rows
            assert result.lineages == baseline.lineages
            assert (encode_frame(result_to_wire(result))
                    == encode_frame(result_to_wire(baseline)))


# -- parallel sort / parallel join shapes -------------------------------------

TENTPOLE_SHAPES = [
    # full parallel sort (per-partition sort, k-way merge in the parent)
    "SELECT k, a, b FROM t WHERE a < 80 ORDER BY a DESC, k",
    # top-k pushdown: each partition ships at most limit+offset rows
    "SELECT k, a FROM t ORDER BY b, k LIMIT 17",
    "SELECT k, name FROM t ORDER BY name DESC, k LIMIT 25 OFFSET 3",
    # NULL ordering under the merge (b and name carry NULLs)
    "SELECT k, b FROM t ORDER BY b DESC, k LIMIT 40",
    # joins: scan sides gather per side (co-partitioned when both
    # sides are hash-partitioned on the key)
    "SELECT t.k, t.a, small.label FROM t, small WHERE t.k = small.k",
    "SELECT t.k, small.label FROM t LEFT JOIN small ON t.k = small.k "
    "WHERE t.a < 50",
    # join under an ORDER BY: both new operators in one plan
    "SELECT t.k, small.label FROM t, small WHERE t.k = small.k "
    "ORDER BY t.k DESC LIMIT 10",
]


@pytest.mark.parametrize("sql", TENTPOLE_SHAPES)
def test_parallel_sort_and_join_wire_identical(parity_pair, sql):
    """The PR's new operators answer bit-identically to serial — rows,
    order, lineage, wire bytes — at every worker count, on both heap
    layouts."""
    for database in parity_pair:
        for provenance in (False, True):
            serial(database)
            baseline = database.execute(sql, provenance)
            frame = encode_frame(result_to_wire(baseline))
            for workers in WORKER_SWEEP:
                set_workers(database, workers)
                result = database.execute(sql, provenance)
                assert result.rows == baseline.rows
                assert result.lineages == baseline.lineages
                assert encode_frame(result_to_wire(result)) == frame
        serial(database)


def explain_text(database, sql):
    return "\n".join(
        row[0] for row in database.execute("EXPLAIN " + sql).rows)


def test_copartitioned_join_wire_identical():
    """Both sides hash-partitioned on the join key: the planner takes
    the co-partitioned path (worker *i* joins bucket *i* of both
    sides) and the answer stays bit-identical to serial."""
    database = build_parity_db(False)
    database.set_table_partitioning("t", "k", 4)
    database.set_table_partitioning("small", "k", 4)
    sql = ("SELECT t.k, t.a, small.label FROM t, small "
           "WHERE t.k = small.k")
    for provenance in (False, True):
        serial(database)
        baseline = database.execute(sql, provenance)
        frame = encode_frame(result_to_wire(baseline))
        for workers in WORKER_SWEEP:
            set_workers(database, workers)
            result = database.execute(sql, provenance)
            assert result.rows == baseline.rows
            assert result.lineages == baseline.lineages
            assert encode_frame(result_to_wire(result)) == frame
    set_workers(database, 4)
    assert "co-partitioned" in explain_text(database, sql)


def test_copartitioned_join_under_a_snapshot_builds_serially():
    """Bucket maps describe the committed-latest heap, so inside an
    open transaction the co-partitioned join dispatches nothing and
    runs the serial build and probe — still answering exactly what
    the serial plan answers under the same snapshot."""
    database = build_parity_db(False)
    database.set_table_partitioning("t", "k", 4)
    database.set_table_partitioning("small", "k", 4)
    sql = ("SELECT t.k, t.a, small.label FROM t, small "
           "WHERE t.k = small.k")
    committed = database.query(sql)
    session = database.create_session("txn")
    database.execute("BEGIN", session=session)
    database.execute("DELETE FROM small WHERE k < 3", session=session)
    baseline = database.execute(sql, True, session=session)
    dispatched = []

    class CountingPool(parallel.InProcessPool):
        def run(self, tasks):
            dispatched.append(len(tasks))
            return super().run(tasks)

    database.set_parallel_workers(4, pool_factory=CountingPool,
                                  min_rows=0)
    assert "co-partitioned" in explain_text(database, sql)
    result = database.execute(sql, True, session=session)
    assert result.rows == baseline.rows
    assert result.lineages == baseline.lineages
    assert dispatched == []
    database.execute("ROLLBACK", session=session)
    # outside the transaction the same cached plan goes parallel again
    assert database.query(sql) == committed
    assert dispatched == [4]


PERSISTENT_SUBSET = TENTPOLE_SHAPES[1:2] + TENTPOLE_SHAPES[4:6]


@pytest.mark.parametrize("sql", PERSISTENT_SUBSET)
def test_persistent_pool_wire_identical(parity_pair, sql):
    """The engine-owned resident pool (real forks, reused across
    statements) answers bit-identically too."""
    for database in parity_pair:
        try:
            for provenance in (False, True):
                serial(database)
                baseline = database.execute(sql, provenance)
                database.set_parallel_workers(4, min_rows=0)
                result = database.execute(sql, provenance)
                assert result.rows == baseline.rows
                assert result.lineages == baseline.lineages
                assert (encode_frame(result_to_wire(result))
                        == encode_frame(result_to_wire(baseline)))
        finally:
            serial(database)  # tear the residents down


# -- packaged-directory byte identity -----------------------------------------

WORKLOAD_QUERIES = [
    "SELECT grp, count(*), sum(k) FROM t GROUP BY grp",
    "SELECT k, a FROM t WHERE a < 40",
    "SELECT t.k, small.label FROM t, small WHERE t.k = small.k",
]


def run_twin(directory, workers, resident=False):
    database = Database(data_directory=directory)
    database.execute(
        "CREATE TABLE t (k integer, grp integer, a integer)")
    database.execute("CREATE TABLE small (k integer, label text)")
    database.execute("INSERT INTO t VALUES " + ", ".join(
        f"({k}, {k % 5}, {(k * 37) % 100})" for k in range(300)))
    database.execute("INSERT INTO small VALUES " + ", ".join(
        f"({k}, 'L{k}')" for k in range(30)))
    database.set_table_partitioning("t", "grp", 4)
    if workers > 1:
        if resident:
            # the engine-owned PersistentForkPool: exercises recycle
            # on the mid-workload UPDATE and teardown on close()
            database.set_parallel_workers(workers, min_rows=0)
        else:
            set_workers(database, workers)
    answers = [database.query(sql) for sql in WORKLOAD_QUERIES]
    database.execute("UPDATE t SET a = a + 1 WHERE k % 7 = 0")
    answers.append(database.query(WORKLOAD_QUERIES[0]))
    database.checkpoint()
    database.close()
    return answers


def test_packaged_bytes_identical_to_serial_twin(tmp_path):
    serial_dir = tmp_path / "serial"
    parallel_dir = tmp_path / "parallel"
    serial_answers = run_twin(serial_dir, workers=1)
    parallel_answers = run_twin(parallel_dir, workers=4)
    assert parallel_answers == serial_answers
    assert tree_bytes(parallel_dir) == tree_bytes(serial_dir)


def test_packaged_bytes_identical_with_resident_pool(tmp_path):
    """The persistent pool's forked residents write nothing: a twin
    served entirely by resident workers packages byte-identically."""
    serial_dir = tmp_path / "serial"
    resident_dir = tmp_path / "resident"
    serial_answers = run_twin(serial_dir, workers=1)
    resident_answers = run_twin(resident_dir, workers=4, resident=True)
    assert resident_answers == serial_answers
    assert tree_bytes(resident_dir) == tree_bytes(serial_dir)


def test_parallel_reads_write_nothing(tmp_path):
    database = Database(data_directory=tmp_path)
    database.execute("CREATE TABLE t (k integer, grp integer)")
    database.execute("INSERT INTO t VALUES " + ", ".join(
        f"({k}, {k % 3})" for k in range(200)))
    database.set_table_partitioning("t", "grp", 3)
    database.checkpoint()
    before = tree_bytes(tmp_path)
    set_workers(database, 4)
    for sql in ("SELECT grp, count(*) FROM t GROUP BY grp",
                "SELECT k FROM t WHERE k % 2 = 0"):
        database.query(sql)
    assert tree_bytes(tmp_path) == before
    database.close()

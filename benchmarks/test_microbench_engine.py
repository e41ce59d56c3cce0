"""Engine micro-benchmarks: the substrate costs behind the figures.

Quantifies the unit costs the experiment-level numbers are built from:

* scan / filter / hash-join / aggregate throughput,
* the *lineage tax* — the same query with and without provenance
  tracking (Perm's overhead, which server-included audit pays once
  more per query),
* the *wire tax* — executing through the client/server protocol vs
  calling the engine directly (the interposition surface's cost).
"""

from __future__ import annotations

import json
import os
import random
from pathlib import Path

import pytest

from repro.db import Database, DBClient, DBServer

from benchmarks.conftest import fresh_world, timed


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    return fresh_world(tmp_path_factory.mktemp("micro"),
                       with_data_dir=False)


SCAN = "SELECT count(*) FROM lineitem"
FILTER = "SELECT count(*) FROM lineitem WHERE l_quantity > 25"
JOIN = ("SELECT count(*) FROM lineitem l, orders o "
        "WHERE l.l_orderkey = o.o_orderkey")
AGGREGATE = ("SELECT l_returnflag, sum(l_extendedprice), avg(l_quantity) "
             "FROM lineitem GROUP BY l_returnflag")


@pytest.mark.parametrize("label,sql", [
    ("scan", SCAN),
    ("filter", FILTER),
    ("hash_join", JOIN),
    ("aggregate", AGGREGATE),
])
def test_operator_throughput(benchmark, world, label, sql):
    rows = benchmark(world.database.query, sql)
    assert rows


@pytest.mark.parametrize("label,sql", [
    ("filter", FILTER),
    ("hash_join", JOIN),
    ("aggregate", AGGREGATE),
])
def test_lineage_tax(benchmark, world, report, label, sql):
    """Provenance-tracked execution vs plain execution."""
    import time

    start = time.perf_counter()
    world.database.execute(sql)
    plain = time.perf_counter() - start

    result = benchmark(world.database.execute, sql, True)
    tracked = benchmark.stats.stats.mean
    assert all(result.lineages)
    report.add(
        "Microbench — lineage tax (seconds per query)",
        ("operator", "plain", "with_lineage", "tax"),
        (label, plain, tracked, f"{tracked / max(plain, 1e-9):.2f}x"))


def test_index_vs_scan(benchmark, world, report):
    """Point lookup through a hash index vs a sequential scan."""
    import time

    database = world.database
    point_query = "SELECT * FROM orders WHERE o_orderkey = 42"
    # the TPC-H schema ships idx_orders_orderkey; measure with it
    indexed = benchmark(database.query, point_query)
    assert indexed
    indexed_mean = benchmark.stats.stats.mean

    database.execute("DROP INDEX idx_orders_orderkey")
    try:
        start = time.perf_counter()
        scanned = database.query(point_query)
        scan_seconds = time.perf_counter() - start
    finally:
        database.execute(
            "CREATE INDEX idx_orders_orderkey ON orders (o_orderkey)")
    assert scanned == indexed
    report.add(
        "Microbench — point lookup: index vs scan (seconds)",
        ("path", "seconds", "speedup_vs_scan"),
        ("index", indexed_mean,
         f"{scan_seconds / max(indexed_mean, 1e-9):.0f}x"))
    assert indexed_mean < scan_seconds


def test_wire_tax(benchmark, world, report):
    """Client/server round trip vs direct engine call."""
    import time

    server = DBServer(world.database)
    client = DBClient(server.transport())
    client.connect()

    start = time.perf_counter()
    world.database.query(FILTER)
    direct = time.perf_counter() - start

    benchmark(client.query, FILTER)
    wired = benchmark.stats.stats.mean
    client.close()
    report.add(
        "Microbench — wire protocol tax (seconds per query)",
        ("path", "direct", "through_wire", "tax"),
        ("filter", direct, wired, f"{wired / max(direct, 1e-9):.2f}x"))


# ---------------------------------------------------------------------------
# fast path: plan cache
# ---------------------------------------------------------------------------


def _best_of(fn, repeats: int = 5) -> float:
    return min(timed(fn)[0] for _ in range(repeats))


def test_plan_cache_skips_parse_and_plan(world, report):
    """Repeated statement latency: served from the plan cache vs
    re-planned from scratch (cache cleared before every run). A tiny
    query makes parse+plan the dominant cost, as in the reenactment
    paper's replay workloads."""
    database = world.database
    sql = "SELECT r_name FROM region WHERE r_regionkey = 1"

    database.plan_cache.clear()
    database.query(sql)  # prime the entry
    hot = _best_of(lambda: database.query(sql), repeats=7)

    def cold():
        database.plan_cache.clear()
        return database.query(sql)

    cold_seconds = _best_of(cold, repeats=7)
    report.add(
        "Microbench — plan cache (seconds per statement)",
        ("path", "seconds", "speedup"),
        ("cached", hot, f"{cold_seconds / max(hot, 1e-9):.2f}x"))
    assert hot < cold_seconds, (
        f"cached execution ({hot:.6f}s) is not faster than "
        f"re-planning ({cold_seconds:.6f}s)")


# ---------------------------------------------------------------------------
# batch pipeline throughput, with a regression gate
# ---------------------------------------------------------------------------

BENCH_FILE = Path(__file__).resolve().parent.parent / "BENCH_engine.json"
BENCH_ROWS = 100_000
# CI fails when throughput drops below 70% of the committed trajectory
REGRESSION_FLOOR = 0.7

PIPELINE_QUERIES = {
    "scan_filter_project":
        "SELECT k, a, a + k FROM big WHERE a < 500",
    "join_aggregate":
        "SELECT s.name, count(*), sum(t.a) FROM big t, small s "
        "WHERE t.j = s.k AND t.a < 500 GROUP BY s.name",
}


@pytest.fixture(scope="module")
def pipeline_db():
    """100k-row fact table + 100-row dimension, loaded via direct
    table inserts (statement parsing at this size would dominate
    setup)."""
    database = Database()
    database.execute(
        "CREATE TABLE big (k integer, j integer, a integer, b float)")
    database.execute("CREATE TABLE small (k integer, name text)")
    rng = random.Random(7)
    tick = database.clock.tick()
    big = database.catalog.get_table("big")
    for k in range(BENCH_ROWS):
        big.insert((k, k % 100, rng.randrange(1000),
                    rng.random()), tick)
    small = database.catalog.get_table("small")
    for k in range(100):
        small.insert((k, f"dim{k:03d}"), tick)
    return database


def test_batch_pipeline_trajectory(pipeline_db, report):
    """Batch execution with fused kernels on scan-heavy pipelines.
    Records the per-query throughput trajectory in BENCH_engine.json
    (refresh with ``REPRO_BENCH_UPDATE=1``) and gates on it: a >30%
    throughput regression against the committed numbers fails CI."""
    committed = (json.loads(BENCH_FILE.read_text())
                 if BENCH_FILE.exists() else None)
    measured: dict[str, dict] = {}
    failures = []
    for name, sql in PIPELINE_QUERIES.items():
        pipeline_db.plan_cache.clear()
        assert pipeline_db.query(sql)
        batch_seconds = _best_of(lambda: pipeline_db.query(sql),
                                 repeats=3)
        measured[name] = {
            "batch_seconds": round(batch_seconds, 6),
            "batch_rows_per_s": round(BENCH_ROWS / batch_seconds),
        }
        report.add(
            "Microbench — batch pipeline (seconds)",
            ("query", "batch", "rows_per_s"),
            (name, batch_seconds, measured[name]["batch_rows_per_s"]))
        if committed is not None:
            baseline = committed["queries"][name]["batch_rows_per_s"]
            ratio = measured[name]["batch_rows_per_s"] / baseline
            if ratio < REGRESSION_FLOOR:
                failures.append(
                    f"{name}: throughput fell to {ratio:.0%} of the "
                    f"committed {baseline} rows/s "
                    f"(floor {REGRESSION_FLOOR:.0%})")

    if os.environ.get("REPRO_BENCH_UPDATE") == "1":
        _merge_into_bench_file({"schema_version": 1,
                                "rows": BENCH_ROWS,
                                "queries": measured})
    assert not failures, "; ".join(failures)


def _merge_into_bench_file(entries: dict) -> None:
    """Fold new measurements into BENCH_engine.json without dropping
    keys owned by other benchmarks (each test records its own slice)."""
    current = (json.loads(BENCH_FILE.read_text())
               if BENCH_FILE.exists() else {})
    current.update(entries)
    BENCH_FILE.write_text(json.dumps(current, indent=2) + "\n")


# ---------------------------------------------------------------------------
# cost-based optimizer: ANALYZE-informed plans vs the rote planner
# ---------------------------------------------------------------------------

# the informed plan must beat the rote FROM-order plan by at least
# this much in-run (the committed file records the real, larger margin)
OPTIMIZER_SPEEDUP_FLOOR = 2.0
OPTIMIZER_ROWS = 30_000

OPTIMIZER_QUERY = ("SELECT count(*) FROM f, j, s WHERE f.d1 = j.d1 "
                   "AND f.d2 = s.d2 AND s.flag < 10")


@pytest.fixture(scope="module")
def optimizer_db():
    """Skewed star: the fact table's FROM-order join partner (j) fans
    out 5x per key, while the last-listed dimension (s) filters the
    fact down to ~1% — exactly the shape the rote left-to-right
    planner misplans."""
    database = Database()
    database.execute(
        "CREATE TABLE f (k integer, d1 integer, d2 integer)")
    database.execute("CREATE TABLE j (d1 integer, payload integer)")
    database.execute("CREATE TABLE s (d2 integer, flag integer)")
    rng = random.Random(13)
    tick = database.clock.tick()
    fact = database.catalog.get_table("f")
    for k in range(OPTIMIZER_ROWS):
        fact.insert((k, rng.randrange(100), rng.randrange(300)), tick)
    junction = database.catalog.get_table("j")
    for d1 in range(100):
        for payload in range(5):
            junction.insert((d1, payload), tick)
    dimension = database.catalog.get_table("s")
    for d2 in range(300):
        dimension.insert((d2, rng.randrange(1000)), tick)
    return database


def test_analyze_informed_plan_beats_rote_planner(optimizer_db, report):
    """The optimizer claim: ANALYZE statistics reorder the skewed
    3-table join (selective dimension first, fan-out junction last)
    for >= 2x over the rote plan, same answer. Records the trajectory
    in BENCH_engine.json under ``optimizer`` (refresh with
    ``REPRO_BENCH_UPDATE=1``) and gates on a >30% regression."""
    committed = (json.loads(BENCH_FILE.read_text())
                 if BENCH_FILE.exists() else None)
    database = optimizer_db

    def plan():
        return "\n".join(row[0] for row in database.execute(
            "EXPLAIN " + OPTIMIZER_QUERY).rows)

    database.plan_cache.clear()
    rote_plan = plan()
    rote_rows = database.query(OPTIMIZER_QUERY)
    rote_seconds = _best_of(
        lambda: database.query(OPTIMIZER_QUERY), repeats=3)

    database.execute("ANALYZE")  # invalidates every cached plan
    informed_plan = plan()
    informed_rows = database.query(OPTIMIZER_QUERY)
    informed_seconds = _best_of(
        lambda: database.query(OPTIMIZER_QUERY), repeats=3)

    assert informed_rows == rote_rows
    # deeper operators print later: the selective s-join must now
    # execute before the fan-out j-join
    assert rote_plan.index("f.d1 = j.d1") > rote_plan.index("f.d2 = s.d2")
    assert informed_plan.index("f.d2 = s.d2") > \
        informed_plan.index("f.d1 = j.d1")

    speedup = rote_seconds / max(informed_seconds, 1e-9)
    measured = {
        "rote_seconds": round(rote_seconds, 6),
        "informed_seconds": round(informed_seconds, 6),
        "rote_rows_per_s": round(OPTIMIZER_ROWS / rote_seconds),
        "informed_rows_per_s": round(OPTIMIZER_ROWS / informed_seconds),
        "speedup": round(speedup, 2),
    }
    report.add(
        "Microbench — ANALYZE-informed vs rote join order (seconds)",
        ("query", "rote", "informed", "speedup"),
        ("skewed_star", rote_seconds, informed_seconds,
         f"{speedup:.2f}x"))

    failures = []
    if speedup < OPTIMIZER_SPEEDUP_FLOOR:
        failures.append(
            f"informed plan only {speedup:.2f}x over the rote plan "
            f"(floor {OPTIMIZER_SPEEDUP_FLOOR}x)")
    baseline_entry = (committed or {}).get("optimizer")
    if baseline_entry is not None:
        baseline = baseline_entry["informed_rows_per_s"]
        ratio = measured["informed_rows_per_s"] / baseline
        if ratio < REGRESSION_FLOOR:
            failures.append(
                f"optimizer throughput fell to {ratio:.0%} of the "
                f"committed {baseline} rows/s "
                f"(floor {REGRESSION_FLOOR:.0%})")

    if os.environ.get("REPRO_BENCH_UPDATE") == "1":
        _merge_into_bench_file({"optimizer": measured})
    assert not failures, "; ".join(failures)


# ---------------------------------------------------------------------------
# partition-parallel execution: multi-worker gather vs serial
# ---------------------------------------------------------------------------

# at 4 workers on >= 4 cores the gather must beat serial by this much
# in-run; on smaller machines the parity assertion still runs but the
# timing floor is advisory (the committed entry records its core count)
PARALLEL_SPEEDUP_FLOOR = 2.5
PARALLEL_WORKERS = 4

PARALLEL_QUERY = (
    "SELECT j, count(*), sum(a), min(a), max(k) FROM big "
    "WHERE (a * 17 + k) % 13 < 9 AND b < 0.9 GROUP BY j")


def test_parallel_pipeline_speedup(pipeline_db, report):
    """The parallelism claim: a compute-heavy aggregation over the
    100k-row pipeline speeds up across forked workers, answering
    byte-for-byte what serial answers. Records the trajectory in
    BENCH_engine.json under ``parallel`` (refresh with
    ``REPRO_BENCH_UPDATE=1``); the 2.5x floor and the regression gate
    only bind where >= 4 cores exist (CI runners), so a laptop or
    1-core container still verifies parity without a vacuous timing
    failure."""
    committed = (json.loads(BENCH_FILE.read_text())
                 if BENCH_FILE.exists() else None)
    database = pipeline_db
    cores = os.cpu_count() or 1
    try:
        database.set_parallel_workers(1, min_rows=0)
        database.plan_cache.clear()
        serial_rows = database.query(PARALLEL_QUERY)
        serial_seconds = _best_of(
            lambda: database.query(PARALLEL_QUERY), repeats=3)

        database.set_parallel_workers(PARALLEL_WORKERS)
        parallel_rows = database.query(PARALLEL_QUERY)
        parallel_seconds = _best_of(
            lambda: database.query(PARALLEL_QUERY), repeats=3)
    finally:
        database.set_parallel_workers(1)
        database.plan_cache.clear()

    # parity is unconditional: the gather must be indistinguishable
    assert parallel_rows == serial_rows

    speedup = serial_seconds / max(parallel_seconds, 1e-9)
    measured = {
        "serial_seconds": round(serial_seconds, 6),
        "parallel_seconds": round(parallel_seconds, 6),
        "serial_rows_per_s": round(BENCH_ROWS / serial_seconds),
        "parallel_rows_per_s": round(BENCH_ROWS / parallel_seconds),
        "speedup": round(speedup, 2),
        "workers": PARALLEL_WORKERS,
        "cores": cores,
    }
    report.add(
        "Microbench — partition-parallel gather vs serial (seconds)",
        ("query", "serial", f"{PARALLEL_WORKERS} workers", "speedup"),
        ("scan_aggregate", serial_seconds, parallel_seconds,
         f"{speedup:.2f}x on {cores} cores"))

    failures = []
    if cores >= PARALLEL_WORKERS and speedup < PARALLEL_SPEEDUP_FLOOR:
        failures.append(
            f"parallel gather only {speedup:.2f}x over serial at "
            f"{PARALLEL_WORKERS} workers on {cores} cores "
            f"(floor {PARALLEL_SPEEDUP_FLOOR}x)")
    baseline_entry = (committed or {}).get("parallel")
    if (baseline_entry is not None and cores >= PARALLEL_WORKERS
            and baseline_entry.get("cores", 0) >= PARALLEL_WORKERS):
        baseline = baseline_entry["parallel_rows_per_s"]
        ratio = measured["parallel_rows_per_s"] / baseline
        if ratio < REGRESSION_FLOOR:
            failures.append(
                f"parallel throughput fell to {ratio:.0%} of the "
                f"committed {baseline} rows/s "
                f"(floor {REGRESSION_FLOOR:.0%})")

    if os.environ.get("REPRO_BENCH_UPDATE") == "1":
        _merge_into_bench_file({"parallel": measured})
    assert not failures, "; ".join(failures)


# at 4 workers on >= 4 cores the parallel operators (per-partition
# sort with a k-way merge; a hash join over per-side gathers, since
# ``big`` is not co-partitioned) must beat their serial twins by this
# much; parity and the fork-count bound are asserted unconditionally
PARALLEL_OPERATOR_FLOOR = 1.5

PARALLEL_SORT_QUERY = (
    "SELECT k, j, a, b FROM big WHERE a < 900 "
    "ORDER BY a DESC, k LIMIT 500")
PARALLEL_JOIN_QUERY = (
    "SELECT count(*), sum(t.a) FROM big t, big u "
    "WHERE t.k = u.k AND t.a < 500 AND u.a < 800")


@pytest.mark.parametrize("label,sql", [
    ("parallel_sort", PARALLEL_SORT_QUERY),
    ("parallel_join", PARALLEL_JOIN_QUERY),
])
def test_parallel_operator_speedup(pipeline_db, report, label, sql):
    """Parallel sort, and a hash join whose scan sides each gather
    in parallel (the build stays serial in the parent), vs their
    serial twins, served by the persistent worker pool (forked once,
    reused across every timed repetition). Records trajectories in
    BENCH_engine.json under ``parallel_sort`` / ``parallel_join``;
    the 1.5x floor and the regression gate bind only where >= 4 cores
    exist, parity and the fork-count bound always."""
    committed = (json.loads(BENCH_FILE.read_text())
                 if BENCH_FILE.exists() else None)
    database = pipeline_db
    cores = os.cpu_count() or 1
    try:
        database.set_parallel_workers(1, min_rows=0)
        database.plan_cache.clear()
        serial_rows = database.query(sql)
        serial_seconds = _best_of(lambda: database.query(sql), repeats=3)

        database.set_parallel_workers(PARALLEL_WORKERS, min_rows=0)
        parallel_rows = database.query(sql)
        parallel_seconds = _best_of(
            lambda: database.query(sql), repeats=3)
        pool_forks = database.parallel_pool.forks
    finally:
        database.set_parallel_workers(1)
        database.plan_cache.clear()

    # parity is unconditional — same rows in the same order
    assert parallel_rows == serial_rows
    # and so is pool reuse: the read-only loop above forked the
    # residents exactly once, not once per statement
    assert pool_forks <= PARALLEL_WORKERS, (
        f"{label}: {pool_forks} forks for {PARALLEL_WORKERS} workers "
        f"— the persistent pool is not being reused")

    speedup = serial_seconds / max(parallel_seconds, 1e-9)
    measured = {
        "serial_seconds": round(serial_seconds, 6),
        "parallel_seconds": round(parallel_seconds, 6),
        "speedup": round(speedup, 2),
        "workers": PARALLEL_WORKERS,
        "forks": pool_forks,
        "cores": cores,
    }
    report.add(
        "Microbench — parallel operators vs serial (seconds)",
        ("query", "serial", f"{PARALLEL_WORKERS} workers", "speedup"),
        (label, serial_seconds, parallel_seconds,
         f"{speedup:.2f}x on {cores} cores"))

    failures = []
    if cores >= PARALLEL_WORKERS and speedup < PARALLEL_OPERATOR_FLOOR:
        failures.append(
            f"{label}: only {speedup:.2f}x over serial at "
            f"{PARALLEL_WORKERS} workers on {cores} cores "
            f"(floor {PARALLEL_OPERATOR_FLOOR}x)")
    baseline_entry = (committed or {}).get(label)
    if (baseline_entry is not None and cores >= PARALLEL_WORKERS
            and baseline_entry.get("cores", 0) >= PARALLEL_WORKERS):
        baseline = baseline_entry["parallel_seconds"]
        ratio = baseline / max(parallel_seconds, 1e-9)
        if ratio < REGRESSION_FLOOR:
            failures.append(
                f"{label}: latency rose to {1 / ratio:.2f}x the "
                f"committed {baseline}s (floor {REGRESSION_FLOOR:.0%})")

    if os.environ.get("REPRO_BENCH_UPDATE") == "1":
        _merge_into_bench_file({label: measured})
    assert not failures, "; ".join(failures)


# ---------------------------------------------------------------------------
# columnar scan cache: warm segment hits vs rebuilding the batch pipeline
# ---------------------------------------------------------------------------

# a warm cache hit must beat the uncached scan rebuild by at least this
# much in-run (the committed file records the real, larger margin)
SCAN_CACHE_SPEEDUP_FLOOR = 2.0

SCAN_CACHE_QUERY = "SELECT count(*), sum(a) FROM big WHERE a < 500"


def test_scan_cache_warm_hits_beat_rebuilds(pipeline_db, report):
    """The scan cache claim: a repeated aggregate over the 100k-row
    fact table served from a resident column segment beats re-walking
    the heap (version checks + row pivoting) every execution. Records
    the trajectory in BENCH_engine.json under ``scan_cache`` (refresh
    with ``REPRO_BENCH_UPDATE=1``) and gates on a >30% regression."""
    committed = (json.loads(BENCH_FILE.read_text())
                 if BENCH_FILE.exists() else None)
    database = pipeline_db
    database.plan_cache.clear()
    cache = database.scan_cache

    cache.enabled = False
    try:
        cold_rows = database.query(SCAN_CACHE_QUERY)
        cold_seconds = _best_of(
            lambda: database.query(SCAN_CACHE_QUERY), repeats=3)
    finally:
        cache.enabled = True

    cache.invalidate_all()
    warm_rows = database.query(SCAN_CACHE_QUERY)  # builds the segment
    hits_before = cache.hits
    warm_seconds = _best_of(
        lambda: database.query(SCAN_CACHE_QUERY), repeats=3)
    assert warm_rows == cold_rows
    assert cache.hits > hits_before, "timed runs were not cache hits"

    speedup = cold_seconds / max(warm_seconds, 1e-9)
    measured = {
        "uncached_seconds": round(cold_seconds, 6),
        "warm_hit_seconds": round(warm_seconds, 6),
        "uncached_rows_per_s": round(BENCH_ROWS / cold_seconds),
        "warm_hit_rows_per_s": round(BENCH_ROWS / warm_seconds),
        "speedup": round(speedup, 2),
    }
    report.add(
        "Microbench — scan cache warm hits vs uncached (seconds)",
        ("query", "uncached", "warm hit", "speedup"),
        ("scan_cache", cold_seconds, warm_seconds, f"{speedup:.2f}x"))

    failures = []
    if speedup < SCAN_CACHE_SPEEDUP_FLOOR:
        failures.append(
            f"scan_cache: warm hits only {speedup:.2f}x over uncached "
            f"scans (floor {SCAN_CACHE_SPEEDUP_FLOOR}x)")
    baseline_entry = (committed or {}).get("scan_cache")
    if baseline_entry is not None:
        baseline = baseline_entry["warm_hit_rows_per_s"]
        ratio = measured["warm_hit_rows_per_s"] / baseline
        if ratio < REGRESSION_FLOOR:
            failures.append(
                f"scan_cache: throughput fell to {ratio:.0%} of the "
                f"committed {baseline} rows/s "
                f"(floor {REGRESSION_FLOOR:.0%})")

    if os.environ.get("REPRO_BENCH_UPDATE") == "1":
        _merge_into_bench_file({"scan_cache": measured})
    assert not failures, "; ".join(failures)


# ---------------------------------------------------------------------------
# DML targets: integer-range index probes vs the scan
# ---------------------------------------------------------------------------

# a 5-key BETWEEN UPDATE must beat its index-dropped twin by at least
# this much in-run
DML_RANGE_SPEEDUP_FLOOR = 5.0
DML_RANGE_ROWS = 50_000
DML_RANGE_UPDATE = ("UPDATE d SET v = v + 1 "
                    "WHERE k BETWEEN 20000 AND 20004")


def _dml_twin(indexed: bool) -> Database:
    database = Database()
    database.execute("CREATE TABLE d (k integer, v integer, note text)")
    tick = database.clock.tick()
    table = database.catalog.get_table("d")
    for k in range(DML_RANGE_ROWS):
        table.insert((k, k % 97, f"n{k % 13}"), tick)
    if indexed:
        database.execute("CREATE INDEX ix_d_k ON d (k)")
    return database


def test_dml_range_probe(report):
    """The Fig. 7 UPDATE shape — ``WHERE key BETWEEN lo AND hi`` over
    five keys — finds its targets through the hash index instead of
    scanning all 50k rows. Both twins run the same statements, so
    their post-states must be equal."""
    probed = _dml_twin(indexed=True)
    scanned = _dml_twin(indexed=False)
    probe_seconds = _best_of(lambda: probed.execute(DML_RANGE_UPDATE),
                             repeats=5)
    scan_seconds = _best_of(lambda: scanned.execute(DML_RANGE_UPDATE),
                            repeats=5)
    state = "SELECT k, v FROM d WHERE k BETWEEN 19990 AND 20010"
    assert probed.query(state) == scanned.query(state)
    assert (probed.query("SELECT sum(v) FROM d")
            == scanned.query("SELECT sum(v) FROM d"))
    speedup = scan_seconds / max(probe_seconds, 1e-9)
    report.add(
        "Microbench — DML range targets: index probes vs scan (seconds)",
        ("statement", "scan", "probes", "speedup"),
        ("5-key BETWEEN UPDATE", scan_seconds, probe_seconds,
         f"{speedup:.1f}x"))
    assert speedup >= DML_RANGE_SPEEDUP_FLOOR, (
        f"5-key range UPDATE through the index is only {speedup:.1f}x "
        f"faster than the scan (floor {DML_RANGE_SPEEDUP_FLOOR}x)")

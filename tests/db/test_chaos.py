"""Chaos-hardened serving: exactly-once retries, admission control,
graceful drain, connection reaping, group-commit aborts, and the
seeded randomized fault-campaign harness.

Campaign tests are marked ``chaos``; every campaign failure message
(and the parametrized test id) carries the seed, so a red CI run is
reproducible with ``run_campaign(seed, ...)`` locally.
"""

import os

import pytest

from repro.db import Database, DBClient, DBServer, RetryPolicy
from repro.db import parallel
from repro.db import protocol
from repro.db.chaos import (
    CampaignSpec,
    FakeClock,
    expected_state,
    generate_workload,
    run_campaign,
    tree_bytes,
)
from repro.db.server import AdmissionControl
from repro.errors import (
    GroupCommitError,
    OverloadedError,
    ServerDrainingError,
    TransientError,
    WorkerCrashError,
)
from repro.faults import FaultInjector, FaultyIO


def make_server(**kwargs):
    database = Database()
    database.execute("CREATE TABLE t (x integer, y integer)")
    return DBServer(database, **kwargs)


def make_client(server_or_transport, **kwargs):
    transport = (server_or_transport.transport()
                 if isinstance(server_or_transport, DBServer)
                 else server_or_transport)
    kwargs.setdefault("retry_policy",
                      RetryPolicy(max_attempts=5, base_delay=0.01,
                                  sleep=lambda _: None))
    client = DBClient(transport, "app", "p1", **kwargs)
    client.connect()
    return client


def lossy_transport(server, should_drop):
    """A transport that *executes* each request but loses the response
    of every frame ``should_drop`` matches — the ambiguous-outcome
    failure (work done, acknowledgement gone) that makes naive retries
    double-apply."""
    real = server.transport()

    def transport(request_text):
        frame = protocol.decode_frame(request_text)
        response = real(request_text)
        if should_drop(frame):
            raise TransientError("response frame lost")
        return response

    return transport


def drop_once(predicate):
    """Wrap ``predicate`` so it only fires on its first match."""
    armed = {"live": True}

    def should_drop(frame):
        if armed["live"] and predicate(frame):
            armed["live"] = False
            return True
        return False

    return should_drop


class TestExactlyOnceRetries:
    """A retried mutation whose original response was lost must return
    the recorded result, not re-execute — on every execution path."""

    def test_lost_text_response_applies_once(self):
        server = make_server()
        drop = drop_once(lambda f: f.get("frame") == "query"
                         and "INSERT" in f.get("sql", ""))
        client = make_client(lossy_transport(server, drop))
        client.execute("INSERT INTO t VALUES (1, 10)")
        assert client.query("SELECT x FROM t") == [(1,)]
        assert server.database.dedupe_ledger.hits == 1

    def test_without_tokens_the_same_loss_double_applies(self):
        # the failure mode idempotency tokens exist to remove
        server = make_server()
        drop = drop_once(lambda f: f.get("frame") == "query"
                         and "INSERT" in f.get("sql", ""))
        client = make_client(lossy_transport(server, drop),
                             idempotency_tokens=False)
        client.execute("INSERT INTO t VALUES (1, 10)")
        assert client.query("SELECT x FROM t") == [(1,), (1,)]

    def test_lost_prepared_response_applies_once(self):
        server = make_server()
        drop = drop_once(lambda f: f.get("frame") == "bind-execute")
        client = make_client(lossy_transport(server, drop))
        prepared = client.prepare("INSERT INTO t VALUES ($1, $2)")
        prepared.execute((7, 70))
        assert client.query("SELECT x FROM t") == [(7,)]
        assert server.database.dedupe_ledger.hits == 1

    def test_lost_pipeline_response_applies_each_once(self):
        server = make_server()
        drop = drop_once(lambda f: f.get("frame") == "pipeline")
        client = make_client(lossy_transport(server, drop))
        with client.pipeline() as batch:
            first = batch.execute("INSERT INTO t VALUES (1, 10)")
            second = batch.execute("INSERT INTO t VALUES (2, 20)")
        assert first.result().rowcount == 1
        assert second.result().rowcount == 1
        assert client.query("SELECT x FROM t ORDER BY x") == [(1,), (2,)]
        assert server.database.dedupe_ledger.hits == 2

    def test_lost_stream_open_does_not_leak_a_cursor(self):
        server = make_server()
        for value in range(6):
            server.database.execute(
                f"INSERT INTO t VALUES ({value}, {value * 10})")
        drop = drop_once(lambda f: f.get("frame") == "query"
                         and f.get("fetch") is not None)
        client = make_client(lossy_transport(server, drop))
        cursor = client.execute_stream("SELECT x FROM t ORDER BY x",
                                       fetch_size=2)
        assert cursor.fetch_all() == [(x,) for x in range(6)]
        # the retried open replayed the original cursor frame instead
        # of opening a second cursor whose snapshot would pin MVCC
        # history forever
        assert server.server_counters()["open_cursors"] == 0
        assert server.database.mvcc.active_count() == 0

    def test_explicit_tokens_dedupe_across_clients(self):
        # the token, not the connection, is the idempotency key: a
        # failed-over client resending its predecessor's token gets
        # the recorded result
        server = make_server()
        first = make_client(server)
        first.execute("INSERT INTO t VALUES (1, 10)", token="job-42")
        second = make_client(server)
        result = second.execute("INSERT INTO t VALUES (1, 10)",
                                token="job-42")
        assert result.rowcount == 1
        assert second.query("SELECT x FROM t") == [(1,)]

    def test_ledger_survives_crash_recovery(self, tmp_path):
        # the dedupe ledger rides the WAL: a retry that lands on the
        # *restarted* server is still answered from the ledger
        database = Database(data_directory=tmp_path)
        database.execute("CREATE TABLE t (x integer)")
        server = DBServer(database)
        client = make_client(server)
        client.execute("INSERT INTO t VALUES (1)", token="epoch-1")
        server.shutdown()

        revived = DBServer(Database(data_directory=tmp_path))
        survivor = make_client(revived)
        result = survivor.execute("INSERT INTO t VALUES (1)",
                                  token="epoch-1")
        assert result.rowcount == 1
        assert survivor.query("SELECT x FROM t") == [(1,)]
        assert revived.database.dedupe_ledger.hits == 1

    def test_selects_are_not_tokenized(self):
        # read-only statements skip the ledger: they are naturally
        # idempotent, and ledger entries would evict mutation results
        server = make_server()
        client = make_client(server)
        client.query("SELECT x FROM t")
        client.query("SELECT x FROM t")
        assert server.database.dedupe_ledger.stores == 0


class TestAdmissionControl:
    def make_loaded_server(self, capacity, refill):
        clock = FakeClock()
        admission = AdmissionControl(capacity=capacity,
                                     refill_per_second=refill,
                                     timer=clock.read)
        database = Database()
        database.execute("CREATE TABLE t (x integer)")
        return DBServer(database, admission=admission), admission, clock

    def test_dry_bucket_sheds_with_retry_after_hint(self):
        server, admission, _ = self.make_loaded_server(2, 1.0)
        client = make_client(server, retry_policy=None)
        client.query("SELECT x FROM t")
        client.query("SELECT x FROM t")
        with pytest.raises(OverloadedError) as info:
            client.query("SELECT x FROM t")
        assert info.value.retry_after > 0
        assert admission.shed == 1

    def test_shed_happens_before_any_execution(self):
        server, _, _ = self.make_loaded_server(1, 0.0)
        client = make_client(server, retry_policy=None)
        client.query("SELECT x FROM t")
        with pytest.raises(OverloadedError):
            client.execute("INSERT INTO t VALUES (1)")
        # the shed insert never ran — nothing to double-apply later
        assert server.database.query("SELECT x FROM t") == []

    def test_client_backoff_waits_out_the_hint(self):
        server, admission, clock = self.make_loaded_server(1, 10.0)
        policy = RetryPolicy(max_attempts=6, base_delay=0.001,
                             sleep=clock.advance)
        client = make_client(server, retry_policy=policy)
        client.query("SELECT x FROM t")
        # bucket is dry; the retry sleeps through the hint on the
        # shared clock, after which the refilled bucket admits it
        assert client.query("SELECT x FROM t") == []
        assert admission.shed >= 1
        assert client.retries_performed >= 1

    def test_retry_after_floors_the_backoff_delay(self):
        delays = []
        policy = RetryPolicy(max_attempts=3, base_delay=0.001,
                             sleep=delays.append)
        server, _, _ = self.make_loaded_server(1, 2.0)
        client = make_client(server, retry_policy=policy)
        client.query("SELECT x FROM t")
        # the recorded sleeps never advance the admission clock, so
        # the retries stay shed — what matters is each backoff was
        # floored by the server's ~0.5s hint, not the 1ms base delay
        with pytest.raises(OverloadedError):
            client.query("SELECT x FROM t")
        assert delays and min(delays) >= 0.4

    def test_pipeline_envelope_is_one_admission_unit(self):
        server, admission, _ = self.make_loaded_server(4, 0.0)
        client = make_client(server)
        with client.pipeline() as batch:
            handles = [batch.execute(f"INSERT INTO t VALUES ({n})")
                       for n in range(3)]
        assert all(handle.result().rowcount == 1 for handle in handles)
        # charged once (by depth), inner frames exempt: a mid-batch
        # shed would leave a partially-executed, unretryable envelope
        assert admission.admitted == 1
        assert admission.shed == 0


class TestGracefulDrain:
    def test_drain_rejects_new_statements(self):
        server = make_server()
        client = make_client(server, retry_policy=None)
        server.drain()
        with pytest.raises(ServerDrainingError) as info:
            client.execute("INSERT INTO t VALUES (1)")
        assert info.value.retry_after > 0
        assert server.server_counters()["drain_rejections"] == 1

    def test_drain_rejects_new_connections(self):
        server = make_server()
        server.drain()
        with pytest.raises(ServerDrainingError):
            DBClient(server.transport()).connect()

    def test_in_flight_transaction_finishes_during_drain(self):
        server = make_server()
        client = make_client(server, retry_policy=None)
        client.execute("BEGIN")
        client.execute("INSERT INTO t VALUES (1, 10)")
        server.drain()
        assert not server.drained  # the open transaction is in flight
        client.execute("INSERT INTO t VALUES (2, 20)")
        client.execute("COMMIT")
        assert server.drained
        assert server.database.query("SELECT x FROM t ORDER BY x") \
            == [(1,), (2,)]

    def test_open_cursor_drains_before_drained(self):
        server = make_server()
        for value in range(4):
            server.database.execute(
                f"INSERT INTO t VALUES ({value}, 0)")
        client = make_client(server, retry_policy=None)
        cursor = client.execute_stream("SELECT x FROM t", fetch_size=2)
        server.drain()
        assert not server.drained
        assert len(cursor.fetch_all()) == 4
        assert server.drained

    def test_undrain_restores_service(self):
        server = make_server()
        client = make_client(server, retry_policy=None)
        server.drain()
        with pytest.raises(ServerDrainingError):
            client.execute("INSERT INTO t VALUES (1, 10)")
        server.undrain()
        assert client.execute("INSERT INTO t VALUES (1, 10)").rowcount == 1


class TestParallelAdmission:
    """Parallel statements occupy N workers, so the token bucket
    charges them N tokens (clamped to capacity): wide parallel queries
    drain the budget proportionally and cannot starve point queries
    for free."""

    def make_parallel_server(self, capacity, workers):
        admission = AdmissionControl(capacity=capacity,
                                     refill_per_second=0.0,
                                     timer=FakeClock().read)
        database = Database()
        database.execute("CREATE TABLE t (x integer, y integer)")
        database.execute("INSERT INTO t VALUES " + ", ".join(
            f"({i}, {i})" for i in range(40)))
        if workers > 1:
            database.set_parallel_workers(
                workers, pool_factory=parallel.InProcessPool,
                min_rows=0)
        return DBServer(database, admission=admission), admission

    def test_parallel_statement_charged_by_worker_count(self):
        server, admission = self.make_parallel_server(8, 4)
        client = make_client(server, retry_policy=None)
        client.query("SELECT x FROM t")  # 4 tokens
        client.query("SELECT x FROM t")  # 4 tokens: bucket dry
        with pytest.raises(OverloadedError):
            client.query("SELECT x FROM t")
        assert admission.admitted == 2
        assert admission.shed == 1

    def test_serial_statement_still_costs_one_token(self):
        server, admission = self.make_parallel_server(8, 1)
        client = make_client(server, retry_policy=None)
        for _ in range(8):
            client.query("SELECT x FROM t")
        with pytest.raises(OverloadedError):
            client.query("SELECT x FROM t")
        assert admission.admitted == 8

    def test_worker_charge_clamps_to_capacity(self):
        # more workers than capacity must still admit, like a deep
        # pipeline envelope: the charge clamps to the full bucket
        server, admission = self.make_parallel_server(2, 4)
        client = make_client(server, retry_policy=None)
        assert client.query("SELECT x FROM t WHERE x < 3") == \
            [(0,), (1,), (2,)]
        assert admission.admitted == 1
        assert admission.shed == 0


class _CrashOncePool:
    """Pool whose first dispatch dies like a forked worker crash."""

    def __init__(self):
        self.calls = 0

    def run(self, thunks):
        self.calls += 1
        if self.calls == 1:
            raise WorkerCrashError(
                "parallel worker(s) [0] died before returning results"
                " (injected)")
        return parallel.InProcessPool().run(thunks)


class TestWorkerCrashServing:
    """A worker crash aborts the statement with a *transient* error:
    the client's retry policy re-runs it against the respawned pool,
    and the idempotency ledger keeps concurrent mutation retries
    exactly-once."""

    def make_parallel_world(self):
        database = Database()
        database.execute("CREATE TABLE t (x integer, y integer)")
        database.execute("INSERT INTO t VALUES " + ", ".join(
            f"({i}, {i})" for i in range(60)))
        pool = _CrashOncePool()
        database.set_parallel_workers(
            2, pool_factory=lambda: pool, min_rows=0)
        return DBServer(database), pool

    def test_crashed_query_is_retried_transparently(self):
        server, pool = self.make_parallel_world()
        client = make_client(server)
        assert client.query("SELECT count(*) FROM t") == [(60,)]
        assert pool.calls >= 2  # first dispatch crashed, retry ran
        assert client.retries_performed >= 1
        # reads are naturally idempotent: the ledger stayed out of it
        assert server.database.dedupe_ledger.stores == 0

    def test_crash_retry_leaves_ledger_exactly_once(self):
        # a crashed parallel read and a lost mutation response in the
        # same session: the read re-executes, the mutation replays
        # from the ledger — each applied exactly once
        server, pool = self.make_parallel_world()
        drop = drop_once(lambda f: f.get("frame") == "query"
                         and "INSERT" in f.get("sql", ""))
        client = make_client(lossy_transport(server, drop))
        assert client.query("SELECT count(*) FROM t") == [(60,)]
        assert pool.calls >= 2
        client.execute("INSERT INTO t VALUES (999, 0)")
        assert client.query(
            "SELECT count(*) FROM t WHERE x = 999") == [(1,)]
        assert server.database.dedupe_ledger.hits == 1

    def test_drain_tears_down_residents_and_undrain_respawns(
            self, monkeypatch):
        database = Database()
        database.execute("CREATE TABLE t (x integer, y integer)")
        database.execute("INSERT INTO t VALUES " + ", ".join(
            f"({i}, {i})" for i in range(60)))
        database.set_parallel_workers(2, min_rows=0)
        server = DBServer(database)
        client = make_client(server, retry_policy=None)
        assert client.query("SELECT count(*) FROM t") == [(60,)]
        pids = database.parallel_pool.worker_pids()
        assert len(pids) == 2
        sql = "SELECT x, y FROM t WHERE x % 7 = 3"
        expected = [(x, x) for x in range(60) if x % 7 == 3]
        in_flight = make_client(server, retry_policy=None)
        in_flight.execute("BEGIN")
        server.drain()
        # the resident workers die with the drain, pids reaped
        assert database.parallel_pool is None
        for pid in pids:
            with pytest.raises(ChildProcessError):
                os.waitpid(pid, os.WNOHANG)
        # the transaction opened before the drain still runs its
        # parallel plan: the tasks execute in this process (the serial
        # rows, in serial order) and nothing forks
        def no_fork():
            raise AssertionError("forked while the pool was drained")

        monkeypatch.setattr(os, "fork", no_fork)
        dispatched = []
        real_run = parallel.InProcessPool.run
        monkeypatch.setattr(
            parallel.InProcessPool, "run",
            lambda pool, tasks: dispatched.append(len(tasks))
            or real_run(pool, tasks))
        assert in_flight.query(sql) == expected
        assert dispatched == [2]
        in_flight.execute("COMMIT")
        assert server.drained
        monkeypatch.undo()
        server.undrain()
        assert database.parallel_pool is not None
        assert client.query("SELECT count(*) FROM t") == [(60,)]

    def test_server_stats_expose_pool_counters(self):
        database = Database()
        database.execute("CREATE TABLE t (x integer, y integer)")
        database.execute("INSERT INTO t VALUES " + ", ".join(
            f"({i}, {i})" for i in range(60)))
        database.set_parallel_workers(2, min_rows=0)
        server = DBServer(database)
        client = make_client(server, retry_policy=None)
        client.query("SELECT count(*) FROM t")
        client.query("SELECT count(*) FROM t WHERE x < 30")
        pool_stats = client.server_stats()["server"]["parallel_pool"]
        assert pool_stats["workers"] == 2
        assert pool_stats["forks"] == 2
        assert pool_stats["reuse_hits"] >= 1
        assert len(pool_stats["resident_pids"]) == 2
        database.close()


class TestConnectionReaping:
    def make_timed_server(self, timeout=10.0):
        clock = FakeClock()
        database = Database()
        database.execute("CREATE TABLE t (x integer)")
        server = DBServer(database, connection_timeout=timeout,
                          timer=clock.read)
        return server, clock

    def test_idle_connection_with_open_txn_is_reaped(self):
        server, clock = self.make_timed_server()
        zombie = make_client(server, retry_policy=None)
        zombie.execute("BEGIN")
        zombie.execute("INSERT INTO t VALUES (1)")
        clock.advance(60.0)
        # any live traffic sweeps the idle peer; its transaction is
        # rolled back so it cannot pin MVCC history
        live = make_client(server, retry_policy=None)
        live.query("SELECT x FROM t")
        counters = server.server_counters()
        assert counters["connections_reaped"] == 1
        assert server.database.mvcc.active_count() == 0
        assert server.database.query("SELECT x FROM t") == []

    def test_idle_connection_with_open_cursor_is_reaped(self):
        server, clock = self.make_timed_server()
        for value in range(6):
            server.database.execute(f"INSERT INTO t VALUES ({value})")
        zombie = make_client(server, retry_policy=None)
        zombie.execute_stream("SELECT x FROM t", fetch_size=2)
        assert server.server_counters()["open_cursors"] == 1
        clock.advance(60.0)
        live = make_client(server, retry_policy=None)
        live.query("SELECT x FROM t")
        assert server.server_counters()["open_cursors"] == 0
        assert server.database.mvcc.active_count() == 0

    def test_active_connection_is_not_reaped(self):
        server, clock = self.make_timed_server()
        client = make_client(server, retry_policy=None)
        for _ in range(5):
            clock.advance(5.0)  # busy: always inside the timeout
            client.query("SELECT x FROM t")
        assert server.server_counters()["connections_reaped"] == 0


class TestGroupCommitAbort:
    def make_faulty_server(self, tmp_path, injector):
        database = Database(data_directory=tmp_path,
                            io=FaultyIO(injector))
        return DBServer(database)

    def test_failed_group_fsync_aborts_every_member(self, tmp_path):
        plain = Database(data_directory=tmp_path)
        plain.execute("CREATE TABLE t (x integer)")
        plain.close()
        # occurrence 1 of wal.fsync is the pipeline's group commit
        injector = FaultInjector().fail_at("wal.fsync", occurrence=1)
        server = self.make_faulty_server(tmp_path, injector)
        client = make_client(server, retry_policy=None)
        with client.pipeline() as batch:
            handles = [batch.execute("INSERT INTO t VALUES (1)"),
                       batch.execute("INSERT INTO t VALUES (2)")]
        # every member aborted together — no half-acknowledged batch
        for handle in handles:
            with pytest.raises(GroupCommitError):
                handle.result()
        assert server.group_aborts == 1
        assert server.database.failed
        fresh = Database(data_directory=tmp_path)
        assert fresh.query("SELECT x FROM t") == []

    @pytest.mark.crash
    def test_retry_after_group_abort_recovery_is_exactly_once(
            self, tmp_path):
        plain = Database(data_directory=tmp_path)
        plain.execute("CREATE TABLE t (x integer)")
        plain.close()
        injector = FaultInjector().fail_at("wal.fsync", occurrence=1)
        server = self.make_faulty_server(tmp_path, injector)
        client = make_client(server, retry_policy=None)
        tokens = ("grp.0", "grp.1")
        with client.pipeline() as batch:
            handles = [batch.execute("INSERT INTO t VALUES (1)",
                                     token=tokens[0]),
                       batch.execute("INSERT INTO t VALUES (2)",
                                     token=tokens[1])]
        for handle in handles:
            with pytest.raises(GroupCommitError):
                handle.result()
        # the poisoned server refuses further work until restarted
        with pytest.raises(GroupCommitError):
            client.query("SELECT x FROM t")

        revived = DBServer(Database(data_directory=tmp_path))
        survivor = make_client(revived)
        with survivor.pipeline() as batch:
            first = batch.execute("INSERT INTO t VALUES (1)",
                                  token=tokens[0])
            second = batch.execute("INSERT INTO t VALUES (2)",
                                   token=tokens[1])
        assert first.result().rowcount == 1
        assert second.result().rowcount == 1
        # the abort truncated the WAL, so the retried tokens execute
        # fresh — once — and the table holds exactly one batch
        assert survivor.query("SELECT x FROM t ORDER BY x") \
            == [(1,), (2,)]


class TestWorkloadDeterminism:
    def test_same_seed_same_workload(self):
        spec = CampaignSpec(seed=11)
        assert generate_workload(spec) == generate_workload(spec)

    def test_different_seeds_differ(self):
        assert generate_workload(CampaignSpec(seed=1)) \
            != generate_workload(CampaignSpec(seed=2))

    def test_expected_state_applies_each_effect_once(self):
        spec = CampaignSpec(seed=3, clients=1, rounds=4)
        state = expected_state(spec)
        replayed = {}
        for steps in generate_workload(spec):
            for step in steps:
                for operation, key, operand in step["effects"]:
                    if operation == "insert":
                        replayed[key] = operand
                    elif operation == "update":
                        replayed[key] += operand
                    else:
                        replayed.pop(key)
        assert state == replayed


@pytest.mark.chaos
class TestFaultCampaigns:
    """Seeded end-to-end campaigns. The seed is in the test id and in
    every failure message — rerun a red seed with
    ``run_campaign(seed, some_dir)``."""

    def test_campaign_holds_all_invariants(self, campaign_seed,
                                           tmp_path):
        report = run_campaign(campaign_seed, tmp_path)
        assert report.steps > 0
        assert report.final_rows == expected_state(
            CampaignSpec(seed=campaign_seed))

    def test_survivor_package_is_byte_identical_to_oracle(self,
                                                          tmp_path):
        # satellite invariant spelled out: the chaos survivor's
        # checkpointed directory IS the fault-free replica of record
        seed = 28  # a seed whose campaign crashes at least once
        report = run_campaign(seed, tmp_path)
        assert report.crashes >= 1
        survivor = tree_bytes(tmp_path / f"survivor-{seed}")
        oracle = tree_bytes(tmp_path / f"oracle-{seed}")
        assert survivor == oracle

    def test_campaigns_are_reproducible(self, tmp_path):
        first = run_campaign(4, tmp_path / "a")
        second = run_campaign(4, tmp_path / "b")
        assert first.final_rows == second.final_rows
        assert first.crashes == second.crashes
        assert first.retries == second.retries


@pytest.mark.chaos
@pytest.mark.parallel
class TestParallelWorkerCrash:
    """A worker process dying mid-parallel-query must fail only that
    statement: every forked pid reaped, no snapshot pins leaked, the
    engine fully serviceable afterwards, and the recovered package
    byte-identical to a twin that never crashed."""

    WORKLOAD = [
        ("INSERT INTO t VALUES " + ", ".join(
            f"({x}, {x % 7})" for x in range(250)), None),
        ("UPDATE t SET y = y + 1 WHERE x % 5 = 0", None),
        ("SELECT y, count(*), sum(x) FROM t GROUP BY y", "query"),
        ("DELETE FROM t WHERE x < 10", None),
        ("SELECT count(*) FROM t", "query"),
    ]

    def build(self, directory):
        database = Database(data_directory=directory)
        database.execute("CREATE TABLE t (x integer, y integer)")
        return database

    def run_workload(self, database):
        answers = []
        for sql, kind in self.WORKLOAD:
            if kind == "query":
                answers.append(database.query(sql))
            else:
                database.execute(sql)
        return answers

    def crash_one_query(self, database):
        """Run a parallel query whose second worker dies mid-scan,
        then close the pool. Returns the pool."""
        from repro.db import parallel
        from repro.errors import WorkerCrashError
        pool = parallel.PersistentForkPool(
            4, engine=database,
            child_hook=lambda index: os._exit(1) if index == 1 else None)
        database.set_parallel_workers(
            4, pool_factory=lambda: pool, min_rows=0)
        try:
            with pytest.raises(WorkerCrashError):
                database.query("SELECT y, sum(x) FROM t GROUP BY y")
            # the crashed resident is reaped with the error itself
            assert len(pool.last_pids) == 4
            crashed = pool.last_pids[1]
            with pytest.raises(ChildProcessError):
                os.waitpid(crashed, os.WNOHANG)
            assert crashed not in pool.worker_pids()
        finally:
            pool.close()
        return pool

    def test_crash_mid_query_leaks_nothing_and_recovers(self, tmp_path):
        database = self.build(tmp_path / "db")
        database.execute("INSERT INTO t VALUES " + ", ".join(
            f"({x}, {x % 3})" for x in range(200)))
        serial = database.query("SELECT y, sum(x) FROM t GROUP BY y")
        pool = self.crash_one_query(database)
        # every forked worker was reaped — no zombies survive the error
        # and close()
        assert len(pool.last_pids) == 4
        for pid in pool.last_pids:
            with pytest.raises(ChildProcessError):
                os.waitpid(pid, os.WNOHANG)
        # no snapshot pins leaked: vacuum horizon is unobstructed
        assert database.mvcc.active_count() == 0
        # the engine still answers — healthy pool, same result
        database.set_parallel_workers(4, min_rows=0)
        assert database.query(
            "SELECT y, sum(x) FROM t GROUP BY y") == serial
        database.set_parallel_workers(1)
        assert database.query(
            "SELECT y, sum(x) FROM t GROUP BY y") == serial

    def test_recovered_package_matches_never_crashed_twin(self,
                                                          tmp_path):
        crashed = self.build(tmp_path / "crashed")
        answers = self.run_workload(crashed)
        self.crash_one_query(crashed)
        crashed.set_parallel_workers(1)
        crashed.checkpoint()
        crashed.close()

        oracle = self.build(tmp_path / "oracle")
        oracle_answers = self.run_workload(oracle)
        oracle.checkpoint()
        oracle.close()

        assert answers == oracle_answers
        assert (tree_bytes(tmp_path / "crashed")
                == tree_bytes(tmp_path / "oracle"))
        # and the crashed package reopens to the same answers
        reopened = Database(data_directory=tmp_path / "crashed")
        assert reopened.query(
            "SELECT count(*) FROM t") == oracle_answers[-1]

    def test_crash_inside_open_transaction_releases_the_pin(self,
                                                            tmp_path):
        from repro.db import parallel
        from repro.errors import WorkerCrashError
        database = self.build(tmp_path / "db")
        database.execute("INSERT INTO t VALUES " + ", ".join(
            f"({x}, {x})" for x in range(100)))
        session = database.create_session("txn")
        database.execute("BEGIN", session=session)
        pool = parallel.PersistentForkPool(
            2, engine=database,
            child_hook=lambda index: os._exit(1) if index == 0 else None)
        database.set_parallel_workers(
            2, pool_factory=lambda: pool, min_rows=0)
        with pytest.raises(WorkerCrashError):
            database.query("SELECT sum(y) FROM t", session=session)
        crashed, survivor = pool.last_pids
        with pytest.raises(ChildProcessError):
            os.waitpid(crashed, os.WNOHANG)
        assert pool.worker_pids() == [survivor]
        # the transaction survives (only the statement failed) and can
        # finish; afterwards nothing pins the horizon
        database.execute("ROLLBACK", session=session)
        assert database.mvcc.active_count() == 0
        pool.close()
        for pid in pool.last_pids:
            with pytest.raises(ChildProcessError):
                os.waitpid(pid, os.WNOHANG)

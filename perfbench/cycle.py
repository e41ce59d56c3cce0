"""One benchmark sample: a full LDV pipeline cycle in a fresh process.

``run.py`` starts this script once per sample, so each sample gets a
fresh interpreter (repeating cycles inside one interpreter drifts:
its heap and caches grow from cycle to cycle). The cycle:

1. **setup** — dbgen, bulk load and first checkpoint of the TPC-H
   world, on disk;
2. **audit** — one ``ldv_audit`` of the application, timing every
   statement at the application's outermost ``DBClient.execute``;
3. **exec** — ``ldv_exec`` of the package, ``replays`` times
   (construct + ``prepare`` + ``run``), each one checked, and
   ``prepares`` more ``prepare`` calls alone;
4. **trace_query** — the workload's ``ldv-trace`` query set,
   ``query_sets`` times, interleaved with the execs;
5. **check** — counters, digests and clean-up, outside every timing.

Between the timed operations the sample runs speed probes (see
``perfbench.speed``): every timing is reported both as wall time and
scaled to reference speed by the median of the sample's probes.

The result is written as JSON to ``--out``. With ``--trace 1`` every
layer call is also recorded as a span (see ``perfbench.hooks``), the
spans are written to ``--spans`` and the per-layer table goes into the
result.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import random
import resource
import shutil
import sys
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import Any, Iterator, Optional

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import hooks, metrics  # noqa: E402
from perfbench.spans import SpanRecorder  # noqa: E402
from perfbench.speed import Speedometer  # noqa: E402
from perfbench.workloads import EXCLUDED, INCLUDED, WORKLOADS, Workload  # noqa: E402


class Cycle:
    """Runs the phases of one sample and gathers what they measured."""

    def __init__(self, workload: Workload, seed: int, workdir: Path,
                 timer: hooks.StatementTimer,
                 recorder: Optional[SpanRecorder]) -> None:
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.timer = timer
        self.recorder = recorder
        self.counters: dict[str, float] = {}
        self.checks: list[str] = []  # failed output checks
        self.attempted = 0
        self.failed = 0
        self.speed = Speedometer()
        # (metric, start, end) of every timed operation
        self.intervals: list[tuple[str, float, float]] = []
        self.result: dict[str, Any] = {
            name: [] for name in metrics.TIMINGS}
        self.result.update(stmt_ms=[], package_bytes=0,
                           wall={name: [] for name in metrics.TIMINGS})

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        span = (self.recorder.span(f"phase.{name}")
                if self.recorder is not None else nullcontext())
        with span:
            yield

    def settle(self) -> None:
        """Collect garbage, then freeze every live object out of the
        collector's sight. The world stands in for the DB server and
        the audit for an earlier ``ldv-audit`` run: neither lives in the
        process that runs the next step, and without this the timing of
        full collections over their objects made the same step
        bimodal. Every timed operation starts settled, so none pays
        for the garbage of the one before it."""
        with self.phase("check"):
            gc.collect()
            gc.freeze()

    def probe(self, count: int = 1) -> None:
        """Speed bursts beside a timed operation: ``count`` of them, or
        one unless a burst just ran."""
        with self.phase("probe"):
            self.speed.probe(count, force=count > 1)

    def timed(self, metric: str, start: float, end: float) -> None:
        self.intervals.append((metric, start, end))

    def check(self, ok: bool, what: str) -> bool:
        """Count one checked operation; remember it if it failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.checks.append(what)
        return ok

    # -- phases ------------------------------------------------------------

    def run(self) -> None:
        from repro.workloads.app import build_world
        from repro.workloads.tpch.dbgen import TPCHConfig
        from repro.workloads.tpch.queries import variant_by_id

        workload = self.workload
        config = TPCHConfig(scale_factor=workload.scale_factor)
        if workload.seeded_data:
            config = TPCHConfig(scale_factor=workload.scale_factor,
                                seed=self.seed)
        variant = variant_by_id(config, workload.variant)
        self.probe(3)
        started = time.perf_counter()
        with self.phase("setup"):
            world = build_world(
                scale_factor=workload.scale_factor, variant=variant,
                insert_count=workload.inserts,
                update_count=workload.updates,
                data_dir=self.workdir / "pgdata", seed=config.seed)
            self.counters["dbgen.rows"] = sum(world.row_counts.values())
        self.timed("setup_s", started, time.perf_counter())
        self.settle()
        self.audit(world)
        self.settle()
        package_dir = self.workdir / "package"
        # interleaved at even spacing, so each kind of measurement spans
        # the whole post-audit stretch instead of one short window of it
        steps = {
            "replay": (workload.replays,
                       lambda index: self.replay(world, package_dir, index)),
            "trace_query": (workload.query_sets,
                            lambda index: self.trace_query(package_dir)),
            "prepare": (workload.prepares, lambda index: self.prepare_only(
                world, package_dir, index)),
        }
        schedule = sorted(((index + 0.5) / count, order, kind, index)
                          for order, (kind, (count, _)) in enumerate(
                              steps.items())
                          for index in range(count))
        for _, _, kind, index in schedule:
            steps[kind][1](index)
        with self.phase("check"):
            self.result["package_digest"] = tree_digest(package_dir)
            self.result["package_bytes"] = package_size(package_dir)
            self.counters.update(package_parts(package_dir))
            factor = self.speed.factor()
            self.result["speed_factor"] = factor
            for metric, start, end in self.intervals:
                self.result[metric].append((end - start) * factor)
                self.result["wall"][metric].append(end - start)

    def audit(self, world) -> None:
        from repro.core import ldv_audit
        from repro.workloads.app import APP_BINARY, RESULT_FILE

        workload = self.workload
        with self.phase("check"):
            before = server_counters(world.vos, world.server_name)
            fsyncs = world.database.fsync_count
        self.probe(3)
        self.timer.recording = True
        started = time.perf_counter()
        with self.phase("audit"):
            report = ldv_audit(
                world.vos, APP_BINARY, self.workdir / "package",
                mode=workload.mode, argv=[str(workload.selects)],
                database=world.database, server_name=world.server_name,
                server_binary_paths=(world.server_binary_paths
                                     if workload.mode == INCLUDED else ()))
        self.timed("audit_s", started, time.perf_counter())
        self.timer.recording = False
        self.probe(3)
        with self.phase("check"):
            statements = len(self.timer.latencies_ms)
            self.result["stmt_ms"] = list(self.timer.latencies_ms)
            self.attempted += statements
            self.failed += self.timer.errors
            self.check(report.process.exit_code == 0,
                       f"audited run exited {report.process.exit_code}")
            lines = world.vos.fs.read_text(RESULT_FILE).split()
            self.check(len(lines) == workload.selects,
                       f"audited run wrote {len(lines)} results, "
                       f"expected {workload.selects}")
            self.check(statements == (workload.inserts + workload.selects
                                      + workload.updates),
                       f"audited run sent {statements} statements")
            add_counter_deltas(
                self.counters, before,
                server_counters(world.vos, world.server_name))
            self.counters["wal.fsyncs"] = (world.database.fsync_count
                                           - fsyncs)
            monitor = report.session.db_monitor
            self.counters["monitor.provenance_queries"] = (
                monitor.provenance_queries_run if monitor else 0)
            self.counters["monitor.relevant_tuples"] = (
                report.session.relevant_tuples.tuple_count)
            self.counters["trace.nodes"] = report.session.trace.node_count
            self.counters["trace.edges"] = report.session.trace.edge_count

    def replay(self, world, package_dir: Path, index: int) -> None:
        from repro.core.package import Package
        from repro.core.replay import ReplaySession

        scratch = self.workdir / f"replay-{index}"
        self.settle()
        self.probe()
        started = time.perf_counter()
        with self.phase("exec"):
            session = ReplaySession(package_dir, world.registry,
                                    scratch_dir=scratch)
            prepare_started = time.perf_counter()
            session.prepare()
            prepared = time.perf_counter()
            outcome = session.run()
        self.timed("exec_s", started, time.perf_counter())
        self.timed("exec_init_s", prepare_started, prepared)
        self.probe()
        with self.phase("check"):
            notes = Package.load(package_dir).manifest.notes
            ok = self.check(outcome.process.exit_code == 0,
                            f"replay {index} exited "
                            f"{outcome.process.exit_code}")
            ok &= self.check(bool(outcome.output_matches)
                             and outcome.validated,
                             f"replay {index} outputs do not match the "
                             f"audit: {outcome.output_matches}")
            if self.workload.mode == EXCLUDED:
                ok &= self.check(
                    outcome.replayed_statements
                    == notes["recorded_statements"],
                    f"replay {index} replayed "
                    f"{outcome.replayed_statements} of "
                    f"{notes['recorded_statements']} statements")
            else:
                ok &= self.check(
                    outcome.restored_tuples == notes["relevant_tuples"],
                    f"replay {index} restored {outcome.restored_tuples} "
                    f"of {notes['relevant_tuples']} tuples")
                add_counter_deltas(
                    self.counters, {},
                    server_counters(session.vos,
                                    session.package.manifest.db_server_name))
            self.counters["replay.restored_tuples"] = (
                self.counters.get("replay.restored_tuples", 0)
                + outcome.restored_tuples)
            self.counters["replay.validated"] = (
                self.counters.get("replay.validated", 0) + ok)
            self.counters["replay.validated_ratio"] = (
                self.counters["replay.validated"] / (index + 1))
            shutil.rmtree(scratch, ignore_errors=True)

    def prepare_only(self, world, package_dir: Path, index: int) -> None:
        """One more ``prepare`` sample, for a steadier ``exec_init_s``."""
        from repro.core.replay import ReplaySession

        scratch = self.workdir / f"prepare-{index}"
        self.settle()
        self.probe()
        with self.phase("exec"):
            session = ReplaySession(package_dir, world.registry,
                                    scratch_dir=scratch)
            started = time.perf_counter()
            session.prepare()
            self.timed("exec_init_s", started, time.perf_counter())
        self.probe()
        with self.phase("check"):
            shutil.rmtree(scratch, ignore_errors=True)

    def trace_query(self, package_dir: Path) -> None:
        from repro.core import tracetool
        from repro.core.package import Package
        from repro.provenance import bb
        from repro.provenance.inference import DependencyInference

        pairs = self.workload.dependency_pairs
        outputs = sorted(Package.load(package_dir).manifest.notes.get(
            "output_digests", {}))
        self.settle()
        self.probe()
        started = time.perf_counter()
        with self.phase("trace_query"):
            trace = tracetool.load_package_trace(package_dir)
            answers: dict[str, Any] = {"census": tracetool.summarize(trace)}
            if pairs:
                inference = DependencyInference(trace)
                answers["deps"] = {
                    path: sorted(inference.dependencies_of(
                        bb.file_node_id(path)))
                    for path in outputs}
                rng = random.Random(self.seed)
                output_nodes = {bb.file_node_id(path) for path in outputs}
                sources = sorted(node.node_id for node in trace.entities()
                                 if node.node_id not in output_nodes)
                answers["depends_on"] = []
                for _ in range(pairs):
                    output = bb.file_node_id(rng.choice(outputs))
                    source = rng.choice(sources)
                    answers["depends_on"].append(
                        [output, source,
                         inference.depends_on(output, source)])
        self.timed("trace_query_s", started, time.perf_counter())
        self.probe()
        with self.phase("check"):
            digest = hashlib.sha256(json.dumps(
                answers, sort_keys=True).encode()).hexdigest()
            first = self.result.setdefault("answer_digest", digest)
            self.check(digest == first,
                       "trace query answers differ between query sets")
            if pairs:
                self.check(bool(outputs) and all(answers["deps"].values()),
                           "an output file depends on nothing")


# -- helpers -------------------------------------------------------------------


def server_counters(vos, server_name: str) -> dict[str, Any]:
    """``server_stats()`` over the application's transport."""
    from repro.db.client import DBClient

    client = DBClient(vos.db_transport(server_name), "perfbench", "stats")
    client.connect()
    try:
        return client.server_stats()["server"]
    finally:
        client.close()


def add_counter_deltas(counters: dict[str, float], before: dict,
                       after: dict) -> None:
    """Add the cache and admission activity between two snapshots."""

    def delta(*path: str) -> float:
        def read(snapshot: dict) -> float:
            for key in path:
                snapshot = snapshot.get(key) or {}
            return snapshot if isinstance(snapshot, (int, float)) else 0

        return read(after) - read(before)

    for cache, prefix in (("plan_cache", "plancache"),
                          ("result_cache", "resultcache"),
                          ("scan_cache", "scancache")):
        for key in ("hits", "misses"):
            name = f"{prefix}.{key}"
            counters[name] = counters.get(name, 0) + delta(cache, key)
        lookups = counters[f"{prefix}.hits"] + counters[f"{prefix}.misses"]
        counters[f"{prefix}.lookups"] = lookups
        counters[f"{prefix}.hit_ratio"] = (
            counters[f"{prefix}.hits"] / lookups if lookups else 0.0)
    counters["scancache.evictions"] = (
        counters.get("scancache.evictions", 0)
        + delta("scan_cache", "evictions"))
    counters["server.rejected"] = (
        counters.get("server.rejected", 0) + delta("admission", "shed")
        + delta("drain_rejections"))


def tree_digest(root: Path) -> str:
    """SHA-256 over every file's relative path and bytes."""
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*")):
        if path.is_file():
            digest.update(path.relative_to(root).as_posix().encode() + b"\0")
            digest.update(hashlib.sha256(path.read_bytes()).digest())
    return digest.hexdigest()


def package_size(root: Path) -> int:
    return sum(path.stat().st_size for path in root.rglob("*")
               if path.is_file())


def package_parts(root: Path) -> dict[str, int]:
    from repro.core import package as pkg

    def size(relative: str) -> int:
        path = root / relative
        if path.is_dir():
            return package_size(path)
        return path.stat().st_size if path.is_file() else 0

    return {"package.trace_bytes": size(pkg.TRACE_NAME),
            "package.restore_bytes": size(pkg.RESTORE_DIR),
            "package.replay_log_bytes": size(pkg.REPLAY_LOG)}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    if args.smoke:
        workload = workload.smoke()
    timer = hooks.StatementTimer()
    recorder = SpanRecorder() if args.trace else None
    missing = hooks.install(timer, recorder)
    if recorder is not None:
        recorder.tag = args.out.stem
    cycle = Cycle(workload, args.seed, args.workdir, timer, recorder)
    started = time.perf_counter()
    error = None
    try:
        cycle.run()
    except Exception as exc:  # reported as a failed sample, not a crash
        error = f"{type(exc).__name__}: {exc}"
    wall_s = time.perf_counter() - started
    result = cycle.result
    result.update(
        error=error, wall_s=wall_s, checks=cycle.checks,
        attempted=cycle.attempted, failed=cycle.failed,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        counters=cycle.counters, missing_hooks=missing)
    if recorder is not None:
        cycle.counters["hooks.missing"] = len(missing)
        for name, value in recorder.counters.items():
            cycle.counters[name] = cycle.counters.get(name, 0) + value
        cycle.counters["wal.bytes"] = cycle.counters.get("io.bytes.wal", 0)
        cycle.counters["checkpoint.bytes"] = cycle.counters.get(
            "io.bytes.checkpoint", 0)
        result["layers"] = metrics.layer_table(
            recorder.spans, cycle.counters, wall_s)
        if args.spans is not None:
            recorder.write(args.spans)
    args.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Metric names, units and bounds, and the per-layer table of a cycle.

``BENCHMARK.json`` at the repository root lists the same metrics; the
benchmark's tests check that the two agree.
"""

from __future__ import annotations

from perfbench import spans as spanlib

# (name, unit, bound): the share of the parent's median by which the
# metric may worsen before a change counts as a regression. Timings
# are at reference speed (perfbench.speed): on a shared 2-vCPU VM the
# CPU speed itself drifts by 0.23 (IQR/median) between 25 s windows,
# and scaling by the speed probes takes out much of that, not all, so
# timings get the largest bound allowed. Package size and memory follow
# replay-excluded's seeded data: one sample's result log moves them by
# ~6% and ~9% between seeds, a run's median over nine seeds by ~2%
END_TO_END = [
    ("setup_s", "s", 0.25),
    ("audit_s", "s", 0.25),
    ("package_bytes", "bytes", 0.2),
    ("exec_s", "s", 0.25),
    ("trace_query_s", "s", 0.25),
    ("peak_rss_mb", "MB", 0.25),
]

# the timed operations of a cycle, each reported per sample as a list
# of values at reference speed and a list of wall times
TIMINGS = ["setup_s", "audit_s", "exec_s", "exec_init_s", "trace_query_s"]

# printed with every run but not gated. The statement latencies and
# exec_init_s are each measured in one short window per sample (the
# insert burst, the update burst, the prepare calls), so their
# run-to-run spread on that VM exceeded every bound; the *_wall figures
# are the unscaled wall-time medians of the timings, and speed_factor
# the scale from wall time to reference speed
REPORTED = [
    ("setup_s_wall", "s"),
    ("audit_s_wall", "s"),
    ("audit_stmt_p50_ms", "ms"),
    ("audit_stmt_p95_ms", "ms"),
    ("exec_s_wall", "s"),
    ("exec_init_s", "s"),
    ("exec_init_s_wall", "s"),
    ("trace_query_s_wall", "s"),
    ("speed_factor", "ratio"),
]

# span names recorded by perfbench.hooks, each reported as
# <name>.self_s and <name>.calls
SPAN_LAYERS = [
    "dbgen",
    "vos.emit", "vos.fs.export", "vos.fs.import",
    "client.execute", "wire.encode", "wire.decode", "server.handle_wire",
    "engine.select", "engine.provenance_select", "engine.insert",
    "engine.update", "engine.other",
    "wal.commit", "io.fsync", "checkpoint",
    "monitor.before", "monitor.after", "monitor.ptu",
    "trace.builder", "trace.to_json",
    "packager", "package.write_trace",
    "replay.prepare", "replay.restore", "replay.log_parse", "replay.match",
    "replay.run",
    "trace.load", "inference.model_deps", "inference.query",
]

# the benchmark's own phase spans: their self time is what no layer
# span covers
PHASES = ["setup", "audit", "exec", "trace_query", "check", "probe"]

# (name, unit) of the counts and ratios a cycle reports
COUNTS = [
    ("dbgen.rows", "count"),
    ("client.errors", "count"),
    ("wire.request_bytes", "bytes"),
    ("wire.response_bytes", "bytes"),
    ("server.rejected", "count"),
    ("resultcache.hit_ratio", "ratio"),
    ("resultcache.lookups", "count"),
    ("plancache.hit_ratio", "ratio"),
    ("plancache.lookups", "count"),
    ("scancache.hit_ratio", "ratio"),
    ("scancache.lookups", "count"),
    ("scancache.evictions", "count"),
    ("wal.fsyncs", "count"),
    ("wal.bytes", "bytes"),
    ("checkpoint.bytes", "bytes"),
    ("monitor.provenance_queries", "count"),
    ("monitor.relevant_tuples", "count"),
    ("trace.nodes", "count"),
    ("trace.edges", "count"),
    ("package.trace_bytes", "bytes"),
    ("package.restore_bytes", "bytes"),
    ("package.replay_log_bytes", "bytes"),
    ("replay.restored_tuples", "count"),
    ("replay.validated_ratio", "ratio"),
    ("inference.deps_found", "count"),
    ("spans.count", "count"),
    ("spans.coverage_ratio", "ratio"),
    ("hooks.missing", "count"),
]

# traced over untraced medians on the same seed, filled in by run.py
OVERHEAD = [
    ("trace.overhead.audit_ratio", "ratio"),
    ("trace.overhead.exec_ratio", "ratio"),
]


def per_layer_units() -> dict[str, str]:
    units: dict[str, str] = {}
    for name in SPAN_LAYERS:
        units[f"{name}.self_s"] = "s"
        units[f"{name}.calls"] = "count"
    for phase in PHASES:
        units[f"phase.{phase}.self_s"] = "s"
    units.update(COUNTS)
    units.update(OVERHEAD)
    return units


def layer_table(spans: spanlib.Spans, counters: dict[str, float],
                wall_s: float) -> dict[str, float]:
    """Per-layer values of one traced cycle.

    ``counters`` holds the counts the cycle and the hooks gathered;
    every count missing from it reads 0.
    """
    totals = spanlib.layer_totals(spans)
    table: dict[str, float] = {}
    for name in SPAN_LAYERS:
        entry = totals.get(name, {"self_s": 0.0, "calls": 0})
        table[f"{name}.self_s"] = entry["self_s"]
        table[f"{name}.calls"] = entry["calls"]
    for phase in PHASES:
        table[f"phase.{phase}.self_s"] = totals.get(
            f"phase.{phase}", {"self_s": 0.0})["self_s"]
    for name, _ in COUNTS:
        table[name] = counters.get(name, 0)
    table["spans.count"] = len(spans)
    table["spans.coverage_ratio"] = (
        spanlib.top_level_seconds(spans) / wall_s if wall_s > 0 else 0.0)
    return table

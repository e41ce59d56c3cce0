"""Timing calls into the program's layers from outside the program.

:func:`install` wraps public functions of each layer (plus one
private restore helper named in :data:`TARGETS`) so every call opens a
span on a :class:`perfbench.spans.SpanRecorder`. Nothing under
``src/`` changes: the wrappers replace class and module attributes in
this process only.

The application's outermost ``DBClient.execute`` is always wrapped,
traced or not, because the per-statement latency the application sees
is an end-to-end metric. Calls the LDV monitor makes from inside that
call (provenance queries, reenactment) are nested and count inside
the outer statement.

A target the program no longer has is skipped and reported by name,
so a refactor under ``src/`` degrades the layer table instead of
breaking the benchmark.
"""

from __future__ import annotations

import importlib
import inspect
import time
from typing import Any, Callable, Optional

from perfbench.spans import SpanRecorder

# (module, "Class.attribute" or "function", span name)
TARGETS = [
    ("repro.workloads.tpch.dbgen", "TPCHGenerator.generate_into", "dbgen"),
    ("repro.vos.kernel", "VirtualOS.emit", "vos.emit"),
    ("repro.vos.filesystem", "VirtualFileSystem.export_file",
     "vos.fs.export"),
    ("repro.vos.filesystem", "VirtualFileSystem.import_tree",
     "vos.fs.import"),
    ("repro.db.protocol", "result_to_wire", "wire.encode"),
    ("repro.db.protocol", "result_from_wire", "wire.decode"),
    ("repro.db.engine", "Database.checkpoint", "checkpoint"),
    ("repro.db.wal", "WriteAheadLog.commit", "wal.commit"),
    ("repro.db.fileio", "FileIO.fsync", "io.fsync"),
    ("repro.monitor.ptu", "PTUMonitor.on_syscall", "monitor.ptu"),
    ("repro.provenance.trace", "ExecutionTrace.to_json", "trace.to_json"),
    ("repro.core.packager", "Packager.build_server_included", "packager"),
    ("repro.core.packager", "Packager.build_server_excluded", "packager"),
    ("repro.core.package", "Package.write_trace", "package.write_trace"),
    ("repro.core.replay", "ReplaySession.prepare", "replay.prepare"),
    ("repro.core.replay", "ReplaySession._restore_relevant_tuples",
     "replay.restore"),
    ("repro.core.replay", "ReplaySession.run", "replay.run"),
    ("repro.core.replay", "ReplayInterceptor.before_execute",
     "replay.match"),
    ("repro.monitor.dbmonitor", "ReplayLog.from_jsonl", "replay.log_parse"),
    ("repro.core.tracetool", "load_package_trace", "trace.load"),
    ("repro.provenance.inference", "bb_dependencies",
     "inference.model_deps"),
    ("repro.provenance.inference", "lin_dependencies",
     "inference.model_deps"),
] + [
    ("repro.provenance.combined", f"TraceBuilder.{method}", "trace.builder")
    for method in ("process", "file", "executed", "read_from",
                   "has_written", "statement", "tuple_version", "has_read",
                   "has_returned", "run", "read_from_db")
]


class StatementTimer:
    """Latency of each statement at the application's outermost
    ``DBClient.execute``, while :attr:`recording` is on."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter
                 ) -> None:
        self.clock = clock
        self.recording = False
        self.latencies_ms: list[float] = []
        self.errors = 0
        self.depth = 0


def install(timer: StatementTimer,
            recorder: Optional[SpanRecorder] = None) -> list[str]:
    """Wrap the targets; returns the targets the program lacks."""
    missing: list[str] = []

    def patch(owner: Any, name: str, make: Callable[[Any], Any]) -> None:
        original = inspect.getattr_static(owner, name)
        if isinstance(original, (classmethod, staticmethod)):
            replacement = type(original)(make(original.__func__))
        else:
            replacement = make(original)
        setattr(owner, name, replacement)

    def target(module_name: str, path: str) -> Optional[tuple[Any, str]]:
        owner: Any = importlib.import_module(module_name)
        *parents, name = path.split(".")
        for parent in parents:
            owner = getattr(owner, parent, None)
        if owner is None or not hasattr(owner, name):
            missing.append(f"{module_name}.{path}")
            return None
        return owner, name

    from repro.db.client import DBClient

    patch(DBClient, "execute",
          lambda fn: _statement_wrapper(fn, timer, recorder))
    if recorder is None:
        return missing

    for module_name, path, span_name in TARGETS:
        found = target(module_name, path)
        if found is not None:
            patch(*found, lambda fn, name=span_name: _spanned(fn, name,
                                                              recorder))
    special = {
        ("repro.db.engine", "Database.execute"):
            lambda fn: _engine_wrapper(fn, recorder),
        ("repro.db.server", "DBServer.handle_wire"):
            lambda fn: _wire_wrapper(fn, recorder),
        ("repro.db.fileio", "FileIO.write_bytes"):
            lambda fn: _bytes_wrapper(fn, recorder, "io.write"),
        ("repro.db.fileio", "FileIO.append_bytes"):
            lambda fn: _bytes_wrapper(fn, recorder, "io.append"),
        ("repro.monitor.dbmonitor", "DBMonitor.interceptor_for"):
            lambda fn: _monitor_wrapper(fn, recorder),
        ("repro.provenance.inference", "DependencyInference.dependencies_of"):
            lambda fn: _spanned(
                fn, "inference.query", recorder,
                after=lambda found: recorder.count("inference.deps_found",
                                                   len(found))),
    }
    for (module_name, path), make in special.items():
        found = target(module_name, path)
        if found is not None:
            patch(*found, make)
    return missing


# -- wrappers ---------------------------------------------------------------


def _spanned(fn: Callable, name: str, recorder: SpanRecorder,
             after: Optional[Callable[[Any], None]] = None) -> Callable:
    def wrapper(*args, **kwargs):
        record = recorder.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.close(record)
        if after is not None:
            after(result)
        return result

    return wrapper


def _statement_wrapper(fn: Callable, timer: StatementTimer,
                       recorder: Optional[SpanRecorder]) -> Callable:
    def execute(client, sql, *args, **kwargs):
        outermost = timer.depth == 0
        record = outer_tag = None
        if recorder is not None:
            if outermost and timer.recording:
                outer_tag = recorder.tag
                recorder.tag = f"{outer_tag}/s{len(timer.latencies_ms) + 1}"
            record = recorder.open("client.execute")
        timer.depth += 1
        started = timer.clock()
        try:
            return fn(client, sql, *args, **kwargs)
        except Exception:
            timer.errors += 1
            raise
        finally:
            elapsed = timer.clock() - started
            timer.depth -= 1
            if record is not None:
                recorder.close(record)
            if outer_tag is not None:
                recorder.tag = outer_tag
            if outermost and timer.recording:
                timer.latencies_ms.append(elapsed * 1000.0)

    return execute


def _engine_span(sql: str, provenance: bool) -> str:
    verb = sql.lstrip()[:6].upper()
    if verb == "SELECT":
        return "engine.provenance_select" if provenance else "engine.select"
    if verb in ("INSERT", "UPDATE"):
        return f"engine.{verb.lower()}"
    return "engine.other"


def _engine_wrapper(fn: Callable, recorder: SpanRecorder) -> Callable:
    def execute(database, sql, provenance=False, *args, **kwargs):
        record = recorder.open(_engine_span(sql, provenance))
        try:
            return fn(database, sql, provenance, *args, **kwargs)
        finally:
            recorder.close(record)

    return execute


def _wire_wrapper(fn: Callable, recorder: SpanRecorder) -> Callable:
    def handle_wire(server, request_text):
        recorder.count("wire.request_bytes", len(request_text))
        record = recorder.open("server.handle_wire")
        try:
            response = fn(server, request_text)
        finally:
            recorder.close(record)
        recorder.count("wire.response_bytes", len(response))
        return response

    return handle_wire


def _bytes_wrapper(fn: Callable, recorder: SpanRecorder,
                   default_point: str) -> Callable:
    """Bytes written, keyed by the first part of the I/O point name
    (``wal.append`` counts as ``io.bytes.wal``)."""

    def write(io, path, data, point=default_point):
        recorder.count(f"io.bytes.{point.split('.')[0]}", len(data))
        return fn(io, path, data, point=point)

    return write


def _monitor_wrapper(fn: Callable, recorder: SpanRecorder) -> Callable:
    def interceptor_for(monitor, process):
        interceptor = fn(monitor, process)
        interceptor.before_execute = _spanned(
            interceptor.before_execute, "monitor.before", recorder)
        interceptor.after_execute = _spanned(
            interceptor.after_execute, "monitor.after", recorder)
        return interceptor

    return interceptor_for

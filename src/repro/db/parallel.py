"""Partition-parallel execution: worker pools and exchange planning.

The vectorized pipeline (``repro.db.vector``) is single-threaded, and
the GIL makes in-process threads useless for CPU-bound scans. This
module supplies the process layer under the ``Gather`` operators:

* :class:`PersistentForkPool` — the production runtime: N long-lived
  resident workers forked once per ``set_parallel_workers(n)`` and
  reused across statements over a length-prefixed task/result frame
  protocol. Tasks (``repro.db.vector.PartitionTask``) pickle their
  AST-level pipeline spec through the task pipe; the worker rebuilds
  the operators against its own fork-time engine snapshot. The pool
  records the catalog's version clock (:mod:`repro.db.catalog`) at
  fork time and recycles its residents whenever it moves — so a
  resident never scans a stale heap — and respawns crashed workers so
  one bad statement cannot poison the pool.
* :class:`InProcessPool` — the deterministic twin used by the parity
  and property test suites: same thunks, same merge path, no
  processes. Injecting it makes partition/merge logic testable with
  plain stack traces and coverage. It is also the fallback wherever no
  resident can take the work: unpicklable tasks handed to the
  persistent pool, and statements dispatched while a draining server
  has torn the engine's resident pool down.

Both pools run read-only thunks. Parallel plans are only ever built
for SELECT pipelines, so a worker never writes WAL records, never
flushes tables, and never mutates shared state the parent observes —
the fork boundary is a read-only snapshot handoff by construction.

MVCC correctness: the gather operator captures the session's ambient
:class:`~repro.db.mvcc.ReadView` before dispatching and each thunk
re-installs it, so a worker scans exactly the snapshot the serial plan
would have scanned (the view pickles whole through the task pipe,
overlays included; re-installing it keeps the in-process pool honest
too).
"""

from __future__ import annotations

import os
import pickle
import signal
import struct
import time
from typing import Any, Callable

from repro.errors import WorkerCrashError

Thunk = Callable[[], Any]

# Parallel plans only pay off once the scan dominates plan overhead;
# below this many estimated input rows the planner stays serial.
DEFAULT_MIN_ROWS = 10_000


class InProcessPool:
    """Deterministic pool: runs every thunk in this process, in order.

    ``child_hook`` (if given) runs before each thunk with the
    partition index — the chaos tests use it to inject failures at
    exact partitions in both pool implementations.
    """

    def __init__(self, child_hook: Callable[[int], None] | None = None
                 ) -> None:
        self.child_hook = child_hook

    def run(self, thunks: list[Thunk]) -> list[Any]:
        results = []
        for index, thunk in enumerate(thunks):
            if self.child_hook is not None:
                self.child_hook(index)
            results.append(thunk())
        return results


# The engine of the resident worker process (set once, right after the
# persistent pool forks a worker). PartitionTask specs name tables by
# string on the way through the task pipe; this is what the worker
# resolves those names against.
_WORKER_ENGINE: Any = None


def current_worker_engine() -> Any:
    return _WORKER_ENGINE


# Parent-side pipe fds of every live resident in this process, across
# all pools and engines. A freshly forked resident closes every fd in
# here: a pipe write-end surviving in an unrelated fork would defeat
# the EOF-based shutdown and crash detection of the resident it
# belongs to (the reader only sees EOF once *all* write-ends close).
_RESIDENT_PARENT_FDS: set[int] = set()


class _Resident:
    """One live worker of a :class:`PersistentForkPool`."""

    __slots__ = ("pid", "task_w", "result_r")

    def __init__(self, pid: int, task_w: int, result_r: int) -> None:
        self.pid = pid
        self.task_w = task_w
        self.result_r = result_r


def _write_frame(fd: int, payload: bytes) -> None:
    os.write(fd, struct.pack("<Q", len(payload)))
    os.write(fd, payload)


def _read_frame_bytes(read_fd: int) -> bytes | None:
    """One length-prefixed raw frame, or None if the writer died."""
    def read_exact(wanted: int) -> bytes | None:
        pieces = []
        remaining = wanted
        while remaining:
            piece = os.read(read_fd, remaining)
            if not piece:
                return None
            pieces.append(piece)
            remaining -= len(piece)
        return b"".join(pieces)

    header = read_exact(8)
    if header is None:
        return None
    (length,) = struct.unpack("<Q", header)
    return read_exact(length)


class PersistentForkPool:
    """N long-lived forked workers reused across statements.

    The pool forks its residents once and then ships each statement's
    partition tasks through pipes: a length-prefixed pickled
    ``(task_index, task)`` frame per task, a length-prefixed pickled
    ``(ok, value)`` frame per result. Tasks must therefore be
    picklable — :class:`repro.db.vector.PartitionTask` ships an
    AST-level pipeline spec (tables collapse to names, the session's
    :class:`~repro.db.mvcc.ReadView` pickles whole) and the worker
    rebuilds the operators against its own engine copy. Unpicklable
    thunks (raw closures) run in this process through
    :class:`InProcessPool` instead, with identical results.

    Freshness: a resident's heap is a copy-on-write snapshot taken at
    fork time, so the pool records the catalog's version clock when it
    spawns and recycles every resident once the clock moves (any heap
    write, DDL, ANALYZE, or repartition; uncommitted writes ride along
    in the pickled read view instead).
    Read-only workloads — the ones parallel plans serve — therefore
    fork exactly ``workers`` times per pool lifetime and reuse the
    residents for every subsequent statement.

    Crash semantics: a resident that dies before completing its
    result frame surfaces as :class:`WorkerCrashError` after its pid
    is reaped; the dead slot respawns on the next dispatch, so the
    statement's retry (parallel plans are read-only, hence retry-safe)
    finds a healthy pool.
    """

    def __init__(self, workers: int, engine: Any = None,
                 child_hook: Callable[[int], None] | None = None) -> None:
        self.workers = max(1, int(workers))
        self.engine = engine
        self.child_hook = child_hook
        self._slots: list[_Resident | None] = [None] * self.workers
        self._stamp: int | None = None
        self._crashed_slots: set[int] = set()
        # counters surfaced via server_stats() and EXPLAIN ANALYZE
        self.forks = 0
        self.reuse_hits = 0
        self.worker_crashes = 0
        self.respawns = 0
        # pids of the residents used by the most recent run
        self.last_pids: list[int] = []

    # -- observability -------------------------------------------------------

    def counters(self) -> dict[str, Any]:
        return {
            "workers": self.workers,
            "forks": self.forks,
            "reuse_hits": self.reuse_hits,
            "worker_crashes": self.worker_crashes,
            "respawns": self.respawns,
            "resident_pids": self.worker_pids(),
        }

    def worker_pids(self) -> list[int]:
        return [slot.pid for slot in self._slots if slot is not None]

    # -- lifecycle -----------------------------------------------------------

    def _catalog_clock(self) -> int | None:
        if self.engine is None:
            return None
        return self.engine.catalog.clock.now

    def _ensure_workers(self) -> bool:
        """Spawn or recycle residents; True if every slot was reused."""
        if any(slot is not None for slot in self._slots):
            stamp = self._catalog_clock()
            if stamp != self._stamp:
                self.recycle()
        reused = True
        for index in range(self.workers):
            if self._slots[index] is None:
                if reused:
                    # stamp what the first fork of this generation sees;
                    # every sibling forks under the same (single-threaded)
                    # engine state
                    self._stamp = self._catalog_clock()
                reused = False
                self._spawn(index)
        return reused

    def _spawn(self, index: int) -> None:
        task_r, task_w = os.pipe()
        result_r, result_w = os.pipe()
        pid = os.fork()
        if pid == 0:  # pragma: no cover - runs only in the forked child
            os.close(task_w)
            os.close(result_r)
            # close inherited parent-side ends of every other live
            # resident's pipes — this pool's and any other pool's in
            # the process — or their EOF-based shutdown and crash
            # detection would hang on the fd this fork still holds
            for fd in list(_RESIDENT_PARENT_FDS):
                try:
                    os.close(fd)
                except OSError:
                    pass
            self._worker_main(index, task_r, result_w)
        os.close(task_r)
        os.close(result_w)
        _RESIDENT_PARENT_FDS.add(task_w)
        _RESIDENT_PARENT_FDS.add(result_r)
        self._slots[index] = _Resident(pid, task_w, result_r)
        self.forks += 1
        if index in self._crashed_slots:
            self._crashed_slots.discard(index)
            self.respawns += 1

    def _worker_main(  # pragma: no cover - runs only in the forked child
            self, index: int, task_r: int, result_w: int) -> None:
        """Resident loop: read task frames until EOF, never return.

        Post-fork lines are invisible to coverage; behavior is pinned
        by parent-side assertions in the pool tests: result frames,
        error frames, crash-mid-frame, recycle-on-EOF."""
        global _WORKER_ENGINE
        _WORKER_ENGINE = self.engine
        # populated scan-cache segments ride into the fork copy-on-write
        # for free (stale generations die with the worker on recycle —
        # any heap write moves the version clock); only the event
        # counters are zeroed so a worker's numbers describe the worker
        if self.engine is not None:
            cache = getattr(self.engine, "scan_cache", None)
            if cache is not None:
                cache.reset_counters()
        while True:
            frame = _read_frame_bytes(task_r)
            if frame is None:
                os._exit(0)
            try:
                task_index, task = pickle.loads(frame)
                if self.child_hook is not None:
                    self.child_hook(task_index)
                payload = pickle.dumps((True, task()),
                                       protocol=pickle.HIGHEST_PROTOCOL)
            except BaseException as error:
                try:
                    payload = pickle.dumps(
                        (False, error), protocol=pickle.HIGHEST_PROTOCOL)
                except Exception:
                    payload = pickle.dumps(
                        (False, WorkerCrashError(
                            f"worker {index} failed with unpicklable "
                            f"error: {error!r}")),
                        protocol=pickle.HIGHEST_PROTOCOL)
            try:
                _write_frame(result_w, payload)
            except BaseException:
                os._exit(1)

    def _retire(self, index: int, crashed: bool = False) -> None:
        slot = self._slots[index]
        if slot is None:
            return
        self._slots[index] = None
        for fd in (slot.task_w, slot.result_r):
            _RESIDENT_PARENT_FDS.discard(fd)
            try:
                os.close(fd)
            except OSError:  # pragma: no cover - already closed
                pass
        try:
            # EOF on the task pipe makes the resident exit promptly;
            # the bounded wait + SIGKILL fallback guarantees _retire
            # never hangs even if some other fork of this process
            # still holds the pipe's write end open
            for _ in range(400):
                done, _status = os.waitpid(slot.pid, os.WNOHANG)
                if done:
                    break
                time.sleep(0.005)
            else:  # pragma: no cover - leaked-fd fallback
                os.kill(slot.pid, signal.SIGKILL)
                os.waitpid(slot.pid, 0)
        except (ChildProcessError,
                ProcessLookupError):  # pragma: no cover - already gone
            pass
        if crashed:
            self._crashed_slots.add(index)
            self.worker_crashes += 1

    def recycle(self) -> None:
        """Tear down every resident (they exit on task-pipe EOF and are
        reaped here); the next dispatch forks a fresh generation."""
        for index in range(self.workers):
            self._retire(index)
        self._stamp = None

    def close(self) -> None:
        self.recycle()

    def __del__(self) -> None:  # pragma: no cover - GC-timing dependent
        try:
            self.recycle()
        except Exception:
            pass

    # -- dispatch ------------------------------------------------------------

    def run(self, tasks: list) -> list[Any]:
        if not hasattr(os, "fork"):  # pragma: no cover - non-POSIX
            return InProcessPool(self.child_hook).run(tasks)
        try:
            frames = [pickle.dumps((index, task),
                                   protocol=pickle.HIGHEST_PROTOCOL)
                      for index, task in enumerate(tasks)]
        except Exception:
            # unpicklable task (a raw closure): no resident can take it
            return InProcessPool(self.child_hook).run(tasks)
        if self._ensure_workers():
            self.reuse_hits += 1
        slot_count = self.workers
        self.last_pids = [
            self._slots[which].pid
            for which in range(min(slot_count, len(tasks)))
            if self._slots[which] is not None]
        results: list[Any] = [None] * len(tasks)
        crashed: list[int] = []
        dead: set[int] = set()
        worker_error: BaseException | None = None
        # dispatch in rounds of at most one task per resident (gathers
        # never exceed this anyway): a worker blocked writing a large
        # result never has the parent blocked writing it a second task
        for start in range(0, len(tasks), slot_count):
            round_indexes = range(start, min(start + slot_count,
                                             len(tasks)))
            for task_index in round_indexes:
                which = task_index % slot_count
                slot = self._slots[which]
                if which in dead or slot is None:
                    dead.add(which)
                    continue
                try:
                    _write_frame(slot.task_w, frames[task_index])
                except OSError:
                    dead.add(which)
            for task_index in round_indexes:
                which = task_index % slot_count
                slot = self._slots[which]
                if which in dead or slot is None:
                    crashed.append(task_index)
                    continue
                payload = _read_frame_bytes(slot.result_r)
                if payload is None:
                    dead.add(which)
                    crashed.append(task_index)
                    continue
                ok, value = pickle.loads(payload)
                if ok:
                    results[task_index] = value
                elif worker_error is None:
                    worker_error = value
        for which in dead:
            self._retire(which, crashed=True)
        if crashed:
            raise WorkerCrashError(
                f"parallel worker(s) {sorted(crashed)} died before "
                f"returning results; statement aborted, all workers "
                f"reaped")
        if worker_error is not None:
            raise worker_error
        return results


class ParallelContext:
    """Everything the planner and Gather operators need to go parallel:
    the worker count, how to obtain a pool, and the cost threshold
    below which plans stay serial. One context is built per planning
    call from the database's current settings; the plan-cache key
    carries the worker count so a cached plan can never execute under
    a different setting than it was planned for."""

    __slots__ = ("workers", "pool_factory", "min_rows")

    def __init__(self, workers: int, pool_factory: Callable[[], Any],
                 min_rows: int = DEFAULT_MIN_ROWS) -> None:
        self.workers = max(1, int(workers))
        self.pool_factory = pool_factory
        self.min_rows = min_rows

    def make_pool(self) -> Any:
        return self.pool_factory()


def split_ranges(items: list, parts: int) -> list[list]:
    """Split a list into at most ``parts`` contiguous chunks of nearly
    equal size (never an empty chunk). Order within and across chunks
    preserves the input order, so concatenating the chunks round-trips
    the list — the property the concat-mode gather relies on."""
    total = len(items)
    parts = max(1, min(parts, total if total else 1))
    base, extra = divmod(total, parts)
    chunks: list[list] = []
    start = 0
    for index in range(parts):
        size = base + (1 if index < extra else 0)
        if size == 0:
            continue
        chunks.append(items[start:start + size])
        start += size
    return chunks


def bucket_lists(buckets: list[list[int]], parts: int) -> list[list[int]]:
    """Distribute hash-partition buckets round-robin over ``parts``
    workers, each worker's rowid list re-sorted so every per-worker
    stream is rowid-ordered (the merge-mode gather k-way merges them
    back into exact global rowid order)."""
    parts = max(1, parts)
    assigned: list[list[int]] = [[] for _ in range(min(parts,
                                                       len(buckets)) or 1)]
    for index, bucket in enumerate(buckets):
        assigned[index % len(assigned)].extend(bucket)
    lists = [sorted(rowids) for rowids in assigned if rowids]
    return lists if lists else [[]]


def aligned_bucket_lists(buckets: list[list[int]],
                         parts: int) -> list[list[int]]:
    """Like :func:`bucket_lists` but *keeps empty worker slots*, so
    two tables with equal bucket counts map bucket ``i`` to the same
    worker slot on both sides — the co-partitioned join pairs slot
    ``k`` of the build side with slot ``k`` of the probe side and
    relies on that alignment even when one side's buckets are empty."""
    parts = max(1, parts)
    slots: list[list[int]] = [[] for _ in range(min(parts,
                                                    len(buckets)) or 1)]
    for index, bucket in enumerate(buckets):
        slots[index % len(slots)].extend(bucket)
    return [sorted(rowids) for rowids in slots]

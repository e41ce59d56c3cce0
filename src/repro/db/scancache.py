"""Columnar scan cache: data-versioned segments for the batch read path.

Every batch scan used to pay the same tax per execution: walk the heap
in rowid order, slice it into :data:`~repro.db.vector.BATCH_SIZE`
chunks, and transpose each chunk's row tuples into column vectors —
even when the table had not changed since the previous statement. The
cache here materializes that work once per table state into an
immutable :class:`Segment` and replays the *same* prebuilt
:class:`~repro.db.vector.RowBatch` objects on every subsequent scan.

Keying and invalidation
-----------------------

Segments are keyed by

``(table name, data version, partition signature, column signature)``

* The **data version** is the ``data`` field of the table's catalog
  version record (:mod:`repro.db.catalog`), moved by every heap write
  whatever its path, so a stale segment is simply unreachable. DDL,
  ANALYZE and repartitioning leave it alone: the segment stays exact.
* The **partition signature** is ``None`` for full scans; partition
  scans key on ``(first rowid, last rowid, count)`` of their assigned
  rowid list, and a hit additionally verifies the stored list equals
  the requested one (repartitioning changes bucket membership without
  changing the data version, so boundaries are never trusted from the
  signature alone).
* The **column signature** mirrors the scan's pruning decision: ``None``
  when the scan would materialize every column, otherwise the sorted
  tuple of column positions a fused consumer actually reads.

At most one generation per table stays resident: building at a new
data version first drops the table's older segments.

Exactness under MVCC
--------------------

A segment holds the **committed-latest** heap image. Statements with no
ambient read view read exactly that. For a statement under a view the
cache serves only when provably exact, judged by the MVCC commit
watermark ``mvcc.watermark(table)``:

* ``snapshot >= watermark(table)`` and the transaction has no private
  overlay for the table → the segment *is* the visible state. Proof:
  every committed version ``v`` satisfies ``commit_stamp(v) <=
  watermark <= snapshot`` (``note_write`` is always called with the
  commit tick), so all committed-latest versions are visible and every
  history chain's superseding ``end`` stamp is visible too — history
  can never surface.
* ``snapshot >= watermark(table)`` with an overlay → a **delta pass**:
  merge the overlay's upserts over the segment and drop its deletes,
  in sorted rowid order — exactly what
  :meth:`~repro.db.storage.HeapTable._scan_view` computes under the
  same condition, without per-rowid version resolution.
* ``snapshot < watermark(table)`` → some committed version may be
  invisible and a history chain may matter: the cache refuses
  (``fallbacks`` counter) and the scan takes the uncached
  ``scan_versions()`` walk.

Bounding and observability
--------------------------

Residency is LRU-bounded by **cell count** (rows × (columns + rowid +
version)); eviction pops oldest-used segments first and is counted.
Counters — hits, misses, builds, evictions, invalidations, delta
merges, fallbacks, resident cells/bytes — surface in
``DBClient.server_stats()`` and EXPLAIN ANALYZE's ``stats["server"]``;
the scan operators stamp a ``[scan cache: hit|miss]`` note onto the
plan text. Forked pool workers inherit populated segments
copy-on-write and reset the inherited counters (see
:mod:`repro.db.parallel`).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Iterator

from repro.db import vector
from repro.db.provtypes import lineage_singletons

# Default residency budget, in cells (row × column slots, plus the
# rowid and version vectors). 8M cells comfortably holds the benchmark
# working set (~600k cells) while bounding a worker's inherited copy.
DEFAULT_MAX_CELLS = 8_000_000

# Pointer-width estimate for the bytes counter: cached vectors hold
# references into the heap's existing value objects, so the cache's
# own footprint is ~one machine word per cell.
_CELL_BYTES = 8


class Segment:
    """One immutable cached scan image: the committed-latest rows of a
    table (optionally restricted to an explicit rowid list) prechunked
    into :class:`~repro.db.vector.RowBatch` objects.

    The base chunk data (row tuples, column vectors) is built once in
    ``__init__``; the four batch *variants* — with/without lineage
    annotation vectors, with/without rowid annotation vectors — share
    those vectors and are built lazily on first request, so a segment
    scanned only without provenance never allocates a lineage vector.
    """

    __slots__ = ("name", "rowids", "versions", "row_major", "width",
                 "colsig", "count", "cells", "_chunks", "_variants",
                 "_positions")

    def __init__(self, table, rowids: list[int] | None,
                 colsig: tuple[int, ...] | None) -> None:
        heap = table.rows
        versions = table.versions
        if rowids is None:
            rowids = list(heap)
            if rowids != sorted(rowids):
                rowids = sorted(rowids)
            row_major = [heap[rowid] for rowid in rowids]
        else:
            row_major = [heap[rowid] for rowid in rowids]
        self.name = table.name
        self.rowids = rowids
        self.versions = [versions[rowid] for rowid in rowids]
        self.row_major = row_major
        self.width = len(table.schema)
        self.colsig = colsig
        self.count = len(rowids)
        self.cells = self.count * (self.width + 2)
        self._chunks = self._build_chunks()
        self._variants: dict[tuple[bool, bool], list] = {}
        self._positions: dict[int, int] | None = None

    def _build_chunks(self) -> list[tuple[list, list]]:
        """Per-chunk ``(chunk_rows, columns)`` — the shared vectors
        every variant's batches reference."""
        width = self.width
        colsig = self.colsig
        size = vector.BATCH_SIZE
        chunks = []
        for start in range(0, self.count, size):
            chunk_rows = self.row_major[start:start + size]
            if colsig is not None:
                columns: list = [None] * width
                for index in colsig:
                    columns[index] = [row[index] for row in chunk_rows]
            else:
                columns = list(zip(*chunk_rows)) if width else []
            chunks.append((chunk_rows, columns))
        return chunks

    def batches(self, track_lineage: bool,
                with_rowids: bool) -> list:
        """The prebuilt batch list for one variant (built on first
        request, replayed verbatim afterwards — RowBatch vectors are
        immutable by contract)."""
        key = (track_lineage, with_rowids)
        variant = self._variants.get(key)
        if variant is None:
            variant = self._build_variant(track_lineage, with_rowids)
            self._variants[key] = variant
        return variant

    def _build_variant(self, track_lineage: bool,
                       with_rowids: bool) -> list:
        size = vector.BATCH_SIZE
        batches = []
        for number, (chunk_rows, columns) in enumerate(self._chunks):
            start = number * size
            stop = start + len(chunk_rows)
            lineages = None
            if track_lineage:
                lineages = lineage_singletons(
                    self.name,
                    list(zip(self.rowids[start:stop],
                             self.versions[start:stop])))
                vector.note_lineage_vector_build()
            chunk_ids = (self.rowids[start:stop] if with_rowids
                         else None)
            batches.append(vector.RowBatch(
                columns, len(chunk_rows), lineages, None, chunk_rows,
                chunk_ids))
        return batches

    def positions(self) -> dict[int, int]:
        """rowid → segment index, built lazily for delta passes."""
        if self._positions is None:
            self._positions = {rowid: index for index, rowid
                               in enumerate(self.rowids)}
        return self._positions


class ScanCache:
    """LRU pool of :class:`Segment` objects, shared by every table of
    one database (owned by the catalog, mirroring ``MVCCState``)."""

    def __init__(self, max_cells: int = DEFAULT_MAX_CELLS) -> None:
        self.max_cells = max_cells
        self.enabled = True
        self._segments: "OrderedDict[tuple, Segment]" = OrderedDict()
        # table name → keys of its resident segments (one data version)
        self._per_table: dict[str, set[tuple]] = {}
        self.resident_cells = 0
        self.hits = 0
        self.misses = 0
        self.builds = 0
        self.evictions = 0
        self.invalidations = 0
        self.delta_merges = 0
        self.fallbacks = 0

    # -- serving -----------------------------------------------------------------

    def serve_seq_scan(self, operator, table) -> list | None:
        """Batches for a full table scan, or None when the cache must
        not serve (disabled, standalone table, or an MVCC state the
        delta pass cannot cover exactly). Stamps ``operator.cache_note``
        for EXPLAIN ANALYZE when it does serve."""
        if not self.enabled or table.mvcc is None:
            return None
        view = table.active_view()
        track_lineage = operator.track_lineage
        if view is None:
            colsig = self._colsig(operator, track_lineage)
            segment, hit = self._segment(table, None, None, colsig)
            if segment is None:
                return None
            operator.cache_note = "hit" if hit else "miss"
            return segment.batches(track_lineage, False)
        if view.snapshot < table.mvcc.watermark(table.name):
            # a commit after this snapshot: some committed-latest
            # version may be invisible and history may matter — the
            # uncached scan_versions() walk is the only exact answer
            self.fallbacks += 1
            return None
        overlay = view.overlay_for(table.name)
        if overlay is None or overlay.empty:
            # snapshot >= watermark and no private writes: the
            # committed-latest image is exactly the visible state
            segment, hit = self._segment(table, None, None, None)
            if segment is None:
                return None
            operator.cache_note = "hit" if hit else "miss"
            return segment.batches(track_lineage, False)
        segment, hit = self._segment(table, None, None, None)
        if segment is None:
            return None
        operator.cache_note = "hit" if hit else "miss"
        self.delta_merges += 1
        return self._delta_batches(segment, overlay, track_lineage)

    def serve_partition_scan(self, operator, table,
                             rowids: list[int]) -> list | None:
        """Batches for one partition's explicit rowid list. Callers
        guarantee no ambient view (partition scans under a view
        resolve per-rowid through ``view_entry`` uncached)."""
        if not self.enabled or table.mvcc is None:
            return None
        track_lineage = operator.track_lineage
        colsig = self._colsig(operator, track_lineage)
        if rowids:
            signature = (rowids[0], rowids[-1], len(rowids))
        else:
            signature = (0, 0, 0)
        segment, hit = self._segment(table, rowids, signature, colsig)
        if segment is None:
            return None
        operator.cache_note = "hit" if hit else "miss"
        return segment.batches(track_lineage, True)

    @staticmethod
    def _colsig(operator, track_lineage: bool) -> tuple[int, ...] | None:
        """Mirror the uncached scan's pruning rule exactly: columns are
        pruned only on the committed-latest, no-lineage path."""
        needed = operator.needed_columns
        if (track_lineage or needed is None
                or len(needed) >= len(operator.schema)):
            return None
        return tuple(sorted(needed))

    def _segment(self, table, rowids: list[int] | None,
                 signature, colsig) -> tuple[Segment | None, bool]:
        data = table.version_record.data
        key = (table.name, data, signature, colsig)
        segment = self._segments.get(key)
        if segment is not None:
            if rowids is None or segment.rowids == rowids:
                self._segments.move_to_end(key)
                self.hits += 1
                return segment, True
            # same signature, different rowid list: replace it
            self._drop(key)
        self.misses += 1
        self.builds += 1
        # a newer generation supersedes the table's older segments
        for old in [old for old in self._per_table.get(table.name, ())
                    if old[1] != data]:
            self._drop(old)
            self.invalidations += 1
        segment = Segment(table, rowids, colsig)
        self._admit(key, segment)
        return segment, False

    def _delta_batches(self, segment: Segment, overlay,
                       track_lineage: bool) -> list:
        """Merge a transaction's private overlay over a committed
        segment — upserts win, deletes drop, everything in sorted
        rowid order — matching ``_scan_view`` under the served
        condition (snapshot >= watermark)."""
        upserts = overlay.upserts
        deletes = overlay.deletes
        if upserts:
            merged_ids = sorted(set(segment.rowids).union(upserts))
        else:
            merged_ids = segment.rowids
        positions = segment.positions()
        row_major = segment.row_major
        versions = segment.versions
        resolved = []
        for rowid in merged_ids:
            entry = upserts.get(rowid)
            if entry is not None:
                resolved.append((rowid, entry[0], entry[1]))
                continue
            if rowid in deletes:
                continue
            index = positions[rowid]
            resolved.append((rowid, row_major[index], versions[index]))
        size = vector.BATCH_SIZE
        name = segment.name
        batches = []
        for start in range(0, len(resolved), size):
            chunk = resolved[start:start + size]
            chunk_rows = [values for _, values, _ in chunk]
            columns = (list(zip(*chunk_rows)) if segment.width else [])
            lineages = None
            if track_lineage:
                lineages = lineage_singletons(
                    name, [(rowid, version)
                           for rowid, _, version in chunk])
                vector.note_lineage_vector_build()
            batches.append(vector.RowBatch(
                columns, len(chunk), lineages, None, chunk_rows))
        return batches

    # -- residency ---------------------------------------------------------------

    def _admit(self, key: tuple, segment: Segment) -> None:
        self._segments[key] = segment
        self._per_table.setdefault(segment.name, set()).add(key)
        self.resident_cells += segment.cells
        while self.resident_cells > self.max_cells and self._segments:
            oldest = next(iter(self._segments))
            self._drop(oldest)
            self.evictions += 1

    def _drop(self, key: tuple) -> None:
        segment = self._segments.pop(key)
        self.resident_cells -= segment.cells
        resident = self._per_table[segment.name]
        resident.discard(key)
        if not resident:
            del self._per_table[segment.name]

    def invalidate_all(self) -> None:
        """Purge everything (a cold start for tests and benchmarks;
        correctness never depends on it)."""
        self.invalidations += len(self._segments)
        self._segments.clear()
        self._per_table.clear()
        self.resident_cells = 0

    # -- planner / observability -------------------------------------------------

    def has_cached_scan(self, table) -> bool:
        """Is a segment of this table resident at its current data
        version? Only then may the planner cost the scan as cached — a
        segment stranded by a write does not count."""
        resident = self._per_table.get(table.name)
        return (self.enabled and bool(resident)
                and next(iter(resident))[1] == table.version_record.data)

    def counters(self) -> dict[str, Any]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "builds": self.builds,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "delta_merges": self.delta_merges,
            "fallbacks": self.fallbacks,
            "segments": len(self._segments),
            "resident_cells": self.resident_cells,
            "resident_bytes": self.resident_cells * _CELL_BYTES,
            "max_cells": self.max_cells,
            "enabled": self.enabled,
        }

    def reset_counters(self) -> None:
        """Zero the event counters (pool workers call this post-fork so
        their numbers describe the worker, not the inherited parent)."""
        self.hits = 0
        self.misses = 0
        self.builds = 0
        self.evictions = 0
        self.invalidations = 0
        self.delta_merges = 0
        self.fallbacks = 0

"""Batch-at-a-time (vectorized) query operators.

The row executor in :mod:`repro.db.executor` moves one ``(values,
lineage)`` pair per Python ``next()`` call; at 100k rows the
interpreter dispatch around those calls dominates evaluation. The
operators here move a :class:`RowBatch` — column vectors plus a
parallel *annotation vector* of lineages — so per-tuple overhead is
paid once per ~:data:`BATCH_SIZE` rows, and expressions evaluate as
compiled list comprehensions over whole columns (see the batch
compilation section of :mod:`repro.db.expressions`).

Design rules:

* Every batch operator subclasses its row twin (``BatchFilter`` is a
  ``Filter``) so isinstance-based planner/EXPLAIN logic keeps working,
  and inherits a row-iterator compatibility shim from
  :class:`BatchOperator` — anything that consumes annotated rows
  (MVCC read views, the monitor's lineage capture, INSERT ... SELECT)
  sees the exact row stream the tuple engine produced.
* Lineage annotations ride in a vector parallel to the columns;
  ``None`` means "no annotations anywhere in this batch" so the
  non-provenance path never allocates per-row frozensets.
* A selection vector (``sel``) defers gathering after filters: a
  filter only refines ``sel``, the next gathering operator pays the
  copy once.
* Row-only operators (NestedLoopJoin, MaterializedSource) compose
  into batch plans through :func:`batches_of`, which chunks any
  annotated-row iterator into batches.

Fallbacks to full row-at-a-time planning: the
``interpreted_expressions()`` escape hatch and the
:func:`row_at_a_time_plans` context manager (used by benchmarks to
measure the tuple engine on identical plans).
"""

from __future__ import annotations

import heapq
from contextlib import contextmanager
from itertools import islice
from operator import itemgetter
from time import perf_counter
from typing import Any, Callable, Iterator

from repro.db import executor as ex
from repro.db import expressions as exprs
from repro.db import parallel as par
from repro.db.provtypes import EMPTY_LINEAGE, lineage_singletons
from repro.db.sql import ast
from repro.errors import ExecutionError

# Rows per batch: large enough to amortize per-batch dispatch, small
# enough that column vectors stay cache-friendly Python lists.
BATCH_SIZE = 1024


# Benchmarks flip this off to run the tuple-at-a-time engine on the
# same queries; production code never touches it.
_VECTORIZED = True

# Lineage annotation vectors materialized by scan paths (operators and
# cached segments). The no-provenance path must keep this flat — zero
# allocations — and cached segments allocate once per segment instead
# of once per scan; tests assert both through this counter.
LINEAGE_VECTOR_BUILDS = 0


def note_lineage_vector_build() -> None:
    global LINEAGE_VECTOR_BUILDS
    LINEAGE_VECTOR_BUILDS += 1


@contextmanager
def row_at_a_time_plans():
    """Force plans built inside the block onto the row executor."""
    global _VECTORIZED
    previous = _VECTORIZED
    _VECTORIZED = False
    try:
        yield
    finally:
        _VECTORIZED = previous


def vectorized_enabled() -> bool:
    """Should the planner emit batch operators right now?

    Interpreted-expressions mode implies row plans: the escape hatch
    promises the *interpreter* evaluates every expression, and batch
    operators would re-route evaluation through vector closures.
    """
    return _VECTORIZED and not exprs._INTERPRET_ONLY


class RowBatch:
    """A batch of rows in columnar layout with lineage annotations.

    ``columns`` holds one list per schema column, each ``count`` long.
    ``lineages`` is a parallel list of frozensets, or None when no row
    in the batch carries lineage. ``sel`` is a selection vector of row
    positions still alive (None = all). ``row_major`` optionally
    caches the same rows as tuples (producers that already hold row
    tuples — scans, join output — pass them so :meth:`rows` skips
    re-transposing). ``rowids`` is a second annotation vector carrying
    each row's global heap rowid — only partition-parallel pipelines
    populate it (the gather boundary merges partition streams back
    into exact serial rowid order by it); everywhere else it stays
    None and costs nothing. Consumers must treat the vectors as
    immutable — operators share them across batches.
    """

    __slots__ = ("columns", "count", "lineages", "sel", "row_major",
                 "rowids")

    def __init__(self, columns: list, count: int,
                 lineages: list | None = None,
                 sel: Any = None,
                 row_major: list | None = None,
                 rowids: list | None = None) -> None:
        self.columns = columns
        self.count = count
        self.lineages = lineages
        self.sel = sel
        self.row_major = row_major
        self.rowids = rowids

    def selection(self) -> Any:
        return range(self.count) if self.sel is None else self.sel

    def __len__(self) -> int:
        return self.count if self.sel is None else len(self.sel)

    def rows(self) -> list[tuple]:
        """Selected rows as plain tuples (the row-shim's currency).

        Transposition runs through ``zip(*columns)`` — per-row
        ``tuple(generator)`` calls were the single hottest line of the
        batch engine before this.
        """
        row_major = self.row_major
        sel = self.sel
        if row_major is not None:
            if sel is None:
                return row_major
            return [row_major[index] for index in sel]
        columns = self.columns
        if not columns:
            return [()] * (self.count if sel is None else len(sel))
        if sel is None:
            return list(zip(*columns))
        if len(columns) == 1:
            column = columns[0]
            return [(column[index],) for index in sel]
        return list(zip(*[[column[index] for index in sel]
                          for column in columns]))

    def gathered_lineages(self) -> list | None:
        """Annotation vector aligned with :meth:`rows`, or None."""
        if self.lineages is None:
            return None
        if self.sel is None:
            return self.lineages
        return [self.lineages[index] for index in self.sel]

    def picked_lineages(self) -> list:
        """Like :meth:`gathered_lineages` with the empty-lineage fill."""
        gathered = self.gathered_lineages()
        if gathered is None:
            return [EMPTY_LINEAGE] * len(self)
        return gathered

    def gathered_rowids(self) -> list | None:
        """Rowid vector aligned with :meth:`rows`, or None."""
        if self.rowids is None:
            return None
        if self.sel is None:
            return self.rowids
        return [self.rowids[index] for index in self.sel]

    def slice(self, start: int, stop: int) -> "RowBatch":
        """A sub-range of the selected rows (shares the vectors)."""
        sel = self.selection()
        return RowBatch(self.columns, self.count, self.lineages,
                        sel[start:stop], self.row_major, self.rowids)


class BatchOperator(ex.Operator):
    """Base for batch operators: a stream of :class:`RowBatch`.

    The inherited iteration protocol is a compatibility shim — row
    consumers iterate ``(values, lineage)`` exactly as before, decoded
    from the batch stream.
    """

    def batches(self) -> Iterator[RowBatch]:  # pragma: no cover - interface
        raise NotImplementedError

    def __iter__(self) -> Iterator[ex.Annotated]:
        for batch in self.batches():
            lineages = batch.gathered_lineages()
            if lineages is None:
                for values in batch.rows():
                    yield values, EMPTY_LINEAGE
            else:
                yield from zip(batch.rows(), lineages)


def _chunk_annotated(iterator: Iterator[ex.Annotated],
                     width: int) -> Iterator[RowBatch]:
    """Chunk an annotated-row iterator into dense batches."""
    while True:
        chunk = list(islice(iterator, BATCH_SIZE))
        if not chunk:
            return
        columns = (list(zip(*(values for values, _ in chunk)))
                   if width else [])
        lineages: list | None = [lineage for _, lineage in chunk]
        if not any(lineages):
            lineages = None
        yield RowBatch(columns, len(chunk), lineages, None)


def batches_of(operator: ex.Operator) -> Iterator[RowBatch]:
    """Batch view of any operator — the bridge for row-only operators
    (NestedLoopJoin, MaterializedSource) inside batch plans."""
    if isinstance(operator, BatchOperator):
        return operator.batches()
    return _chunk_annotated(iter(operator), len(operator.schema))


class BatchSeqScan(BatchOperator, ex.SeqScan):
    """Columnar full scan.

    Under an MVCC read view (or with lineage tracking) rows flow
    through ``scan_versions()`` so snapshot visibility and version
    stamps match the row scan exactly; the committed-latest
    no-lineage case slices the heap directly.

    ``needed_columns`` (set by a fused parent whose expressions are
    all pure-vector) prunes materialization: only those column
    vectors are built, the rest stay None placeholders that the
    kernel provably never reads.

    When the table belongs to a catalog with a scan cache
    (:mod:`repro.db.scancache`), the scan is served from prebuilt
    cached segments whenever that is provably exact — committed-latest
    reads, and snapshot reads the cache's delta pass covers — and
    ``cache_note`` records hit/miss for EXPLAIN ANALYZE. Anything the
    cache declines falls through to the walk below unchanged.
    """

    needed_columns: set[int] | None = None
    cache_note: str | None = None

    def batches(self) -> Iterator[RowBatch]:
        table = self.table
        width = len(self.schema)
        cache = table.scan_cache
        if cache is not None:
            served = cache.serve_seq_scan(self, table)
            if served is not None:
                yield from served
                return
        if self.track_lineage or table.active_view() is not None:
            name = table.name
            track = self.track_lineage
            iterator = table.scan_versions()
            while True:
                chunk = list(islice(iterator, BATCH_SIZE))
                if not chunk:
                    return
                chunk_rows = [values for _, values, _ in chunk]
                columns = list(zip(*chunk_rows)) if width else []
                lineages = None
                if track:
                    lineages = lineage_singletons(
                        name,
                        [(rowid, version) for rowid, _, version in chunk])
                    note_lineage_vector_build()
                yield RowBatch(columns, len(chunk), lineages, None,
                               chunk_rows)
            return
        heap = table.rows
        rowids = sorted(heap)
        if rowids == list(heap):
            # rowids are allocated monotonically, so the heap dict is
            # almost always already in rowid order — skip 1 dict
            # lookup per row
            ordered = list(heap.values())
        else:
            ordered = [heap[rowid] for rowid in rowids]
        needed = self.needed_columns
        if needed is not None and len(needed) < width:
            getters = [(index, itemgetter(index))
                       for index in sorted(needed)]
            for start in range(0, len(ordered), BATCH_SIZE):
                chunk_rows = ordered[start:start + BATCH_SIZE]
                columns: list = [None] * width
                for index, getter in getters:
                    columns[index] = list(map(getter, chunk_rows))
                yield RowBatch(columns, len(chunk_rows), None, None,
                               chunk_rows)
            return
        for start in range(0, len(ordered), BATCH_SIZE):
            chunk_rows = ordered[start:start + BATCH_SIZE]
            columns = list(zip(*chunk_rows)) if width else []
            yield RowBatch(columns, len(chunk_rows), None, None,
                           chunk_rows)


class BatchPartitionScan(BatchSeqScan):
    """One partition of a parallel scan: a :class:`BatchSeqScan`
    restricted to an explicit rowid list, assigned per execution by
    the gather operator (heaps grow between executions of a cached
    plan, so partition boundaries cannot be baked in at plan time).

    Every batch carries the rowid annotation vector so downstream
    fused kernels/filters/projections keep output rows aligned with
    global rowids: the merge-mode gather k-way merges partition
    streams back into exact serial rowid order, and partial aggregates
    order merged groups by global first occurrence.

    Visibility matches the serial scan exactly: under an ambient read
    view each rowid resolves through
    :meth:`~repro.db.storage.HeapTable.view_entry` (overlay upserts,
    overlay deletes, history chains); the committed-latest path reads
    the heap directly.
    """

    def __init__(self, table, qualifier: str,
                 track_lineage: bool) -> None:
        ex.SeqScan.__init__(self, table, qualifier, track_lineage)
        self.rowids: list[int] = []

    def batches(self) -> Iterator[RowBatch]:
        table = self.table
        width = len(self.schema)
        rowids = self.rowids
        view = table.active_view()
        cache = table.scan_cache
        if cache is not None and view is None:
            served = cache.serve_partition_scan(self, table, rowids)
            if served is not None:
                yield from served
                return
        if self.track_lineage or view is not None:
            name = table.name
            track = self.track_lineage
            if view is None:
                heap = table.rows
                versions = table.versions
                resolved = [(rowid, heap[rowid], versions[rowid])
                            for rowid in rowids]
            else:
                overlay = view.overlay_for(name)
                resolved = []
                for rowid in rowids:
                    found = table.view_entry(rowid, view, overlay)
                    if found is not None:
                        resolved.append((rowid, found[0], found[1]))
            for start in range(0, len(resolved), BATCH_SIZE):
                chunk = resolved[start:start + BATCH_SIZE]
                chunk_rows = [values for _, values, _ in chunk]
                columns = list(zip(*chunk_rows)) if width else []
                lineages = None
                if track:
                    lineages = lineage_singletons(
                        name,
                        [(rowid, version) for rowid, _, version in chunk])
                    note_lineage_vector_build()
                yield RowBatch(columns, len(chunk), lineages, None,
                               chunk_rows,
                               [rowid for rowid, _, _ in chunk])
            return
        heap = table.rows
        needed = self.needed_columns
        prune = needed is not None and len(needed) < width
        for start in range(0, len(rowids), BATCH_SIZE):
            chunk_ids = rowids[start:start + BATCH_SIZE]
            chunk_rows = [heap[rowid] for rowid in chunk_ids]
            if prune:
                columns: list = [None] * width
                for index in sorted(needed):
                    columns[index] = [row[index] for row in chunk_rows]
            else:
                columns = list(zip(*chunk_rows)) if width else []
            yield RowBatch(columns, len(chunk_rows), None, None,
                           chunk_rows, chunk_ids)


class BatchIndexScan(BatchOperator, ex.IndexScan):
    """Columnar index lookup: chunks the row IndexScan's output (the
    probe itself is already set-at-a-time over the hash buckets)."""

    def batches(self) -> Iterator[RowBatch]:
        return _chunk_annotated(ex.IndexScan.__iter__(self),
                                len(self.schema))


class FusedScanFilterProject(BatchOperator):
    """Scan→Filter→Project fused into one compiled per-batch kernel.

    The planner grows this node bottom-up: predicates pushed onto a
    scan join the fusion via :meth:`add_predicate`, and the final
    SELECT-list projection lands via :meth:`absorb_projections`. Each
    mutation recompiles the kernel (plan-time cost only). One batch
    then takes a single call: refine the selection through every
    predicate, gather the projected columns, pick the surviving
    lineage annotations.
    """

    def __init__(self, child: BatchOperator,
                 predicates: list | None = None,
                 projections: list | None = None,
                 output_schema=None) -> None:
        self.child = child
        self.predicates = list(predicates or [])
        self.projections: list | None = None
        self.schema = child.schema
        if projections is not None:
            self.absorb_projections(projections, output_schema)
        else:
            self._recompile()

    def _recompile(self) -> None:
        self._kernel = exprs.compile_fused_kernel(
            self.predicates, self.projections, self.child.schema)

    def add_predicate(self, predicate: ast.Expression) -> None:
        if self.projections is not None:
            raise ExecutionError(
                "cannot add a predicate below an absorbed projection")
        self.predicates.append(predicate)
        self._recompile()

    def absorb_projections(self, projections: list,
                           output_schema) -> None:
        self.projections = list(projections)
        self.schema = output_schema
        self._recompile()
        # with a dense output this node is the scan's sole consumer;
        # if every expression is pure-vector the scan can skip
        # materializing the columns nothing reads
        if isinstance(self.child, BatchSeqScan):
            self.child.needed_columns = exprs.vector_safe_columns(
                self.predicates + self.projections, self.child.schema)

    def batches(self) -> Iterator[RowBatch]:
        kernel = self._kernel
        dense = self.projections is not None
        for batch in batches_of(self.child):
            out_columns, out_sel, picked = kernel(batch.columns,
                                                  batch.selection())
            if not picked:
                continue
            if dense:
                lineages = (None if batch.lineages is None else
                            [batch.lineages[index] for index in picked])
                rowids = (None if batch.rowids is None else
                          [batch.rowids[index] for index in picked])
                yield RowBatch(out_columns, len(picked), lineages, None,
                               None, rowids)
            else:
                yield RowBatch(out_columns, batch.count, batch.lineages,
                               out_sel, batch.row_major, batch.rowids)


class BatchFilter(BatchOperator, ex.Filter):
    """Selection-vector filter: refines ``sel``, copies nothing."""

    def __init__(self, child: ex.Operator,
                 predicate: ast.Expression) -> None:
        ex.Filter.__init__(self, child, predicate)
        self._refine = exprs.compile_batch_predicate(predicate,
                                                     child.schema)

    def batches(self) -> Iterator[RowBatch]:
        refine = self._refine
        for batch in batches_of(self.child):
            sel = refine(batch.columns, batch.selection())
            if sel:
                yield RowBatch(batch.columns, batch.count,
                               batch.lineages, sel, batch.row_major,
                               batch.rowids)


class BatchProject(BatchOperator, ex.Project):
    """Vectorized projection: one compiled closure per output column."""

    def __init__(self, child: ex.Operator,
                 output_expressions: list, output_schema) -> None:
        ex.Project.__init__(self, child, output_expressions,
                            output_schema)
        self._batch_fns = [
            exprs.compile_batch_expression(expression, child.schema)
            for expression in output_expressions]

    def batches(self) -> Iterator[RowBatch]:
        batch_fns = self._batch_fns
        for batch in batches_of(self.child):
            sel = batch.selection()
            if not sel:
                continue
            columns = [fn(batch.columns, sel) for fn in batch_fns]
            yield RowBatch(columns, len(sel),
                           batch.gathered_lineages(), None, None,
                           batch.gathered_rowids())


def _dense_batch(rows: list[tuple], lineages: list | None,
                 width: int) -> RowBatch:
    """Dense batch from produced row tuples (zip-transposed)."""
    columns = list(zip(*rows)) if width else []
    return RowBatch(columns, len(rows),
                    lineages if lineages and any(lineages) else None,
                    None, rows)


class BatchHashJoin(BatchOperator, ex.HashJoin):
    """Hash join probing one batch at a time.

    The build side is consumed through its batch stream and hashed as
    row tuples (probe output is row-shaped anyway); the probe side
    evaluates its key expressions as column vectors, so the per-row
    probe loop touches only the hash lookup. NULL keys are never
    inserted into the build table, so probe lookups need no NULL
    checks — a missing key and a NULL key both miss. When neither
    input carries lineage annotations the probe loop skips all
    per-row lineage bookkeeping (no frozenset unions)."""

    def __init__(self, left: ex.Operator, right: ex.Operator,
                 left_keys: list, right_keys: list,
                 kind: str = "inner", residual=None,
                 build_side: str = "right") -> None:
        ex.HashJoin.__init__(self, left, right, left_keys, right_keys,
                             kind, residual, build_side)
        self._left_batch_keys = [
            exprs.compile_batch_expression(expression, left.schema)
            for expression in left_keys]
        self._right_batch_keys = [
            exprs.compile_batch_expression(expression, right.schema)
            for expression in right_keys]
        self._prune_side(left, left_keys)
        self._prune_side(right, right_keys)

    @staticmethod
    def _prune_side(side: ex.Operator, keys: list) -> None:
        """Prune an input scan down to the vector-read columns.

        The join touches its inputs two ways: key expressions as
        column vectors, and whole rows via ``rows()`` — which a scan
        serves from its ``row_major`` cache without reading column
        vectors. So the scan only needs to materialize the key (and
        pushed-predicate) columns, provided every such expression is
        pure-vector."""
        expressions = list(keys)
        if (isinstance(side, FusedScanFilterProject)
                and side.projections is None):
            expressions += side.predicates
            side = side.child
        if isinstance(side, BatchSeqScan):
            side.needed_columns = exprs.vector_safe_columns(
                expressions, side.schema)

    def _build_table(self, side: ex.Operator,
                     key_fns: list) -> tuple[dict, bool]:
        build: dict[Any, list] = {}
        tracked = False
        single = len(key_fns) == 1
        for batch in batches_of(side):
            sel = batch.selection()
            if not sel:
                continue
            rows = batch.rows()
            lineages = batch.gathered_lineages()
            if lineages is None:
                lineages = [EMPTY_LINEAGE] * len(rows)
            else:
                tracked = True
            key_vectors = [fn(batch.columns, sel) for fn in key_fns]
            if single:
                for position, key in enumerate(key_vectors[0]):
                    if key is None:
                        continue  # NULL never equi-joins
                    build.setdefault(key, []).append(
                        (rows[position], lineages[position]))
            else:
                for position, key in enumerate(zip(*key_vectors)):
                    if any(part is None for part in key):
                        continue
                    build.setdefault(key, []).append(
                        (rows[position], lineages[position]))
        return build, tracked

    def _build(self, build_on_left: bool) -> tuple[dict, bool]:
        """Construct the build-side hash table; the parallel subclass
        overrides this to build per-partition in workers."""
        return self._build_table(
            self.left if build_on_left else self.right,
            self._left_batch_keys if build_on_left
            else self._right_batch_keys)

    def batches(self) -> Iterator[RowBatch]:
        build_on_left = self.build_side == "left"
        build, tracking = self._build(build_on_left)
        if not build and self.kind == "inner":
            return
        probe = self.right if build_on_left else self.left
        probe_key_fns = (self._right_batch_keys if build_on_left
                         else self._left_batch_keys)
        single = len(probe_key_fns) == 1
        residual = self._residual_fn
        left_outer = self.kind == "left"
        null_pad = (None,) * len(self.right.schema)
        width = len(self.schema)
        empty = EMPTY_LINEAGE
        lookup = build.get
        out_rows: list[tuple] = []
        out_lineages: list = []
        for batch in batches_of(probe):
            sel = batch.selection()
            if not sel:
                continue
            rows = batch.rows()
            key_vectors = [fn(batch.columns, sel) for fn in probe_key_fns]
            keys = key_vectors[0] if single else list(zip(*key_vectors))
            lineages = batch.gathered_lineages()
            if lineages is not None and not tracking:
                tracking = True
                out_lineages.extend([empty] * len(out_rows))
            append = out_rows.append
            if not tracking:
                if left_outer:
                    for position, key in enumerate(keys):
                        values = rows[position]
                        produced = False
                        matches = lookup(key)
                        if matches:
                            for other_values, _lin in matches:
                                joined = values + other_values
                                if residual is None or residual(joined):
                                    produced = True
                                    append(joined)
                        if not produced:
                            append(values + null_pad)
                else:
                    for values, key in zip(rows, keys):
                        matches = lookup(key)
                        if matches:
                            for other_values, _lin in matches:
                                joined = (other_values + values
                                          if build_on_left
                                          else values + other_values)
                                if residual is None or residual(joined):
                                    append(joined)
            else:
                append_lineage = out_lineages.append
                for position, key in enumerate(keys):
                    produced = False
                    matches = lookup(key)
                    if matches:
                        values = rows[position]
                        lineage = (lineages[position]
                                   if lineages is not None else empty)
                        for other_values, other_lineage in matches:
                            if build_on_left:
                                joined = other_values + values
                                merged = other_lineage | lineage
                            else:
                                joined = values + other_values
                                merged = lineage | other_lineage
                            if (residual is not None
                                    and not residual(joined)):
                                continue
                            produced = True
                            append(joined)
                            append_lineage(merged)
                    if left_outer and not produced:
                        append(rows[position] + null_pad)
                        append_lineage(lineages[position]
                                       if lineages is not None else empty)
            if len(out_rows) >= BATCH_SIZE:
                yield _dense_batch(out_rows,
                                   out_lineages if tracking else None,
                                   width)
                out_rows, out_lineages = [], []
        if out_rows:
            yield _dense_batch(out_rows,
                               out_lineages if tracking else None, width)


class BatchGroupAggregate(BatchOperator, ex.GroupAggregate):
    """Hash aggregation fed whole batches.

    Each batch is partitioned by group key once; every accumulator
    then consumes its group's value vector through ``add_many`` —
    preserving left-to-right fold order within the group so float
    aggregates stay bit-identical to row execution.
    """

    def __init__(self, child: ex.Operator, group_expressions: list,
                 output_expressions: list, output_schema,
                 having=None) -> None:
        ex.GroupAggregate.__init__(self, child, group_expressions,
                                   output_expressions, output_schema,
                                   having)
        self._group_batch_fns = [
            exprs.compile_batch_expression(expression, child.schema)
            for expression in group_expressions]
        # COUNT(*) reads nothing per row — its accumulator only needs
        # the group's cardinality, so it is fed the position bucket
        self._input_batch_fns = [
            None if (len(call.args) == 1
                     and isinstance(call.args[0], ast.Star))
            else exprs.compile_batch_expression(call.args[0],
                                                child.schema)
            for call in self.aggregate_calls]

    def batches(self) -> Iterator[RowBatch]:
        groups, order = self._accumulate()
        self._ensure_global_group(groups, order)
        return _chunk_annotated(self._finalize(groups, order),
                                len(self.schema))

    def _accumulate(self) -> tuple[dict, list]:
        """Drain the child into per-group accumulator states.

        Split out of :meth:`batches` so partition-parallel execution
        can run the same accumulation over a partition's sub-stream
        and ship the *partial* states to the parent for an exact
        merge + shared finalize (see :class:`BatchAggregateGather`).
        """
        group_fns = self._group_batch_fns
        input_fns = self._input_batch_fns
        single_key = len(group_fns) == 1
        groups: dict[tuple, dict[str, Any]] = {}
        order: list[tuple] = []
        for batch in batches_of(self.child):
            sel = batch.selection()
            size = len(sel)
            if size == 0:
                continue
            if group_fns:
                key_vectors = [fn(batch.columns, sel)
                               for fn in group_fns]
                # scalar partition keys in the common single-key case;
                # the groups dict still keys on tuples (finalize reads
                # group values back out of the key)
                keys = (key_vectors[0] if single_key
                        else list(zip(*key_vectors)))
                positions: dict[Any, list[int]] = {}
                bucket_of = positions.get
                for position, key in enumerate(keys):
                    bucket = bucket_of(key)
                    if bucket is None:
                        positions[key] = [position]
                    else:
                        bucket.append(position)
            else:
                positions = {(): list(range(size))}
            input_vectors = [None if fn is None
                             else fn(batch.columns, sel)
                             for fn in input_fns]
            lineages = batch.gathered_lineages()
            sel_list = sel if type(sel) is list else list(sel)
            row_major = batch.row_major
            rowid_vector = batch.rowids
            for key, bucket in positions.items():
                group_key = ((key,) if group_fns and single_key
                             else key)
                state = groups.get(group_key)
                if state is None:
                    first = sel_list[bucket[0]]
                    representative = (
                        row_major[first] if row_major is not None
                        else tuple(column[first]
                                   for column in batch.columns))
                    state = self._new_state(representative)
                    if rowid_vector is not None:
                        state["first_rowid"] = rowid_vector[first]
                    groups[group_key] = state
                    order.append(group_key)
                whole = len(bucket) == size
                for vector, accumulator in zip(input_vectors,
                                               state["accumulators"]):
                    if vector is None:
                        fed = bucket  # COUNT(*): only len() matters
                    else:
                        fed = vector if whole else [vector[position]
                                                    for position in bucket]
                    accumulator.add_many(fed)
                if lineages is not None:
                    group_lineage = state["lineage"]
                    for position in bucket:
                        group_lineage.update(lineages[position])
        return groups, order


def _concat_batches(batches: Iterator[RowBatch],
                    width: int) -> tuple[list, list | None, int]:
    """Materialize a batch stream into dense full-length columns."""
    columns: list[list] = [[] for _ in range(width)]
    lineages: list = []
    tracking = False
    count = 0
    for batch in batches:
        sel = batch.selection()
        size = len(sel)
        if size == 0:
            continue
        for out, column in zip(columns, batch.columns):
            out.extend(exprs._gather(column, sel))
        gathered = batch.gathered_lineages()
        if gathered is not None:
            if not tracking:
                lineages.extend([EMPTY_LINEAGE] * count)
                tracking = True
            lineages.extend(gathered)
        elif tracking:
            lineages.extend([EMPTY_LINEAGE] * size)
        count += size
    return columns, (lineages if tracking else None), count


def _rechunk(columns: list, lineages: list | None,
             count: int) -> Iterator[RowBatch]:
    """Emit dense full-length columns as BATCH_SIZE slices."""
    for start in range(0, count, BATCH_SIZE):
        stop = min(start + BATCH_SIZE, count)
        yield RowBatch(
            [column[start:stop] for column in columns], stop - start,
            lineages[start:stop] if lineages is not None else None,
            None)


class BatchSort(BatchOperator, ex.Sort):
    """Materializing sort over concatenated column vectors.

    Sorting permutes an index vector (:func:`executor.ordered_indices`
    — the sort keys are already columns, no per-row key extraction)
    and gathers each column once.
    """

    def batches(self) -> Iterator[RowBatch]:
        columns, lineages, count = _concat_batches(
            batches_of(self.child), len(self.schema))
        if count == 0:
            return
        if count > 1 and self.keys:
            key_columns = [(columns[index], descending)
                           for index, descending in self.keys]
            order = ex.ordered_indices(count, key_columns)
            columns = [[column[index] for index in order]
                       for column in columns]
            if lineages is not None:
                lineages = [lineages[index] for index in order]
        yield from _rechunk(columns, lineages, count)


class BatchDistinct(BatchOperator, ex.Distinct):
    """Duplicate collapse over batches, merging lineages as the row
    operator does (first occurrence wins, annotations union)."""

    def batches(self) -> Iterator[RowBatch]:
        seen: dict[tuple, list] = {}
        order: list[tuple] = []
        key_width = self.key_width
        for batch in batches_of(self.child):
            rows = batch.rows()
            lineages = batch.gathered_lineages()
            for position, values in enumerate(rows):
                key = (values if key_width is None
                       else values[:key_width])
                entry = seen.get(key)
                if entry is None:
                    seen[key] = [values,
                                 set() if lineages is None
                                 else set(lineages[position])]
                    order.append(key)
                elif lineages is not None:
                    entry[1].update(lineages[position])
        return _chunk_annotated(
            ((seen[key][0], frozenset(seen[key][1])) for key in order),
            len(self.schema))


class BatchLimit(BatchOperator, ex.Limit):
    """LIMIT/OFFSET by slicing selection vectors."""

    def batches(self) -> Iterator[RowBatch]:
        to_skip = self.offset
        remaining = self.limit
        for batch in batches_of(self.child):
            size = len(batch)
            if size == 0:
                continue
            start = 0
            if to_skip:
                if to_skip >= size:
                    to_skip -= size
                    continue
                start = to_skip
                to_skip = 0
            stop = size
            if remaining is not None:
                if remaining <= 0:
                    return
                stop = min(stop, start + remaining)
            piece = batch.slice(start, stop)
            if remaining is not None:
                remaining -= len(piece)
            yield piece
            if remaining is not None and remaining <= 0:
                return


class BatchStripColumns(BatchOperator, ex.StripColumns):
    """Drop hidden trailing columns — a vector-list slice per batch."""

    def batches(self) -> Iterator[RowBatch]:
        width = self.visible_width
        for batch in batches_of(self.child):
            yield RowBatch(batch.columns[:width], batch.count,
                           batch.lineages, batch.sel)


class BatchUnion(BatchOperator, ex.Union):
    """UNION ALL: concatenates the children's batch streams."""

    def batches(self) -> Iterator[RowBatch]:
        for child in self.children:
            yield from batches_of(child)


# ---------------------------------------------------------------------------
# Partition-parallel execution: Exchange / Gather
# ---------------------------------------------------------------------------


def parallel_scan_leaf(node: ex.Operator):
    """The :class:`BatchSeqScan` leaf of a parallel-eligible pipeline.

    Eligible: a chain of fused kernels / filters / projections over
    exactly one base-table sequential scan. Returns None for anything
    else (joins, index scans, unions) — those plans stay serial.
    """
    while isinstance(node, (FusedScanFilterProject, BatchFilter,
                            BatchProject)):
        node = node.child
    if type(node) is BatchSeqScan:
        return node
    return None


def _chain_spec(template: ex.Operator) -> dict:
    """Picklable description of a parallel-eligible pipeline chain.

    Steps are AST expressions and :class:`~repro.db.types.Schema`
    objects (frozen dataclasses and plain tuples — they cross the
    resident-pool task pipe via pickle); the leaf scan's table rides
    as a direct reference for in-process execution and collapses to
    its name when a :class:`PartitionTask` is pickled.
    """
    steps: list[tuple] = []
    node = template
    while isinstance(node, (FusedScanFilterProject, BatchFilter,
                            BatchProject)):
        if isinstance(node, FusedScanFilterProject):
            steps.append((
                "fused", tuple(node.predicates),
                (tuple(node.projections)
                 if node.projections is not None else None),
                node.schema))
        elif isinstance(node, BatchFilter):
            steps.append(("filter", node.predicate))
        else:
            steps.append(("project", tuple(node.output_expressions),
                          node.schema))
        node = node.child
    return {"steps": tuple(steps), "table": node.table,
            "qualifier": node.qualifier,
            "track_lineage": node.track_lineage,
            "needed": node.needed_columns}


def _resolve_table(ref):
    """A chain spec's table: a direct reference in-process, a name in
    a resident worker (re-resolved against the fork-time engine)."""
    if isinstance(ref, str):
        engine = par.current_worker_engine()
        if engine is None:
            raise ExecutionError(
                f"partition task for table {ref!r} executed outside a "
                f"resident pool worker")
        return engine.catalog.get_table(ref)
    return ref


def _build_chain(chain: dict,
                 rowids: list[int]) -> tuple[BatchOperator,
                                             "BatchPartitionScan"]:
    """Instantiate a chain spec with a :class:`BatchPartitionScan`
    leaf. The same constructors run in-process and in resident
    workers, so every pool substrate drains identical operator
    pipelines (kernels recompile from the same ASTs)."""
    table = _resolve_table(chain["table"])
    scan = BatchPartitionScan(table, chain["qualifier"],
                              chain["track_lineage"])
    scan.needed_columns = chain["needed"]
    scan.rowids = list(rowids)
    node: BatchOperator = scan
    for step in reversed(chain["steps"]):
        kind = step[0]
        if kind == "fused":
            _, predicates, projections, schema = step
            if projections is not None:
                node = FusedScanFilterProject(node, list(predicates),
                                              list(projections),
                                              schema)
            else:
                node = FusedScanFilterProject(node, list(predicates))
        elif kind == "filter":
            node = BatchFilter(node, step[1])
        else:
            node = BatchProject(node, list(step[1]), step[2])
    return node, scan


def _portable_chain(chain: dict) -> dict:
    out = dict(chain)
    table = out["table"]
    if not isinstance(table, str):
        out["table"] = table.name
    return out


class PartitionTask:
    """One partition's unit of parallel work.

    Callable in-process — :class:`~repro.db.parallel.InProcessPool`
    just invokes it (direct table references and any prebuilt clone
    are used as they are) — and *picklable* for
    :class:`~repro.db.parallel.PersistentForkPool` residents:
    ``__getstate__`` collapses heap-table references to names and
    drops the prebuilt clone; the resident re-resolves names against
    its fork-time engine and rebuilds the pipeline from the AST spec
    through the same constructors. The ambient
    :class:`~repro.db.mvcc.ReadView` pickles whole (snapshot,
    overlays, commit map), so a resident scans exactly the snapshot
    the in-process run would.
    """

    __slots__ = ("spec", "root")

    def __init__(self, spec: dict, root=None) -> None:
        self.spec = spec
        self.root = root

    def __call__(self):
        return _run_partition_task(self.spec, self.root)

    def __getstate__(self) -> dict:
        spec = dict(self.spec)
        for key in ("chain", "build_chain", "probe_chain"):
            if key in spec:
                spec[key] = _portable_chain(spec[key])
        return spec

    def __setstate__(self, spec: dict) -> None:
        self.spec = spec
        self.root = None


def _drain_rows(root: BatchOperator) -> tuple[list, list | None, list]:
    """Drain a partition pipeline into picklable dense results: row
    tuples, a lineage vector (None when nothing tracked), and the
    global rowid vector every partition scan threads through."""
    rows: list = []
    lineages: list = []
    rowids: list = []
    tracking = False
    for batch in root.batches():
        batch_rows = batch.rows()
        gathered = batch.gathered_lineages()
        if gathered is not None:
            if not tracking:
                lineages.extend([EMPTY_LINEAGE] * len(rows))
                tracking = True
            lineages.extend(gathered)
        elif tracking:
            lineages.extend([EMPTY_LINEAGE] * len(batch_rows))
        gathered_ids = batch.gathered_rowids()
        if gathered_ids is not None:
            rowids.extend(gathered_ids)
        rows.extend(batch_rows)
    return rows, (lineages if tracking else None), rowids


def _sorted_partition(rows: list, lineages: list | None, rowids: list,
                      keys: list, ship_limit: int | None):
    """Partition-local ORDER BY: the exact serial comparator
    (:func:`executor.ordered_indices` — same stability, same NULL
    placement) over this partition's rows, then the top-k slice when
    a LIMIT was pushed down (a partition never contributes more than
    offset+limit rows to the final order)."""
    if len(rows) > 1 and keys:
        key_columns = [([row[index] for row in rows], descending)
                       for index, descending in keys]
        order = ex.ordered_indices(len(rows), key_columns)
        rows = [rows[index] for index in order]
        rowids = [rowids[index] for index in order]
        if lineages is not None:
            lineages = [lineages[index] for index in order]
    if ship_limit is not None:
        rows = rows[:ship_limit]
        rowids = rowids[:ship_limit]
        if lineages is not None:
            lineages = lineages[:ship_limit]
    return rows, lineages, rowids


def _run_copart_task(spec: dict):
    """Co-partitioned join slice: build bucket *i*'s hash table and
    stream bucket *i*'s probe rows through it, entirely inside the
    worker. Keys only ever match within a bucket (both sides hash the
    join key with ``storage.stable_hash``), so a worker's aligned
    buckets join exactly like the full tables restricted to those
    rowids. Joined rows ship tagged with probe rowids; the parent
    k-way merges them back into serial probe order."""
    started = perf_counter()
    build_root, _scan = _build_chain(spec["build_chain"],
                                     spec["build_rowids"])
    probe_root, _scan = _build_chain(spec["probe_chain"],
                                     spec["probe_rowids"])
    build_fns = [exprs.compile_batch_expression(expression,
                                                build_root.schema)
                 for expression in spec["build_keys"]]
    probe_fns = [exprs.compile_batch_expression(expression,
                                                probe_root.schema)
                 for expression in spec["probe_keys"]]
    single = len(probe_fns) == 1
    tracked = spec["tracked"]
    build: dict = {}
    for batch in batches_of(build_root):
        sel = batch.selection()
        if not sel:
            continue
        rows = batch.rows()
        lineages = batch.gathered_lineages()
        if lineages is None:
            lineages = [EMPTY_LINEAGE] * len(rows)
        key_vectors = [fn(batch.columns, sel) for fn in build_fns]
        key_values = (key_vectors[0] if single
                      else list(zip(*key_vectors)))
        for position, key in enumerate(key_values):
            if single:
                if key is None:
                    continue  # NULL never equi-joins
            elif any(part is None for part in key):
                continue
            build.setdefault(key, []).append(
                (rows[position], lineages[position]))
    residual = (exprs.compile_predicate(spec["residual"],
                                        spec["schema"])
                if spec["residual"] is not None else None)
    left_outer = spec["join_kind"] == "left"
    build_on_left = spec["build_on_left"]
    null_pad = (None,) * spec["pad_width"]
    lookup = build.get
    out_rows: list = []
    out_lineages: list = []
    out_rowids: list = []
    for batch in batches_of(probe_root):
        sel = batch.selection()
        if not sel:
            continue
        rows = batch.rows()
        key_vectors = [fn(batch.columns, sel) for fn in probe_fns]
        key_values = (key_vectors[0] if single
                      else list(zip(*key_vectors)))
        lineages = batch.gathered_lineages()
        rowids = batch.gathered_rowids()
        for position, key in enumerate(key_values):
            produced = False
            matches = lookup(key)
            values = rows[position]
            lineage = (lineages[position] if lineages is not None
                       else EMPTY_LINEAGE)
            if matches:
                for other_values, other_lineage in matches:
                    if build_on_left:
                        joined = other_values + values
                        merged = other_lineage | lineage
                    else:
                        joined = values + other_values
                        merged = lineage | other_lineage
                    if residual is not None and not residual(joined):
                        continue
                    produced = True
                    out_rows.append(joined)
                    out_rowids.append(rowids[position])
                    if tracked:
                        out_lineages.append(merged)
            if left_outer and not produced:
                out_rows.append(values + null_pad)
                out_rowids.append(rowids[position])
                if tracked:
                    out_lineages.append(lineage)
    return (out_rows, out_lineages if tracked else None, out_rowids,
            perf_counter() - started, len(out_rows))


def _run_partition_task(spec: dict, root=None):
    """Execute one partition task — the single implementation behind
    every pool substrate. ``root`` is the gather's cached in-process
    clone (None in resident workers and for join tasks, which rebuild
    from the spec). Installs the shipped read view around the drain."""
    kind = spec["kind"]
    if kind == "copart":
        return _run_copart_task(spec)
    started = perf_counter()
    chain = spec["chain"]
    table = _resolve_table(chain["table"])
    if root is None:
        root, _scan = _build_chain(chain, spec["rowids"])
        if kind == "aggregate":
            root = BatchGroupAggregate(
                root, list(spec["groups"]), list(spec["outputs"]),
                spec["schema"], spec["having"])
    state = table.mvcc
    view = spec["view"]
    previous = state.current
    state.current = view
    try:
        if kind == "aggregate":
            groups, order = root._accumulate()
            partial = [
                (key,
                 groups[key]["accumulators"],
                 groups[key]["representative"],
                 frozenset(groups[key]["lineage"]),
                 groups[key]["first_rowid"])
                for key in order]
            return (partial, perf_counter() - started, len(partial))
        rows, lineages, rowids = _drain_rows(root)
        if kind == "sort":
            rows, lineages, rowids = _sorted_partition(
                rows, lineages, rowids, spec["keys"],
                spec["ship_limit"])
        return (rows, lineages, rowids, perf_counter() - started,
                len(rows))
    finally:
        state.current = previous


def _merge_row_payloads(payloads: list, merge_mode: bool,
                        width: int) -> Iterator[RowBatch]:
    """Merge per-partition dense results back into the serial row
    order: concatenation for contiguous rowid-range partitions, a
    k-way merge by global rowid for hash-partition streams."""
    tracking = any(payload[1] is not None for payload in payloads)
    all_rows: list = []
    all_lineages: list = []
    if merge_mode:
        streams = []
        for rows, lineages, rowids, _seconds, _count in payloads:
            if not rows:
                continue
            filled = (lineages if lineages is not None
                      else [EMPTY_LINEAGE] * len(rows))
            streams.append(zip(rowids, rows, filled))
        for _rowid, row, lineage in heapq.merge(*streams,
                                                key=itemgetter(0)):
            all_rows.append(row)
            if tracking:
                all_lineages.append(lineage)
    else:
        for rows, lineages, _rowids, _seconds, _count in payloads:
            all_rows.extend(rows)
            if tracking:
                all_lineages.extend(
                    lineages if lineages is not None
                    else [EMPTY_LINEAGE] * len(rows))
    for start in range(0, len(all_rows), BATCH_SIZE):
        chunk = all_rows[start:start + BATCH_SIZE]
        yield _dense_batch(
            chunk,
            all_lineages[start:start + BATCH_SIZE] if tracking else None,
            width)


def _partition_rowid_lists(table, workers: int):
    """Per-worker rowid lists for a table: bucket lists when it is
    hash-partitioned and no read view is active (merge mode — output
    restored to rowid order by k-way merge), contiguous ranges over
    the candidate rowid universe otherwise (concat mode)."""
    spec = table.partition_spec
    if spec is not None and table.active_view() is None:
        return par.bucket_lists(table.partition_rowids(), workers), True
    return par.split_ranges(table.candidate_rowids(), workers), False


class _Desc:
    """Inverts comparison for DESC merge keys (values like strings
    cannot be negated, so the k-way merge wraps them instead)."""

    __slots__ = ("value",)

    def __init__(self, value) -> None:
        self.value = value

    def __lt__(self, other: "_Desc") -> bool:
        return other.value < self.value

    def __eq__(self, other) -> bool:
        return self.value == other.value


def _merge_sort_key(keys: list):
    """Composite ``heapq.merge`` key reproducing the serial sort
    order exactly: per ASC key NULLs sort last, per DESC key NULLs
    sort first and values invert via :class:`_Desc` (matching
    :func:`executor._stable_key_sort`), with the global rowid as the
    final tie-break — the serial sort is stable over rowid-ordered
    input, so ties resolve in rowid order there too."""
    def key_of(item):
        rowid, row = item[0], item[1]
        parts: list = []
        for index, descending in keys:
            value = row[index]
            if descending:
                parts.append((0, 0) if value is None
                             else (1, _Desc(value)))
            else:
                parts.append((1, 0) if value is None
                             else (0, value))
        parts.append(rowid)
        return tuple(parts)
    return key_of


class _GatherBase(ex.Gather, BatchOperator):
    """Shared exchange planning for the two gather variants.

    Partition lists are computed at *execution* time (cached plans
    outlive heap growth): a hash-partitioned table contributes its
    bucket lists (merge mode — output restored to rowid order by
    k-way merge); otherwise the candidate rowid universe splits into
    contiguous ranges (concat mode — order-preserving by
    construction). Under an ambient read view the hash buckets (which
    only reflect committed-latest state) are bypassed in favor of
    range partitioning over the view's candidate rowids, so snapshot
    visibility never depends on bucket maintenance.
    """

    def __init__(self, template, scan: BatchSeqScan, context) -> None:
        self.template = template
        self.schema = template.schema
        self.context = context
        self.workers = context.workers
        self._scan = scan
        self._clones: list = []
        self._clone_scans: list[BatchPartitionScan] = []
        self._chain_cache: dict | None = None
        self.partition_stats: list[dict] | None = None

    def _template_chain(self) -> ex.Operator:
        """The scan-rooted pipeline the workers drain (the aggregate
        gather drains its template's child)."""
        return self.template

    def _chain(self) -> dict:
        if self._chain_cache is None:
            self._chain_cache = _chain_spec(self._template_chain())
        return self._chain_cache

    def _make_clone(self):
        """Cached in-process clone — rebuilt from the same chain spec
        the resident workers receive, so both substrates compile
        identical pipelines."""
        root, scan = _build_chain(self._chain(), [])
        self._clone_scans.append(scan)
        return root

    def _ensure_clones(self, count: int) -> None:
        while len(self._clones) < count:
            self._clones.append(self._make_clone())

    def _partition_lists(self) -> tuple[list[list[int]], bool]:
        return _partition_rowid_lists(self._scan.table, self.workers)

    def _task_spec(self, chunk: list[int], view) -> dict:
        raise NotImplementedError  # pragma: no cover - interface

    def _dispatch(self) -> tuple[list, bool]:
        """Partition, dispatch to the pool, collect worker payloads."""
        lists, merge_mode = self._partition_lists()
        lists = [chunk for chunk in lists if chunk]
        if not lists:
            lists = [[]]
        self._ensure_clones(len(lists))
        view = self._scan.table.active_view()
        tasks = []
        for index, chunk in enumerate(lists):
            self._clone_scans[index].rowids = chunk
            tasks.append(PartitionTask(self._task_spec(chunk, view),
                                       root=self._clones[index]))
        payloads = self.context.make_pool().run(tasks)
        self.partition_stats = [
            {"partition": index, "rows": payload[-1],
             "seconds": payload[-2]}
            for index, payload in enumerate(payloads)]
        return payloads, merge_mode


class BatchGather(_GatherBase):
    """Exchange + Gather over a scan/filter/project pipeline.

    Each worker drains a clone of ``template`` restricted to its
    partition's rowids; the parent merges the dense results — rows
    *and* lineage-annotation vectors — back into the exact serial
    order and re-chunks them into batches. Downstream operators
    cannot tell the difference from a serial scan.
    """

    def _task_spec(self, chunk: list[int], view) -> dict:
        return {"kind": "drain", "chain": self._chain(),
                "rowids": chunk, "view": view}

    def batches(self) -> Iterator[RowBatch]:
        payloads, merge_mode = self._dispatch()
        yield from _merge_row_payloads(payloads, merge_mode,
                                       len(self.schema))


class BatchAggregateGather(_GatherBase):
    """Partial→final parallel GroupAggregate.

    Workers run the *accumulation* phase of a cloned
    :class:`BatchGroupAggregate` over their partition and ship partial
    group states; the parent merges accumulators pairwise
    (:meth:`repro.db.expressions.Accumulator.merge`) and runs the
    template's finalize (HAVING, output projection) once.

    The planner only builds this node when every aggregate in the
    query is merge-exact (:func:`repro.db.expressions.merge_exact_aggregate`),
    so the merged result is bit-identical to the serial fold. Group
    output order is restored to first-seen serial order: partition-
    major for range partitions (ranges are rowid-ordered), by global
    first-contribution rowid for hash-partition streams. Lineage per
    group is the union of the partials' lineage sets — exactly the
    serial union.
    """

    def _template_chain(self) -> ex.Operator:
        return self.template.child

    def _make_clone(self):
        template = self.template
        root, scan = _build_chain(self._chain(), [])
        self._clone_scans.append(scan)
        return BatchGroupAggregate(
            root, template.group_expressions,
            template.output_expressions, template.schema,
            template.having)

    def _task_spec(self, chunk: list[int], view) -> dict:
        template = self.template
        return {"kind": "aggregate", "chain": self._chain(),
                "rowids": chunk, "view": view,
                "groups": tuple(template.group_expressions),
                "outputs": tuple(template.output_expressions),
                "schema": template.schema,
                "having": template.having}

    def batches(self) -> Iterator[RowBatch]:
        payloads, merge_mode = self._dispatch()
        groups: dict = {}
        order: list = []
        for partial, _seconds, _count in payloads:
            for key, accumulators, representative, lineage, \
                    first_rowid in partial:
                state = groups.get(key)
                if state is None:
                    groups[key] = {
                        "accumulators": accumulators,
                        "representative": representative,
                        "lineage": set(lineage),
                        "first_rowid": first_rowid,
                    }
                    order.append(key)
                    continue
                for mine, other in zip(state["accumulators"],
                                       accumulators):
                    mine.merge(other)
                state["lineage"].update(lineage)
                if (first_rowid is not None
                        and state["first_rowid"] is not None
                        and first_rowid < state["first_rowid"]):
                    state["first_rowid"] = first_rowid
                    state["representative"] = representative
        if merge_mode:
            order.sort(key=lambda key: groups[key]["first_rowid"])
        template = self.template
        template._ensure_global_group(groups, order)
        return _chunk_annotated(template._finalize(groups, order),
                                len(self.schema))


class BatchParallelSort(_GatherBase):
    """Partition-parallel ORDER BY.

    Workers sort their partition with the exact serial comparator
    (:func:`executor.ordered_indices`) and the parent k-way merges
    the sorted streams on a composite key built from the sort columns
    plus the global rowid tie-break. Partition input order is rowid-
    ascending in both partitioning modes and the serial sort is
    stable over rowid-ordered input, so the merged order — including
    ties and NULL placement — is byte-identical to the serial sort.

    With ORDER BY ... LIMIT the planner pushes ``offset + limit``
    down as ``ship_limit``: no partition can contribute more than the
    first ``ship_limit`` rows of the final order, so workers ship at
    most that many rows each (the downstream ``BatchLimit`` still
    applies the offset/limit itself).
    """

    def __init__(self, template, scan: BatchSeqScan, context,
                 keys: list, ship_limit: int | None = None) -> None:
        _GatherBase.__init__(self, template, scan, context)
        self.keys = list(keys)
        self.ship_limit = ship_limit

    def _task_spec(self, chunk: list[int], view) -> dict:
        return {"kind": "sort", "chain": self._chain(),
                "rowids": chunk, "view": view,
                "keys": tuple(self.keys),
                "ship_limit": self.ship_limit}

    def batches(self) -> Iterator[RowBatch]:
        payloads, _merge_mode = self._dispatch()
        tracking = any(payload[1] is not None for payload in payloads)
        streams = []
        for rows, lineages, rowids, _seconds, _count in payloads:
            if not rows:
                continue
            filled = (lineages if lineages is not None
                      else [EMPTY_LINEAGE] * len(rows))
            streams.append(zip(rowids, rows, filled))
        all_rows: list = []
        all_lineages: list = []
        for _rowid, row, lineage in heapq.merge(
                *streams, key=_merge_sort_key(self.keys)):
            all_rows.append(row)
            if tracking:
                all_lineages.append(lineage)
        if self.ship_limit is not None:
            all_rows = all_rows[:self.ship_limit]
            if tracking:
                all_lineages = all_lineages[:self.ship_limit]
        width = len(self.schema)
        for start in range(0, len(all_rows), BATCH_SIZE):
            chunk = all_rows[start:start + BATCH_SIZE]
            yield _dense_batch(
                chunk,
                (all_lineages[start:start + BATCH_SIZE]
                 if tracking else None),
                width)


class BatchParallelHashJoin(BatchHashJoin):
    """Co-partitioned hash join: both sides hash-partitioned on their
    join key with equal bucket counts.

    A key's rows land in the same bucket index on both sides (same
    ``stable_hash``), so bucket *i* can only ever join bucket *i*: each
    worker builds and probes its aligned buckets locally and ships
    finished joined rows tagged with probe rowids; the parent k-way
    merges the streams back into serial probe order. No rebucketing,
    no shipped hash tables. The bucket maps describe the
    committed-latest heap, so an ambient read view (or a spec cleared
    since planning) makes the join run the inherited serial
    :class:`BatchHashJoin` build and probe instead.
    """

    def __init__(self, join: BatchHashJoin, context) -> None:
        BatchHashJoin.__init__(self, join.left, join.right,
                               join.left_keys, join.right_keys,
                               join.kind, join.residual,
                               join.build_side)
        self.context = context
        self.workers = context.workers
        self.build_partition_stats: list[dict] | None = None
        for attr in ("est_rows", "est_build_rows"):
            value = getattr(join, attr, None)
            if value is not None:
                setattr(self, attr, value)

    def _build_side_operator(self, build_on_left: bool) -> ex.Operator:
        return self.left if build_on_left else self.right

    def _probe_side_operator(self, build_on_left: bool) -> ex.Operator:
        return self.right if build_on_left else self.left

    def _copart_state(self):
        """Leaf scans when the co-partitioned fast path can run *now*
        (both sides still hash-partitioned with matching counts and
        no ambient read view), else None."""
        build_on_left = self.build_side == "left"
        build_scan = parallel_scan_leaf(
            self._build_side_operator(build_on_left))
        probe_scan = parallel_scan_leaf(
            self._probe_side_operator(build_on_left))
        if build_scan is None or probe_scan is None:
            return None
        build_spec = build_scan.table.partition_spec
        probe_spec = probe_scan.table.partition_spec
        if (build_spec is None or probe_spec is None
                or build_spec.count != probe_spec.count):
            return None
        if (build_scan.table.active_view() is not None
                or probe_scan.table.active_view() is not None):
            return None
        return build_on_left, build_scan, probe_scan

    def batches(self) -> Iterator[RowBatch]:
        state = self._copart_state()
        if state is None:
            yield from BatchHashJoin.batches(self)
            return
        yield from self._copart_batches(*state)

    def _copart_batches(self, build_on_left: bool, build_scan,
                        probe_scan) -> Iterator[RowBatch]:
        build_side = self._build_side_operator(build_on_left)
        probe_side = self._probe_side_operator(build_on_left)
        build_lists = par.aligned_bucket_lists(
            build_scan.table.partition_rowids(), self.workers)
        probe_lists = par.aligned_bucket_lists(
            probe_scan.table.partition_rowids(), self.workers)
        build_chain = _chain_spec(build_side)
        probe_chain = _chain_spec(probe_side)
        tracked = bool(build_chain["track_lineage"]
                       or probe_chain["track_lineage"])
        build_keys = tuple(self.left_keys if build_on_left
                           else self.right_keys)
        probe_keys = tuple(self.right_keys if build_on_left
                           else self.left_keys)
        tasks = []
        for build_rowids, probe_rowids in zip(build_lists,
                                              probe_lists):
            if not probe_rowids:
                continue  # no probe rows → no output from this slice
            tasks.append(PartitionTask({
                "kind": "copart",
                "build_chain": build_chain,
                "build_rowids": build_rowids,
                "probe_chain": probe_chain,
                "probe_rowids": probe_rowids,
                "build_keys": build_keys, "probe_keys": probe_keys,
                "join_kind": self.kind, "residual": self.residual,
                "build_on_left": build_on_left,
                "pad_width": len(self.right.schema),
                "schema": self.schema, "tracked": tracked}))
        if not tasks:
            return
        payloads = self.context.make_pool().run(tasks)
        self.build_partition_stats = [
            {"partition": index, "rows": payload[-1],
             "seconds": payload[-2]}
            for index, payload in enumerate(payloads)]
        yield from _merge_row_payloads(payloads, True,
                                       len(self.schema))


class BatchInstrumented(BatchOperator, ex.Instrumented):
    """Per-batch accounting for EXPLAIN ANALYZE.

    The row :class:`executor.Instrumented` charges a timer pair per
    ``next()``; wrapping batch operators that way would re-impose the
    per-tuple overhead the batch engine removed. This variant charges
    the clock once per *batch* and counts rows by batch length.
    """

    def __init__(self, inner: ex.Operator,
                 timer: Callable[[], float]) -> None:
        ex.Instrumented.__init__(self, inner, timer)
        self.batches_produced = 0

    def batches(self) -> Iterator[RowBatch]:
        self.loops += 1
        timer = self.timer
        started = timer()
        iterator = batches_of(self.inner)
        self.total_seconds += timer() - started
        while True:
            started = timer()
            try:
                batch = next(iterator)
            except StopIteration:
                self.total_seconds += timer() - started
                return
            self.total_seconds += timer() - started
            self.rows += len(batch)
            self.batches_produced += 1
            yield batch

"""Partition-parallel exchange operators over the batch executor.

A plan planned with a parallel context of more than one worker gets
its eligible sub-plans — a Scan→Filter→Project chain, a
GroupAggregate over one, an ORDER BY over one, or a join of two
co-partitioned tables — wrapped in an exchange operator
(:func:`repro.db.planner.parallelize_plan`). The exchange splits the
scanned table's rowids into partitions, has a worker pool drain one
clone of the chain per partition (:class:`PartitionTask`), and merges
the results — rows *and* lineage-annotation vectors — back into the
exact serial order, so downstream operators cannot tell a parallel
plan from a serial one. Every class here is an
:class:`repro.db.executor.Operator` and emits
:class:`~repro.db.executor.RowBatch` streams like the rest of the
family.
"""

from __future__ import annotations

import heapq
from operator import itemgetter
from time import perf_counter
from typing import Iterator

from repro.db import executor as ex
from repro.db import expressions as exprs
from repro.db import parallel as par
from repro.db.executor import (
    BATCH_SIZE,
    RowBatch,
    _chunk_annotated,
    _dense_batch,
    note_lineage_vector_build,
)
from repro.db.provtypes import EMPTY_LINEAGE, lineage_singletons
from repro.errors import ExecutionError


class PartitionScan(ex.SeqScan):
    """One partition of a parallel scan: a :class:`SeqScan`
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


def parallel_scan_leaf(node: ex.Operator):
    """The :class:`~repro.db.executor.SeqScan` leaf of a
    parallel-eligible pipeline.

    Eligible: a chain of fused kernels / filters / projections over
    exactly one base-table sequential scan. Returns None for anything
    else (joins, index scans, unions) — those plans stay serial.
    """
    while isinstance(node, (ex.FusedScanFilterProject, ex.Filter,
                            ex.Project)):
        node = node.child
    if type(node) is ex.SeqScan:
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
    while isinstance(node, (ex.FusedScanFilterProject, ex.Filter,
                            ex.Project)):
        if isinstance(node, ex.FusedScanFilterProject):
            steps.append((
                "fused", tuple(node.predicates),
                (tuple(node.projections)
                 if node.projections is not None else None),
                node.schema))
        elif isinstance(node, ex.Filter):
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
                 rowids: list[int]) -> tuple[ex.Operator,
                                             "PartitionScan"]:
    """Instantiate a chain spec with a :class:`PartitionScan`
    leaf. The same constructors run in-process and in resident
    workers, so every pool substrate drains identical operator
    pipelines (kernels recompile from the same ASTs)."""
    table = _resolve_table(chain["table"])
    scan = PartitionScan(table, chain["qualifier"],
                         chain["track_lineage"])
    scan.needed_columns = chain["needed"]
    scan.rowids = list(rowids)
    node: ex.Operator = scan
    for step in reversed(chain["steps"]):
        kind = step[0]
        if kind == "fused":
            _, predicates, projections, schema = step
            if projections is not None:
                node = ex.FusedScanFilterProject(
                    node, list(predicates), list(projections), schema)
            else:
                node = ex.FusedScanFilterProject(node, list(predicates))
        elif kind == "filter":
            node = ex.Filter(node, step[1])
        else:
            node = ex.Project(node, list(step[1]), step[2])
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


def _drain_rows(root: ex.Operator) -> tuple[list, list | None, list]:
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
    for batch in build_root.batches():
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
    for batch in probe_root.batches():
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
            root = ex.GroupAggregate(
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


class Exchange(ex.Operator):
    """Base of the partition-parallel Exchange/Gather operators
    (:class:`Gather`, :class:`AggregateGather`, :class:`ParallelSort`).

    An exchange holds the serial pipeline it replaced as ``template``
    — deliberately *not* a generic child attribute, because tree
    walkers (``instrument_plan``, plan mutation) must not descend into
    what executes inside worker processes. EXPLAIN special-cases
    exchanges to render the template subtree and the ``workers=``
    setting, and EXPLAIN ANALYZE reads ``partition_stats`` —
    per-partition row counts and wall time reported back by the
    workers (child-process counters cannot propagate into the
    parent's Instrumented wrappers).

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

    def __init__(self, template, scan: ex.SeqScan, context) -> None:
        self.template = template
        self.schema = template.schema
        self.context = context
        self.workers = context.workers
        self._scan = scan
        self._clones: list = []
        self._clone_scans: list[PartitionScan] = []
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


class Gather(Exchange):
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


class AggregateGather(Exchange):
    """Partial→final parallel GroupAggregate.

    Workers run the *accumulation* phase of a cloned
    :class:`~repro.db.executor.GroupAggregate` over their partition
    and ship partial group states; the parent merges accumulators
    pairwise
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
        return ex.GroupAggregate(
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


class ParallelSort(Exchange):
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
    most that many rows each (the downstream ``ex.Limit`` still
    applies the offset/limit itself).
    """

    def __init__(self, template, scan: ex.SeqScan, context,
                 keys: list, ship_limit: int | None = None) -> None:
        Exchange.__init__(self, template, scan, context)
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


class ParallelHashJoin(ex.HashJoin):
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
    :class:`~repro.db.executor.HashJoin` build and probe instead.
    """

    def __init__(self, join: ex.HashJoin, context) -> None:
        ex.HashJoin.__init__(self, join.left, join.right,
                             join.left_keys, join.right_keys,
                             join.kind, join.residual, join.build_side)
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
            yield from ex.HashJoin.batches(self)
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

"""Logical planning: turn a SELECT AST into an operator tree.

The planner performs the classical minimum needed to make the paper's
TPC-H workload tractable in a pure-Python executor:

* predicate pushdown of single-table WHERE conjuncts below joins,
* extraction of cross-table equi-conjuncts as hash-join keys,
* greedy join ordering (join any source connected to the current
  result by an equi-predicate before considering cross products),
* star expansion and output-type inference,
* hidden sort columns so ORDER BY can reference non-projected
  expressions.

When ANALYZE statistics exist (:mod:`repro.db.stats`), planning
becomes cost-based: filter selectivities scale each fragment's
cardinality estimate, the greedy join order picks the connected
candidate with the smallest estimated join output (instead of the
first one), hash-join build sides follow the estimates, and indexable
conjuncts only become probes when the estimated probe cost beats the
scan. Cardinality estimates start from the *session-visible* row count
(committed heap adjusted by the transaction's overlay), so a bulk
insert inside an open transaction steers its own plans. Every choice
is advisory: all plan shapes produce identical rows and lineage.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.db import expressions as exprs
from repro.db import parallel as parmod
from repro.db import stats as statsmod
from repro.db import vector
from repro.db.catalog import Catalog
from repro.db.executor import (
    Distinct,
    Filter,
    FusedScanFilterProject,
    GroupAggregate,
    HashJoin,
    IndexScan,
    Instrumented,
    Limit,
    MaterializedSource,
    NestedLoopJoin,
    Operator,
    Project,
    SeqScan,
    Sort,
    StripColumns,
    Union,
)
from repro.db.sql import ast
from repro.db.storage import HeapTable
from repro.db.types import Column, Schema, SQLType
from repro.errors import CatalogError, ExecutionError, SQLSyntaxError


@dataclass
class PlannedQuery:
    """A ready-to-run operator tree plus its visible output schema."""

    root: Operator
    schema: Schema
    source_tables: list[str]


def explain_plan(root: Operator) -> list[str]:
    """Render an operator tree as indented EXPLAIN lines.

    :class:`Instrumented` wrappers (EXPLAIN ANALYZE) are transparent:
    the wrapped operator is described, with its measured row count and
    wall time appended as ``(rows=N time=T ms)``. Operators planned
    under ANALYZE statistics additionally carry the planner's
    cardinality estimate — ``(est=N)`` on plain EXPLAIN, and
    ``(rows=N est=M time=T ms)`` under EXPLAIN ANALYZE so estimated
    and actual rows sit side by side.
    """
    lines: list[str] = []

    def describe(operator: Operator) -> str:
        wrapper = None
        if isinstance(operator, Instrumented):
            wrapper = operator
            operator = operator.inner
        estimate = getattr(operator, "est_rows", None)
        suffix = ""
        if wrapper is not None:
            estimated = (f" est={estimate:.0f}" if estimate is not None
                         else "")
            suffix = (f" (rows={wrapper.rows}{estimated} "
                      f"time={wrapper.total_seconds * 1000.0:.3f} ms)")
        elif estimate is not None:
            suffix = f" (est={estimate:.0f})"
        return describe_bare(operator) + suffix

    def describe_bare(operator: Operator) -> str:
        if isinstance(operator, vector.Exchange):
            if isinstance(operator, vector.AggregateGather):
                template = operator.template
                return (f"AggregateGather (workers={operator.workers}, "
                        f"{len(template.group_expressions)} keys, "
                        f"{len(template.aggregate_calls)} aggregates)")
            if isinstance(operator, vector.ParallelSort):
                note = (f", top-k={operator.ship_limit}"
                        if operator.ship_limit is not None else "")
                return (f"Parallel Sort (workers={operator.workers}"
                        f"{note}) on {operator.keys}")
            return f"Gather (workers={operator.workers})"
        if isinstance(operator, vector.ParallelHashJoin):
            from repro.db.sql.render import render_expression
            keys = " AND ".join(
                f"{render_expression(l)} = {render_expression(r)}"
                for l, r in zip(operator.left_keys,
                                operator.right_keys))
            return (f"HashJoin ({operator.kind}, "
                    f"build={operator.build_side}) on {keys} "
                    f"[Parallel Hash Build: co-partitioned, "
                    f"workers={operator.workers}]")
        if isinstance(operator, FusedScanFilterProject):
            parts = [f"{len(operator.predicates)} predicates"]
            if operator.projections is not None:
                parts.append(f"{len(operator.projections)} outputs")
            return f"FusedScanFilterProject ({', '.join(parts)})"
        if isinstance(operator, IndexScan):
            from repro.db.sql.render import render_expression
            if operator.key_range is not None:
                low, high = operator.key_range
                probe = (f"{operator.index.column} BETWEEN {low} AND "
                         f"{high}, {high - low + 1} probes")
            elif len(operator.value_expressions) == 1:
                probe = (f"{operator.index.column} = "
                         f"{render_expression(operator.value_expression)}")
            else:
                rendered = ", ".join(
                    render_expression(expression)
                    for expression in operator.value_expressions)
                probe = f"{operator.index.column} IN ({rendered})"
            text = (f"IndexScan on {operator.table.name} using "
                    f"{operator.index.name} ({probe})")
            return text + _cost_note_suffix(operator)
        if isinstance(operator, SeqScan):
            return (f"SeqScan on {operator.table.name}"
                    + _cost_note_suffix(operator)
                    + _scan_cache_suffix(operator))
        if isinstance(operator, Filter):
            from repro.db.sql.render import render_expression
            return f"Filter: {render_expression(operator.predicate)}"
        if isinstance(operator, HashJoin):
            from repro.db.sql.render import render_expression
            keys = " AND ".join(
                f"{render_expression(l)} = {render_expression(r)}"
                for l, r in zip(operator.left_keys, operator.right_keys))
            return (f"HashJoin ({operator.kind}, "
                    f"build={operator.build_side}) on {keys}")
        if isinstance(operator, NestedLoopJoin):
            return f"NestedLoopJoin ({operator.kind})"
        if isinstance(operator, GroupAggregate):
            return (f"GroupAggregate "
                    f"({len(operator.group_expressions)} keys, "
                    f"{len(operator.aggregate_calls)} aggregates)")
        if isinstance(operator, Sort):
            return f"Sort on {operator.keys}"
        if isinstance(operator, Limit):
            return f"Limit {operator.limit} offset {operator.offset}"
        return type(operator).__name__

    def walk(operator: Operator, depth: int) -> None:
        lines.append("  " * depth + describe(operator))
        if isinstance(operator, Instrumented):
            operator = operator.inner
        if isinstance(operator, vector.Exchange):
            # per-partition measurements come back from the workers
            # themselves (child-process counters cannot propagate), so
            # they render as annotation lines under the gather, above
            # the (uninstrumented) template subtree
            stats = operator.partition_stats
            if stats:
                for entry in stats:
                    lines.append(
                        "  " * (depth + 1)
                        + f"Partition {entry['partition']}: "
                          f"rows={entry['rows']} "
                          f"time={entry['seconds'] * 1000.0:.3f} ms")
            walk(operator.template, depth + 1)
            return
        if isinstance(operator, vector.ParallelHashJoin):
            stats = operator.build_partition_stats
            if stats:
                for entry in stats:
                    lines.append(
                        "  " * (depth + 1)
                        + f"Build Partition {entry['partition']}: "
                          f"rows={entry['rows']} "
                          f"time={entry['seconds'] * 1000.0:.3f} ms")
        for attr in ("child", "left", "right"):
            node = getattr(operator, attr, None)
            if isinstance(node, Operator):
                walk(node, depth + 1)
        children = getattr(operator, "children", None)
        if isinstance(children, list):
            for node in children:
                walk(node, depth + 1)

    walk(root, 0)
    return lines


def _cost_note_suffix(operator: Operator) -> str:
    """The planner's index-vs-scan verdict, when one was taken."""
    note = getattr(operator, "cost_note", None)
    return f" [{note}]" if note else ""


def _scan_cache_suffix(operator: Operator) -> str:
    """Whether this execution's scan was served from a resident
    segment — stamped by the scan during EXPLAIN ANALYZE runs."""
    note = getattr(operator, "cache_note", None)
    return f" [scan cache: {note}]" if note else ""


def analyze_stats(root: Operator) -> list[dict]:
    """Flatten an instrumented tree into per-operator measurements.

    Returns one entry per plan node in EXPLAIN order:
    ``{"operator", "depth", "rows", "seconds", "loops"}``. Operators
    planned under ANALYZE statistics also report ``est_rows`` — the
    planner's cardinality estimate next to the measured rows, so
    misestimates are visible over the wire too. Nodes that are not
    wrapped report zero counters (never happens for trees built by
    :func:`repro.db.executor.instrument_plan`).
    """
    entries: list[dict] = []

    def walk(operator: Operator, depth: int) -> None:
        inner = operator
        rows = seconds = loops = 0
        batches = None
        if isinstance(operator, Instrumented):
            inner = operator.inner
            rows = operator.rows
            seconds = operator.total_seconds
            loops = operator.loops
            batches = operator.batches_produced
        entry = {
            "operator": type(inner).__name__,
            "depth": depth,
            "rows": rows,
            "seconds": seconds,
            "loops": loops,
        }
        if batches is not None:
            entry["batches"] = batches
        estimate = getattr(inner, "est_rows", None)
        if estimate is not None:
            entry["est_rows"] = round(estimate)
        if isinstance(inner, vector.Exchange):
            entry["workers"] = inner.workers
            if inner.partition_stats is not None:
                entry["partitions"] = list(inner.partition_stats)
            entries.append(entry)
            walk(inner.template, depth + 1)
            return
        if isinstance(inner, vector.ParallelHashJoin):
            entry["workers"] = inner.workers
            entry["join_mode"] = "co-partitioned"
            if inner.build_partition_stats is not None:
                entry["build_partitions"] = list(
                    inner.build_partition_stats)
        entries.append(entry)
        for attr in ("child", "left", "right"):
            node = getattr(inner, attr, None)
            if isinstance(node, Operator):
                walk(node, depth + 1)
        children = getattr(inner, "children", None)
        if isinstance(children, list):
            for node in children:
                walk(node, depth + 1)

    walk(root, 0)
    return entries


# ---------------------------------------------------------------------------
# Expression utilities
# ---------------------------------------------------------------------------


def split_conjuncts(expression: Optional[ast.Expression]) -> list[ast.Expression]:
    """Flatten a WHERE clause into its top-level AND conjuncts."""
    if expression is None:
        return []
    if isinstance(expression, ast.BinaryOp) and expression.op == "and":
        return split_conjuncts(expression.left) + split_conjuncts(expression.right)
    return [expression]


def conjoin(conjuncts: list[ast.Expression]) -> Optional[ast.Expression]:
    """Rebuild an AND tree from a conjunct list (None when empty)."""
    result: Optional[ast.Expression] = None
    for conjunct in conjuncts:
        result = conjunct if result is None else ast.BinaryOp("and", result, conjunct)
    return result


def infer_type(expression: ast.Expression, schema: Schema) -> SQLType:
    """Best-effort static type of an output expression."""
    if isinstance(expression, ast.Literal):
        value = expression.value
        if isinstance(value, bool):
            return SQLType.BOOLEAN
        if isinstance(value, int):
            return SQLType.INTEGER
        if isinstance(value, float):
            return SQLType.FLOAT
        return SQLType.TEXT
    if isinstance(expression, ast.ColumnRef):
        try:
            index = schema.index_of(expression.name, expression.qualifier)
        except CatalogError:
            return SQLType.TEXT
        return schema.columns[index].sql_type
    if isinstance(expression, ast.UnaryOp):
        if expression.op == "not":
            return SQLType.BOOLEAN
        return infer_type(expression.operand, schema)
    if isinstance(expression, ast.BinaryOp):
        if expression.op in ("and", "or", "=", "<>", "<", "<=", ">", ">="):
            return SQLType.BOOLEAN
        if expression.op == "||":
            return SQLType.TEXT
        left = infer_type(expression.left, schema)
        right = infer_type(expression.right, schema)
        if expression.op == "/" or SQLType.FLOAT in (left, right):
            if left is SQLType.INTEGER and right is SQLType.INTEGER:
                return SQLType.INTEGER
            return SQLType.FLOAT
        return left
    if isinstance(expression, (ast.Between, ast.Like, ast.InList, ast.IsNull)):
        return SQLType.BOOLEAN
    if isinstance(expression, ast.FunctionCall):
        name = expression.name
        if name == "count":
            return SQLType.INTEGER
        if name == "avg":
            return SQLType.FLOAT
        if name in ("sum", "min", "max", "abs", "mod"):
            if expression.args and not isinstance(expression.args[0], ast.Star):
                return infer_type(expression.args[0], schema)
            return SQLType.INTEGER
        if name in ("length", "floor", "ceil"):
            return SQLType.INTEGER
        if name == "round":
            return SQLType.FLOAT
        if name == "coalesce" and expression.args:
            return infer_type(expression.args[0], schema)
        return SQLType.TEXT
    if isinstance(expression, ast.CaseWhen):
        return infer_type(expression.branches[0][1], schema)
    return SQLType.TEXT


def derive_column_name(expression: ast.Expression, index: int) -> str:
    """Column name for an unaliased select item."""
    if isinstance(expression, ast.ColumnRef):
        return expression.name
    if isinstance(expression, ast.FunctionCall):
        return expression.name
    return f"column{index + 1}"


# ---------------------------------------------------------------------------
# Source planning (FROM + WHERE decomposition)
# ---------------------------------------------------------------------------


class _SourceSet:
    """Tracks which leaf sources a plan fragment covers, for conjunct
    classification and cost estimation.

    ``tables`` maps each covered alias to its base table and that
    table's ANALYZE statistics (None when never analyzed).
    ``est_rows`` is the fragment's estimated output cardinality —
    maintained only while every covered table has statistics; None
    switches the planner back to its rote (pre-ANALYZE) heuristics.
    """

    def __init__(self, operator: Operator, aliases: frozenset[str],
                 tables: dict | None = None,
                 est_rows: float | None = None) -> None:
        self.operator = operator
        self.aliases = aliases
        self.tables = tables if tables is not None else {}
        self.est_rows = est_rows

    def annotate(self) -> None:
        """Stamp the estimate onto the fragment's top operator so
        EXPLAIN can show it (only stats-informed plans carry it)."""
        if self.est_rows is not None:
            self.operator.est_rows = self.est_rows


def _plan_table(ref: ast.TableRef, catalog: Catalog,
                track_lineage: bool) -> _SourceSet:
    table = catalog.get_table(ref.name)
    scan = SeqScan(table, ref.effective_alias, track_lineage)
    alias = ref.effective_alias.lower()
    table_stats = catalog.stats_for(table.name)
    # the estimate starts from the session-visible count (committed
    # heap adjusted by the transaction's private overlay), so plans
    # follow what this statement will actually read
    est = (float(table.visible_row_count())
           if table_stats is not None else None)
    fragment = _SourceSet(scan, frozenset({alias}),
                          tables={alias: (table, table_stats)},
                          est_rows=est)
    fragment.annotate()
    return fragment


def _resolve_column_stats(fragment: _SourceSet,
                          ref: ast.ColumnRef) -> statsmod.ColumnStats | None:
    """The ANALYZE statistics behind a column reference, if the
    reference resolves to exactly one analyzed base table of the
    fragment."""
    found = None
    for alias, (table, table_stats) in fragment.tables.items():
        if ref.qualifier is not None and ref.qualifier.lower() != alias:
            continue
        if not table.schema.has_column(ref.name):
            continue
        if found is not None:
            return None  # ambiguous unqualified reference
        column = (table_stats.column(ref.name)
                  if table_stats is not None else None)
        found = (column,)
    return found[0] if found is not None else None


def _fragment_selectivity(fragment: _SourceSet,
                          conjunct: ast.Expression) -> float:
    return statsmod.conjunct_selectivity(
        conjunct, lambda ref: _resolve_column_stats(fragment, ref))


def _apply_filter_estimate(fragment: _SourceSet,
                           conjunct: ast.Expression) -> None:
    """Scale a fragment's cardinality estimate by a pushed predicate."""
    if fragment.est_rows is None:
        return
    fragment.est_rows *= _fragment_selectivity(fragment, conjunct)
    fragment.annotate()


def _key_ndv(fragment: _SourceSet, key: ast.Expression) -> float | None:
    """Distinct-value estimate of a join key within a fragment, capped
    by the fragment's own cardinality (filters cannot add variety)."""
    if not isinstance(key, ast.ColumnRef):
        return None
    column = _resolve_column_stats(fragment, key)
    if column is None or column.ndv <= 0:
        return None
    ndv = float(column.ndv)
    if fragment.est_rows is not None:
        ndv = min(ndv, max(fragment.est_rows, 1.0))
    return ndv


def _join_estimate(left: _SourceSet, right: _SourceSet,
                   pairs: list[tuple[ast.Expression, ast.Expression]]
                   ) -> float | None:
    """|L ⋈ R| ≈ |L|·|R| / max(ndv(L.key), ndv(R.key)) per key pair
    (containment assumption); None unless both sides carry estimates."""
    if left.est_rows is None or right.est_rows is None:
        return None
    estimate = max(left.est_rows, 0.0) * max(right.est_rows, 0.0)
    for left_key, right_key in pairs:
        candidates = [ndv for ndv in (_key_ndv(left, left_key),
                                      _key_ndv(right, right_key))
                      if ndv is not None]
        denominator = (max(candidates) if candidates
                       else max(left.est_rows, right.est_rows, 1.0))
        estimate /= max(denominator, 1.0)
    return estimate


def _merge_sets(left: _SourceSet, right: _SourceSet, operator: Operator,
                est_rows: float | None) -> _SourceSet:
    tables = dict(left.tables)
    tables.update(right.tables)
    merged = _SourceSet(operator, left.aliases | right.aliases,
                        tables=tables, est_rows=est_rows)
    merged.annotate()
    return merged


def _cross_estimate(left: _SourceSet,
                    right: _SourceSet) -> float | None:
    if left.est_rows is None or right.est_rows is None:
        return None
    return left.est_rows * right.est_rows


def _filtered(operator: Operator, conjunct: ast.Expression,
              fuse: bool) -> Operator:
    """Apply a predicate: fuse onto a scan when allowed, else stack a
    Filter operator."""
    if fuse:
        if (isinstance(operator, FusedScanFilterProject)
                and operator.projections is None):
            operator.add_predicate(conjunct)
            return operator
        if isinstance(operator, (SeqScan, IndexScan)):
            fused = FusedScanFilterProject(operator)
            fused.add_predicate(conjunct)
            return fused
    return Filter(operator, conjunct)


def _estimate_rows(operator: Operator) -> int | None:
    """Session-visible base-table row count feeding a plan fragment.

    Walks single-child chains (filters, fused scans) down to the scan;
    gives up (None) at joins and other multi-input nodes. The count is
    overlay-aware: a transaction that bulk-inserted into one join side
    sees its own writes reflected here (the committed heap alone would
    pick a backwards build side).
    """
    node = operator
    while node is not None:
        if isinstance(node, (SeqScan, IndexScan)):
            return node.table.visible_row_count()
        node = getattr(node, "child", None)
    return None


def _choose_build_side(kind: str, left: _SourceSet,
                       right: _SourceSet) -> str:
    """Hash the smaller input. LEFT joins must build on the right
    (the probe pass pads unmatched preserved rows); ties and unknown
    cardinalities keep the historical build-right choice. Fragments
    with ANALYZE statistics compare selectivity-scaled estimates;
    the rest fall back to raw visible row counts."""
    if kind != "inner":
        return "right"
    left_rows = (left.est_rows if left.est_rows is not None
                 else _estimate_rows(left.operator))
    right_rows = (right.est_rows if right.est_rows is not None
                  else _estimate_rows(right.operator))
    if left_rows is None or right_rows is None:
        return "right"
    return "left" if left_rows < right_rows else "right"


def _make_hash_join(left: _SourceSet, right: _SourceSet,
                    left_keys: list[ast.Expression],
                    right_keys: list[ast.Expression], kind: str,
                    residual: Optional[ast.Expression]) -> _SourceSet:
    build_side = _choose_build_side(kind, left, right)
    operator = HashJoin(left.operator, right.operator, left_keys,
                        right_keys, kind, residual, build_side)
    est = _join_estimate(left, right, list(zip(left_keys, right_keys)))
    if est is not None and kind == "left":
        # preserved-side rows survive unmatched: never below |L|
        est = max(est, left.est_rows or 0.0)
    return _merge_sets(left, right, operator, est)


def _plan_join_source(source, catalog: Catalog,
                      track_lineage: bool) -> _SourceSet:
    """Plan a FROM entry, which may be a TableRef or an explicit Join."""
    if isinstance(source, ast.TableRef):
        return _plan_table(source, catalog, track_lineage)
    if isinstance(source, ast.Join):
        left = _plan_join_source(source.left, catalog, track_lineage)
        right = _plan_table(source.right, catalog, track_lineage)
        if source.kind == "cross" or source.condition is None:
            operator: Operator = NestedLoopJoin(
                left.operator, right.operator, None, "cross")
            return _merge_sets(left, right, operator,
                               _cross_estimate(left, right))
        equi, residual = _extract_equi_keys(
            split_conjuncts(source.condition), left, right)
        if equi:
            left_keys = [pair[0] for pair in equi]
            right_keys = [pair[1] for pair in equi]
            return _make_hash_join(left, right, left_keys, right_keys,
                                   source.kind, conjoin(residual))
        operator = NestedLoopJoin(left.operator, right.operator,
                                  source.condition, source.kind)
        return _merge_sets(left, right, operator,
                           _cross_estimate(left, right))
    raise ExecutionError(f"unsupported FROM entry {source!r}")


def _aliases_of(expression: ast.Expression,
                sources: list[_SourceSet]) -> frozenset[str] | None:
    """The set of source fragments an expression's columns resolve to.

    Returns None when any column reference cannot be resolved uniquely
    (forces the conjunct to be applied as a post-join filter where full
    schema resolution produces a proper error message).
    """
    aliases: set[str] = set()
    for ref in exprs.columns_referenced(expression):
        owner = _resolve_owner(ref, sources)
        if owner is None:
            return None
        aliases.add(owner)
    return frozenset(aliases)


def _resolve_owner(ref: ast.ColumnRef,
                   sources: list[_SourceSet]) -> str | None:
    """Which fragment (by canonical alias) owns a column reference."""
    owners = []
    for source in sources:
        if ref.qualifier is not None:
            if (ref.qualifier.lower() in source.aliases
                    and source.operator.schema.has_column(
                        ref.name, ref.qualifier)):
                owners.append(source)
        elif source.operator.schema.has_column(ref.name):
            owners.append(source)
    if len(owners) != 1:
        return None
    return min(owners[0].aliases)


def _extract_equi_keys(conjuncts: list[ast.Expression],
                       left: _SourceSet, right: _SourceSet):
    """Split conjuncts into hash-join key pairs and a residual list."""
    equi: list[tuple[ast.Expression, ast.Expression]] = []
    residual: list[ast.Expression] = []
    for conjunct in conjuncts:
        pair = _as_equi_pair(conjunct, left, right)
        if pair is not None:
            equi.append(pair)
        else:
            residual.append(conjunct)
    return equi, residual


def _as_equi_pair(conjunct: ast.Expression, left: _SourceSet,
                  right: _SourceSet):
    """Return (left_key, right_key) if the conjunct is `a = b` across
    the two sides, else None."""
    if not (isinstance(conjunct, ast.BinaryOp) and conjunct.op == "="):
        return None
    sides = [left, right]
    left_aliases = _aliases_of(conjunct.left, sides)
    right_aliases = _aliases_of(conjunct.right, sides)
    if not left_aliases or not right_aliases:
        return None
    if left_aliases <= left.aliases and right_aliases <= right.aliases:
        return conjunct.left, conjunct.right
    if left_aliases <= right.aliases and right_aliases <= left.aliases:
        return conjunct.right, conjunct.left
    return None


def _plan_from_where(select: ast.Select, catalog: Catalog,
                     track_lineage: bool, fuse: bool
                     ) -> tuple[Operator, list[str]]:
    """Plan the FROM/WHERE part, returning the source operator tree and
    the list of base tables it reads."""
    source_tables = _collect_source_tables(select.sources)
    if not select.sources:
        # SELECT without FROM: one empty row so literals evaluate once
        schema = Schema([])
        root: Operator = MaterializedSource(
            schema, [((), frozenset())])
        if select.where is not None:
            root = Filter(root, select.where)
        return root, source_tables

    fragments = [_plan_join_source(source, catalog, track_lineage)
                 for source in select.sources]
    conjuncts = split_conjuncts(select.where)

    # push single-fragment conjuncts down onto their fragment;
    # column-free conjuncts (e.g. WHERE 1 = 0) go on the first
    # fragment so they short-circuit before any join
    remaining: list[ast.Expression] = []
    for conjunct in conjuncts:
        aliases = _aliases_of(conjunct, fragments)
        placed = False
        if aliases is not None:
            if not aliases:
                fragments[0].operator = _filtered(
                    fragments[0].operator, conjunct, fuse)
                placed = True
            else:
                for fragment in fragments:
                    if aliases <= fragment.aliases:
                        if not _try_index_scan(fragment, conjunct,
                                               track_lineage):
                            fragment.operator = _filtered(
                                fragment.operator, conjunct, fuse)
                        _apply_filter_estimate(fragment, conjunct)
                        placed = True
                        break
        if not placed:
            remaining.append(conjunct)

    # greedy join ordering driven by equi-predicates; with ANALYZE
    # statistics on every connected candidate, the next join is the
    # one with the smallest estimated output (so a selective dimension
    # shrinks the pipeline before a fan-out junction expands it) —
    # otherwise the rote first-connected order is kept
    current = fragments[0]
    pending = fragments[1:]
    while pending:
        connected: list[tuple[int, _SourceSet, list]] = []
        for index, candidate in enumerate(pending):
            equi, _ = _extract_equi_keys(remaining, current, candidate)
            if equi:
                connected.append((index, candidate, equi))
        if not connected:
            candidate = pending.pop(0)
            operator: Operator = NestedLoopJoin(
                current.operator, candidate.operator, None, "cross")
            current = _merge_sets(current, candidate, operator,
                                  _cross_estimate(current, candidate))
            continue
        chosen_index, _, chosen_equi = connected[0]
        if (len(connected) > 1 and current.est_rows is not None
                and all(candidate.est_rows is not None
                        for _, candidate, _ in connected)):
            best_estimate = None
            for index, candidate, equi in connected:
                estimate = _join_estimate(current, candidate, equi)
                if best_estimate is None or estimate < best_estimate:
                    best_estimate = estimate
                    chosen_index, chosen_equi = index, equi
        candidate = pending.pop(chosen_index)
        left_keys = [pair[0] for pair in chosen_equi]
        right_keys = [pair[1] for pair in chosen_equi]
        current = _make_hash_join(current, candidate, left_keys,
                                  right_keys, "inner", None)
        # remove consumed equi conjuncts from the remaining list
        consumed = set()
        for left_key, right_key in chosen_equi:
            consumed.add((left_key, right_key))
        remaining = [
            conjunct for conjunct in remaining
            if not (isinstance(conjunct, ast.BinaryOp)
                    and conjunct.op == "="
                    and ((conjunct.left, conjunct.right) in consumed
                         or (conjunct.right, conjunct.left) in consumed))
        ]

    root = current.operator
    residual = conjoin(remaining)
    if residual is not None:
        root = _filtered(root, residual, fuse)
    return root, source_tables


def _indexable_in_list(conjunct: ast.Expression):
    """The (column, literal items) of an index-usable IN conjunct.

    Only non-negated ``col IN (literal, ...)`` qualifies: the probe
    skips NULL items, which is safe because a NULL item can only make
    the predicate UNKNOWN — never TRUE — and filters drop UNKNOWN.
    """
    if (isinstance(conjunct, ast.InList) and not conjunct.negated
            and isinstance(conjunct.operand, ast.ColumnRef)
            and conjunct.items
            and all(isinstance(item, (ast.Literal, ast.Parameter))
                    for item in conjunct.items)):
        return conjunct.operand, list(conjunct.items)
    return None


def _integer_key_range(conjunct: ast.Expression):
    """The (column, (low, high)) of a range an index can enumerate.

    Only non-negated ``col BETWEEN <int literal> AND <int literal>``
    with ``low <= high`` qualifies: parameters, floats, NULL and
    booleans are not keys an INTEGER column holds, and a reversed
    range matches nothing, which the scan reports as cheaply.
    """
    if (isinstance(conjunct, ast.Between) and not conjunct.negated
            and isinstance(conjunct.operand, ast.ColumnRef)
            and isinstance(conjunct.low, ast.Literal)
            and isinstance(conjunct.high, ast.Literal)
            and type(conjunct.low.value) is int
            and type(conjunct.high.value) is int
            and conjunct.low.value <= conjunct.high.value):
        return conjunct.operand, (conjunct.low.value, conjunct.high.value)
    return None


def _try_index_scan(fragment: _SourceSet, conjunct: ast.Expression,
                    track_lineage: bool) -> bool:
    """Turn a bare SeqScan plus a ``col = constant``,
    ``col IN (constants)`` or ``int_col BETWEEN lo AND hi`` conjunct
    into an IndexScan when a hash index covers the column. A range
    probes every key ``lo..hi`` and qualifies only on an INTEGER
    column, whose values are exactly those keys or NULL.

    With ANALYZE statistics the conversion is cost-gated: per-key
    probes only win while ``probes + estimated matches`` undercuts a
    full scan, so an IN list or range that rivals the table stays on
    the (fused) sequential scan. Without statistics every equality and
    IN conjunct converts, as before, and a range converts while it
    needs no more probes than the table has live rows. The losing path
    is recorded on the scan node (``cost_note``) so EXPLAIN shows
    which choice won and why.
    """
    operator = fragment.operator
    if not isinstance(operator, SeqScan):
        return False
    # (column, constant expression(s), integer key range)
    candidates = []
    if isinstance(conjunct, ast.BinaryOp) and conjunct.op == "=":
        for column, constant in ((conjunct.left, conjunct.right),
                                 (conjunct.right, conjunct.left)):
            if (isinstance(column, ast.ColumnRef)
                    and isinstance(constant, (ast.Literal,
                                              ast.Parameter))):
                candidates.append((column, constant, None))
    elif isinstance(conjunct, ast.Between):
        ranged = _integer_key_range(conjunct)
        if ranged is not None:
            column, key_range = ranged
            candidates.append((column, [], key_range))
    else:
        in_list = _indexable_in_list(conjunct)
        if in_list is not None:
            candidates.append((*in_list, None))
    schema = operator.schema
    for column, constant, key_range in candidates:
        if not schema.has_column(column.name, column.qualifier):
            continue
        index = operator.table.index_on(column.name)
        if index is None:
            continue
        if key_range is None:
            probes = (len(constant) if isinstance(constant, list)
                      else 1)
        else:
            position = schema.index_of(column.name, column.qualifier)
            if schema.columns[position].sql_type is not SQLType.INTEGER:
                continue
            probes = key_range[1] - key_range[0] + 1
        if fragment.est_rows is not None:
            table_rows = max(fragment.est_rows, 1.0)
            matched = (table_rows
                       * _fragment_selectivity(fragment, conjunct))
            probe_cost = (statsmod.INDEX_PROBE_COST * probes
                          + statsmod.INDEX_ROW_COST * matched)
            # a warm scan-cache segment replays prebuilt vectors, so
            # the sequential alternative gets cheaper per row and the
            # scan-vs-probe flip moves to smaller tables
            cache = operator.table.scan_cache
            warm = (cache is not None
                    and cache.has_cached_scan(operator.table))
            scan_kind = "cached scan" if warm else "scan"
            scan_cost = (table_rows * statsmod.CACHED_SCAN_ROW_COST
                         if warm else table_rows)
            if probe_cost >= scan_cost:
                operator.cost_note = (
                    f"{index.name} skipped: {probes} probe(s) ~ est "
                    f"{matched:.0f} of {table_rows:.0f} rows, "
                    f"{scan_kind} is cheaper")
                return False
        elif key_range is not None:
            live_rows = len(operator.table.rows)
            if probes > live_rows:
                operator.cost_note = (
                    f"{index.name} skipped: {probes} probes for "
                    f"{live_rows} rows, scan is cheaper")
                return False
        fragment.operator = IndexScan(
            operator.table, operator.qualifier, index, constant,
            track_lineage, key_range=key_range)
        if fragment.est_rows is not None:
            fragment.operator.cost_note = (
                f"cost {probe_cost:.0f} < {scan_kind} {scan_cost:.0f}")
        return True
    return False


def plan_dml_access(table: HeapTable, where: Optional[ast.Expression],
                    catalog: Catalog
                    ) -> tuple[Optional[IndexScan], list[ast.Expression]]:
    """The access path of an UPDATE or DELETE on ``table``.

    The WHERE conjuncts go through the same index decision a SELECT's
    pushed-down filters get (:func:`_try_index_scan`, with the same
    statistics gate and estimate bookkeeping). Returns the IndexScan
    that won, if any, and the conjuncts it leaves to evaluate on the
    rows it (or, without one, the full scan) produces.
    """
    fragment = _plan_table(ast.TableRef(table.name), catalog, False)
    residual: list[ast.Expression] = []
    for conjunct in split_conjuncts(where):
        if not _try_index_scan(fragment, conjunct, False):
            residual.append(conjunct)
        _apply_filter_estimate(fragment, conjunct)
    access = fragment.operator
    return (access if isinstance(access, IndexScan) else None), residual


def _collect_source_tables(sources) -> list[str]:
    tables: list[str] = []

    def visit(source) -> None:
        if isinstance(source, ast.TableRef):
            tables.append(source.name.lower())
        elif isinstance(source, ast.Join):
            visit(source.left)
            tables.append(source.right.name.lower())

    for source in sources:
        visit(source)
    return tables


# ---------------------------------------------------------------------------
# Partition-parallel exchange placement
# ---------------------------------------------------------------------------


def _parallel_input_rows(scan: Operator) -> float:
    """Estimated rows a parallel scan would read — delegated to
    :func:`repro.db.stats.parallel_input_estimate` so every parallel
    placement gate prices inputs through one policy."""
    from repro.db.stats import parallel_input_estimate
    return parallel_input_estimate(scan)


def _try_gather(node: Operator,
                context: parmod.ParallelContext) -> Operator | None:
    """Replace an eligible sub-plan with a Gather, or return None.

    Two shapes qualify:

    * a Scan→Filter→Project chain (fused or not) rooted at ``node`` —
      wrapped in :class:`repro.db.vector.Gather`, which runs one
      clone of the chain per partition and merges batches back into
      exact serial row order;
    * a :class:`~repro.db.executor.GroupAggregate` over such a chain
      — when every aggregate merges exactly
      (:func:`repro.db.expressions.merge_exact_aggregate`) the whole
      aggregate goes partition-parallel via
      :class:`repro.db.vector.AggregateGather` (partial states
      merged at the gather); otherwise only the scan below it is
      parallelized and the fold stays serial, so float accumulation
      order — and therefore every emitted bit — matches the serial
      plan.

    Either way the replacement is cost-gated: partition dispatch only
    pays off when the scan reads at least ``context.min_rows`` rows.
    """
    if isinstance(node, GroupAggregate):
        scan = vector.parallel_scan_leaf(node.child)
        if scan is None:
            return None
        if _parallel_input_rows(scan) < context.min_rows:
            return None
        if all(exprs.merge_exact_aggregate(call, node.child.schema)
               for call in node.aggregate_calls):
            return vector.AggregateGather(node, scan, context)
        node.child = vector.Gather(node.child, scan, context)
        return node
    if isinstance(node, Limit) and type(node.child) is Sort:
        replacement = _try_parallel_sort(node.child, node, context)
        if replacement is None:
            return None
        node.child = replacement
        return node
    if type(node) is Sort:
        return _try_parallel_sort(node, None, context)
    if type(node) is HashJoin:
        return _try_parallel_join(node, context)
    scan = vector.parallel_scan_leaf(node)
    if scan is None:
        return None
    if _parallel_input_rows(scan) < context.min_rows:
        return None
    return vector.Gather(node, scan, context)


def _try_parallel_sort(sort: Operator, limit: Operator | None,
                       context: parmod.ParallelContext):
    """Replace an eligible ``Sort`` with a
    :class:`repro.db.vector.ParallelSort`. Under ORDER BY ...
    LIMIT the limit stays in the plan but ``offset + limit`` pushes
    down as top-k, so each worker ships at most that many rows."""
    scan = vector.parallel_scan_leaf(sort.child)
    if scan is None:
        return None
    if _parallel_input_rows(scan) < context.min_rows:
        return None
    ship_limit = None
    if limit is not None and limit.limit is not None:
        ship_limit = limit.limit + limit.offset
    return vector.ParallelSort(sort.child, scan, context, sort.keys,
                               ship_limit)


def _join_key_partition_column(key, side: Operator, spec) -> bool:
    """True when ``key`` is a bare column reference that resolves, on
    an unprojected side chain, to the side table's partition column —
    the requirement for bucket-aligned joining."""
    if not isinstance(key, ast.ColumnRef):
        return False
    node = side
    while isinstance(node, (FusedScanFilterProject, Filter, Project)):
        if isinstance(node, Project):
            return False  # projection re-shapes the side schema
        if (isinstance(node, FusedScanFilterProject)
                and node.projections is not None):
            return False
        node = node.child
    try:
        index = side.schema.index_of(key.name, key.qualifier)
    except CatalogError:
        return False
    return side.schema.columns[index].name == spec.column


def _copart_eligible(join) -> bool:
    """Plan-time check for the co-partitioned join fast path: both
    sides hash-partitioned with equal bucket counts on exactly the
    (single) join key. Execution re-checks the cheap invariants, and
    a cached plan is served only while its tables' ``partition``
    versions match, so a cached copart plan can never outlive the
    specs it was planned against."""
    if len(join.left_keys) != 1:
        return False
    left_scan = vector.parallel_scan_leaf(join.left)
    right_scan = vector.parallel_scan_leaf(join.right)
    if left_scan is None or right_scan is None:
        return False
    left_spec = left_scan.table.partition_spec
    right_spec = right_scan.table.partition_spec
    if (left_spec is None or right_spec is None
            or left_spec.count != right_spec.count):
        return False
    return (_join_key_partition_column(join.left_keys[0], join.left,
                                       left_spec)
            and _join_key_partition_column(join.right_keys[0],
                                           join.right, right_spec))


def _try_parallel_join(join, context: parmod.ParallelContext):
    """Parallel placement for a hash join: the co-partitioned path when
    both sides qualify and the probe side clears the cost gate.
    Returning None lets the walker descend and parallelize the sides
    individually as plain gathers."""
    if not _copart_eligible(join):
        return None
    probe_side = join.right if join.build_side == "left" else join.left
    probe_scan = vector.parallel_scan_leaf(probe_side)
    if _parallel_input_rows(probe_scan) < context.min_rows:
        return None
    return vector.ParallelHashJoin(join, context)


def parallelize_plan(root: Operator,
                     context: parmod.ParallelContext) -> Operator:
    """Walk a planned tree top-down, replacing every eligible sub-plan
    (including scan sides of joins) with a partition-parallel Gather.
    A replaced sub-plan becomes the gather's *template* and is not
    descended into again."""
    replacement = _try_gather(root, context)
    if replacement is not None:
        return replacement
    for attr in ("child", "left", "right", "inner"):
        sub = getattr(root, attr, None)
        if isinstance(sub, Operator):
            setattr(root, attr, parallelize_plan(sub, context))
    children = getattr(root, "children", None)
    if isinstance(children, list):
        for index, sub in enumerate(children):
            children[index] = parallelize_plan(sub, context)
    return root


# ---------------------------------------------------------------------------
# Full SELECT planning
# ---------------------------------------------------------------------------


def _expand_stars(select: ast.Select, schema: Schema) -> list[ast.SelectItem]:
    """Replace * / alias.* select items with explicit column references."""
    items: list[ast.SelectItem] = []
    for item in select.items:
        if isinstance(item.expression, ast.Star):
            qualifier = item.expression.qualifier
            matched = False
            for column, column_qualifier in zip(schema.columns,
                                                schema.qualifiers):
                if qualifier is not None and (
                        column_qualifier is None
                        or column_qualifier.lower() != qualifier.lower()):
                    continue
                matched = True
                items.append(ast.SelectItem(
                    ast.ColumnRef(column.name, column_qualifier)))
            if not matched:
                raise ExecutionError(
                    f"unknown table alias in {qualifier}.*")
        else:
            items.append(item)
    return items


def plan_select(select: ast.Select, catalog: Catalog,
                track_lineage: bool = False,
                fuse: bool = True,
                parallel: parmod.ParallelContext | None = None
                ) -> PlannedQuery:
    """Plan a SELECT statement into an executable operator tree.

    Scan→Filter→Project chains fuse into one
    :class:`~repro.db.executor.FusedScanFilterProject`; ``fuse=False``
    keeps Scan/Filter/Project as separate nodes (EXPLAIN ANALYZE needs
    per-operator attribution). With a ``parallel`` context of more
    than one worker, eligible sub-plans are wrapped in partition-
    parallel Gather operators (:func:`parallelize_plan`).
    """
    source, source_tables = _plan_from_where(select, catalog,
                                             track_lineage, fuse)
    items = _expand_stars(select, source.schema)

    output_expressions = [item.expression for item in items]
    output_columns = []
    for index, item in enumerate(items):
        name = item.alias or derive_column_name(item.expression, index)
        output_columns.append(
            Column(name, infer_type(item.expression, source.schema)))
    visible_width = len(output_expressions)
    visible_schema = Schema(output_columns)

    has_aggregates = bool(select.group_by) or any(
        exprs.contains_aggregate(expression)
        for expression in output_expressions) or (
            select.having is not None
            and exprs.contains_aggregate(select.having))
    if select.having is not None and not has_aggregates:
        raise SQLSyntaxError("HAVING requires aggregation")

    # ORDER BY handling: match select aliases / expressions, else append
    # hidden output columns.
    sort_keys: list[tuple[int, bool]] = []
    hidden: list[ast.Expression] = []
    for order_item in select.order_by:
        index = _match_order_expression(order_item.expression, items)
        if index is None:
            index = visible_width + len(hidden)
            hidden.append(order_item.expression)
        sort_keys.append((index, order_item.descending))
    all_expressions = output_expressions + hidden
    full_columns = list(output_columns) + [
        Column(f"_sort{i}", infer_type(expression, source.schema))
        for i, expression in enumerate(hidden)]
    full_schema = Schema(full_columns)

    if has_aggregates:
        root: Operator = GroupAggregate(
            source, list(select.group_by), all_expressions,
            full_schema, select.having)
    elif (fuse and isinstance(source, FusedScanFilterProject)
          and source.projections is None):
        source.absorb_projections(all_expressions, full_schema)
        root = source
    elif fuse and isinstance(source, (SeqScan, IndexScan)):
        root = FusedScanFilterProject(source, None, all_expressions,
                                      full_schema)
    else:
        root = Project(source, all_expressions, full_schema)

    if select.distinct:
        root = Distinct(root, visible_width if hidden else None)
    if sort_keys:
        root = Sort(root, sort_keys)
    if select.limit is not None or select.offset is not None:
        root = Limit(root, select.limit, select.offset)
    if hidden:
        root = StripColumns(root, visible_width, visible_schema)
    if parallel is not None and parallel.workers > 1:
        root = parallelize_plan(root, parallel)
    return PlannedQuery(root, visible_schema, source_tables)


def plan_setop(setop: ast.SetOp, catalog: Catalog,
               track_lineage: bool = False,
               fuse: bool = True,
               parallel: parmod.ParallelContext | None = None
               ) -> PlannedQuery:
    """Plan a UNION [ALL] chain into a Union (+ Distinct) operator."""
    branches: list[tuple[ast.Select, bool]] = []

    def flatten(node, all_rows: bool) -> None:
        # a chain a UNION b UNION ALL c is left-associative; each
        # SetOp's `all` flag governs the duplicates of the whole chain
        # up to that point, so track the strictest (non-ALL) flag seen
        if isinstance(node, ast.SetOp):
            flatten(node.left, all_rows and node.all)
            branches.append((node.right, True))
        else:
            branches.append((node, True))

    flatten(setop, True)
    planned = [plan_select(select, catalog, track_lineage, fuse,
                           parallel)
               for select, _ in branches]
    first_schema = planned[0].schema
    root: Operator = Union([entry.root for entry in planned])
    # SQL UNION (without ALL) applies set semantics to the whole chain;
    # a chain with any non-ALL link deduplicates (standard semantics
    # for a left-deep chain ending in UNION)
    if not setop.all:
        root = Distinct(root)
        root.schema = first_schema  # type: ignore[assignment]
    source_tables: list[str] = []
    for entry in planned:
        source_tables.extend(entry.source_tables)
    return PlannedQuery(root, first_schema, source_tables)


def _match_order_expression(expression: ast.Expression,
                            items: list[ast.SelectItem]) -> int | None:
    """Match an ORDER BY expression to a select item by alias or equality."""
    if isinstance(expression, ast.ColumnRef) and expression.qualifier is None:
        for index, item in enumerate(items):
            if item.alias and item.alias.lower() == expression.name.lower():
                return index
    for index, item in enumerate(items):
        if item.expression == expression:
            return index
    # ORDER BY 1 style positional reference
    if isinstance(expression, ast.Literal) and isinstance(expression.value, int):
        position = expression.value
        if 1 <= position <= len(items):
            return position - 1
    return None

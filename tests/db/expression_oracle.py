"""Expression-level reference check shared by the engine test modules.

Every expression of a query — select items, WHERE, JOIN ... ON,
GROUP BY, HAVING and ORDER BY — is evaluated three ways on every
fixture row, and all three must agree on the value (type included) or
on the exception (type and message):

* :class:`~repro.db.expressions.Evaluator`, the interpreter that
  serves as the reference implementation;
* the row closure of :func:`~repro.db.expressions.compile_expression`
  (and :func:`~repro.db.expressions.compile_predicate` for conditions);
* the batch kernels of :func:`~repro.db.expressions.compile_batch_expression`
  and :func:`~repro.db.expressions.compile_batch_predicate`, run over
  all fixture rows as one batch with a selection vector that skips
  every third row.

Fixture rows are the cross product of the query's source tables, each
padded with one all-NULL row (the shape a LEFT JOIN emits). Aggregate
calls and group keys inside select items and HAVING are bound through
:class:`~repro.db.expressions.BindingSlots`, exactly as the aggregate
operator binds them, with the interpreter reading the same slots via
``BindingSlots.as_bindings()``.
"""

from __future__ import annotations

import itertools

from repro.db import expressions as exprs
from repro.db.sql import ast
from repro.db.sql.parser import parse_one
from repro.db.types import Schema
from repro.errors import CatalogError


def _sources_of(source):
    if isinstance(source, ast.TableRef):
        return [source], []
    tables, conditions = _sources_of(source.left)
    tables.append(source.right)
    if source.condition is not None:
        conditions.append(source.condition)
    return tables, conditions


def _selects(statement):
    if isinstance(statement, ast.SetOp):
        return _selects(statement.left) + _selects(statement.right)
    return [statement]


def _fixture(database, select):
    """The schema and rows every expression of ``select`` runs over."""
    refs, conditions = [], []
    for source in select.sources:
        tables, on = _sources_of(source)
        refs.extend(tables)
        conditions.extend(on)
    schema = Schema([])
    row_sets = []
    for ref in refs:
        table = database.catalog.get_table(ref.name)
        schema = schema.concat(table.schema.qualified(ref.effective_alias))
        rows = [values for _rowid, values in table.scan()]
        row_sets.append(rows + [(None,) * len(table.schema)])
    rows = [sum(combo, ()) for combo in itertools.product(*row_sets)]
    return schema, rows, conditions


def _outcome(fn, *args):
    try:
        value = fn(*args)
    except Exception as exc:  # the comparison is over what is raised
        return ("raises", type(exc), str(exc))
    if isinstance(value, list):
        return ("value", [(type(item), item) for item in value])
    return ("value", (type(value), value))


def _first_failure(outcomes):
    for outcome in outcomes:
        if outcome[0] == "raises":
            return outcome
    return None


def _check_expression(expression, schema, rows, predicate, group_by):
    calls = exprs.find_aggregates(expression)
    slots = (exprs.BindingSlots(calls + list(group_by)) if calls
             else None)
    compiled = exprs.compile_expression(expression, schema, slots)
    compiled_predicate = (exprs.compile_predicate(expression, schema, slots)
                          if predicate else None)
    evaluator = exprs.Evaluator(
        schema, slots.as_bindings() if slots is not None else None)
    bound_args = [None if isinstance(call.args[0], ast.Star)
                  else exprs.compile_expression(call.args[0], schema)
                  for call in calls]

    def bind(position):
        """Slot values for one row: the row's own aggregate arguments
        (its position for COUNT(*)) and group keys."""
        row = rows[position]
        for call, argument in zip(calls, bound_args):
            slots.assign(call, position if argument is None
                         else argument(row))
        for key in group_by:
            slots.assign(key, exprs.compile_expression(key, schema)(row))

    reference = []
    for position, row in enumerate(rows):
        if slots is not None:
            bind(position)
        expected = _outcome(evaluator.evaluate, expression, row)
        reference.append(expected)
        assert _outcome(compiled, row) == expected, (expression, row)
        if predicate and expected[0] == "value":
            assert compiled_predicate(row) is (expected[1][1] is True), (
                expression, row)

    # the batch forms: one multi-row batch, every third row deselected;
    # slot values are per group, so every position shares one binding
    sel = [position for position in range(len(rows)) if position % 3 != 1]
    if slots is not None:
        middle = sel[len(sel) // 2]
        bind(middle)
        reference = [_outcome(evaluator.evaluate, expression, row)
                     for row in rows]
    columns = [list(column) for column in zip(*rows)] if schema.columns \
        else []
    picked = [reference[position] for position in sel]
    failure = _first_failure(picked)
    batch = _outcome(exprs.compile_batch_expression(expression, schema,
                                                    slots), columns, sel)
    if failure is not None:
        assert batch == failure, expression
    else:
        assert batch == ("value", [outcome[1] for outcome in picked]), (
            expression)
    if predicate:
        refined = _outcome(exprs.compile_batch_predicate(
            expression, schema, slots), columns, sel)
        if failure is not None:
            assert refined == failure, expression
        else:
            kept = [position for position in sel
                    if reference[position][1][1] is True]
            assert refined == ("value", [(int, position)
                                         for position in kept]), expression


def assert_expressions_match_reference(database, sql):
    """Check every expression of ``sql`` on its fixture rows."""
    for select in _selects(parse_one(sql)):
        schema, rows, conditions = _fixture(database, select)
        checks = [(item.expression, False) for item in select.items
                  if not isinstance(item.expression, ast.Star)]
        checks += [(condition, True) for condition in conditions]
        if select.where is not None:
            checks.append((select.where, True))
        checks += [(key, False) for key in select.group_by]
        if select.having is not None:
            checks.append((select.having, True))
        for order in select.order_by:
            try:
                exprs.compile_expression(order.expression, schema)
            except CatalogError:
                continue  # names a select-list alias, checked above
            checks.append((order.expression, False))
        for expression, predicate in checks:
            _check_expression(expression, schema, rows, predicate,
                              select.group_by)

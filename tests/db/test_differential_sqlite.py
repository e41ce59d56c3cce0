"""Differential SQL oracle: repro.db vs stdlib sqlite3.

For each pinned seed, generate a small random schema and data set,
load both engines identically, and run a bounded family of generated
SELECTs — filters (with NULL three-valued logic), implicit and ON-style
equi-joins, LEFT JOIN, aggregates, GROUP BY/HAVING, DISTINCT (including
DISTINCT over joins), IN/NOT IN lists (with NULL items), ORDER BY and
ORDER BY + LIMIT/OFFSET — asserting identical result multisets
(identical *lists* where the query orders totally).

ORDER BY + LIMIT cases key only on non-nullable columns: sqlite sorts
NULLs first while this engine sorts them last, so a LIMIT over a
nullable key would truncate different rows even though both orders are
individually valid.

A second grammar drives UPDATE and DELETE statements (seeded ``WHERE``
predicates from the SELECT grammar, simple ``SET`` expressions that
reach negative values and NULLs) through both engines in sequence,
asserting equal row counts and an equal post-state of every table after
each statement.

CI pins ``SEED_COUNT`` seeds; ``pytest --seeds N`` widens or narrows
the sweep locally without touching the code.
"""

from __future__ import annotations

import random
import sqlite3

import pytest

from repro.db import Database

pytestmark = pytest.mark.differential

SEED_COUNT = 30          # pinned for CI
QUERIES_PER_SEED = 11    # grammar families below
DML_PER_SEED = 6         # DML grammar families below


def pytest_generate_tests(metafunc):
    if "oracle_seed" in metafunc.fixturenames:
        count = metafunc.config.getoption("--seeds") or SEED_COUNT
        metafunc.parametrize("oracle_seed", range(count))


# -- random schema + data -----------------------------------------------------

COLORS = ["red", "green", "blue", "amber", "teal"]

TABLES = {
    # name -> (columns, nullable flags); column types: i = integer,
    # t = text. Column a doubles as the join key everywhere.
    "t0": [("a", "i", False), ("b", "i", True),
           ("c", "t", True), ("d", "i", False)],
    "t1": [("a", "i", False), ("e", "i", False), ("f", "t", True)],
}


def _random_value(rng, kind, nullable):
    if nullable and rng.random() < 0.25:
        return None
    if kind == "i":
        return rng.randint(0, 9)
    return rng.choice(COLORS)


def _random_rows(rng, columns, count):
    return [tuple(_random_value(rng, kind, nullable)
                  for _, kind, nullable in columns)
            for _ in range(count)]


def _literal(value):
    if value is None:
        return "NULL"
    if isinstance(value, str):
        return "'" + value + "'"
    return str(value)


def build_engines(seed):
    rng = random.Random(seed)
    database = Database()
    connection = sqlite3.connect(":memory:")
    for name, columns in TABLES.items():
        ddl_columns = ", ".join(
            f"{column} {'integer' if kind == 'i' else 'text'}"
            for column, kind, _ in columns)
        database.execute(f"CREATE TABLE {name} ({ddl_columns})")
        connection.execute(f"CREATE TABLE {name} ({ddl_columns})")
        rows = _random_rows(rng, columns, rng.randint(5, 12))
        values = ", ".join(
            "(" + ", ".join(_literal(v) for v in row) + ")"
            for row in rows)
        database.execute(f"INSERT INTO {name} VALUES {values}")
        placeholders = ", ".join("?" for _ in columns)
        connection.executemany(
            f"INSERT INTO {name} VALUES ({placeholders})", rows)
    return rng, database, connection


# -- random query grammar -----------------------------------------------------

INT_OPS = ["=", "!=", "<", "<=", ">", ">="]


def _atom(rng, prefix=""):
    """One predicate atom over t0's columns."""
    choice = rng.random()
    if choice < 0.5:
        column = rng.choice(["a", "b", "d"])
        return (f"{prefix}{column} {rng.choice(INT_OPS)} "
                f"{rng.randint(0, 9)}")
    if choice < 0.7:
        return f"{prefix}c = '{rng.choice(COLORS)}'"
    column = rng.choice(["b", "c"])
    negated = rng.random() < 0.5
    return f"{prefix}{column} IS {'NOT ' if negated else ''}NULL"


def _predicate(rng, prefix=""):
    atoms = [_atom(rng, prefix) for _ in range(rng.randint(1, 3))]
    glue = f" {rng.choice(['AND', 'OR'])} "
    return glue.join(atoms)


def generate_query(rng, family):
    """One SELECT from the bounded grammar. Returns (sql, ordered)
    where ``ordered`` means the result is a totally ordered list."""
    if family == 0:  # filtered scan
        return (f"SELECT a, b, c, d FROM t0 WHERE {_predicate(rng)}",
                False)
    if family == 1:  # expression projection + total ORDER BY
        # every projected column is an ORDER BY key, so equal sort
        # keys mean equal rows and the list compare is exact
        direction = rng.choice(["", " DESC"])
        return (f"SELECT d, a, a + d FROM t0 WHERE d <= "
                f"{rng.randint(2, 5)} "
                f"ORDER BY d{direction}, a, a + d", True)
    if family == 2:  # implicit equi-join
        return (f"SELECT t0.a, t0.d, t1.e FROM t0, t1 "
                f"WHERE t0.a = t1.a AND {_predicate(rng, 't0.')}",
                False)
    if family == 3:  # JOIN ... ON with a filter on the right table
        return (f"SELECT x.a, x.b, y.e FROM t0 x JOIN t1 y "
                f"ON x.a = y.a WHERE y.e > {rng.randint(0, 6)}",
                False)
    if family == 4:  # LEFT JOIN: unmatched rows surface NULLs
        return (f"SELECT x.a, x.d, y.e, y.f FROM t0 x LEFT JOIN t1 y "
                f"ON x.a = y.a WHERE x.d >= {rng.randint(0, 3)}",
                False)
    if family == 5:  # global aggregates, NULL-skipping included
        return (f"SELECT count(*), count(b), sum(d), min(d), max(d), "
                f"sum(b) FROM t0 WHERE {_predicate(rng)}", False)
    if family == 6:  # GROUP BY (+ HAVING half the time)
        having = (f" HAVING count(*) > {rng.randint(1, 2)}"
                  if rng.random() < 0.5 else "")
        key = rng.choice(["b", "c", "d", "a % 2"])
        return (f"SELECT {key}, count(*), sum(d), min(a) FROM t0 "
                f"GROUP BY {key}{having}", False)
    if family == 7:  # DISTINCT projection
        columns = rng.choice(["c", "b", "a % 3, c"])
        return f"SELECT DISTINCT {columns} FROM t0", False
    if family == 8:  # IN / NOT IN lists, occasionally with a NULL item
        column = rng.choice(["a", "b", "d"])
        items = [str(rng.randint(0, 9))
                 for _ in range(rng.randint(1, 4))]
        if rng.random() < 0.3:
            items.insert(rng.randrange(len(items) + 1), "NULL")
        negated = rng.random() < 0.4
        return (f"SELECT a, b, c, d FROM t0 WHERE {column} "
                f"{'NOT IN' if negated else 'IN'} ({', '.join(items)})",
                False)
    if family == 9:  # ORDER BY + LIMIT (+ OFFSET) over a total order
        # keys restricted to the non-nullable a and d: sqlite and this
        # engine disagree on NULL placement, and LIMIT would expose it
        direction = rng.choice(["", " DESC"])
        limit = rng.randint(1, 6)
        offset = f" OFFSET {rng.randint(0, 3)}" if rng.random() < 0.5 else ""
        where = (f"WHERE d <= {rng.randint(3, 7)} "
                 if rng.random() < 0.5 else "")
        return (f"SELECT d, a, a + d FROM t0 {where}"
                f"ORDER BY d{direction}, a, a + d LIMIT {limit}{offset}",
                True)
    # family == 10: DISTINCT over a join
    columns = rng.choice(["x.a", "y.e", "x.d, y.e"])
    return (f"SELECT DISTINCT {columns} FROM t0 x JOIN t1 y "
            f"ON x.a = y.a", False)


# -- random DML grammar -------------------------------------------------------

SET_EXPRESSIONS = ["a - d", "b * 2", "NULL", "d % 4 - a", "(a - d) % 3",
                   "b / 2"]


def generate_dml(rng, family):
    """One UPDATE or DELETE from the bounded DML grammar; statements
    of one seed run in sequence, so later families see earlier
    writes (negative values, new NULLs, deleted rows)."""
    where = f" WHERE {_predicate(rng)}" if rng.random() < 0.85 else ""
    if family == 0:  # arithmetic on a non-nullable column
        return f"UPDATE t0 SET d = d + {rng.randint(-4, 4)}{where}"
    if family == 1:  # NULL-propagating expression, possibly negative
        return f"UPDATE t0 SET b = {rng.choice(SET_EXPRESSIONS)}{where}"
    if family == 2:  # several columns at once, text literal included
        return (f"UPDATE t0 SET c = '{rng.choice(COLORS)}', "
                f"b = b + {rng.randint(1, 3)}{where}")
    if family == 3:  # filtered delete (no WHERE now and then)
        return f"DELETE FROM t0{where}"
    if family == 4:  # update keyed on the join column of t1
        return (f"UPDATE t1 SET e = e * 2 - a, f = NULL "
                f"WHERE a {rng.choice(INT_OPS)} {rng.randint(0, 9)}")
    # family == 5: delete from t1, NULL test included
    return (f"DELETE FROM t1 WHERE e {rng.choice(INT_OPS)} "
            f"{rng.randint(0, 9)} OR f IS NULL")


# -- the oracle ---------------------------------------------------------------

def canonical(rows, ordered):
    rendered = [repr(tuple(row)) for row in rows]
    return rendered if ordered else sorted(rendered)


def test_differential_oracle(oracle_seed):
    rng, database, connection = build_engines(oracle_seed)
    for case in range(QUERIES_PER_SEED):
        sql, ordered = generate_query(rng, case)
        mine = database.query(sql)
        reference = connection.execute(sql).fetchall()
        assert canonical(mine, ordered) == canonical(reference, ordered), (
            f"seed {oracle_seed}, family {case}: engines diverge on\n"
            f"  {sql}")


def test_differential_dml(oracle_seed):
    """UPDATE/DELETE families: equal row counts, and the post-state of
    every table (``SELECT *`` as a sorted list, a total order) equal
    after each statement."""
    rng, database, connection = build_engines(oracle_seed)
    for case in range(DML_PER_SEED):
        sql = generate_dml(rng, case)
        mine = database.execute(sql).rowcount
        reference = connection.execute(sql).rowcount
        assert mine == reference, (
            f"seed {oracle_seed}, DML family {case}: row counts "
            f"{mine} != {reference} for\n  {sql}")
        for table in TABLES:
            state = f"SELECT * FROM {table}"
            assert (canonical(database.query(state), False)
                    == canonical(connection.execute(state).fetchall(),
                                 False)), (
                f"seed {oracle_seed}, DML family {case}: {table} "
                f"diverges after\n  {sql}")


def test_oracle_covers_the_advertised_case_count(request):
    """CI runs at least 200 generated cases with the pinned seeds."""
    count = request.config.getoption("--seeds") or SEED_COUNT
    if count == SEED_COUNT:
        assert SEED_COUNT * QUERIES_PER_SEED >= 200


def test_generated_queries_are_deterministic_per_seed():
    """Same seed → same schema, same data, same SQL text (the oracle
    is reproducible, not merely random)."""
    def transcript(seed):
        rng, database, connection = build_engines(seed)
        lines = [database.query("SELECT count(*) FROM t0")[0][0]]
        for case in range(QUERIES_PER_SEED):
            lines.append(generate_query(rng, case))
        connection.close()
        return lines

    assert transcript(3) == transcript(3)


def test_oracle_catches_a_seeded_divergence():
    """Sanity: the comparison really can fail — skew one engine's data
    and the multisets must differ for a full-scan query."""
    _, database, connection = build_engines(0)
    database.execute("INSERT INTO t0 VALUES (99, 99, 'skew', 99)")
    mine = database.query("SELECT a, b, c, d FROM t0")
    reference = connection.execute("SELECT a, b, c, d FROM t0").fetchall()
    assert canonical(mine, False) != canonical(reference, False)

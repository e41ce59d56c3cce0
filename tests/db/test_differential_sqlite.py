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

A third set of families runs on ``t2``, a table built from its own
random stream (so the families above keep their data, SQL and plans).
Its INTEGER column ``k`` carries a hash index that the planner probes
key by key for ``k BETWEEN lo AND hi``; bounds are negative, reversed,
NULL or wider than the table now and then. Its REAL column ``r`` is
indexed too, and there the type gate must keep the scan (enumerated
integer keys would miss ``1.5``). Each of these SELECT, UPDATE and
DELETE families runs twice: in autocommit, and inside
``BEGIN ... COMMIT`` after a write of the transaction's own, which is
the MVCC-view path of the index probe; there the state is compared
before and after COMMIT.

Every family without LIMIT also runs with ``provenance=True``. Its
expected lineage comes from sqlite by a Perm-style rewrite: the same
FROM/WHERE, selecting each source table's ``rowid`` (heap rowids start
at 1 in insertion order, as sqlite's do), unioned per output row, per
group or per DISTINCT value; the NULL right side of an unmatched LEFT
JOIN row contributes nothing. The compared value is the multiset of
``(row, {(table, rowid)})``.

A fixed family replays the 23 parity queries and the provenance
queries of ``tests/db/test_vectorized.py`` over that module's data
set: rows under the rules above, and lineage unless a LIMIT has no
ORDER BY to say which rows it keeps.
One of them orders a nullable column under LIMIT, so its sqlite form
says ``NULLS LAST``, which is this engine's order.

CI pins ``SEED_COUNT`` seeds; ``pytest --seeds N`` widens or narrows
the sweep locally without touching the code.
"""

from __future__ import annotations

import random
import re
import sqlite3

import pytest

from repro.db import Database
from tests.db.test_vectorized import PARITY_QUERIES, PROVENANCE_QUERIES

pytestmark = pytest.mark.differential

SEED_COUNT = 30          # pinned for CI
QUERIES_PER_SEED = 15    # grammar families below
DML_PER_SEED = 10        # DML grammar families below
# families that run inside BEGIN ... COMMIT after a write of their own
TXN_QUERY_FAMILIES = {12, 14}
TXN_DML_FAMILIES = {7, 9}


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


# the range families' table: k is an indexed INTEGER column, r an
# indexed REAL one (column kind "r")
RANGE_TABLE = "t2"
RANGE_COLUMNS = [("k", "i", True), ("r", "r", True), ("v", "i", False)]
ALL_TABLES = [*TABLES, RANGE_TABLE]
SQL_TYPES = {"i": "integer", "t": "text", "r": "real"}


def _random_value(rng, kind, nullable):
    if nullable and rng.random() < 0.25:
        return None
    if kind == "i":
        return rng.randint(0, 9)
    if kind == "r":
        return rng.randint(-4, 24) / 2
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


def _load_table(database, connection, name, columns, rows):
    ddl_columns = ", ".join(f"{column} {SQL_TYPES[kind]}"
                            for column, kind, _ in columns)
    database.execute(f"CREATE TABLE {name} ({ddl_columns})")
    connection.execute(f"CREATE TABLE {name} ({ddl_columns})")
    values = ", ".join(
        "(" + ", ".join(_literal(v) for v in row) + ")" for row in rows)
    database.execute(f"INSERT INTO {name} VALUES {values}")
    placeholders = ", ".join("?" for _ in columns)
    connection.executemany(
        f"INSERT INTO {name} VALUES ({placeholders})", rows)


def build_engines(seed):
    rng = random.Random(seed)
    database = Database()
    connection = sqlite3.connect(":memory:")
    for name, columns in TABLES.items():
        _load_table(database, connection, name, columns,
                    _random_rows(rng, columns, rng.randint(5, 12)))
    # t2 draws from its own stream: the t0/t1 families see the same
    # data and generate the same SQL as before t2 existed
    range_rng = random.Random(1_000_003 * (seed + 1))
    rows = []
    for _ in range(range_rng.randint(8, 20)):
        k = (None if range_rng.random() < 0.2
             else range_rng.randint(-6, 14))
        rows.append((k, _random_value(range_rng, "r", True),
                     range_rng.randint(0, 9)))
    _load_table(database, connection, RANGE_TABLE, RANGE_COLUMNS, rows)
    database.execute(f"CREATE INDEX t2_k ON {RANGE_TABLE} (k)")
    database.execute(f"CREATE INDEX t2_r ON {RANGE_TABLE} (r)")
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
    if family == 10:  # DISTINCT over a join
        columns = rng.choice(["x.a", "y.e", "x.d, y.e"])
        return (f"SELECT DISTINCT {columns} FROM t0 x JOIN t1 y "
                f"ON x.a = y.a", False)
    if family in (11, 12):  # indexed INTEGER range (12: in a txn)
        extra = (f" AND v > {rng.randint(0, 6)}"
                 if rng.random() < 0.3 else "")
        return (f"SELECT k, r, v FROM t2 WHERE {_range(rng, 'k')}"
                f"{extra}", False)
    # families 13, 14: indexed REAL range, which stays a scan
    return f"SELECT k, r, v FROM t2 WHERE {_range(rng, 'r')}", False


def _range(rng, column):
    """``column BETWEEN lo AND hi`` with now and then a negative, a
    reversed, a NULL or a wider-than-the-table pair of bounds."""
    choice = rng.random()
    if choice < 0.1:
        low, high = "NULL", str(rng.randint(0, 9))
        if rng.random() < 0.5:
            low, high = high, low
        return f"{column} BETWEEN {low} AND {high}"
    if choice < 0.2:
        return f"{column} BETWEEN -1000 AND 1000"
    low = rng.randint(-8, 14)
    high = low + rng.randint(0, 6)
    if choice < 0.35:
        low, high = high, low - 1  # reversed: matches nothing
    return f"{column} BETWEEN {low} AND {high}"


def _txn_prelude(rng):
    """The transaction's own writes before its range statement, so
    the statement reads through the MVCC view with an overlay."""
    k = rng.randint(-6, 14)
    return [f"UPDATE t2 SET v = v + 10 WHERE k = {k}",
            f"INSERT INTO t2 VALUES ({rng.randint(-6, 14)}, "
            f"{rng.randint(-4, 24) / 2}, {rng.randint(0, 9)})"]


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
    if family == 5:  # delete from t1, NULL test included
        return (f"DELETE FROM t1 WHERE e {rng.choice(INT_OPS)} "
                f"{rng.randint(0, 9)} OR f IS NULL")
    if family in (6, 7):  # range update moving the indexed key itself
        return (f"UPDATE t2 SET v = v + 1, k = k + {rng.randint(-3, 3)} "
                f"WHERE {_range(rng, 'k')}")
    # families 8, 9: range delete
    return f"DELETE FROM t2 WHERE {_range(rng, 'k')}"


# -- the oracle ---------------------------------------------------------------

def canonical(rows, ordered):
    rendered = [repr(tuple(row)) for row in rows]
    return rendered if ordered else sorted(rendered)


def _begin(database, connection, prelude):
    """Open a transaction on the engine and run its own writes on
    both engines (sqlite needs no BEGIN: one connection sees its
    writes either way)."""
    database.execute("BEGIN")
    for sql in prelude:
        database.execute(sql)
        connection.execute(sql)


def test_differential_oracle(oracle_seed):
    rng, database, connection = build_engines(oracle_seed)
    for case in range(QUERIES_PER_SEED):
        sql, ordered = generate_query(rng, case)
        in_txn = case in TXN_QUERY_FAMILIES
        if in_txn:
            _begin(database, connection, _txn_prelude(rng))
        mine = database.query(sql)
        reference = connection.execute(sql).fetchall()
        if in_txn:
            database.execute("COMMIT")
        assert canonical(mine, ordered) == canonical(reference, ordered), (
            f"seed {oracle_seed}, family {case}: engines diverge on\n"
            f"  {sql}")


def _assert_same_state(database, connection, where):
    for table in ALL_TABLES:
        state = f"SELECT * FROM {table}"
        assert (canonical(database.query(state), False)
                == canonical(connection.execute(state).fetchall(),
                             False)), f"{table} diverges {where}"


def test_differential_dml(oracle_seed):
    """UPDATE/DELETE families: equal row counts, and the post-state of
    every table (``SELECT *`` as a sorted list, a total order) equal
    after each statement — inside the transaction and after COMMIT
    for the transactional families."""
    rng, database, connection = build_engines(oracle_seed)
    for case in range(DML_PER_SEED):
        sql = generate_dml(rng, case)
        where = f"after\n  {sql}\n(seed {oracle_seed}, DML family {case})"
        in_txn = case in TXN_DML_FAMILIES
        if in_txn:
            _begin(database, connection, _txn_prelude(rng))
        mine = database.execute(sql).rowcount
        reference = connection.execute(sql).rowcount
        assert mine == reference, (
            f"row counts {mine} != {reference} {where}")
        _assert_same_state(database, connection, where)
        if in_txn:
            database.execute("COMMIT")
            _assert_same_state(database, connection, f"at COMMIT {where}")


# -- the lineage oracle -------------------------------------------------------

_SELECT_SHAPE = re.compile(
    r"^SELECT (?P<distinct>DISTINCT )?(?P<items>.+?) FROM (?P<sources>.+?)"
    r"(?: WHERE (?P<where>.+?))?(?: GROUP BY (?P<group>.+?))?"
    r"(?: HAVING .+?)?(?P<order> ORDER BY .+?)?$")
_AGGREGATE_CALL = re.compile(r"\b(count|sum|min|max|avg)\(")


def _source_aliases(sources):
    """``[(table, alias)]`` of a FROM clause of the grammars here:
    comma lists and ``[LEFT] JOIN ... ON`` chains."""
    pairs = []
    for part in re.split(r",|\bLEFT JOIN\b|\bJOIN\b", sources):
        words = part.split(" ON ")[0].split()
        pairs.append((words[0], words[-1]))
    return pairs


def _lineage_pairs(connection, sql):
    """``(row, {(table, rowid)})`` pairs of one SELECT, from sqlite.

    The rewrite keeps FROM/WHERE and selects every source's rowid
    next to the select list (the group key under GROUP BY). Plain
    rows keep their ORDER BY/LIMIT, so a LIMIT over a total order
    picks the same rows; aggregates pair sqlite's own answer rows
    with the union over their group (keyed by the leading column),
    DISTINCT the union over each value."""
    shape = _SELECT_SHAPE.match(sql)
    assert shape is not None, sql
    sources = _source_aliases(shape["sources"])
    rowids = ", ".join(f"{alias}.rowid" for _, alias in sources)
    where = f" WHERE {shape['where']}" if shape["where"] else ""
    group = shape["group"]
    aggregated = group is not None or bool(
        _AGGREGATE_CALL.search(shape["items"]))
    tail = "" if aggregated or shape["distinct"] else shape["order"] or ""
    # a global aggregate's base rows carry nothing but their rowids
    select_list = group or ("NULL" if aggregated else shape["items"])
    base = connection.execute(
        f"SELECT {select_list}, {rowids} "
        f"FROM {shape['sources']}{where}{tail}").fetchall()
    width = len(sources)

    def split(row):
        refs = {(table, rowid) for (table, _), rowid
                in zip(sources, row[-width:]) if rowid is not None}
        return tuple(row[:-width]), refs

    if not aggregated and not shape["distinct"]:
        return [split(row) for row in base]
    unions = {}
    for row in base:
        values, refs = split(row)
        unions.setdefault(values if group or not aggregated else (),
                          set()).update(refs)
    if not aggregated:
        return list(unions.items())
    assert group is None or shape["items"].startswith(group), sql
    return [(row, unions.get((row[0],) if group else (), set()))
            for row in connection.execute(sql).fetchall()]


def canonical_lineage(pairs):
    """A multiset of ``(row, {(table, rowid)})`` in comparable form."""
    return sorted(repr((tuple(row), sorted(refs))) for row, refs in pairs)


def expected_lineage(connection, sql):
    """sqlite's Perm-style lineage of ``sql``; a ``UNION`` (without
    ALL) unions the branches' lineage per distinct row."""
    if " UNION " not in sql:
        return canonical_lineage(_lineage_pairs(connection, sql))
    assert " UNION ALL " not in sql, sql
    unions = {}
    for branch in sql.split(" UNION "):
        for values, refs in _lineage_pairs(connection, branch):
            unions.setdefault(values, set()).update(refs)
    return canonical_lineage(unions.items())


def engine_lineage(database, sql):
    result = database.execute(sql, True)
    return canonical_lineage(
        (row, {(ref.table, ref.rowid) for ref in lineage})
        for row, lineage in zip(result.rows, result.lineages))


def test_differential_lineage(oracle_seed):
    """Every SELECT family without LIMIT, under provenance: the
    engine's lineage equals sqlite's Perm-style rewrite, inside the
    transaction for the transactional families."""
    rng, database, connection = build_engines(oracle_seed)
    for case in range(QUERIES_PER_SEED):
        sql, _ordered = generate_query(rng, case)
        in_txn = case in TXN_QUERY_FAMILIES
        if in_txn:
            _begin(database, connection, _txn_prelude(rng))
        if " LIMIT " not in sql:
            assert (engine_lineage(database, sql)
                    == expected_lineage(connection, sql)), (
                f"seed {oracle_seed}, family {case}: lineage diverges "
                f"on\n  {sql}")
        if in_txn:
            database.execute("COMMIT")


# sqlite sorts NULL first ascending; this engine sorts it last
PARITY_SQLITE_FORMS = {
    "SELECT b FROM t ORDER BY b LIMIT 25 OFFSET 3":
        "SELECT b FROM t ORDER BY b NULLS LAST LIMIT 25 OFFSET 3",
}


@pytest.fixture(scope="module")
def parity_engines():
    """The parity data set of ``tests/db/test_vectorized.py``, copied
    row by row in rowid order into sqlite (so rowids agree)."""
    # deferred: that module imports this one's grammar
    from tests.db.test_differential_parallel import build_parity_db
    database = build_parity_db(False)
    connection = sqlite3.connect(":memory:")
    for table in ("t", "small"):
        result = database.execute(f"SELECT * FROM {table}")
        ddl = ", ".join(f"{column.name} {column.sql_type.value}"
                        for column in result.schema.columns)
        connection.execute(f"CREATE TABLE {table} ({ddl})")
        placeholders = ", ".join("?" for _ in result.schema.columns)
        connection.executemany(
            f"INSERT INTO {table} VALUES ({placeholders})", result.rows)
    return database, connection


# a LIMIT (or ORDER BY) after a UNION binds to the last branch only
# in this engine; SQL, and sqlite, apply it to the whole compound
TRAILING_LIMIT_ON_UNION = (
    "SELECT grp FROM t UNION ALL SELECT k FROM small LIMIT 9")


@pytest.mark.parametrize("sql", [
    pytest.param(sql, marks=pytest.mark.xfail(
        strict=True, reason="LIMIT after UNION binds to the last branch"))
    if sql == TRAILING_LIMIT_ON_UNION else sql
    for sql in dict.fromkeys(PARITY_QUERIES + PROVENANCE_QUERIES)])
def test_parity_queries_match_sqlite(parity_engines, sql):
    """Rows compare as in :func:`test_differential_oracle` (lists
    under ORDER BY, which every parity ORDER BY makes total), lineage
    wherever a LIMIT has an ORDER BY to say which rows it keeps."""
    database, connection = parity_engines
    reference_sql = PARITY_SQLITE_FORMS.get(sql, sql)
    ordered = " ORDER BY " in sql
    mine = database.query(sql)
    reference = connection.execute(reference_sql).fetchall()
    assert canonical(mine, ordered) == canonical(reference, ordered)
    if " LIMIT " not in sql or ordered:
        assert (engine_lineage(database, sql)
                == expected_lineage(connection, reference_sql))


def test_oracle_catches_a_seeded_lineage_divergence(parity_engines):
    """Sanity: a join that drops one side's lineage must fail the
    lineage comparison, although its rows are right."""
    database, connection = parity_engines
    sql = ("SELECT t.k, small.label FROM t, small "
           "WHERE t.k = small.k AND t.a < 70")
    result = database.execute(sql, True)
    dropped = canonical_lineage(
        (row, {(ref.table, ref.rowid) for ref in lineage
               if ref.table != "small"})
        for row, lineage in zip(result.rows, result.lineages))
    assert engine_lineage(database, sql) == expected_lineage(connection,
                                                             sql)
    assert dropped != expected_lineage(connection, sql)


def test_range_families_reach_the_index_probe():
    """The range families are a referee for the probe path only if
    they plan it: across a few seeds the INTEGER family plans
    IndexScan, and the REAL family never does."""
    probed = 0
    for seed in range(8):
        rng, database, connection = build_engines(seed)
        for case in range(QUERIES_PER_SEED):
            sql, _ = generate_query(rng, case)
            if case in TXN_QUERY_FAMILIES:
                _txn_prelude(rng)
            if case not in (11, 13):
                continue
            plan = "\n".join(
                row[0] for row in database.execute(f"EXPLAIN {sql}").rows)
            if case == 13:
                assert "IndexScan" not in plan, sql
            elif "IndexScan on t2 using t2_k" in plan:
                probed += 1
        connection.close()
    assert probed >= 3


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

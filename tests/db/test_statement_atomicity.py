"""A failing INSERT or UPDATE leaves no effect, as in sqlite3.

Both statements below write one row that is fine and then collide on
the primary key with a later row. The engine must take back the first
write too: in the live instance, in what a reopen of the data
directory recovers without ``close()`` (the WAL), and in what
``close()`` checkpoints into the table files. Inside ``BEGIN ...
COMMIT`` the partial write must not linger in the write-set and
commit. The post-state is compared with sqlite3's.
"""

from __future__ import annotations

import sqlite3

import pytest

from repro.db import Database
from repro.errors import IntegrityError

SETUP = [
    "CREATE TABLE t (id integer primary key, v integer)",
    "INSERT INTO t VALUES (1, 10), (2, 20), (3, 30)",
]

FAILING = {
    "insert": "INSERT INTO t VALUES (4, 40), (1, 11)",
    "update": "UPDATE t SET id = 7 WHERE id BETWEEN 1 AND 2",
}

STATE = "SELECT id, v FROM t ORDER BY id"


def _run(execute, statement, scope, error):
    if scope == "transaction":
        execute("BEGIN")
    with pytest.raises(error):
        execute(statement)
    if scope == "transaction":
        execute("COMMIT")


def _sqlite_state(statement, scope):
    connection = sqlite3.connect(":memory:", isolation_level=None)
    for sql in SETUP:
        connection.execute(sql)
    _run(connection.execute, statement, scope, sqlite3.IntegrityError)
    return connection.execute(STATE).fetchall()


@pytest.mark.parametrize("view", ["live", "reopen", "close-reopen"])
@pytest.mark.parametrize("scope", ["autocommit", "transaction"])
@pytest.mark.parametrize("kind", ["insert", "update"])
def test_failing_statement_leaves_no_effect(tmp_path, kind, scope, view):
    statement = FAILING[kind]
    database = Database(data_directory=tmp_path)
    for sql in SETUP:
        database.execute(sql)
    _run(database.execute, statement, scope, IntegrityError)
    if view == "reopen":
        # the first instance is never closed: recovery reads the WAL
        database = Database(data_directory=tmp_path)
    elif view == "close-reopen":
        database.close()
        database = Database(data_directory=tmp_path)
    assert database.query(STATE) == _sqlite_state(statement, scope)
    # the statement's rows are really gone: writing them again works
    database.execute("INSERT INTO t VALUES (4, 40), (7, 70)")
    assert database.query(STATE) == [(1, 10), (2, 20), (3, 30), (4, 40),
                                     (7, 70)]

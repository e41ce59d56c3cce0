"""Checkpoints that skip unchanged tables.

A checkpoint rewrites only the table files whose contents moved since
this database last wrote them (or that are missing). The unit tests
pin down what is skipped and what is not; the crash matrix crashes at
every checkpoint point of a checkpoint that skips tables, recovers,
checkpoints the recovered database, and requires the directory to be
byte-identical to a twin whose every checkpoint rewrote every table.
"""

from __future__ import annotations

import shutil
import tempfile
from pathlib import Path

import pytest

from repro.db import Database
from repro.db.chaos import tree_bytes
from repro.faults import FaultInjector, FaultyIO, SimulatedCrash


def table_writes(injector: FaultInjector, since: int = 0) -> int:
    return sum(1 for point, _ in injector.trace[since:]
               if point == "checkpoint.table.write")


class TestSkipping:
    def make(self, tmp_path):
        injector = FaultInjector()
        database = Database(data_directory=tmp_path / "d",
                            io=FaultyIO(injector))
        for name in ("a", "b", "c"):
            database.execute(f"CREATE TABLE {name} (k integer)")
            database.execute(f"INSERT INTO {name} VALUES (1), (2)")
        database.checkpoint()
        return database, injector

    def test_only_changed_tables_are_rewritten(self, tmp_path):
        database, injector = self.make(tmp_path)
        assert table_writes(injector) == 3
        mark = len(injector.trace)
        database.execute("UPDATE b SET k = 5 WHERE k = 1")
        database.checkpoint()
        assert table_writes(injector, mark) == 1
        mark = len(injector.trace)
        database.checkpoint()
        assert table_writes(injector, mark) == 0

    def test_index_ddl_rewrites_the_table(self, tmp_path):
        database, injector = self.make(tmp_path)
        mark = len(injector.trace)
        database.execute("CREATE INDEX ix_c ON c (k)")
        database.checkpoint()
        assert table_writes(injector, mark) == 1
        assert b"ix_c" in (tmp_path / "d" / "c.tbl").read_bytes()

    def test_missing_file_is_rewritten(self, tmp_path):
        database, injector = self.make(tmp_path)
        (tmp_path / "d" / "a.tbl").unlink()
        database.checkpoint()
        assert ((tmp_path / "d" / "a.tbl").read_text()
                == database.catalog.get_table("a").serialize())

    def test_recreated_table_is_rewritten(self, tmp_path):
        database, injector = self.make(tmp_path)
        database.execute("DROP TABLE a")
        database.execute("CREATE TABLE a (k integer)")
        database.checkpoint()
        assert ((tmp_path / "d" / "a.tbl").read_text()
                == database.catalog.get_table("a").serialize())

    def test_first_checkpoint_after_open_rewrites_every_table(
            self, tmp_path):
        database, _ = self.make(tmp_path)
        database.close()
        injector = FaultInjector()
        reopened = Database(data_directory=tmp_path / "d",
                            io=FaultyIO(injector))
        reopened.checkpoint()
        assert table_writes(injector) == 3

    def test_skipped_checkpoint_matches_a_full_one(self, tmp_path):
        """A rolled-back insert reserves a rowid without moving the
        table's data version; the skip test still sees it, so the
        file records the advanced rowid counter."""
        database, _ = self.make(tmp_path)
        database.execute("BEGIN")
        database.execute("INSERT INTO c VALUES (9)")
        database.execute("ROLLBACK")
        database.execute("UPDATE a SET k = 7 WHERE k = 2")
        database.checkpoint()
        for name in ("a", "b", "c"):
            assert ((tmp_path / "d" / f"{name}.tbl").read_text()
                    == database.catalog.get_table(name).serialize())
        assert '"next_rowid":4' in (tmp_path / "d" / "c.tbl").read_text()


# -- crash matrix -------------------------------------------------------------

# one full checkpoint, then changes to some tables only: the second
# checkpoint rewrites a (data), c (index DDL) and drops e, and skips b
# and d
SETUP = [
    "CREATE TABLE a (id integer PRIMARY KEY, v integer)",
    "CREATE TABLE b (id integer, note text)",
    "CREATE TABLE c (id integer, v integer)",
    "CREATE TABLE d (x float)",
    "CREATE TABLE e (x integer)",
    "INSERT INTO a VALUES (1, 10), (2, 20), (3, 30)",
    "INSERT INTO b VALUES (1, 'kept'), (2, 'kept')",
    "INSERT INTO c VALUES (1, 1), (2, 2)",
    "INSERT INTO d VALUES (1.5)",
    "INSERT INTO e VALUES (1)",
    "CHECKPOINT",
]
CHANGES = [
    "UPDATE a SET v = v + 1 WHERE id BETWEEN 2 AND 3",
    "DELETE FROM a WHERE id = 1",
    "CREATE INDEX ix_c ON c (v)",
    "DROP TABLE e",
]


def run(database, statements):
    for sql in statements:
        if sql == "CHECKPOINT":
            database.checkpoint()
        else:
            database.execute(sql)


def full_checkpoint_twin(data_dir: Path) -> None:
    """The workload with checkpoints that rewrite every table."""
    database = Database(data_directory=data_dir)
    run(database, SETUP)
    run(database, CHANGES)
    database.catalog._saved.clear()
    database.checkpoint()


def _discover() -> list[tuple[str, int]]:
    """Every checkpoint point the skipping checkpoint passes through."""
    root = tempfile.mkdtemp(prefix="ldv-skip-discovery-")
    try:
        injector = FaultInjector()
        database = Database(data_directory=Path(root) / "d",
                            io=FaultyIO(injector))
        run(database, SETUP)
        run(database, CHANGES)
        mark = len(injector.trace)
        database.checkpoint()
        points = [entry for entry in injector.trace[mark:]
                  if entry[0].startswith("checkpoint.")]
        # the checkpoint really skipped tables
        assert table_writes(injector, mark) == 2
        return points
    finally:
        shutil.rmtree(root, ignore_errors=True)


SKIP_POINTS = _discover()


@pytest.mark.crash
@pytest.mark.parametrize(
    ("point", "occurrence"), SKIP_POINTS,
    ids=[f"{point}@{occurrence}" for point, occurrence in SKIP_POINTS])
def test_crash_in_a_skipping_checkpoint(tmp_path, point, occurrence):
    full_checkpoint_twin(tmp_path / "twin")
    injector = FaultInjector().crash_at(point, occurrence=occurrence)
    database = Database(data_directory=tmp_path / "d",
                        io=FaultyIO(injector))
    run(database, SETUP)
    run(database, CHANGES)
    with pytest.raises(SimulatedCrash):
        database.checkpoint()
    recovered = Database(data_directory=tmp_path / "d")
    recovered.checkpoint()
    assert tree_bytes(tmp_path / "d") == tree_bytes(tmp_path / "twin")

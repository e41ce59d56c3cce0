"""Schema catalog: the set of tables known to a database instance.

It also decides when cached state is stale: each managed table carries
a :class:`TableVersion` (``data``, ``schema``, ``stats``,
``partition``) drawn from one catalog-wide :class:`VersionClock`.
``data`` moves in the heap's single mutation hook; the others only on
this module's DDL, statistics and partition paths. Caches record the
fields they depend on and serve an entry only while those still match;
as the clock never rewinds, a recreated table never repeats a version.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator

from repro.db.mvcc import MVCCState
from repro.db.scancache import ScanCache
from repro.db.stats import TableStats
from repro.db.storage import DataDirectory, HeapTable
from repro.db.types import Schema
from repro.errors import CatalogError


class VersionClock:
    """The catalog-wide version source; ``now`` is the last version
    handed out, so it moves on every change to any table."""

    __slots__ = ("now",)

    def __init__(self) -> None:
        self.now = 0

    def next(self) -> int:
        self.now += 1
        return self.now


class TableVersion:
    """One table's version record. A new record takes a fresh clock
    value in every field, so a (re)installed table matches nothing
    cached before it."""

    __slots__ = ("clock", "data", "schema", "stats", "partition")

    def __init__(self, clock: VersionClock) -> None:
        self.clock = clock
        self.data = self.schema = self.stats = self.partition = clock.next()


class Catalog:
    """Name → table mapping with optional data-directory backing.

    The catalog owns the database-wide :class:`MVCCState`, the columnar
    :class:`ScanCache` and the :class:`VersionClock`, and wires all
    three into every table it manages (:meth:`install_table`).
    """

    def __init__(self, data_directory: DataDirectory | None = None) -> None:
        self._tables: dict[str, HeapTable] = {}
        self.data_directory = data_directory
        self.clock = VersionClock()
        self.mvcc = MVCCState()
        self.scan_cache = ScanCache()
        # ANALYZE statistics, table name → TableStats (advisory: the
        # planner falls back to rote heuristics for absent entries)
        self.stats: dict[str, TableStats] = {}
        # table name -> the _saved_stamp its file was last written at
        self._saved: dict[str, tuple] = {}
        if data_directory is not None:
            for name in data_directory.table_names():
                self.install_table(data_directory.load_table(name))

    def install_table(self, table: HeapTable) -> HeapTable:
        """Make a heap a managed table (new tables, data-directory
        loads, PTU restore), replacing any table of the same name along
        with its statistics."""
        table.mvcc = self.mvcc
        table.scan_cache = self.scan_cache
        table.version_record = TableVersion(self.clock)
        self._tables[table.name] = table
        self.stats.pop(table.name, None)
        return table

    def _bump(self, table: HeapTable, field: str) -> None:
        setattr(table.version_record, field, self.clock.next())

    def create_table(self, name: str, schema: Schema,
                     if_not_exists: bool = False) -> HeapTable:
        key = name.lower()
        if key in self._tables:
            if if_not_exists:
                return self._tables[key]
            raise CatalogError(f"table {name!r} already exists")
        return self.install_table(HeapTable(key, schema))

    def drop_table(self, name: str, if_exists: bool = False) -> None:
        key = name.lower()
        if key not in self._tables:
            if if_exists:
                return
            raise CatalogError(f"table {name!r} does not exist")
        del self._tables[key]
        self.stats.pop(key, None)
        self._saved.pop(key, None)
        # disk removal is deferred to flush()/sync_drops(): destroying
        # durable state belongs to the checkpoint, after the DROP has
        # been committed to the WAL — an uncommitted DROP must be
        # recoverable

    def stamp(self, names: Iterable[str],
              fields: Callable[[TableVersion], tuple]) -> tuple:
        """The current ``fields`` (an ``attrgetter`` over
        :class:`TableVersion`) of each named table, ``None`` for a
        missing one: what a cache records and later compares."""
        tables = self._tables
        return tuple(None if (table := tables.get(name)) is None
                     else fields(table.version_record)
                     for name in names)

    def get_table(self, name: str) -> HeapTable:
        table = self._tables.get(name.lower())
        if table is None:
            raise CatalogError(f"table {name!r} does not exist")
        return table

    def has_table(self, name: str) -> bool:
        return name.lower() in self._tables

    def table_names(self) -> list[str]:
        return sorted(self._tables)

    # -- planner statistics ------------------------------------------------------

    def set_stats(self, name: str, stats: TableStats) -> None:
        """Install ANALYZE statistics for a table; plans costed against
        the previous statistics stop matching its ``stats`` version."""
        table = self.get_table(name)
        self.stats[table.name] = stats
        self._bump(table, "stats")

    def stats_for(self, name: str) -> TableStats | None:
        return self.stats.get(name.lower())

    def dump_stats(self) -> dict[str, dict]:
        """JSON-ready snapshot of all statistics (checkpoint meta)."""
        return {name: stats.to_dict()
                for name, stats in sorted(self.stats.items())}

    def load_stats(self, dumped: dict[str, dict]) -> None:
        """Restore checkpointed statistics (tables only — entries for
        tables the catalog no longer knows are dropped)."""
        for name, entry in dumped.items():
            if name.lower() in self._tables:
                self.set_stats(name, TableStats.from_dict(entry))

    # -- indexes and hash partitioning -------------------------------------------

    def create_index(self, table_name: str, index_name: str, column: str,
                     if_not_exists: bool = False):
        table = self.get_table(table_name)
        index = table.create_index(index_name, column, if_not_exists)
        self._bump(table, "schema")
        return index

    def drop_index(self, index_name: str) -> HeapTable:
        """Drop a (globally unique) index; returns the table it was on."""
        table = self.table_of_index(index_name)
        table.drop_index(index_name)
        self._bump(table, "schema")
        return table

    def set_partitioning(self, name: str, column: str | None,
                         count: int = 0) -> HeapTable:
        """Declare (or, with ``column=None``, clear) hash partitioning."""
        table = self.get_table(name)
        if column is None:
            table.clear_partitioning()
        else:
            table.set_partitioning(column, count)
        self._bump(table, "partition")
        return table

    def dump_partitions(self) -> dict[str, dict]:
        """JSON-ready snapshot of partition specs (checkpoint meta).

        Partitioning deliberately lives outside the ``.tbl`` files so
        declaring or changing it never alters packaged table bytes."""
        return {
            name: table.partition_spec.to_dict()
            for name, table in sorted(self._tables.items())
            if table.partition_spec is not None
        }

    def load_partitions(self, dumped: dict[str, dict]) -> None:
        """Restore checkpointed partition specs, rebuilding bucket
        membership from the loaded heaps (entries for tables the
        catalog no longer knows are dropped)."""
        for name, entry in dumped.items():
            if name.lower() in self._tables:
                self.set_partitioning(name, entry["column"],
                                      int(entry["count"]))

    def table_of_index(self, index_name: str) -> HeapTable:
        """Find the table holding a (globally unique) index name."""
        wanted = index_name.lower()
        for table in self._tables.values():
            if wanted in table.indexes:
                return table
        raise CatalogError(f"index {index_name!r} does not exist")

    def has_index(self, index_name: str) -> bool:
        wanted = index_name.lower()
        return any(wanted in table.indexes
                   for table in self._tables.values())

    def __iter__(self) -> Iterator[HeapTable]:
        for name in sorted(self._tables):
            yield self._tables[name]

    # -- persistence -----------------------------------------------------------

    def flush(self) -> None:
        """Checkpoint: write every table whose file is stale to the
        data directory, then delete files for tables dropped since the
        last one.

        A table is skipped when its file exists and nothing the file
        holds has moved since this catalog last wrote it (see
        :meth:`_saved_stamp`). The first checkpoint after opening a
        directory therefore rewrites every table."""
        if self.data_directory is None:
            return
        for table in self._tables.values():
            if (self._saved.get(table.name) != self._saved_stamp(table)
                    or not self.data_directory.has_table_file(table.name)):
                self._save(table)
        self.sync_drops()

    def flush_table(self, name: str) -> None:
        if self.data_directory is None:
            return
        self._save(self.get_table(name))

    def _save(self, table: HeapTable) -> None:
        stamp = self._saved_stamp(table)
        self.data_directory.save_table(table)
        self._saved[table.name] = stamp

    @staticmethod
    def _saved_stamp(table: HeapTable) -> tuple:
        """What a table file depends on: the ``data`` version (rows,
        row versions), the ``schema`` version (index DDL) and the rowid
        counter, which a transactional insert advances without moving
        ``data`` and an aborted one never gives back. A recreated table
        has a fresh version record, so it never matches an old save."""
        record = table.version_record
        return (record.data, record.schema, table.next_rowid)

    def sync_drops(self) -> None:
        """Remove on-disk files of tables no longer in the catalog."""
        if self.data_directory is None:
            return
        for name in self.data_directory.table_names():
            if name not in self._tables:
                self.data_directory.drop_table(name)

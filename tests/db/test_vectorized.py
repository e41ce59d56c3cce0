"""Vectorized engine: RowBatch mechanics, pinned answers, and
provenance byte-identity.

The batch operators are the engine's only operator family. Every
query here answers with the same rows, the same lineage sets and the
same bytes on the wire as the retired tuple-at-a-time engine did:
those answers are pinned as digests of the encoded result frame.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.db import Database
from repro.db.executor import BATCH_SIZE, RowBatch
from repro.db.protocol import encode_frame, result_to_wire
from repro.db.provtypes import EMPTY_LINEAGE, TupleRef
from repro.errors import ExecutionError
from repro.workloads.halos import build_world
from repro.workloads.tpch.dbgen import TPCHConfig, TPCHGenerator
from repro.workloads.tpch.queries import q1_sql, q3_sql, q4_sql
from tests.db.expression_oracle import assert_expressions_match_reference


# -- RowBatch mechanics -------------------------------------------------------

class TestRowBatch:
    def test_identity_selection_rows(self):
        batch = RowBatch([[1, 2, 3], ["a", "b", "c"]], 3)
        assert batch.rows() == [(1, "a"), (2, "b"), (3, "c")]
        assert len(batch) == 3

    def test_selection_vector_filters_rows(self):
        batch = RowBatch([[1, 2, 3], ["a", "b", "c"]], 3, sel=[0, 2])
        assert batch.rows() == [(1, "a"), (3, "c")]
        assert len(batch) == 2

    def test_zero_width_rows_respect_selection(self):
        batch = RowBatch([], 4, sel=[1, 3])
        assert batch.rows() == [(), ()]

    def test_no_annotations_stay_none(self):
        batch = RowBatch([[1, 2]], 2, sel=[1])
        assert batch.gathered_lineages() is None
        assert batch.picked_lineages() == [EMPTY_LINEAGE]

    def test_annotations_gather_through_selection(self):
        ref_a = frozenset({TupleRef("t", 1, 1)})
        ref_b = frozenset({TupleRef("t", 2, 1)})
        batch = RowBatch([[1, 2]], 2, lineages=[ref_a, ref_b], sel=[1])
        assert batch.gathered_lineages() == [ref_b]

    def test_slice_refines_selection(self):
        batch = RowBatch([[10, 11, 12, 13]], 4)
        part = batch.slice(1, 3)
        assert part.rows() == [(11,), (12,)]
        # the underlying columns are shared, not copied
        assert part.columns is batch.columns


# -- batch/row parity ---------------------------------------------------------
#
# The row-at-a-time engine, running interpreted expressions, was the
# reference these queries were compared against byte for byte; it is
# deleted, and its answers stay here as sha256 digests of the encoded
# result frame (recorded while both engines agreed, and stable across
# processes and hash seeds). The expression-level half of that
# reference lives on in ``tests/db/expression_oracle.py``; rows and
# lineage are refereed by sqlite in ``test_differential_sqlite.py``.

def wire_digest(result):
    return hashlib.sha256(
        encode_frame(result_to_wire(result)).encode()).hexdigest()


def run_fresh(database, sql, provenance=False):
    """Execute with a freshly planned tree (no plan-cache hit)."""
    database.plan_cache.clear()
    result = database.execute(sql, provenance)
    database.plan_cache.clear()
    return result


@pytest.fixture(scope="module")
def parity_db():
    database = Database()
    database.execute(
        "CREATE TABLE t (k integer, grp integer, a integer, b float, "
        "name text)")
    database.execute("CREATE TABLE small (k integer, label text)")
    rows = []
    for k in range(700):
        b_text = "NULL" if k % 7 == 0 else str(k * 0.5)
        name = "NULL" if k % 11 == 0 else f"'name{k % 13}'"
        rows.append(f"({k}, {k % 5}, {(k * 37) % 100}, {b_text}, {name})")
    database.execute("INSERT INTO t VALUES " + ", ".join(rows))
    database.execute(
        "INSERT INTO small VALUES " + ", ".join(
            f"({k}, 'L{k}')" for k in range(0, 40)))
    return database


PARITY_QUERIES = [
    "SELECT k, a FROM t WHERE a < 30",
    "SELECT k + a, a * 2, -k FROM t WHERE k % 3 = 0 AND a >= 10",
    "SELECT k FROM t WHERE b IS NULL OR a > 90",
    "SELECT k FROM t WHERE a BETWEEN 20 AND 40",
    "SELECT k FROM t WHERE a NOT BETWEEN 20 AND 80",
    "SELECT k, name FROM t WHERE name LIKE 'name1%'",
    "SELECT k FROM t WHERE grp IN (1, 3)",
    "SELECT k FROM t WHERE grp NOT IN (0, 2, 4)",
    "SELECT k FROM t WHERE grp IN (1, NULL)",
    "SELECT k FROM t WHERE CASE WHEN a < 50 THEN grp ELSE 0 END = 1",
    "SELECT coalesce(b, -1.0), abs(a - 50) FROM t WHERE k < 100",
    "SELECT grp, count(*), count(b), sum(a), min(b), max(name) "
    "FROM t GROUP BY grp",
    "SELECT grp, avg(a) FROM t WHERE a > 10 GROUP BY grp "
    "HAVING count(*) > 50",
    "SELECT count(*), sum(b) FROM t",
    "SELECT DISTINCT grp, a % 2 FROM t",
    "SELECT t.k, small.label FROM t, small "
    "WHERE t.k = small.k AND t.a < 70",
    "SELECT t.k, small.label FROM t LEFT JOIN small ON t.k = small.k "
    "WHERE t.k < 60",
    "SELECT small.label, count(*), sum(t.a) FROM t, small "
    "WHERE t.grp = small.k GROUP BY small.label",
    "SELECT k, a FROM t ORDER BY a DESC, k LIMIT 17",
    "SELECT b FROM t ORDER BY b LIMIT 25 OFFSET 3",
    "SELECT k FROM t WHERE a < 5 UNION SELECT k FROM small WHERE k > 35",
    "SELECT grp FROM t UNION ALL SELECT k FROM small LIMIT 9",
    "SELECT k FROM t WHERE 1 = 0",
]
# one per PARITY_QUERIES entry, in order
PARITY_DIGESTS = [
    "1ff539165d6610923fdc033645a7fa39524621765a9f95cc520640972c731ad7",
    "9572187ed2062c04fe42c37b265585d194d46c5e82027f188b08b9b3455cd68c",
    "cdd647067ae2d7b7a4804f7ae67db8fdf9ec2704d1b2e1875ab4c8f44077e99a",
    "8346bd01a5a106a4195db2cc2eddce06580b4a87f066d41c918d26b16b7e3d31",
    "6a5418e947fc2e122d4f1a4a1204b41a9ca505ecc5b13180d121c8bf4f7dddc9",
    "6ecce95fd4fe9012ba01c8958beb0a5ca598c0e241db757f135b84c360240b0c",
    "da54a820d1e756d24221bfae3b78f2fcea6b7aee96db41510993faa4841efa13",
    "da54a820d1e756d24221bfae3b78f2fcea6b7aee96db41510993faa4841efa13",
    "8698d8698b8234ac7a8ce013e404793f51a5c18b1ba5071f3776f5cb9861a0b6",
    "b6f92c8edc9df584c229a903dce4ce79bff83f430ce9256101b1f675406717c1",
    "5a66dada4e860d78ac9ae52d95e1d9938158132f02e34a1b0b0a3d9984e1d65c",
    "47b06e2204480974463264ebd50a796fda4701ff45d3a9f016147dbde2355190",
    "bfd524753b145c07ae6c9f1764f42a4ce798cf43884772220df54a3956adc26a",
    "efbc6057795636ed943fa20933b98cc5e3d4c04a0d200bee4ee3ddcc421e561d",
    "5dd97ce662c1ac5ec6a9edee1d460ca19c5550f74504d851dc9ee025b90067a9",
    "b6d088f84e47de9a9c0e942027c8e9c3237b495be0897f3863fcda90f7cfae1f",
    "22d18abb77ed2d7eb34b76ce682468627ea2a531020c11d4b29eb30e42c20c43",
    "5174e60952cda531c4917d4b81cbdc95d802c144e7288e02b86d4c89cf3f40a6",
    "37d577576d533f93471716658bcfa1b3f5dee18ef550e70617394288110f52c1",
    "04f6322ae1bcb6cf2010daa025bb278cf97a3f1a75be1adda19b73e3125c6608",
    "66ff19acf872d07c0daf419281e43fa5626ab9362d9749f57670d9ca40f9e3ec",
    "b06e4be2b3f2f4951b92b090755ec7a8cc71c6354cb408ea9498339f15b21282",
    "45b39e38cc3bd412deef6225124d4eec27d18f807bfef60c7d1c414b4f4132b5",
]


PROVENANCE_QUERIES = [
    "SELECT k, a FROM t WHERE a < 30",
    "SELECT t.k, small.label FROM t, small WHERE t.k = small.k",
    "SELECT grp, count(*), sum(a) FROM t WHERE a < 80 GROUP BY grp",
    "SELECT DISTINCT grp FROM t WHERE b IS NOT NULL",
    "SELECT k, a FROM t ORDER BY a, k LIMIT 40",
]
# one per PROVENANCE_QUERIES entry, in order
PROVENANCE_DIGESTS = [
    "c70cba3be0a820812641fe7072a55bbfedecad327ae3a1ced0258e9f0d93bef2",
    "ea724028935fa2919f944336e8899194d577e6d18da40eb0baa60682e06d5a59",
    "3a4871b387af94043b5dc006acf5de6dc2f9fa7890f401949e59b1c045f9e696",
    "c50cc1f2098d9cb7d069558054c7668a000725f8c9fb091abf9a69b51732bdad",
    "c7a0a5fe48a3a98df57512f7cf5ec157d4c1db7a59afdfff89b3fc58d78be209",
]


@pytest.mark.parametrize("sql", PARITY_QUERIES)
def test_batch_row_parity(parity_db, sql):
    digest = dict(zip(PARITY_QUERIES, PARITY_DIGESTS))[sql]
    assert wire_digest(run_fresh(parity_db, sql)) == digest


@pytest.mark.parametrize("sql", PARITY_QUERIES)
def test_expressions_match_the_interpreter(parity_db, sql):
    assert_expressions_match_reference(parity_db, sql)


@pytest.mark.parametrize("sql", PROVENANCE_QUERIES)
def test_batch_row_parity_with_provenance(parity_db, sql):
    digest = dict(zip(PROVENANCE_QUERIES, PROVENANCE_DIGESTS))[sql]
    result = run_fresh(parity_db, sql, provenance=True)
    assert any(result.lineages)
    assert wire_digest(result) == digest


def test_error_parity_on_bad_comparison(parity_db):
    parity_db.plan_cache.clear()
    with pytest.raises(ExecutionError) as info:
        parity_db.execute("SELECT k FROM t WHERE name > 5")
    parity_db.plan_cache.clear()
    assert type(info.value) is ExecutionError
    assert str(info.value) == "cannot compare 'name1' and 5"


def test_mixed_type_sort_fails_identically(parity_db):
    sql = ("SELECT CASE WHEN k % 2 = 0 THEN name ELSE k END AS v "
           "FROM t WHERE k < 10 ORDER BY v")
    parity_db.plan_cache.clear()
    with pytest.raises(TypeError) as info:
        parity_db.execute(sql)
    parity_db.plan_cache.clear()
    assert type(info.value) is TypeError
    assert str(info.value) == (
        "'<' not supported between instances of 'str' and 'int'")


def test_multi_batch_inputs_chunk_and_reassemble():
    """700 rows with BATCH_SIZE 1024 is one batch; force several."""
    database = Database()
    database.execute("CREATE TABLE wide (n integer)")
    count = BATCH_SIZE * 2 + 17
    database.execute("INSERT INTO wide VALUES " + ", ".join(
        f"({n})" for n in range(count)))
    result = run_fresh(
        database, "SELECT n FROM wide WHERE n % 10 < 3 ORDER BY n DESC")
    assert result.rows == [(n,) for n in reversed(range(count))
                           if n % 10 < 3]
    assert wire_digest(result) == (
        "0721d465ec3b2e0bbac31ad7ab453835990ef1a35d3bbfd417750964e3520abc")


# -- provenance byte-identity on real workloads -------------------------------

HALOS_MATCHER_SQL = (
    "SELECT c.halo_id, c.cell_x, c.cell_y, o.obs_id, o.brightness "
    "FROM candidates c, observations o "
    "WHERE c.cell_x = o.cell_x AND c.cell_y = o.cell_y "
    "AND o.brightness > 0.5 ORDER BY c.halo_id, o.obs_id")


def test_halos_matcher_provenance_identical():
    world = build_world(n_particles=300, n_observations=400)
    database = world.database
    database.execute(
        "INSERT INTO candidates VALUES " + ", ".join(
            f"({halo_id}, {halo_id % 20}, {(halo_id * 3) % 20}, "
            f"{3 + halo_id})"
            for halo_id in range(1, 15)))
    result = run_fresh(database, HALOS_MATCHER_SQL, provenance=True)
    assert result.rows  # the join actually matched something
    assert all(lineage for lineage in result.lineages)
    assert wire_digest(result) == (
        "fc683d867d8ec511f3f650dc5b8f8915bc65dbf5b127623f3a11edb621b4de29")


@pytest.fixture(scope="module")
def tpch_db():
    database = Database()
    TPCHGenerator(TPCHConfig(scale_factor=0.001)).generate_into(database)
    return database


TPCH_DIGESTS = {
    q1_sql(25):
        "09d9e1665c7e76f807c093f20e969db6d15686df42a3c7166e2bf5ea377cd0fa",
    q3_sql(6):
        "c0d4758da84daf1e269b0a47d2895cfd74b96f63fd5deb0882de819d29cf12e2",
    q4_sql(10):
        "a67a9aca0e8a104803de30888e02c0adf1641a9a118eae1ef8861077882f6f70",
}


@pytest.mark.parametrize("sql", list(TPCH_DIGESTS))
def test_tpch_provenance_identical(tpch_db, sql):
    result = run_fresh(tpch_db, sql, provenance=True)
    assert result.rows
    assert wire_digest(result) == TPCH_DIGESTS[sql]


# -- EXPLAIN integration ------------------------------------------------------

def explain_text(database, sql):
    result = database.execute(sql)
    return "\n".join(row[0] for row in result.rows)


@pytest.fixture
def explain_db():
    database = Database()
    database.execute("CREATE TABLE big (x integer, y integer)")
    database.execute("CREATE TABLE tiny (x integer, tag text)")
    database.execute("INSERT INTO big VALUES " + ", ".join(
        f"({n}, {n % 10})" for n in range(200)))
    database.execute("INSERT INTO tiny VALUES (1, 'a'), (2, 'b')")
    return database


class TestExplain:
    def test_fused_pipeline_is_one_node(self, explain_db):
        text = explain_text(
            explain_db, "EXPLAIN SELECT x + 1 FROM big WHERE x > 5")
        assert "FusedScanFilterProject" in text
        assert "Batch" not in text  # display names stay engine-neutral

    def test_analyze_reports_batches_and_rows(self, explain_db):
        result = explain_db.execute(
            "EXPLAIN ANALYZE SELECT x + 1 FROM big WHERE x < 50")
        operators = result.stats["analyze"]["operators"]
        names = [entry["operator"] for entry in operators]
        assert any(name.startswith("Project") for name in names)
        assert any(name.startswith("Filter") for name in names)
        assert any(name.startswith("SeqScan") for name in names)
        by_name = {entry["operator"].split(" ")[0]: entry
                   for entry in operators}
        assert by_name["SeqScan"]["rows"] == 200
        assert by_name["Filter"]["rows"] == 50
        assert all(entry["batches"] >= 1 for entry in operators)

    def test_build_side_shown_and_prefers_smaller_input(self, explain_db):
        text = explain_text(
            explain_db,
            "EXPLAIN SELECT 1 FROM tiny, big WHERE tiny.x = big.x")
        assert "build=left" in text

    def test_left_join_builds_right(self, explain_db):
        text = explain_text(
            explain_db,
            "EXPLAIN SELECT 1 FROM big LEFT JOIN tiny "
            "ON big.x = tiny.x")
        assert "build=right" in text

    def test_in_list_index_scan(self, explain_db):
        explain_db.execute("CREATE INDEX big_x ON big (x)")
        text = explain_text(
            explain_db,
            "EXPLAIN SELECT y FROM big WHERE x IN (3, 5, 9)")
        assert "IndexScan" in text
        assert "IN (" in text

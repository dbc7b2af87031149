"""End-to-end DML tests: INSERT / UPDATE / DELETE on every storage kind."""

import pytest

from repro.cluster import ClusterProfile
from repro.common.errors import AnalysisError, CatalogError
from repro.hive import HiveSession


@pytest.fixture
def session():
    return HiveSession(profile=ClusterProfile.laptop())


def make_table(session, storage, properties=""):
    session.execute("CREATE TABLE items (id int, cat string, qty int, "
                    "note string) STORED AS %s %s" % (storage, properties))
    session.load_rows("items", [
        (i, "cat%d" % (i % 4), i * 10, "note%d" % i) for i in range(100)
    ])


STORAGES = ["orc", "hbase", "dualtable", "acid"]


class TestInsert:
    def test_insert_values(self, session):
        session.execute("CREATE TABLE t (a int, b string)")
        session.execute("INSERT INTO t VALUES (1, 'x'), (2, 'y')")
        assert session.execute("SELECT count(*) FROM t").scalar() == 2

    def test_insert_select(self, session):
        make_table(session, "orc")
        session.execute("CREATE TABLE copy (id int, cat string)")
        session.execute("INSERT INTO copy SELECT id, cat FROM items "
                        "WHERE id < 10")
        assert session.execute("SELECT count(*) FROM copy").scalar() == 10

    def test_insert_overwrite_replaces(self, session):
        session.execute("CREATE TABLE t (a int)")
        session.execute("INSERT INTO t VALUES (1), (2)")
        session.execute("INSERT OVERWRITE TABLE t VALUES (9)")
        assert session.execute("SELECT * FROM t").rows == [(9,)]

    def test_insert_coerces_types(self, session):
        session.execute("CREATE TABLE t (a double, b string)")
        session.execute("INSERT INTO t VALUES (1, 2)")
        assert session.execute("SELECT * FROM t").rows == [(1.0, "2")]

    def test_insert_arity_mismatch(self, session):
        session.execute("CREATE TABLE t (a int, b int)")
        with pytest.raises(AnalysisError):
            session.execute("INSERT INTO t VALUES (1)")


@pytest.mark.parametrize("storage", STORAGES)
class TestUpdateAcrossStorages:
    def test_update_applies(self, session, storage):
        make_table(session, storage)
        result = session.execute(
            "UPDATE items SET note = 'changed' WHERE id < 7")
        assert result.affected == 7
        check = session.execute(
            "SELECT count(*) FROM items WHERE note = 'changed'")
        assert check.scalar() == 7

    def test_update_expression_uses_old_values(self, session, storage):
        make_table(session, storage)
        session.execute("UPDATE items SET qty = qty + 1 WHERE id = 3")
        got = session.execute("SELECT qty FROM items WHERE id = 3")
        assert got.rows == [(31,)]

    def test_update_multiple_columns(self, session, storage):
        make_table(session, storage)
        session.execute("UPDATE items SET cat = 'x', qty = 0 WHERE id = 5")
        got = session.execute("SELECT cat, qty FROM items WHERE id = 5")
        assert got.rows == [("x", 0)]

    def test_update_no_match(self, session, storage):
        make_table(session, storage)
        result = session.execute("UPDATE items SET qty = 0 WHERE id = 999")
        assert result.affected == 0
        assert session.execute("SELECT count(*) FROM items").scalar() == 100

    def test_update_all_rows(self, session, storage):
        make_table(session, storage)
        result = session.execute("UPDATE items SET note = 'all'")
        assert result.affected == 100


@pytest.mark.parametrize("storage", STORAGES)
class TestDeleteAcrossStorages:
    def test_delete_applies(self, session, storage):
        make_table(session, storage)
        result = session.execute("DELETE FROM items WHERE cat = 'cat1'")
        assert result.affected == 25
        assert session.execute("SELECT count(*) FROM items").scalar() == 75

    def test_delete_then_update_interleave(self, session, storage):
        make_table(session, storage)
        session.execute("DELETE FROM items WHERE id < 50")
        session.execute("UPDATE items SET note = 'kept' WHERE id >= 50")
        result = session.execute(
            "SELECT count(*) FROM items WHERE note = 'kept'")
        assert result.scalar() == 50

    def test_deleted_rows_not_updatable(self, session, storage):
        make_table(session, storage)
        session.execute("DELETE FROM items WHERE id = 10")
        result = session.execute("UPDATE items SET qty = 1 WHERE id = 10")
        assert result.affected == 0

    def test_delete_everything(self, session, storage):
        make_table(session, storage)
        session.execute("DELETE FROM items")
        assert session.execute("SELECT count(*) FROM items").scalar() == 0


class TestDmlWithSubqueries:
    def test_update_with_scalar_subquery(self, session):
        make_table(session, "dualtable")
        session.execute("UPDATE items SET qty = (SELECT max(qty) "
                        "FROM items) WHERE id = 0")
        assert session.execute(
            "SELECT qty FROM items WHERE id = 0").scalar() == 990

    def test_delete_with_in_subquery(self, session):
        make_table(session, "orc")
        session.execute("CREATE TABLE doomed (id int)")
        session.execute("INSERT INTO doomed VALUES (1), (2), (3)")
        result = session.execute(
            "DELETE FROM items WHERE id IN (SELECT id FROM doomed)")
        assert result.affected == 3


class TestDdl:
    def test_create_drop(self, session):
        session.execute("CREATE TABLE t (a int)")
        assert session.metastore.has_table("t")
        session.execute("DROP TABLE t")
        assert not session.metastore.has_table("t")

    def test_create_duplicate(self, session):
        session.execute("CREATE TABLE t (a int)")
        with pytest.raises(CatalogError):
            session.execute("CREATE TABLE t (a int)")
        session.execute("CREATE TABLE IF NOT EXISTS t (a int)")   # no raise

    def test_drop_missing(self, session):
        with pytest.raises(CatalogError):
            session.execute("DROP TABLE nope")
        session.execute("DROP TABLE IF EXISTS nope")              # no raise

    def test_unknown_storage_kind(self, session):
        with pytest.raises(CatalogError):
            session.execute("CREATE TABLE t (a int) STORED AS floppy")

    def test_show_tables(self, session):
        session.execute("CREATE TABLE b (a int)")
        session.execute("CREATE TABLE a (a int)")
        result = session.execute("SHOW TABLES")
        assert result.rows == [("a",), ("b",)]

    def test_describe(self, session):
        session.execute("CREATE TABLE t (a int, b string) STORED AS ACID")
        result = session.execute("DESCRIBE t")
        assert ("a", "int") in result.rows
        assert ("# storage", "acid") in result.rows

    def test_drop_cleans_storage(self, session):
        make_table(session, "dualtable")
        handler = session.table("items").handler
        location = handler.master.location
        assert session.fs.exists(location)
        session.execute("DROP TABLE items")
        assert not session.fs.exists(location)


class TestCostShape:
    """The paper's core claim at unit scale: EDIT beats OVERWRITE for
    small ratios once per-byte costs dominate."""

    def test_dualtable_edit_cheaper_than_hive_small_update(self):
        times = {}
        props = ("TBLPROPERTIES('orc.rows_per_file' = '10', "
                 "'orc.stripe_rows' = '5'%s)")
        for storage, mode in (("orc", props % ""),
                              ("dualtable",
                               props % ", 'dualtable.mode' = 'edit'")):
            session = HiveSession(profile=ClusterProfile(
                name="t", nodes=2, byte_scale=200_000.0,
                op_scale=200_000.0))
            make_table(session, storage, mode)
            result = session.execute(
                "UPDATE items SET note = 'x' WHERE id < 2")
            times[storage] = result.sim_seconds
        assert times["dualtable"] < times["orc"]

    def test_update_plan_reported(self, session):
        make_table(session, "dualtable",
                   "TBLPROPERTIES('dualtable.mode'='edit')")
        result = session.execute("UPDATE items SET qty = 1 WHERE id = 1")
        assert result.detail["plan"] == "edit"
        assert "ratio" in result.detail

"""Unit tests for repro.engine.storage and repro.engine.catalog."""

import pytest

from repro.engine import storage
from repro.engine.catalog import Catalog
from repro.engine.executor.executor import index_qualifying_row_ids
from repro.engine.plan.physical import index_scan
from repro.engine.schema import Index, make_schema
from repro.engine.storage import TableData
from repro.engine.types import DataType
from repro.errors import CatalogError
from tests.naive_index import assert_equals_dict_index


def item_schema():
    return make_schema(
        "ITEM",
        [("i_item_sk", DataType.INTEGER), ("i_category", DataType.VARCHAR)],
        [Index("I_PK", "ITEM", "i_item_sk", unique=True)],
    )


def sample_rows(n=50):
    return [
        {"i_item_sk": i, "i_category": ["Music", "Books"][i % 2]} for i in range(n)
    ]


class TestTableData:
    def test_insert_and_row_count(self):
        data = TableData(item_schema())
        assert data.insert_rows(sample_rows(10)) == 10
        assert data.row_count == 10

    def test_row_access(self):
        data = TableData(item_schema())
        data.insert_rows(sample_rows(5))
        assert data.row(3) == {"i_item_sk": 3, "i_category": "Books"}

    def test_column_values(self):
        data = TableData(item_schema())
        data.insert_rows(sample_rows(4))
        assert data.column_values("i_item_sk") == [0, 1, 2, 3]

    def test_unknown_column_raises(self):
        data = TableData(item_schema())
        with pytest.raises(CatalogError):
            data.column_values("missing")

    def test_index_lookup(self):
        data = TableData(item_schema())
        data.insert_rows(sample_rows(20))
        data.build_index(item_schema().indexes[0])
        index = data.index("I_PK")
        assert index.lookup(7).tolist() == [7]
        assert index.lookup(999).tolist() == []

    def test_index_rebuilt_after_insert(self):
        schema = item_schema()
        data = TableData(schema)
        data.build_index(schema.indexes[0])
        data.insert_rows(sample_rows(5))
        assert data.index("I_PK").lookup(4).tolist() == [4]

    def test_bulk_insert_builds_each_index_once(self, monkeypatch):
        """Regression: per-batch full index rebuilds made bulk loads
        quadratic.  Batches with no read between them cost one build of each
        index, at the first read; reads with no insert between them share it;
        a read between two batches sees the first batch's rows."""
        built = []
        build_index = storage._build_index

        def counting_build(column, row_count):
            built.append(row_count)
            return build_index(column, row_count)

        monkeypatch.setattr(storage, "_build_index", counting_build)
        schema = make_schema(
            "ITEM",
            [("i_item_sk", DataType.INTEGER), ("i_category", DataType.VARCHAR)],
            [Index("I_CAT", "ITEM", "i_category"), Index("I_PK", "ITEM", "i_item_sk")],
        )
        data = TableData(schema)
        for definition in schema.indexes:
            data.build_index(definition)
        rows = sample_rows(60)
        for start in range(0, 60, 10):
            data.insert_rows(rows[start : start + 10])
        assert built == []
        by_category = data.index("I_CAT")
        assert by_category.lookup("Music").tolist() == list(range(0, 60, 2))
        assert by_category.lookup_range("A", "C").tolist() == list(range(1, 60, 2))
        assert by_category.scan().tolist() == list(range(1, 60, 2)) + list(range(0, 60, 2))
        assert data.index("I_PK").lookup(59).tolist() == [59]
        assert built == [60, 60]
        data.insert_rows(
            [{"i_item_sk": 60 + i, "i_category": "Music"} for i in range(3)]
        )
        music_ids = by_category.lookup("Music").tolist()
        assert music_ids == list(range(0, 60, 2)) + [60, 61, 62]
        assert built == [60, 60, 63]
        data.insert_rows([{"i_item_sk": 63, "i_category": "Music"}])
        data.insert_rows([{"i_item_sk": 64, "i_category": "Books"}])
        assert by_category.lookup("Books").tolist()[-1] == 64
        assert built == [60, 60, 63, 65]

    def test_incremental_insert_matches_full_rebuild(self):
        """Seven small batches must produce exactly the index one bulk load
        builds: both equal the dict-of-lists oracle over the same rows, read
        between the batches or not."""
        schema = item_schema()
        rows = sample_rows(60)
        bulk = TableData(schema)
        bulk.build_index(schema.indexes[0])
        bulk.insert_rows(rows)
        for read_between in (False, True):
            incremental = TableData(schema)
            index = incremental.build_index(schema.indexes[0])
            for start in range(0, 60, 9):
                incremental.insert_rows(rows[start : start + 9])
                if read_between:
                    assert index.lookup(start).tolist() == [start]
            for data in (incremental, bulk):
                assert_equals_dict_index(
                    data.index("I_PK"),
                    data.column_values("i_item_sk").tolist(),
                    probes=[0, 8, 9, 59, 60, None, 7.0, "7"],
                    bounds=[5, 25, 24.5, 70],
                )

    def test_one_batch_equals_row_by_row(self):
        """The column-wise append stores what a row-at-a-time load stores:
        coerced values (every type, NULLs, absent keys), row ids, and indexes
        that answer every read with the same row ids."""
        schema = make_schema(
            "T",
            [
                ("k", DataType.INTEGER),
                ("price", DataType.DECIMAL),
                ("day", DataType.DATE),
                ("label", DataType.VARCHAR),
            ],
            [Index("T_K", "T", "k"), Index("T_DAY", "T", "day")],
        )
        rows = [
            {"k": "7", "price": 3, "day": "1970-01-11", "label": 12},
            {"k": 2, "price": None, "day": 10},
            {"k": None, "price": 1.5, "day": None, "label": "x", "ignored": 1},
            {"k": 7, "price": -0.0, "day": 3, "label": None},
            {"k": 2 ** 70, "price": 2.25, "day": 10, "label": "x"},
        ] * 3
        batch, single = TableData(schema), TableData(schema)
        for data in (batch, single):
            for index in schema.indexes:
                data.build_index(index)
        assert batch.insert_rows(iter(rows)) == len(rows)
        for row in rows:
            assert single.insert_rows([row]) == 1
        assert batch.row_count == single.row_count == len(rows)
        assert list(batch.rows()) == list(single.rows())
        assert [
            [type(value) for value in row.values()] for row in batch.rows()
        ] == [[type(value) for value in row.values()] for row in single.rows()]
        assert batch.row(0) == {"k": 7, "price": 3.0, "day": 10, "label": "12"}
        for name, column in (("T_K", "k"), ("T_DAY", "day")):
            for data in (batch, single):
                assert_equals_dict_index(
                    data.index(name),
                    data.column_values(column).tolist(),
                    probes=[7, 2, 3, 10, None, 2 ** 70, 11],
                    bounds=[2, 7, 2 ** 70, 10],
                )
        assert batch.index("T_DAY").lookup(10).tolist() == [0, 1, 4, 5, 6, 9, 10, 11, 14]

    def test_uncoercible_batch_leaves_the_table_unchanged(self):
        schema = item_schema()
        data = TableData(schema)
        data.build_index(schema.indexes[0])
        data.insert_rows(sample_rows(3))
        with pytest.raises(ValueError):
            data.insert_rows(sample_rows(2) + [{"i_item_sk": "not a number"}])
        assert data.row_count == 3
        assert [len(column) for column in data.column_arrays().values()] == [3, 3]
        assert data.index("I_PK").scan().tolist() == [0, 1, 2]

    def test_range_lookup_sees_an_insert_between_two_reads(self):
        schema = item_schema()
        data = TableData(schema)
        data.build_index(schema.indexes[0])
        data.insert_rows(sample_rows(10))
        index = data.index("I_PK")
        assert index.lookup_range(0, 100).tolist() == list(range(10))
        earlier = index.lookup(3)
        data.insert_rows([{"i_item_sk": 50, "i_category": "Music"}])
        # The index rebuilds on the next read: the new key is visible to
        # range probes immediately; arrays handed out before are untouched.
        assert index.lookup_range(40, 60).tolist() == [10]
        assert earlier.tolist() == [3]

    def test_index_range_lookup(self):
        data = TableData(item_schema())
        data.insert_rows(sample_rows(20))
        data.build_index(item_schema().indexes[0])
        assert data.index("I_PK").lookup_range(5, 8).tolist() == [5, 6, 7, 8]
        assert data.index("I_PK").lookup_range(None, 2).tolist() == [0, 1, 2]
        assert data.index("I_PK").lookup_range(18, None).tolist() == [18, 19]

    def test_full_index_scan_sees_an_insert_between_two_scans(self):
        """Keys order by their text (so 10 before 9), ``NULL`` last; the scan
        order is derived once per build and an insert starts a new build."""
        data = TableData(item_schema())
        data.insert_rows(
            [{"i_item_sk": value, "i_category": "n"} for value in [9, None, 10, 2, 9]]
        )
        data.build_index(item_schema().indexes[0])
        index = data.index("I_PK")
        scan = index_scan("ITEM", "i", "I_PK", (), fetch=True)
        assert index_qualifying_row_ids(scan, index, "i").tolist() == [2, 3, 0, 4, 1]
        assert index.scan() is index.scan()
        data.insert_rows([{"i_item_sk": 100, "i_category": "n"}, {"i_item_sk": 2, "i_category": "n"}])
        assert index_qualifying_row_ids(scan, index, "i").tolist() == [2, 5, 3, 6, 0, 4, 1]

    def test_range_lookup_matches_brute_force_with_duplicates_and_nulls(self):
        data = TableData(item_schema())
        keys = [5, 3, None, 5, 1, 9, None, 3]
        data.insert_rows({"i_item_sk": value, "i_category": "n"} for value in keys)
        data.build_index(item_schema().indexes[0])
        index = data.index("I_PK")
        for low, high in [(3, 5), (None, 4), (4, None), (None, None), (6, 2)]:
            brute = [
                row_id
                for row_id, key in enumerate(keys)
                if key is not None
                and (low is None or key >= low)
                and (high is None or key <= high)
            ]
            assert index.lookup_range(low, high).tolist() == brute, (low, high)

    def test_index_on_column_helper(self):
        data = TableData(item_schema())
        data.build_index(item_schema().indexes[0])
        assert data.index_on("i_item_sk") is not None
        assert data.index_on("i_category") is None

    def test_missing_index_raises(self):
        data = TableData(item_schema())
        with pytest.raises(CatalogError):
            data.index("NOPE")

    def test_page_count_grows_with_rows(self):
        small = TableData(item_schema())
        small.insert_rows(sample_rows(10))
        large = TableData(item_schema())
        large.insert_rows(sample_rows(5000))
        assert large.page_count > small.page_count
        assert small.page_count >= 1

    def test_rows_iteration_with_ids(self):
        data = TableData(item_schema())
        data.insert_rows(sample_rows(10))
        subset = list(data.rows([2, 4]))
        assert [row["i_item_sk"] for row in subset] == [2, 4]


class TestCatalog:
    def test_create_and_lookup(self):
        catalog = Catalog()
        catalog.create_table(item_schema())
        assert catalog.has_table("item")
        assert catalog.has_table("ITEM")
        assert "ITEM" in catalog
        assert len(catalog) == 1

    def test_duplicate_create_rejected(self):
        catalog = Catalog()
        catalog.create_table(item_schema())
        with pytest.raises(CatalogError):
            catalog.create_table(item_schema())

    def test_missing_table_raises(self):
        catalog = Catalog()
        with pytest.raises(CatalogError):
            catalog.table_schema("ghost")
        with pytest.raises(CatalogError):
            catalog.table_data("ghost")
        with pytest.raises(CatalogError):
            catalog.statistics("ghost")

    def test_load_rows_refreshes_statistics(self):
        catalog = Catalog()
        catalog.create_table(item_schema())
        catalog.load_rows("ITEM", sample_rows(30))
        stats = catalog.statistics("ITEM")
        assert stats.cardinality == 30
        assert stats.column("i_item_sk").n_distinct == 30

    def test_load_rows_rejects_nan_decimals_and_leaves_the_table_unchanged(self):
        """DB2's DECIMAL holds no NaN: a NaN is an uncoercible value."""
        from repro.engine.database import Database

        db = Database()
        db.create_table(
            make_schema(
                "T",
                [("t_id", DataType.INTEGER), ("t_x", DataType.DECIMAL)],
                [Index("T_X", "T", "t_x")],
            )
        )
        db.load_rows("T", [{"t_id": 0, "t_x": 1.5}, {"t_id": 1, "t_x": None}])
        epochs = (db.storage_epoch, db.stats_epoch)
        for nan in (float("nan"), "NaN"):
            with pytest.raises(ValueError):
                db.load_rows("T", [{"t_id": 2, "t_x": 2.5}, {"t_id": 3, "t_x": nan}])
        data = db.catalog.table_data("T")
        assert list(data.rows()) == [{"t_id": 0, "t_x": 1.5}, {"t_id": 1, "t_x": None}]
        assert data.index("T_X").scan().tolist() == [0, 1]
        assert (db.storage_epoch, db.stats_epoch) == epochs

    def test_runstats_reflects_new_data(self):
        catalog = Catalog()
        catalog.create_table(item_schema())
        catalog.load_rows("ITEM", sample_rows(10))
        catalog.table_data("ITEM").insert_rows(sample_rows(10))
        # statistics are stale until runstats
        assert catalog.statistics("ITEM").cardinality == 10
        catalog.runstats("ITEM")
        assert catalog.statistics("ITEM").cardinality == 20

    def test_drop_table(self):
        catalog = Catalog()
        catalog.create_table(item_schema())
        catalog.drop_table("ITEM")
        assert not catalog.has_table("ITEM")
        with pytest.raises(CatalogError):
            catalog.drop_table("ITEM")

    def test_create_index_via_catalog(self):
        catalog = Catalog()
        catalog.create_table(item_schema())
        catalog.load_rows("ITEM", sample_rows(10))
        catalog.create_index(Index("I_CAT", "ITEM", "i_category", cluster_ratio=0.5))
        assert len(catalog.table_data("ITEM").index("I_CAT").lookup("Music")) == 5

    def test_table_names_sorted(self):
        catalog = Catalog()
        catalog.create_table(make_schema("ZED", [("z", DataType.INTEGER)]))
        catalog.create_table(make_schema("ALPHA", [("a", DataType.INTEGER)]))
        assert catalog.table_names == ["ALPHA", "ZED"]

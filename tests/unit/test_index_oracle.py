"""``IndexData`` (three arrays) against the dict-of-lists index it replaced.

Every index of the TPC-DS and client databases answers every kind of read --
``lookup`` (present, absent, ``None``, an equal float, a value of another
type), IN-lists in list order, ``lookup_range`` (open, closed, bounds absent
from the keys, bounds of the other numeric type), the full scan and the
whole-column ``probe`` -- with exactly the row ids, in exactly the order, of
``tests/naive_index.NaiveIndex`` over the same column.  The hypothesis twin
(columns no workload holds: strings, floats, an integer beyond int64) is
``tests/property/test_properties.py::test_index_equals_the_dict_of_lists``.
"""

import random

import pytest

from repro.engine.executor.executor import index_qualifying_row_ids
from repro.engine.expressions import ColumnRef, InList
from repro.engine.plan.physical import index_scan
from tests.naive_index import assert_equals_dict_index


def _indexes(workload):
    catalog = workload.database.catalog
    for table in catalog.table_names:
        data = catalog.table_data(table)
        for name, index in sorted(data.indexes.items()):
            yield table, name, index, data.column_values(index.definition.column).tolist()


@pytest.mark.parametrize("fixture", ["tiny_tpcds_workload", "tiny_client_workload"])
def test_every_workload_index_equals_the_dict_index(fixture, request):
    workload = request.getfixturevalue(fixture)
    rng = random.Random(7)
    checked = 0
    for table, name, index, values in _indexes(workload):
        keys = sorted({value for value in values if value is not None})
        if not keys:
            continue
        sample = rng.sample(keys, min(12, len(keys)))
        absent = [keys[0] - 1, keys[-1] + 1, keys[len(keys) // 2] + 0.5]
        probes = sample + absent + [None, float(sample[0]), str(sample[0]), sample[0]]
        bounds = [sample[0], sample[-1], keys[0] - 3, absent[2], float(keys[-1])]
        naive = assert_equals_dict_index(index, values, probes, bounds)
        # The executors' entry point: an IN-list keeps list order, repeats
        # included.
        scan = index_scan(
            table, "t", name, (InList(ColumnRef("t", index.definition.column), tuple(probes[:6] * 2)),)
        )
        assert index_qualifying_row_ids(scan, index, "t").tolist() == naive.lookup_in(
            probes[:6] * 2
        )
        checked += 1
    assert checked >= 5


def test_workload_indexes_hold_no_per_key_python_container(tiny_tpcds_workload):
    """The index form is arrays only: nothing of the dict-of-lists survives."""
    for _, _, index, values in _indexes(tiny_tpcds_workload):
        assert len(index.scan()) == len(values)
        for gone in ("entries", "_sorted_keys", "_scan_order", "_range_cache"):
            assert not hasattr(index, gone)

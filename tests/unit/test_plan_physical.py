"""Unit tests for physical plan nodes and the QGM container."""

import pytest

from repro.engine.expressions import ColumnRef, Comparison
from repro.engine.plan.explain import explain_summary, explain_text
from repro.engine.plan.physical import (
    PlanNode,
    PopType,
    Qgm,
    filter_node,
    group_by,
    index_scan,
    join,
    sort,
    table_scan,
)
from repro.errors import PlanError


def small_plan() -> PlanNode:
    left = table_scan("SALES", "S")
    right = index_scan("ITEM", "I", "I_PK")
    predicate = Comparison("=", ColumnRef("S", "s_item_sk"), ColumnRef("I", "i_item_sk"))
    return join(PopType.HSJOIN, left, right, (predicate,))


class TestPlanNodeBasics:
    def test_outer_inner(self):
        node = small_plan()
        assert node.outer.table == "SALES"
        assert node.inner.table == "ITEM"

    def test_is_join_is_scan(self):
        node = small_plan()
        assert node.is_join and not node.is_scan
        assert node.outer.is_scan

    def test_display_type_fetching_index_scan(self):
        scan = index_scan("ITEM", "I", "I_PK", fetch=True)
        assert scan.display_type == "F-IXSCAN"
        scan_no_fetch = index_scan("ITEM", "I", "I_PK", fetch=False)
        assert scan_no_fetch.display_type == "IXSCAN"

    def test_walk_preorder(self):
        node = small_plan()
        types = [n.pop_type for n in node.walk()]
        assert types == [PopType.HSJOIN, PopType.TBSCAN, PopType.IXSCAN]

    def test_aliases_in_scan_order(self):
        assert small_plan().aliases() == ["S", "I"]

    def test_find_alias(self):
        node = small_plan()
        assert node.find_alias("I").table == "ITEM"
        assert node.find_alias("Z") is None

    def test_copy_is_deep(self):
        node = small_plan()
        clone = node.copy()
        clone.inputs[0].table_alias = "CHANGED"
        assert node.inputs[0].table_alias == "S"

    def test_shape_signature_ignores_names(self):
        a = join(
            PopType.HSJOIN,
            table_scan("T1", "A"),
            table_scan("T2", "B"),
            (Comparison("=", ColumnRef("A", "x"), ColumnRef("B", "y")),),
        )
        b = join(
            PopType.HSJOIN,
            table_scan("OTHER1", "Q1"),
            table_scan("OTHER2", "Q2"),
            (Comparison("=", ColumnRef("Q1", "k"), ColumnRef("Q2", "k")),),
        )
        assert a.shape_signature() == b.shape_signature()

    def test_join_constructor_rejects_non_join(self):
        with pytest.raises(PlanError):
            join(PopType.SORT, table_scan("T", "T"), table_scan("U", "U"), ())

    def test_bloom_filter_property(self):
        node = join(
            PopType.HSJOIN,
            table_scan("T", "T"),
            table_scan("U", "U"),
            (),
            bloom_filter=True,
        )
        assert node.properties.get("bloom_filter") is True

    def test_helper_constructors(self):
        base = table_scan("T", "T")
        assert sort(base, ColumnRef("T", "c")).pop_type is PopType.SORT
        assert filter_node(base, ()).pop_type is PopType.FILTER
        assert group_by(base, (), ()).pop_type is PopType.GRPBY


def recursive_walk(node):
    """Pre-order as the nested generators listed it: the node, then each
    input's subtree in input order."""
    yield node
    for child in node.inputs:
        yield from recursive_walk(child)


class TestWalkOrder:
    SQL = (
        "SELECT i_category, o_state, COUNT(*) FROM sales, item, date_dim, outlet "
        "WHERE s_item_sk = i_item_sk AND s_date_sk = d_date_sk AND s_outlet_sk = o_outlet_sk "
        "AND i_category = 'Music' GROUP BY i_category, o_state ORDER BY o_state"
    )

    def test_walk_yields_the_recursive_pre_order(self, mini_db):
        """Bushy and deep trees alike, from every node of each plan."""
        plans = [mini_db.explain(self.SQL)] + mini_db.random_plans(self.SQL, 12)
        shapes = set()
        for qgm in plans:
            shapes.add(qgm.shape_signature())
            for start in recursive_walk(qgm.root):
                walked = list(start.walk())
                assert len(walked) == len(list(recursive_walk(start)))
                assert all(a is b for a, b in zip(walked, recursive_walk(start)))
            # What sits on walk(): operator ids, scans and aliases in plan order.
            assert [node.operator_id for node in qgm.nodes()] == list(
                range(1, len(qgm.nodes()) + 1)
            )
            assert qgm.aliases() == [
                node.table_alias for node in recursive_walk(qgm.root) if node.is_scan
            ]
        assert len(shapes) > 6

    def test_walk_of_a_leaf_and_of_a_unary_chain(self):
        leaf = table_scan("SALES", "S")
        assert list(leaf.walk()) == [leaf]
        top = sort(filter_node(leaf, ()), ColumnRef("S", "s_price"))
        assert [node.pop_type for node in top.walk()] == [
            PopType.SORT, PopType.FILTER, PopType.TBSCAN,
        ]


class TestQgm:
    def test_return_wrapping_and_ids(self):
        qgm = Qgm(small_plan(), sql="SELECT 1", query_name="test")
        assert qgm.root.pop_type is PopType.RETURN
        ids = [node.operator_id for node in qgm.nodes()]
        assert ids == [1, 2, 3, 4]

    def test_node_by_id(self):
        qgm = Qgm(small_plan())
        assert qgm.node_by_id(1).pop_type is PopType.RETURN
        with pytest.raises(PlanError):
            qgm.node_by_id(99)

    def test_join_count_and_scans(self):
        qgm = Qgm(small_plan())
        assert qgm.join_count == 1
        assert len(qgm.scans()) == 2

    def test_renamed_view_shares_the_numbered_plan(self):
        qgm = Qgm(small_plan(), sql="q", query_name="first")
        numbering = [node.operator_id for node in qgm.nodes()]
        view = qgm.renamed("second")
        assert (view.query_name, qgm.query_name) == ("second", "first")
        assert view.root is qgm.root and view.sql == "q"
        assert [node.operator_id for node in view.nodes()] == numbering


class TestExplain:
    def test_explain_text_contains_operators(self, mini_db):
        qgm = mini_db.explain(
            "SELECT i_category FROM sales, item WHERE s_item_sk = i_item_sk",
            query_name="explain-test",
        )
        text = explain_text(qgm, mini_db.catalog)
        assert "RETURN" in text
        assert "explain-test" in text
        assert "( 1 )" in text

    def test_explain_summary_mentions_join_order(self, mini_db):
        qgm = mini_db.explain(
            "SELECT i_category FROM sales, item WHERE s_item_sk = i_item_sk"
        )
        summary = explain_summary(qgm)
        assert "RETURN" in summary
        assert "->" in summary

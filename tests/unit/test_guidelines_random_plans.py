"""Unit tests for OPTGUIDELINES documents and the Random Plan Generator."""

import pytest

from repro.engine.optimizer.guidelines import (
    GuidelineAccess,
    GuidelineDocument,
    GuidelineJoin,
    build_forced_plan,
    guideline_from_plan,
    parse_guidelines,
)
from repro.engine.optimizer.builder import PlanBuilder
from repro.engine.optimizer.rewrite import rewrite_query
from repro.engine.plan.physical import PopType
from repro.engine.sql.binder import bind
from repro.engine.sql.parser import parse_select
from repro.errors import GuidelineError


def bind_sql(db, sql):
    return bind(parse_select(sql), db.catalog, sql)


THREE_WAY = (
    "SELECT i_category, COUNT(*) FROM sales, item, date_dim "
    "WHERE s_item_sk = i_item_sk AND s_date_sk = d_date_sk AND i_category = 'Music' "
    "GROUP BY i_category"
)

PAPER_STYLE_XML = """
<OPTGUIDELINES>
  <HSJOIN>
    <HSJOIN>
      <TBSCAN TABID='SALES'/>
      <TBSCAN TABID='ITEM'/>
    </HSJOIN>
    <IXSCAN TABID='DATE_DIM' INDEX='"D_DATE_PK"'/>
  </HSJOIN>
</OPTGUIDELINES>
"""


class TestGuidelineXml:
    def test_parse_paper_style_document(self):
        document = parse_guidelines(PAPER_STYLE_XML)
        assert len(document) == 1
        top = document.elements[0]
        assert isinstance(top, GuidelineJoin)
        assert top.method == "HSJOIN"
        assert isinstance(top.outer, GuidelineJoin)
        assert isinstance(top.inner, GuidelineAccess)
        assert top.inner.index == "D_DATE_PK"

    def test_round_trip(self):
        document = parse_guidelines(PAPER_STYLE_XML)
        rendered = document.to_xml()
        reparsed = parse_guidelines(rendered)
        assert reparsed.elements == document.elements

    def test_aliases_collected_in_order(self):
        document = parse_guidelines(PAPER_STYLE_XML)
        assert document.aliases() == ["SALES", "ITEM", "DATE_DIM"]

    def test_malformed_xml_rejected(self):
        with pytest.raises(GuidelineError):
            parse_guidelines("<OPTGUIDELINES><HSJOIN></OPTGUIDELINES>")

    def test_wrong_root_rejected(self):
        with pytest.raises(GuidelineError):
            parse_guidelines("<GUIDELINES/>")

    def test_join_with_one_child_rejected(self):
        with pytest.raises(GuidelineError):
            parse_guidelines("<OPTGUIDELINES><HSJOIN><TBSCAN TABID='A'/></HSJOIN></OPTGUIDELINES>")

    def test_unknown_element_rejected(self):
        with pytest.raises(GuidelineError):
            parse_guidelines("<OPTGUIDELINES><MAGICJOIN/></OPTGUIDELINES>")

    def test_empty_document(self):
        document = GuidelineDocument()
        assert document.is_empty
        assert "OPTGUIDELINES" in document.to_xml()


class TestGuidelineFromPlan:
    def test_round_trips_join_tree(self, mini_db):
        qgm = mini_db.explain(THREE_WAY)
        element = guideline_from_plan(qgm.root)
        assert isinstance(element, GuidelineJoin)
        document = GuidelineDocument(elements=[element])
        reparsed = parse_guidelines(document.to_xml())
        assert sorted(reparsed.aliases()) == ["DATE_DIM", "ITEM", "SALES"]

    def test_bloom_filter_flag_preserved(self, mini_db):
        query = rewrite_query(bind_sql(mini_db, THREE_WAY))
        builder = PlanBuilder(mini_db.catalog, query)
        outer = builder.forced_access_path("SALES", "TBSCAN")
        inner = builder.forced_access_path("ITEM", "TBSCAN")
        joined = builder.make_join(PopType.HSJOIN, outer, inner, bloom_filter=True)
        element = guideline_from_plan(joined)
        assert element.bloom_filter
        xml = GuidelineDocument(elements=[element]).to_xml()
        assert parse_guidelines(xml).elements[0].bloom_filter


class TestForcedPlans:
    def test_build_forced_plan_honours_structure(self, mini_db):
        query = rewrite_query(bind_sql(mini_db, THREE_WAY))
        builder = PlanBuilder(mini_db.catalog, query)
        document = parse_guidelines(PAPER_STYLE_XML)
        fragment = build_forced_plan(builder, query, document.elements[0])
        assert fragment is not None
        assert fragment.pop_type is PopType.HSJOIN
        assert sorted(fragment.aliases()) == ["DATE_DIM", "ITEM", "SALES"]

    def test_inapplicable_guideline_returns_none(self, mini_db):
        query = rewrite_query(bind_sql(mini_db, "SELECT i_category FROM item WHERE i_category = 'Music'"))
        builder = PlanBuilder(mini_db.catalog, query)
        document = parse_guidelines(PAPER_STYLE_XML)
        assert build_forced_plan(builder, query, document.elements[0]) is None

    def test_optimizer_honours_guideline(self, mini_db):
        guided = mini_db.explain(THREE_WAY, guidelines=PAPER_STYLE_XML)
        join_types = [node.pop_type for node in guided.joins()]
        assert join_types.count(PopType.HSJOIN) == 2
        # Outer-most join order follows the guideline: (SALES x ITEM) then DATE_DIM.
        top_join = guided.joins()[0]
        assert set(top_join.inner.aliases()) == {"DATE_DIM"}

    def test_optimizer_ignores_inapplicable_guideline(self, mini_db):
        sql = "SELECT i_category FROM item WHERE i_category = 'Music'"
        unguided = mini_db.explain(sql)
        guided = mini_db.explain(sql, guidelines=PAPER_STYLE_XML)
        assert guided.shape_signature() == unguided.shape_signature()

    def test_guided_and_unguided_plans_return_same_rows(self, mini_db):
        unguided = mini_db.execute_sql(THREE_WAY)
        guided = mini_db.execute_sql(THREE_WAY, guidelines=PAPER_STYLE_XML)
        assert sorted(map(str, guided.rows)) == sorted(map(str, unguided.rows))


class TestRandomPlanGenerator:
    def test_plans_are_valid_and_distinct(self, mini_db):
        plans = mini_db.random_plans(THREE_WAY, 6)
        assert 1 <= len(plans) <= 6
        signatures = {plan.shape_signature() + "|".join(plan.aliases()) for plan in plans}
        assert len(signatures) == len(plans)
        for plan in plans:
            assert sorted(plan.aliases()) == ["DATE_DIM", "ITEM", "SALES"]

    def test_plans_are_costed(self, mini_db):
        for plan in mini_db.random_plans(THREE_WAY, 4):
            assert plan.total_cost > 0

    def test_deterministic_given_seed(self, mini_db):
        first = [p.shape_signature() for p in mini_db.random_plans(THREE_WAY, 5)]
        second = [p.shape_signature() for p in mini_db.random_plans(THREE_WAY, 5)]
        assert first == second

    def test_single_table_query_yields_plans(self, mini_db):
        plans = mini_db.random_plans("SELECT i_category FROM item WHERE i_category = 'Music'", 3)
        assert plans
        assert all(plan.join_count == 0 for plan in plans)


class TestFragmentCacheDifferential:
    """What the builder remembers about fragments (alias sets, connecting
    predicates) is a pure speedup: the generator draws the same rng sequence
    and emits the same plan set over the naive builder of
    ``tests/naive_optimizer.py``."""

    QUERIES = [
        THREE_WAY,
        "SELECT i_category, o_state, COUNT(*) FROM sales, item, date_dim, outlet "
        "WHERE s_item_sk = i_item_sk AND s_date_sk = d_date_sk "
        "AND s_outlet_sk = o_outlet_sk AND i_category = 'Music' "
        "GROUP BY i_category, o_state",
        "SELECT i_class, COUNT(*) FROM sales, item "
        "WHERE s_item_sk = i_item_sk AND s_price > 40 GROUP BY i_class",
        "SELECT i_category FROM item WHERE i_category = 'Music'",
    ]

    def test_cached_and_naive_generate_identical_plan_sets(self, mini_db, monkeypatch):
        from repro.engine.optimizer import random_plans
        from repro.engine.sql.binder import bind
        from repro.engine.sql.parser import parse_select
        from tests.naive_optimizer import NaiveBuilder, plan_rows

        generator = random_plans.RandomPlanGenerator(mini_db.catalog)
        for sql in self.QUERIES:
            query = bind(parse_select(sql), mini_db.catalog, sql)
            plans = generator.generate(query, 8)
            with monkeypatch.context() as patch:
                patch.setattr(random_plans, "PlanBuilder", NaiveBuilder)
                naive_plans = generator.generate(query, 8)
            assert len(plans) > 0
            assert [plan_rows(p) for p in naive_plans] == [plan_rows(p) for p in plans]

    def test_cached_plans_are_independently_numbered(self, mini_db):
        """Access-path nodes are built once and copied per pick, never shared."""
        from repro.engine.optimizer.random_plans import RandomPlanGenerator
        from repro.engine.sql.binder import bind
        from repro.engine.sql.parser import parse_select

        sql = THREE_WAY
        query = bind(parse_select(sql), mini_db.catalog, sql)
        plans = RandomPlanGenerator(mini_db.catalog).generate(query, 6)
        scans = [node for plan in plans for node in plan.nodes() if node.is_scan]
        assert len(scans) == len(set(map(id, scans)))
        # Every plan numbers its own nodes: an execution's actuals, keyed by
        # operator id, cover exactly that plan's operators.
        for plan in plans:
            assert [node.operator_id for node in plan.nodes()] == list(
                range(1, len(plan.nodes()) + 1)
            )
            result = mini_db.execute_plan(plan)
            assert sorted(result.actual_cardinalities) == [
                node.operator_id for node in plan.nodes()
            ]

"""Unit tests for the transformation engine (QGM -> RDF, QGM -> SPARQL)."""

import ast
import inspect

import pytest

from repro.core import vocabulary as voc
from repro.core.matching.segmenter import segment_plan
from repro.core.transform import sparql_gen
from repro.core.transform.rdf_mapper import qgm_to_rdf, rdf_node_index, subplan_to_rdf
from repro.core.transform.sparql_gen import sparql_for_subplan
from repro.core.planutils import join_tree_root
from repro.rdf.sparql.ast import TriplePattern
from repro.rdf.sparql import evaluator
from repro.rdf.sparql.evaluator import _order_patterns
from repro.rdf.sparql.parser import parse_sparql
from repro.rdf.terms import Literal
from repro.workloads import generate_client_queries, generate_tpcds_queries
from tests.naive_sparql import naive_order_patterns

SQL = (
    "SELECT i_category, COUNT(*) FROM sales, item, date_dim "
    "WHERE s_item_sk = i_item_sk AND s_date_sk = d_date_sk AND i_category = 'Jewelry' "
    "GROUP BY i_category"
)


class TestQgmToRdf:
    def test_every_node_has_type_and_cardinality(self, mini_db):
        qgm = mini_db.explain(SQL)
        graph = qgm_to_rdf(qgm, mini_db.catalog)
        index = rdf_node_index(qgm.root)
        for node in qgm.nodes():
            resource = index[node.operator_id]
            assert graph.value(resource, voc.HAS_POP_TYPE) == Literal(node.display_type)
            assert graph.value(resource, voc.HAS_ESTIMATE_CARDINALITY) is not None

    def test_scan_nodes_carry_table_metadata(self, mini_db):
        qgm = mini_db.explain(SQL)
        graph = qgm_to_rdf(qgm, mini_db.catalog)
        index = rdf_node_index(qgm.root)
        for scan in qgm.scans():
            resource = index[scan.operator_id]
            assert graph.value(resource, voc.HAS_TABLE_NAME) == Literal(scan.table)
            assert graph.value(resource, voc.HAS_FPAGES) is not None
            assert graph.value(resource, voc.HAS_ROW_SIZE) is not None

    def test_output_stream_edges_mirror_tree(self, mini_db):
        qgm = mini_db.explain(SQL)
        graph = qgm_to_rdf(qgm)
        index = rdf_node_index(qgm.root)
        edge_count = 0
        for node in qgm.nodes():
            for child in node.inputs:
                edge_count += 1
                assert (
                    index[node.operator_id]
                    in graph.objects(index[child.operator_id], voc.HAS_OUTPUT_STREAM)
                )
        assert edge_count == len(qgm.nodes()) - 1

    def test_join_input_stream_edges(self, mini_db):
        qgm = mini_db.explain(SQL)
        graph = qgm_to_rdf(qgm)
        index = rdf_node_index(qgm.root)
        for join_node in qgm.joins():
            resource = index[join_node.operator_id]
            assert graph.objects(resource, voc.HAS_OUTER_INPUT_STREAM)
            assert graph.objects(resource, voc.HAS_INNER_INPUT_STREAM)

    def test_actual_cardinality_included_after_execution(self, mini_db):
        qgm = mini_db.explain(SQL)
        result = mini_db.execute_plan(qgm)
        assert qgm_to_rdf(qgm).value(
            rdf_node_index(qgm.root)[1], voc.HAS_ACTUAL_CARDINALITY
        ) is None
        graph = qgm_to_rdf(qgm, actuals=result.actual_cardinalities)
        index = rdf_node_index(qgm.root)
        for node in qgm.nodes():
            assert graph.value(index[node.operator_id], voc.HAS_ACTUAL_CARDINALITY) == (
                Literal(result.actual_cardinalities[node.operator_id])
            )

    def test_resource_prefix_separates_plans(self, mini_db):
        qgm = mini_db.explain(SQL)
        first = subplan_to_rdf(qgm.root, resource_prefix="a_")
        second = subplan_to_rdf(qgm.root, resource_prefix="b_")
        combined_subjects = {t.subject for t in first} & {t.subject for t in second}
        assert not combined_subjects


class TestSparqlGeneration:
    def test_generated_query_parses(self, mini_db):
        qgm = mini_db.explain(SQL)
        segment = join_tree_root(qgm)
        generated = sparql_for_subplan(segment, catalog=mini_db.catalog)
        query = parse_sparql(generated.text)
        assert query.patterns
        assert query.filters

    def test_result_handlers_cover_all_nodes(self, mini_db):
        qgm = mini_db.explain(SQL)
        segment = join_tree_root(qgm)
        generated = sparql_for_subplan(segment, catalog=mini_db.catalog)
        assert len(generated.node_for_variable) == len(list(segment.walk()))
        # Scans are named after their table instance, like ?pop_Q3 in the paper.
        scan_variables = [
            name for name, node in generated.node_for_variable.items() if node.is_scan
        ]
        assert all(name.startswith("pop_") for name in scan_variables)

    def test_template_variable_selected(self, mini_db):
        qgm = mini_db.explain(SQL)
        generated = sparql_for_subplan(join_tree_root(qgm), catalog=mini_db.catalog)
        assert "?template" in generated.text
        assert "kbURI:inTemplate" in generated.text

    def test_cardinality_bounds_filters_present(self, mini_db):
        qgm = mini_db.explain(SQL)
        generated = sparql_for_subplan(join_tree_root(qgm), catalog=mini_db.catalog)
        assert "hasLowerCardinality" in generated.text
        assert "hasHigherCardinality" in generated.text
        assert "FILTER" in generated.text

    def test_label_variables_for_scans(self, mini_db):
        qgm = mini_db.explain(SQL)
        segment = join_tree_root(qgm)
        generated = sparql_for_subplan(segment, catalog=mini_db.catalog)
        assert len(generated.label_variables) == len(segment.scans())

    def test_row_size_checks_optional(self, mini_db):
        qgm = mini_db.explain(SQL)
        segment = join_tree_root(qgm)
        with_rows = sparql_for_subplan(segment, catalog=mini_db.catalog, check_row_size=True)
        without_rows = sparql_for_subplan(segment, catalog=mini_db.catalog, check_row_size=False)
        assert "hasLowerRowSize" in with_rows.text
        assert "hasLowerRowSize" not in without_rows.text


# ---------------------------------------------------------------------------
# The matching query is built as an AST; its text is a rendering of it.  Over
# every plan segment of the three statement pools the two cannot disagree.
# ---------------------------------------------------------------------------

MAX_JOINS = 3


def pool_segments(workload, statements):
    database = workload.database
    return [
        (database.catalog, segment)
        for _, sql in statements
        for segment in segment_plan(database.explain(sql), MAX_JOINS)
    ]


@pytest.fixture(scope="module")
def segments(tiny_tpcds_workload, tiny_client_workload):
    """Segments of the TPC-DS workload, a generated pool and the client workload."""
    tpcds = generate_tpcds_queries(99) + generate_tpcds_queries(60, seed=1042)
    found = pool_segments(tiny_tpcds_workload, tpcds)
    found += pool_segments(tiny_client_workload, generate_client_queries(116))
    assert len(found) > 500
    return found


class TestGeneratedQueryAndItsText:
    @pytest.mark.parametrize("cardinality_tolerance", [1.0, 1.5])
    @pytest.mark.parametrize("check_row_size", [True, False])
    def test_text_parses_back_to_the_query(self, segments, cardinality_tolerance, check_row_size):
        decimals = 0
        for catalog, segment in segments:
            generated = sparql_for_subplan(
                segment,
                catalog=catalog,
                check_row_size=check_row_size,
                cardinality_tolerance=cardinality_tolerance,
            )
            assert not generated.query_built
            parsed = parse_sparql(generated.text)
            assert parsed == generated.query
            # ``Literal(7) == Literal(7.0)``: the repr tells them apart.
            assert repr(parsed) == repr(generated.query)

            lines = generated.text.split("\n")
            assert [line.split()[:2] for line in lines[:2]] == [
                ["PREFIX", "predURI:"], ["PREFIX", "kbURI:"],
            ]
            assert lines[2].startswith("SELECT ?template ?pop_")
            assert (lines[3], lines[-1]) == ("WHERE {", "}")
            # One clause per line, prefixed names, no full IRI.
            clauses = lines[4:-1]
            assert len(clauses) == len(generated.query.where)
            for clause, element in zip(clauses, generated.query.where):
                assert clause.endswith(" .") and "<http" not in clause
                if isinstance(element, TriplePattern):
                    assert clause.split()[1].split(":")[0] in ("predURI", "kbURI")
                else:
                    assert clause.startswith("   FILTER (")
            # A bound that is not whole is stated to four decimals, in both.
            for element in generated.query.filters:
                value = element.expression.right
                if isinstance(value, Literal) and isinstance(value.value, float):
                    decimals += 1
                    assert f" {value.value:.4f}) ." in generated.text
                    assert float(f"{value.value:.4f}") == value.value
        assert decimals > 0

    def test_pattern_order_equals_the_rescoring_oracle(self, segments):
        for catalog, segment in segments:
            patterns = sparql_for_subplan(segment, catalog=catalog).query.patterns
            ordered = _order_patterns(patterns)
            expected = naive_order_patterns(patterns)
            assert len(ordered) == len(expected)
            assert all(a is b for a, b in zip(ordered, expected))

    def test_steering_writes_and_parses_no_text(self, tiny_tpcds_galo, monkeypatch):
        def refuse(*args):
            raise AssertionError("SPARQL text on the request path")

        monkeypatch.setattr(sparql_gen, "render_sparql", refuse)
        # Nothing on the matching path can parse: neither module imports the parser.
        for module in (sparql_gen, evaluator):
            imported = {
                node.module if isinstance(node, ast.ImportFrom) else alias.name
                for node in ast.walk(ast.parse(inspect.getsource(module)))
                if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names
            }
            assert "repro.rdf.sparql.parser" not in imported
        decisions = [
            tiny_tpcds_galo.matching_engine.steer(sql, query_name=name)
            for name, sql in generate_tpcds_queries(99)
        ]
        assert any(decision.steered for decision in decisions)
        assert tiny_tpcds_galo.matching_engine.sparql_cache_misses > 0

    def test_match_equals_brute_force(self, tiny_tpcds_galo, tiny_tpcds_workload):
        knowledge_base = tiny_tpcds_galo.knowledge_base
        matched = 0
        for cardinality_tolerance in (1.0, 1.5):
            for catalog, segment in pool_segments(tiny_tpcds_workload, generate_tpcds_queries(99)):
                generated = sparql_for_subplan(
                    segment, catalog=catalog, cardinality_tolerance=cardinality_tolerance
                )
                found = knowledge_base.match(generated, subplan_root=segment)
                brute = knowledge_base.match_brute_force(generated, subplan_root=segment)
                assert [(m.template.template_id, m.label_to_alias, m.bindings) for m in found] == [
                    (m.template.template_id, m.label_to_alias, m.bindings) for m in brute
                ]
                matched += bool(found)
        assert matched > 0

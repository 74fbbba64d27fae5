"""Smoke-level integration tests for the experiment harness (Exp-1 .. Exp-6)."""

import pytest

pytestmark = pytest.mark.slow

from repro.experiments import (
    ExperimentSettings,
    run_exp1,
    run_exp3,
    run_exp4,
    run_exp5,
    run_exp6,
)
from repro.experiments.harness import build_bundle, format_table, learn_bundle

TINY = ExperimentSettings(
    scale=0.12,
    tpcds_query_count=10,
    client_query_count=10,
    learning_query_count=4,
    max_joins=2,
    random_plans_per_subquery=3,
    max_variants=1,
)


class TestHarness:
    def test_format_table_alignment(self):
        table = format_table(["a", "bbb"], [[1, 2.5], ["xx", "y"]])
        lines = table.splitlines()
        assert len({len(line) for line in lines}) == 1
        assert "2.500" in table

    def test_build_and_learn_bundle(self):
        bundle = build_bundle("tpcds", TINY)
        assert bundle.workload.query_count == 10
        report = learn_bundle(bundle, 2)
        assert bundle.learning_report is report
        assert len(report.records) == 2


class TestExperimentRuns:
    def test_exp1_sweep_shape(self):
        result = run_exp1("tpcds", TINY, sweep_thresholds=[1, 2], sweep_query_count=2)
        assert [point.join_threshold for point in result.sweep] == [1, 2]
        # More joins allowed => at least as many sub-queries analyzed.
        assert result.sweep[1].subqueries_analyzed >= result.sweep[0].subqueries_analyzed
        assert result.templates_learned >= 0
        assert "Exp-1" in result.report()

    def test_exp3_buckets_cover_workload(self):
        result = run_exp3("tpcds", TINY)
        assert sum(bucket.queries for bucket in result.buckets) == 10
        assert all(bucket.avg_match_time_ms >= 0 for bucket in result.buckets)
        assert "Exp-3" in result.report()

    def test_exp4_grid_dimensions(self):
        result = run_exp4("tpcds", TINY, workload_sizes=[2, 4], knowledge_base_sizes=[5, 10])
        assert len(result.points) == 4
        kb_sizes = {point.knowledge_base_size for point in result.points}
        assert all(size >= 5 for size in kb_sizes)
        for point in result.points:
            assert point.total_match_seconds >= 0
        assert "Exp-4" in result.report()

    def test_exp5_expert_costs_more(self):
        result = run_exp5("tpcds", TINY, pattern_count=2)
        assert result.rows, "expected at least one sample pattern"
        assert result.average_ratio > 1.0
        assert "Exp-5" in result.report()

    def test_exp6_galo_improves_every_pattern(self):
        result = run_exp6("tpcds", TINY, pattern_count=2)
        assert result.rows
        for row in result.rows:
            assert row.galo_improvement > 0
        assert "Exp-6" in result.report()


def plan_shape(qgm):
    return qgm.shape_signature(), tuple(qgm.aliases())


class TestPatternStudy:
    """Exp-5 and Exp-6 read GALO's own learn -> match -> steer loop."""

    def test_patterns_are_the_first_learned_templates(self):
        bundle = build_bundle("tpcds", TINY)
        report = learn_bundle(bundle, TINY.learning_query_count)
        knowledge_base = bundle.galo.knowledge_base
        first_two = [knowledge_base.template(tid).name for tid in report.template_ids[:2]]
        assert len(first_two) == 2
        for result in (
            run_exp5("tpcds", TINY, pattern_count=2),
            run_exp6("tpcds", TINY, pattern_count=2),
        ):
            study_kb = result.study.bundle.galo.knowledge_base
            assert [study_kb.template(row.template_id).name for row in result.rows] == first_two
            for row in result.rows:
                _, query_and_aliases = study_kb.template(row.template_id).name.split(":", 1)
                assert row.pattern.name == query_and_aliases

    def test_exp6_galo_plan_is_the_served_plan(self):
        result = run_exp6("tpcds", TINY, pattern_count=2)
        engine = result.study.bundle.galo.matching_engine
        assert len(result.study.patterns) == 2
        for studied in result.study.patterns:
            decision = engine.steer(studied.pattern.subquery.sql)
            assert decision.steered
            assert studied.template_id in decision.matched_template_ids
            assert plan_shape(studied.galo_qgm) == plan_shape(decision.qgm)
            assert plan_shape(studied.pattern.problem_qgm) == plan_shape(decision.baseline_qgm)

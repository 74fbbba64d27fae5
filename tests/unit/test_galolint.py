"""galolint framework + rule fixtures.

Every rule gets a minimal violating snippet and its minimal clean twin; the
framework gets suppression-justification, baseline-shrink and CLI coverage;
and the whole tree is linted as a tier-1 test (with a <10 s bench guard) so
the lint *is* a test.
"""

import json
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

from repro.analysis import (
    FRAMEWORK_RULE_ID,
    RULE_REGISTRY,
    apply_baseline,
    load_baseline,
    run_analysis,
    write_baseline,
)
from repro.analysis.framework import Rule, register_rule
from repro.analysis.rules import (
    AsyncHygieneRule,
    AtomicWriteRule,
    CounterDisciplineRule,
    DeterminismRule,
    HotPathLoopRule,
    MonotonicClockRule,
)

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC_ROOT = REPO_ROOT / "src"


def lint(tmp_path, files, rules):
    """Write ``{relpath: source}`` fixtures under a tmp root and lint them."""
    for relpath, source in files.items():
        target = tmp_path / relpath
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(source), encoding="utf-8")
    return run_analysis(tmp_path, rules=rules)


def rule_ids(report):
    return [finding.rule for finding in report.findings]


# ---------------------------------------------------------------------------
# GL001 determinism
# ---------------------------------------------------------------------------


class TestGL001Determinism:
    PATH = "repro/core/learning/snippet.py"

    def test_fires_on_for_loop_over_set(self, tmp_path):
        report = lint(
            tmp_path,
            {self.PATH: """
                def render(parts):
                    names = set(parts)
                    out = []
                    for name in names:
                        out.append(name)
                    return out
            """},
            [DeterminismRule()],
        )
        assert rule_ids(report) == ["GL001"]

    def test_clean_twin_sorted_loop(self, tmp_path):
        report = lint(
            tmp_path,
            {self.PATH: """
                def render(parts):
                    names = set(parts)
                    out = []
                    for name in sorted(names):
                        out.append(name)
                    return out
            """},
            [DeterminismRule()],
        )
        assert report.findings == []

    def test_fires_on_annotated_frozenset_comprehension(self, tmp_path):
        """The repaired _project_query shape: dict comp over a FrozenSet param."""
        report = lint(
            tmp_path,
            {self.PATH: """
                from typing import FrozenSet

                def project(aliases: FrozenSet[str]):
                    return {alias: 1 for alias in aliases}
            """},
            [DeterminismRule()],
        )
        assert rule_ids(report) == ["GL001"]

    def test_fires_on_list_and_join_sinks(self, tmp_path):
        report = lint(
            tmp_path,
            {self.PATH: """
                def sinks(values):
                    chosen = frozenset(values)
                    text = ", ".join(chosen)
                    return list(chosen), text
            """},
            [DeterminismRule()],
        )
        assert sorted(rule_ids(report)) == ["GL001", "GL001"]

    def test_clean_membership_len_and_set_building(self, tmp_path):
        report = lint(
            tmp_path,
            {self.PATH: """
                def safe(values, probe):
                    chosen = frozenset(values)
                    other = {v for v in values}
                    return probe in chosen, len(chosen), chosen | other
            """},
            [DeterminismRule()],
        )
        assert report.findings == []

    def test_set_returning_method_and_binop_tracked(self, tmp_path):
        report = lint(
            tmp_path,
            {self.PATH: """
                def qualifiers(predicate, extra):
                    refs = predicate.referenced_qualifiers() | set(extra)
                    return list(refs)
            """},
            [DeterminismRule()],
        )
        assert rule_ids(report) == ["GL001"]

    def test_out_of_scope_module_ignored(self, tmp_path):
        report = lint(
            tmp_path,
            {"repro/obs/snippet.py": """
                def render(parts):
                    return list(set(parts))
            """},
            [DeterminismRule()],
        )
        assert report.findings == []


# ---------------------------------------------------------------------------
# GL002 hot-path loops
# ---------------------------------------------------------------------------


class TestGL002HotPathLoops:
    PATH = "repro/engine/columns.py"

    def test_fires_on_per_row_loop(self, tmp_path):
        report = lint(
            tmp_path,
            {self.PATH: """
                def filter_rows(rows):
                    out = []
                    for row in rows:
                        if row:
                            out.append(row)
                    return out
            """},
            [HotPathLoopRule()],
        )
        assert rule_ids(report) == ["GL002"]

    def test_clean_twin_allowlisted_oracle(self, tmp_path):
        """The same loop inside a function the allowlist declares is fine."""
        report = lint(
            tmp_path,
            {self.PATH: """
                def gather(values, picks):
                    return [values[p] for p in picks]
            """},
            [HotPathLoopRule()],
        )
        assert report.findings == []

    def test_fires_on_row_count_while_and_zip_star(self, tmp_path):
        report = lint(
            tmp_path,
            {self.PATH: """
                def probe(batch, columns):
                    position = 0
                    while position < batch.row_count:
                        position += 1
                    return [key for key in zip(*columns)]
            """},
            [HotPathLoopRule()],
        )
        assert sorted(rule_ids(report)) == ["GL002", "GL002"]

    def test_clean_per_column_loop(self, tmp_path):
        report = lint(
            tmp_path,
            {self.PATH: """
                def widths(columns):
                    return {name: len(values) for name, values in columns.items()}
            """},
            [HotPathLoopRule()],
        )
        assert report.findings == []

    def test_non_kernel_file_ignored(self, tmp_path):
        report = lint(
            tmp_path,
            {"repro/core/galo2.py": """
                def anywhere(rows):
                    return [row for row in rows]
            """},
            [HotPathLoopRule()],
        )
        assert report.findings == []

    def test_runstats_value_loop_only_in_its_declared_fallback(self, tmp_path):
        """A loop over a column's values fires in the statistics kernel and
        is fine in the value-loop fallback RUNSTATS declines to."""
        report = lint(
            tmp_path,
            {"repro/engine/statistics.py": """
                def collect_column_statistics(column, values):
                    counts = {}
                    for value in values:
                        counts[value] = counts.get(value, 0) + 1
                    return counts

                def _collect_from_values(column, values):
                    non_null = [value for value in values if value is not None]
                    return sorted(float(value) for value in non_null)
            """},
            [HotPathLoopRule()],
        )
        assert rule_ids(report) == ["GL002"]
        assert "collect_column_statistics" in report.findings[0].message

    VECTORIZED = "repro/engine/executor/vectorized.py"

    def test_fires_on_an_operator_gathering_every_column(self, tmp_path):
        """The two forms the join outputs were built from before batches
        carried positions -- in a declared per-row oracle function too."""
        report = lint(
            tmp_path,
            {self.VECTORIZED: """
                def _gather_columns(batch, picks):
                    return {key: gather(values, picks) for key, values in batch.columns.items()}

                class VectorizedExecutor:
                    def _execute_hash_join(self, outer_batch, inner_columns, inner_row_ids):
                        columns = {}
                        for key_name, values in inner_columns.items():
                            columns[key_name] = gather(values, inner_row_ids)
                        return columns
            """},
            [HotPathLoopRule()],
        )
        assert rule_ids(report) == ["GL002", "GL002"]
        assert all("every column of a batch" in f.message for f in report.findings)

    def test_fires_on_a_dict_probe_join(self, tmp_path):
        """The executor's joins are no decline path: a per-row probe of a
        key -> rows dict in one is a finding."""
        report = lint(
            tmp_path,
            {self.VECTORIZED: """
                class VectorizedExecutor:
                    def _execute_hash_join(self, outer_batch, outer_values, hash_table):
                        outer_picks, inner_picks = [], []
                        for op in range(outer_batch.length):
                            for ip in hash_table.get(outer_values[op], ()):
                                outer_picks.append(op)
                                inner_picks.append(ip)
                        return outer_picks, inner_picks
            """},
            [HotPathLoopRule()],
        )
        assert rule_ids(report) == ["GL002"]
        assert "VectorizedExecutor._execute_hash_join" in report.findings[0].message

    def test_clean_twin_join_probing_a_key_grouping(self, tmp_path):
        report = lint(
            tmp_path,
            {self.VECTORIZED: """
                class VectorizedExecutor:
                    def _execute_hash_join(self, outer_values, groups):
                        counts, inner_picks = groups.take_runs(groups.find(outer_values))
                        outer_picks = np.repeat(np.arange(len(counts)), counts)
                        return outer_picks, inner_picks
            """},
            [HotPathLoopRule()],
        )
        assert report.findings == []

    def test_clean_twin_batch_itself_and_loops_that_copy_nothing(self, tmp_path):
        report = lint(
            tmp_path,
            {self.VECTORIZED: """
                class Batch:
                    def to_rows(self):
                        return [python_values(self.column(key)) for key in self.sources]

                def _qualified_columns(data, prefix):
                    return {prefix + name: values for name, values in data.items()}

                def _key_column(batch, key, picks):
                    return gather(batch.column(key), picks)
            """},
            [HotPathLoopRule()],
        )
        assert report.findings == []

    EXPRESSIONS = "repro/engine/expressions.py"

    def test_fires_on_a_per_position_predicate_closure(self, tmp_path):
        """The predicate evaluator is a kernel too: the closure form it
        replaced, a comprehension over the position vector, is a finding."""
        report = lint(
            tmp_path,
            {self.EXPRESSIONS: """
                def _compile_comparison(op, key, const):
                    def filter_col_const(columns, positions):
                        values = columns.get(key)
                        return [i for i in positions if values[i] is not None and op(values[i], const)]
                    return filter_col_const
            """},
            [HotPathLoopRule()],
        )
        assert rule_ids(report) == ["GL002"]
        assert "_compile_comparison.filter_col_const" in report.findings[0].message

    def test_clean_twin_array_evaluator_and_its_declared_fallback(self, tmp_path):
        report = lint(
            tmp_path,
            {self.EXPRESSIONS: """
                def filter_positions(predicates, columns, positions):
                    live = as_index_array(positions)
                    for predicate in predicates:
                        live = live[_accepts(predicate, columns, live)]
                    return live

                def _evaluate_each(predicate, values):
                    keys = list(values)
                    columns = [values[key].tolist() for key in keys]
                    return [predicate.evaluate(dict(zip(keys, row))) for row in zip(*columns)]
            """},
            [HotPathLoopRule()],
        )
        assert report.findings == []

    def test_dead_allowlist_entry_detected(self, tmp_path):
        """With all kernel files present, unmatched allowlist entries fail."""
        stub = "def only_function():\n    return 0\n"
        report = lint(
            tmp_path,
            {
                "repro/engine/executor/vectorized.py": stub,
                "repro/engine/columns.py": stub,
                "repro/engine/executor/bufferpool.py": stub,
                "repro/engine/statistics.py": stub,
                "repro/engine/storage.py": stub,
                "repro/engine/expressions.py": stub,
            },
            [HotPathLoopRule()],
        )
        assert rule_ids(report) and all(rule == "GL002" for rule in rule_ids(report))
        assert all("dead GL002_ORACLE_FUNCTIONS" in f.message for f in report.findings)


# ---------------------------------------------------------------------------
# GL003 counter discipline
# ---------------------------------------------------------------------------


class TestGL003CounterDiscipline:
    METRICS = """
        DECLARED_COUNTERS = ("served", "failed")

        class Metrics:
            PROMETHEUS_HELP = {"served": "requests served", "failed": "requests failed"}
    """

    def test_clean_when_all_declared_and_incremented(self, tmp_path):
        report = lint(
            tmp_path,
            {
                "repro/service/metrics.py": self.METRICS,
                "repro/service/app.py": """
                    def handle(metrics):
                        metrics.increment("served")
                        metrics.increment("failed")
                """,
            },
            [CounterDisciplineRule()],
        )
        assert report.findings == []

    def test_fires_on_undeclared_increment(self, tmp_path):
        report = lint(
            tmp_path,
            {
                "repro/service/metrics.py": self.METRICS,
                "repro/service/app.py": """
                    def handle(metrics):
                        metrics.increment("served")
                        metrics.increment("failed")
                        metrics.increment("mystery")
                """,
            },
            [CounterDisciplineRule()],
        )
        assert rule_ids(report) == ["GL003"]
        assert "mystery" in report.findings[0].message

    def test_fires_on_dead_declared_counter(self, tmp_path):
        report = lint(
            tmp_path,
            {
                "repro/service/metrics.py": self.METRICS,
                "repro/service/app.py": """
                    def handle(metrics):
                        metrics.increment("served")
                """,
            },
            [CounterDisciplineRule()],
        )
        messages = [f.message for f in report.findings]
        # "failed" is declared + documented but never incremented.
        assert any("'failed'" in m and "never incremented" in m for m in messages)

    def test_fires_on_undocumented_help_key(self, tmp_path):
        report = lint(
            tmp_path,
            {
                "repro/service/metrics.py": """
                    DECLARED_COUNTERS = ("served",)

                    class Metrics:
                        PROMETHEUS_HELP = {"served": "ok", "ghost": "no such counter"}
                """,
                "repro/service/app.py": """
                    def handle(metrics):
                        metrics.increment("served")
                """,
            },
            [CounterDisciplineRule()],
        )
        assert rule_ids(report) == ["GL003"]
        assert "ghost" in report.findings[0].message

    def test_register_counter_literal_declares(self, tmp_path):
        report = lint(
            tmp_path,
            {
                "repro/service/app.py": """
                    def setup(metrics):
                        metrics.register_counter("extra")
                        metrics.increment("extra")
                """,
            },
            [CounterDisciplineRule()],
        )
        assert report.findings == []

    def test_fires_on_dynamic_counter_name(self, tmp_path):
        report = lint(
            tmp_path,
            {
                "repro/service/app.py": """
                    def handle(metrics, name):
                        metrics.increment(name)
                """,
            },
            [CounterDisciplineRule()],
        )
        assert rule_ids(report) == ["GL003"]
        assert "non-literal" in report.findings[0].message


# ---------------------------------------------------------------------------
# GL004 monotonic clocks
# ---------------------------------------------------------------------------


class TestGL004MonotonicClocks:
    def test_fires_on_time_time(self, tmp_path):
        report = lint(
            tmp_path,
            {"repro/obs/snippet.py": """
                import time

                def span():
                    started = time.time()
                    return time.time() - started
            """},
            [MonotonicClockRule()],
        )
        assert rule_ids(report) == ["GL004", "GL004"]

    def test_clean_twin_perf_counter(self, tmp_path):
        report = lint(
            tmp_path,
            {"repro/obs/snippet.py": """
                import time

                def span():
                    started = time.perf_counter()
                    return time.perf_counter() - started
            """},
            [MonotonicClockRule()],
        )
        assert report.findings == []

    def test_fires_on_from_import_and_alias(self, tmp_path):
        report = lint(
            tmp_path,
            {"repro/obs/snippet.py": """
                import time as clock
                from time import time as now

                def spans():
                    return clock.time(), now()
            """},
            [MonotonicClockRule()],
        )
        assert rule_ids(report) == ["GL004", "GL004"]

    def test_unrelated_time_attribute_clean(self, tmp_path):
        report = lint(
            tmp_path,
            {"repro/obs/snippet.py": """
                def span(record):
                    return record.time()
            """},
            [MonotonicClockRule()],
        )
        assert report.findings == []


# ---------------------------------------------------------------------------
# GL005 async hygiene
# ---------------------------------------------------------------------------


class TestGL005AsyncHygiene:
    PATH = "repro/service/snippet.py"

    def test_fires_on_blocking_sleep(self, tmp_path):
        report = lint(
            tmp_path,
            {self.PATH: """
                import time

                async def worker():
                    time.sleep(1.0)
            """},
            [AsyncHygieneRule()],
        )
        assert rule_ids(report) == ["GL005"]

    def test_clean_twin_asyncio_sleep(self, tmp_path):
        report = lint(
            tmp_path,
            {self.PATH: """
                import asyncio

                async def worker():
                    await asyncio.sleep(1.0)
            """},
            [AsyncHygieneRule()],
        )
        assert report.findings == []

    def test_fires_on_sync_queue_get_and_pool_shutdown(self, tmp_path):
        report = lint(
            tmp_path,
            {self.PATH: """
                async def drain(self):
                    item = self._learning_queue.get()
                    self._serve_pool.shutdown(wait=True)
                    return item
            """},
            [AsyncHygieneRule()],
        )
        assert sorted(rule_ids(report)) == ["GL005", "GL005"]

    def test_clean_awaited_queue_and_executor(self, tmp_path):
        report = lint(
            tmp_path,
            {self.PATH: """
                import asyncio

                async def drain(self, loop):
                    first = await self._queue.get()
                    second = await asyncio.wait_for(self._queue.get(), timeout=1)
                    third = await loop.run_in_executor(None, self._sync_queue.get)
                    self._serve_pool.shutdown(wait=False)
                    return first, second, third
            """},
            [AsyncHygieneRule()],
        )
        assert report.findings == []

    def test_fires_on_file_io_and_thread_join(self, tmp_path):
        report = lint(
            tmp_path,
            {self.PATH: """
                async def persist(self, path):
                    path.write_text("state")
                    open(path)
                    self._reader_thread.join()
            """},
            [AsyncHygieneRule()],
        )
        assert sorted(rule_ids(report)) == ["GL005", "GL005", "GL005"]

    def test_sync_def_in_service_ignored(self, tmp_path):
        report = lint(
            tmp_path,
            {self.PATH: """
                import time

                def sync_worker():
                    time.sleep(1.0)
            """},
            [AsyncHygieneRule()],
        )
        assert report.findings == []


# ---------------------------------------------------------------------------
# GL006 atomic writes
# ---------------------------------------------------------------------------


class TestGL006AtomicWrites:
    PATH = "repro/core/knowledge_base.py"

    def test_fires_on_bare_write_open(self, tmp_path):
        report = lint(
            tmp_path,
            {self.PATH: """
                def save(path, payload):
                    with open(path, "w") as handle:
                        handle.write(payload)
            """},
            [AtomicWriteRule()],
        )
        assert rule_ids(report) == ["GL006"]

    def test_fires_on_write_text(self, tmp_path):
        report = lint(
            tmp_path,
            {self.PATH: """
                def save(path, payload):
                    path.write_text(payload)
            """},
            [AtomicWriteRule()],
        )
        assert rule_ids(report) == ["GL006"]

    def test_clean_twin_inside_atomic_helper(self, tmp_path):
        report = lint(
            tmp_path,
            {self.PATH: """
                import os

                class KnowledgeBase:
                    @staticmethod
                    def _write_atomic(path, text):
                        temp = path.with_name(path.name + ".tmp")
                        temp.write_text(text)
                        os.replace(temp, path)
            """},
            [AtomicWriteRule()],
        )
        assert report.findings == []

    def test_read_open_clean(self, tmp_path):
        report = lint(
            tmp_path,
            {self.PATH: """
                def load(path):
                    with open(path) as handle:
                        return handle.read()
            """},
            [AtomicWriteRule()],
        )
        assert report.findings == []


# ---------------------------------------------------------------------------
# suppressions
# ---------------------------------------------------------------------------


class TestSuppressions:
    PATH = "repro/obs/snippet.py"
    VIOLATION = """
        import time

        def span():
            return time.time(){comment}
    """

    def test_justified_suppression_hides_finding(self, tmp_path):
        report = lint(
            tmp_path,
            {self.PATH: self.VIOLATION.format(
                comment="  # galolint: disable=GL004 -- wall clock is the point here"
            )},
            [MonotonicClockRule()],
        )
        assert report.findings == []

    def test_suppression_without_justification_is_gl000(self, tmp_path):
        report = lint(
            tmp_path,
            {self.PATH: self.VIOLATION.format(
                comment="  # galolint: disable=GL004"
            )},
            [MonotonicClockRule()],
        )
        # The original finding survives AND the bad suppression is flagged.
        assert sorted(rule_ids(report)) == [FRAMEWORK_RULE_ID, "GL004"]

    def test_unused_suppression_is_gl000(self, tmp_path):
        report = lint(
            tmp_path,
            {self.PATH: """
                import time

                def span():
                    # galolint: disable=GL004 -- stale: nothing here uses time.time
                    return time.perf_counter()
            """},
            [MonotonicClockRule()],
        )
        assert rule_ids(report) == [FRAMEWORK_RULE_ID]
        assert "unused suppression" in report.findings[0].message

    def test_comment_on_line_above_covers_statement(self, tmp_path):
        report = lint(
            tmp_path,
            {self.PATH: """
                import time

                def span():
                    # galolint: disable=GL004 -- wall clock is the point here
                    return time.time()
            """},
            [MonotonicClockRule()],
        )
        assert report.findings == []

    def test_directive_inside_string_is_inert(self, tmp_path):
        report = lint(
            tmp_path,
            {self.PATH: '''
                DOC = """example: # galolint: disable=GL004 -- docs only"""
            '''},
            [MonotonicClockRule()],
        )
        assert report.findings == []

    def test_suppression_for_wrong_rule_does_not_hide(self, tmp_path):
        report = lint(
            tmp_path,
            {self.PATH: self.VIOLATION.format(
                comment="  # galolint: disable=GL001 -- wrong rule id"
            )},
            [MonotonicClockRule()],
        )
        # GL004 survives; the GL001 suppression is unused.
        assert sorted(rule_ids(report)) == [FRAMEWORK_RULE_ID, "GL004"]


# ---------------------------------------------------------------------------
# baseline
# ---------------------------------------------------------------------------


class TestBaseline:
    PATH = "repro/obs/snippet.py"
    VIOLATING = """
        import time

        def span():
            return time.time()
    """
    FIXED = """
        import time

        def span():
            return time.perf_counter()
    """

    def test_baselined_finding_does_not_fail(self, tmp_path):
        report = lint(tmp_path, {self.PATH: self.VIOLATING}, [MonotonicClockRule()])
        baseline_path = tmp_path / "baseline.json"
        write_baseline(baseline_path, report.findings)

        fresh = lint(tmp_path, {self.PATH: self.VIOLATING}, [MonotonicClockRule()])
        apply_baseline(fresh, load_baseline(baseline_path))
        assert fresh.ok
        assert fresh.findings == [] and len(fresh.baselined) == 1

    def test_baseline_is_line_number_insensitive(self, tmp_path):
        report = lint(tmp_path, {self.PATH: self.VIOLATING}, [MonotonicClockRule()])
        baseline_path = tmp_path / "baseline.json"
        write_baseline(baseline_path, report.findings)

        shifted = "\n\n\n" + textwrap.dedent(self.VIOLATING)
        fresh = lint(tmp_path, {self.PATH: shifted}, [MonotonicClockRule()])
        apply_baseline(fresh, load_baseline(baseline_path))
        assert fresh.ok and len(fresh.baselined) == 1

    def test_fixed_finding_makes_baseline_entry_stale(self, tmp_path):
        """Monotonic shrink: fixing the code without pruning the baseline fails."""
        report = lint(tmp_path, {self.PATH: self.VIOLATING}, [MonotonicClockRule()])
        baseline_path = tmp_path / "baseline.json"
        write_baseline(baseline_path, report.findings)

        fresh = lint(tmp_path, {self.PATH: self.FIXED}, [MonotonicClockRule()])
        apply_baseline(fresh, load_baseline(baseline_path))
        assert not fresh.ok
        assert fresh.findings == [] and len(fresh.stale_baseline) == 1

    def test_new_finding_not_covered_by_baseline(self, tmp_path):
        report = lint(tmp_path, {self.PATH: self.VIOLATING}, [MonotonicClockRule()])
        baseline_path = tmp_path / "baseline.json"
        write_baseline(baseline_path, report.findings)

        # A *distinct* snippet: the baseline keys on (rule, path, snippet),
        # so an identical-text duplicate would ride the existing entry.
        grown = textwrap.dedent(self.VIOLATING) + "\n\ndef other():\n    return time.time() + 1\n"
        fresh = lint(tmp_path, {self.PATH: grown}, [MonotonicClockRule()])
        apply_baseline(fresh, load_baseline(baseline_path))
        assert not fresh.ok
        assert len(fresh.findings) == 1 and len(fresh.baselined) == 1


# ---------------------------------------------------------------------------
# framework plumbing
# ---------------------------------------------------------------------------


class TestFramework:
    def test_syntax_error_is_gl000(self, tmp_path):
        report = lint(
            tmp_path,
            {"repro/obs/broken.py": "def unterminated(:\n"},
            [MonotonicClockRule()],
        )
        assert rule_ids(report) == [FRAMEWORK_RULE_ID]
        assert "does not parse" in report.findings[0].message

    def test_duplicate_rule_id_rejected(self):
        class Duplicate(Rule):
            rule_id = "GL004"
            title = "clash"

        with pytest.raises(ValueError, match="duplicate rule id"):
            register_rule(Duplicate)

    def test_registry_has_all_six_rules(self):
        assert [cls.rule_id for cls in RULE_REGISTRY] == [
            "GL001", "GL002", "GL003", "GL004", "GL005", "GL006",
        ]


# ---------------------------------------------------------------------------
# the tree itself (tier-1: the lint is a test) + bench guard
# ---------------------------------------------------------------------------


class TestWholeTree:
    def test_tree_has_zero_findings_under_ten_seconds(self):
        started = time.perf_counter()
        report = run_analysis(SRC_ROOT)
        elapsed = time.perf_counter() - started
        assert report.findings == [], "\n".join(f.format() for f in report.findings)
        assert report.files_checked > 50
        assert elapsed < 10.0, f"galolint took {elapsed:.1f}s; must stay in the fast loop"

    @pytest.mark.slow
    def test_cli_json_output(self):
        completed = subprocess.run(
            [sys.executable, "-m", "repro.analysis", "--format=json"],
            capture_output=True,
            text=True,
            timeout=120,
            env={"PYTHONPATH": str(SRC_ROOT), "PATH": "/usr/bin:/bin:/usr/local/bin"},
        )
        assert completed.returncode == 0, completed.stdout + completed.stderr
        payload = json.loads(completed.stdout)
        assert payload["ok"] is True
        assert payload["findings"] == []
        assert payload["rules_run"] == [
            "GL001", "GL002", "GL003", "GL004", "GL005", "GL006",
        ]

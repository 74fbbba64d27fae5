"""Property-based tests (hypothesis) for core data structures and invariants."""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.learning.ranking import (
    candidate_cap_ms,
    kmeans_two_clusters,
    robust_elapsed_ms,
)
from repro.engine.executor import bufferpool
from repro.engine.executor.bufferpool import BufferPool, PageTrace
from repro.engine.executor.db2batch import Db2Batch
from repro.engine.executor.executor import ExecutionResult
from repro.engine.executor.metrics import RuntimeMetrics
from repro.engine.expressions import Between, ColumnRef, Comparison, InList, Literal
from repro.engine.columns import ColumnVector
from repro.engine.schema import Index, make_schema
from repro.engine.statistics import collect_column_statistics
from repro.engine.storage import TableData
from repro.engine.types import DataType, coerce_value
from repro.rdf.graph import Graph, Triple
from repro.rdf.sparql.ast import (
    FilterClause,
    FilterComparison,
    FilterLogical,
    PropertyPath,
    SelectQuery,
    StrCall,
    TriplePattern,
)
from repro.rdf.sparql.evaluator import _order_patterns
from repro.rdf.sparql.parser import parse_sparql
from repro.rdf.sparql.render import render_sparql
from repro.rdf.terms import IRI, BlankNode, Literal as RdfLiteral, Variable
from tests.naive_index import assert_equals_dict_index
from tests.naive_sparql import naive_order_patterns
from tests.naive_statistics import assert_equals_value_loop

DEFAULT_SETTINGS = settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])


# ---------------------------------------------------------------------------
# expressions
# ---------------------------------------------------------------------------

REF = ColumnRef("T", "x")


@DEFAULT_SETTINGS
@given(value=st.integers(-1000, 1000), bound=st.integers(-1000, 1000))
def test_comparison_matches_python_semantics(value, bound):
    row = {"T.x": value}
    assert Comparison("<", REF, Literal(bound)).evaluate(row) == (value < bound)
    assert Comparison("<=", REF, Literal(bound)).evaluate(row) == (value <= bound)
    assert Comparison(">", REF, Literal(bound)).evaluate(row) == (value > bound)
    assert Comparison(">=", REF, Literal(bound)).evaluate(row) == (value >= bound)
    assert Comparison("=", REF, Literal(bound)).evaluate(row) == (value == bound)
    assert Comparison("<>", REF, Literal(bound)).evaluate(row) == (value != bound)


@DEFAULT_SETTINGS
@given(value=st.integers(-100, 100), low=st.integers(-100, 100), high=st.integers(-100, 100))
def test_between_equals_two_comparisons(value, low, high):
    row = {"T.x": value}
    between = Between(REF, Literal(low), Literal(high)).evaluate(row)
    pair = (
        Comparison(">=", REF, Literal(low)).evaluate(row)
        and Comparison("<=", REF, Literal(high)).evaluate(row)
    )
    assert between == pair


@DEFAULT_SETTINGS
@given(value=st.integers(0, 20), members=st.lists(st.integers(0, 20), max_size=8))
def test_in_list_matches_python_membership(value, members):
    row = {"T.x": value}
    assert InList(REF, tuple(members)).evaluate(row) == (value in members)


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


@DEFAULT_SETTINGS
@given(values=st.lists(st.integers(-500, 500), min_size=1, max_size=300))
def test_equality_selectivity_is_a_probability(values):
    stats = collect_column_statistics("c", values)
    for probe in set(values[:10]) | {9999}:
        selectivity = stats.selectivity_equals(probe)
        assert 0.0 <= selectivity <= 1.0


@DEFAULT_SETTINGS
@given(values=st.lists(st.integers(-500, 500), min_size=2, max_size=300),
       low=st.integers(-600, 600), high=st.integers(-600, 600))
def test_range_selectivity_is_a_probability_and_monotone(values, low, high):
    stats = collect_column_statistics("c", values)
    selectivity = stats.selectivity_range(min(low, high), max(low, high))
    assert 0.0 <= selectivity <= 1.0
    # Widening the range can never reduce the selectivity estimate.
    wider = stats.selectivity_range(min(low, high) - 100, max(low, high) + 100)
    assert wider >= selectivity - 1e-9


@DEFAULT_SETTINGS
@given(values=st.lists(st.integers(0, 50), min_size=1, max_size=200))
def test_frequent_value_selectivities_sum_below_one(values):
    stats = collect_column_statistics("c", values)
    total = sum(stats.selectivity_equals(value) for value, _ in stats.frequent_values)
    assert total <= 1.0 + 1e-9


#: Per column type, the kinds of value a column of it may be filled from.
#: Narrow domains make repeats and count ties (more than ten values tied at
#: the tenth-largest count included); the others are what a typed array
#: cannot carry exactly or carries at the edge of its range.
_COLUMN_VALUES = {
    DataType.INTEGER: [
        st.integers(-12, 12),
        st.integers(-(2 ** 63), 2 ** 63 - 1),
        st.integers(2 ** 53, 2 ** 53 + 40),
        st.integers(-(2 ** 70), 2 ** 70),
        st.booleans(),
    ],
    DataType.DATE: [st.integers(17000, 17030), st.integers(-40000, 40000)],
    DataType.DECIMAL: [
        st.integers(-12, 12).map(lambda value: value / 4),
        st.floats(allow_nan=False),
        st.sampled_from([0.0, -0.0, 1.0, -1.0]),
        st.sampled_from([math.nan, math.inf, -math.inf, float("nan"), 0.5]),
        st.integers(-5, 5),
        st.integers(2 ** 53, 2 ** 53 + 40),
    ],
    DataType.VARCHAR: [st.text(alphabet="ab1", max_size=2), st.integers(0, 11)],
}


@st.composite
def _raw_columns(draw):
    """A column type and raw values for it: NULLs and one or more value kinds."""
    data_type = draw(st.sampled_from(sorted(_COLUMN_VALUES, key=lambda t: t.value)))
    kinds = draw(
        st.lists(st.sampled_from(_COLUMN_VALUES[data_type]), min_size=1, max_size=2)
    )
    nullable = draw(st.booleans())
    elements = st.one_of(*kinds, *([st.none()] if nullable else []))
    return data_type, draw(st.lists(elements, max_size=80))


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(column=_raw_columns(), appended=st.integers(0, 5))
def test_column_statistics_equal_the_value_loop(column, appended):
    """Whatever a ``ColumnVector`` holds, RUNSTATS on it -- array kernel or
    declined to the loop -- is the pre-kernel loop's result, types included,
    and stays so when an append has invalidated the typed view."""
    data_type, values = column
    vector = ColumnVector(data_type, values)
    assert_equals_value_loop(collect_column_statistics("c", vector), values)
    vector.extend(values[:appended])
    assert_equals_value_loop(
        collect_column_statistics("c", vector), values + values[:appended]
    )


# ---------------------------------------------------------------------------
# storage: the array index vs the dict-of-lists oracle
# ---------------------------------------------------------------------------

_SMALL_NUMBERS = [
    st.integers(-14, 14),
    st.integers(-14, 14).map(float),
    st.sampled_from([2.5, -0.5, 13.25]),
]
#: Per key type: the kinds of value a column is filled from, what it is
#: probed with beyond its own values (absent keys, NULL, an equal number of
#: the other numeric type, a value of another type) and its range bounds.
#: Numbers of different types meet only where float64 is exact.
_INDEX_KEYS = {
    "integer": (
        DataType.INTEGER,
        [st.integers(-12, 12), st.integers(-(2 ** 63), 2 ** 63 - 1)],
        _SMALL_NUMBERS + [st.sampled_from([None, "x", 2 ** 63 - 1, 2 ** 70])],
        _SMALL_NUMBERS + [st.sampled_from([-(2 ** 62), 2 ** 62, 2 ** 70])],
    ),
    "beyond int64": (
        DataType.INTEGER,
        [st.integers(-12, 12), st.sampled_from([2 ** 70, -(2 ** 65), 2 ** 70 + 1])],
        _SMALL_NUMBERS + [st.sampled_from([None, "x", 2 ** 70, float(2 ** 70), 2 ** 71])],
        _SMALL_NUMBERS + [st.sampled_from([2 ** 70, -(2 ** 66), 1e30])],
    ),
    "date": (
        DataType.DATE,
        [st.integers(17000, 17012), st.sampled_from(["2016-07-20", "2016-07-24"])],
        [st.integers(16998, 17014), st.sampled_from([None, 17003.0, 17003.5, "x"])],
        [st.integers(16998, 17014), st.sampled_from([17003.5, 0.0])],
    ),
    "decimal": (
        DataType.DECIMAL,
        [
            st.integers(-12, 12).map(lambda value: value / 4),
            st.sampled_from([0.0, -0.0, 1.0, 1e10, -1e-5, 7]),
        ],
        _SMALL_NUMBERS + [st.sampled_from([None, "x", 0, -0.0, 10 ** 10])],
        _SMALL_NUMBERS + [st.sampled_from([0, -0.0, 10 ** 10])],
    ),
    "varchar": (
        DataType.VARCHAR,
        [st.text(alphabet="ab1", max_size=2), st.integers(0, 11)],
        [st.text(alphabet="ab1", max_size=2), st.sampled_from([None, 5, 2.5, "10"])],
        [st.text(alphabet="ab19", max_size=2)],
    ),
}


@st.composite
def _indexed_columns(draw):
    data_type, kinds, probes, bounds = _INDEX_KEYS[draw(st.sampled_from(sorted(_INDEX_KEYS)))]
    values = draw(st.lists(st.one_of(st.none(), *kinds), max_size=60))
    stored = [coerce_value(value, data_type) for value in values]
    present = [st.sampled_from(stored)] if stored else []
    return (
        data_type,
        values,
        draw(st.lists(st.one_of(*present, *probes), max_size=12)),
        draw(st.lists(st.one_of(*present, *bounds).filter(lambda b: b is not None), max_size=4)),
    )


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    column=_indexed_columns(),
    cuts=st.lists(st.integers(0, 60), max_size=3),
    read_between=st.booleans(),
)
def test_index_equals_the_dict_of_lists(column, cuts, read_between):
    """Whatever an indexed column holds -- duplicates, NULLs, floats, dates,
    strings, an integer beyond int64 -- and however it was loaded (one batch
    or several, the index read between them or not), every read of the array
    index returns the dict-of-lists index's row ids in its order."""
    data_type, values, probes, bounds = column
    schema = make_schema("T", [("k", data_type)], [Index("T_K", "T", "k")])
    data = TableData(schema)
    index = data.build_index(schema.indexes[0])
    edges = [0] + sorted(cuts) + [len(values)]
    for start, stop in zip(edges, edges[1:]):
        data.insert_rows({"k": value} for value in values[start:stop])
        if read_between:
            index.lookup(None)
    stored = data.column_values("k").tolist()
    if data_type is DataType.VARCHAR:
        bounds = [bound for bound in bounds if isinstance(bound, str)]
    assert_equals_dict_index(index, stored, list(probes) + stored[:5], bounds)


# ---------------------------------------------------------------------------
# buffer pool: trace replay vs the per-page LRU oracle
# ---------------------------------------------------------------------------

#: Interleaved traces over two tables with heavy page reuse (pages 0..30), so
#: runs randomly land on both sides of the eviction-free bound.
_trace_ops = st.lists(
    st.tuples(
        st.sampled_from(["S", "T"]),
        st.lists(st.integers(0, 30), max_size=60),
    ),
    min_size=1,
    max_size=5,
)


def _assert_pools_identical(candidate, oracle):
    """Counters AND the full LRU recency order must match the oracle."""
    assert candidate.logical_reads == oracle.logical_reads
    assert candidate.physical_reads == oracle.physical_reads
    assert list(candidate._pages) == list(oracle._pages)


@DEFAULT_SETTINGS
@given(
    capacities=st.lists(st.integers(1, 48), min_size=1, max_size=3),
    ops=_trace_ops,
)
def test_access_many_matches_per_page_oracle(capacities, ops):
    """Trace replay is per-access LRU, observably: same misses, same counters,
    same final recency order.  Each trace is *one* object replayed into pools
    of several capacities, each holding whatever the traces before it left
    resident, with the summary path offered on every replay (threshold forced
    to zero): replays that cannot evict take it, the others decline to the
    loop -- and a trace's summary is computed once, however often and into
    whatever pool it is replayed."""
    traces = [
        (table, PageTrace(np.asarray(pages, dtype=np.intp))) for table, pages in ops
    ]
    unique_calls = []
    numpy_unique = np.unique

    def counting_unique(*args, **kwargs):
        unique_calls.append(args)
        return numpy_unique(*args, **kwargs)

    original_threshold = bufferpool._SUMMARY_MIN_ACCESSES
    bufferpool._SUMMARY_MIN_ACCESSES = 0
    np.unique = counting_unique
    try:
        for capacity in capacities:
            candidate = BufferPool(capacity_pages=capacity)
            oracle = BufferPool(capacity_pages=capacity)
            for table, trace in traces:
                pages = trace.pages.tolist()
                misses = candidate.access_many(table, trace)
                assert misses == sum(not oracle.access(table, page) for page in pages)
                _assert_pools_identical(candidate, oracle)
            # A plain page sequence is the loop itself.
            for table, trace in traces:
                pages = trace.pages.tolist()
                misses = candidate.access_many(table, pages)
                assert misses == sum(not oracle.access(table, page) for page in pages)
                _assert_pools_identical(candidate, oracle)
    finally:
        np.unique = numpy_unique
        bufferpool._SUMMARY_MIN_ACCESSES = original_threshold
    assert len(unique_calls) == len(traces)


@DEFAULT_SETTINGS
@given(
    capacity=st.integers(1, 48),
    runs=st.lists(
        st.tuples(
            st.sampled_from(["S", "T"]),
            st.integers(0, 20),
            st.integers(0, 40),
        ),
        min_size=1,
        max_size=5,
    ),
)
def test_access_sequential_matches_per_page_oracle(capacity, runs):
    """Sequential runs (including the empty-pool fast path on the first run)
    equal per-page accesses over the same range."""
    candidate = BufferPool(capacity_pages=capacity)
    oracle = BufferPool(capacity_pages=capacity)
    for table, first, count in runs:
        misses = candidate.access_sequential(table, first, count)
        expected = sum(
            not oracle.access(table, page) for page in range(first, first + count)
        )
        assert misses == expected
        _assert_pools_identical(candidate, oracle)


# ---------------------------------------------------------------------------
# RDF graph
# ---------------------------------------------------------------------------

_iris = st.text(alphabet="abcdefghij", min_size=1, max_size=6).map(
    lambda s: IRI(f"http://x/{s}")
)
_blank_nodes = st.text(alphabet="abc123", min_size=1, max_size=4).map(BlankNode)
#: Everything the N-Triples escaping and the line pattern must get right:
#: quotes and (runs of, trailing) backslashes, the three escaped controls,
#: line-boundary characters that are *not* escaped, and the syntax of the
#: format itself inside a string.
_HAZARDS = ["\\", '"', "\n", "\r", "\t", "\u2028", "\x85", ">", '" .', "^^<", "n", " ", "."]
_strings = st.one_of(
    st.text(alphabet=st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"),
            max_size=12),
    st.lists(st.sampled_from(_HAZARDS), max_size=8).map("".join),
)
_literals = st.one_of(
    st.integers(-1000, 1000),
    st.integers(-(2 ** 70), 2 ** 70),
    st.floats(allow_nan=False),
    _strings,
).map(RdfLiteral)
_triples = st.tuples(
    st.one_of(_iris, _blank_nodes), _iris, st.one_of(_iris, _blank_nodes, _literals)
).map(lambda t: Triple(t[0], t[1], t[2]))


def _typed(graph):
    """The graph's triples with each literal's Python type (1 == 1.0 == True)."""
    return {
        (triple, type(triple.object.value) if isinstance(triple.object, RdfLiteral) else None)
        for triple in graph
    }


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(triples=st.lists(_triples, max_size=40))
def test_ntriples_round_trip(triples):
    graph = Graph(triples)
    text = graph.to_ntriples()
    parsed = Graph.from_ntriples(text)
    assert _typed(parsed) == _typed(graph)
    assert parsed.to_ntriples() == text
    # The indexes are filled, not just the triple set.
    for triple in triples[:5]:
        assert triple.object in parsed.objects(triple.subject, triple.predicate)
        assert triple.subject in parsed.subjects(triple.predicate, triple.object)


@DEFAULT_SETTINGS
@given(triples=st.lists(_triples, max_size=40))
def test_pattern_queries_consistent_with_full_scan(triples):
    graph = Graph(triples)
    for triple in list(graph)[:5]:
        assert triple in set(graph.triples(triple.subject, None, None))
        assert triple in set(graph.triples(None, triple.predicate, None))
        assert triple in set(graph.triples(None, None, triple.object))
        assert set(graph.triples(triple.subject, triple.predicate, triple.object)) == {triple}


# ---------------------------------------------------------------------------
# SPARQL: pattern ordering and the text round trip
# ---------------------------------------------------------------------------

_NS = "http://galo/qep/property/"
_variables = st.sampled_from("abcde").map(Variable)
_predicates = st.sampled_from(["hasPopType", "hasOutputStream", "x-y_1"]).map(
    lambda name: IRI(_NS + name)
)
_constants = st.one_of(
    _predicates,
    st.sampled_from(["HSJOIN", "it's", ""]).map(RdfLiteral),
    st.integers(-5, 5).map(RdfLiteral),
)
#: Repeated variables inside one pattern, property paths and patterns without
#: any variable all occur.
_patterns = st.builds(
    TriplePattern,
    st.one_of(_variables, _constants),
    st.one_of(_variables, _predicates, _predicates.map(PropertyPath)),
    st.one_of(_variables, _constants),
)


@settings(max_examples=300, deadline=None)
@given(patterns=st.lists(_patterns, max_size=12))
def test_pattern_order_equals_the_rescoring_oracle(patterns):
    ordered = _order_patterns(patterns)
    expected = naive_order_patterns(patterns)
    assert len(ordered) == len(expected)
    assert all(a is b for a, b in zip(ordered, expected))


_numbers = st.one_of(
    st.integers(-(2 ** 70), 2 ** 70),
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(0, 1e6).map(lambda value: float(f"{value:.4f}")),
)
_operands = st.one_of(
    _variables,
    _variables.map(StrCall),
    _numbers.map(RdfLiteral),
    st.sampled_from(["HSJOIN", "it's", 'say "x"', ""]).map(RdfLiteral),
)
_comparisons = st.builds(
    FilterComparison, st.sampled_from(["<=", ">=", "!=", "=", "<", ">"]), _operands, _operands
)
_expressions = st.recursive(
    _comparisons,
    lambda inner: st.one_of(
        st.builds(
            FilterLogical,
            st.sampled_from(["&&", "||"]),
            st.lists(inner, min_size=2, max_size=3).map(tuple),
        ),
        st.builds(FilterLogical, st.just("!"), st.tuples(inner)),
    ),
    max_leaves=6,
)


@settings(max_examples=300, deadline=None)
@given(
    variables=st.lists(_variables, min_size=1, max_size=4),
    select_all=st.booleans(),
    distinct=st.booleans(),
    where=st.lists(st.one_of(_patterns, _expressions.map(FilterClause)), max_size=10),
    limit=st.one_of(st.none(), st.integers(0, 50)),
    prefixed=st.booleans(),
)
def test_sparql_text_round_trip(variables, select_all, distinct, where, limit, prefixed):
    query = SelectQuery(
        variables=[] if select_all else variables,
        select_all=select_all,
        distinct=distinct,
        where=where,
        limit=limit,
        prefixes={"p": _NS} if prefixed else {},
    )
    text = render_sparql(query)
    parsed = parse_sparql(text)
    assert parsed == query
    # ``Literal(1) == Literal(1.0)``: the repr tells them apart.
    assert repr(parsed) == repr(query)
    assert render_sparql(parsed) == text
    assert ("p:hasPopType" in text) == (prefixed and _NS + "hasPopType" in repr(where))


# ---------------------------------------------------------------------------
# K-means ranking
# ---------------------------------------------------------------------------


@DEFAULT_SETTINGS
@given(values=st.lists(st.floats(min_value=0.1, max_value=1e4, allow_nan=False), min_size=1, max_size=40))
def test_kmeans_assignments_cover_all_points(values):
    assignments, centroids = kmeans_two_clusters(values)
    assert len(assignments) == len(values)
    assert set(assignments) <= {0, 1}
    assert centroids[0] <= centroids[1]
    # Every prospective (cluster 0) value is no larger than every anomaly value's centroid.
    zero_values = [v for v, a in zip(values, assignments) if a == 0]
    one_values = [v for v, a in zip(values, assignments) if a == 1]
    if zero_values and one_values:
        assert max(zero_values) <= max(one_values)


# ---------------------------------------------------------------------------
# db2batch: the inequality the incumbent bound's exactness rests on
# ---------------------------------------------------------------------------


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    base=st.floats(1e-3, 1e6),
    noise_seed=st.integers(0, 2**31 - 1),
    runs=st.integers(1, 9),
    interference_probability=st.floats(0.0, 1.0),
    cap_ratio=st.floats(0.2, 5.0),
)
def test_noise_filtered_time_is_at_least_base_times_smallest_factor(
    base, noise_seed, runs, interference_probability, cap_ratio, mini_db
):
    """Whatever subset of the samples the K-means step keeps, their mean is
    no lower than the smallest sample, ``base x min(factor)`` -- so a base
    above ``cap / min(factor)`` (what ``benchmark_within`` stops a plan at)
    puts the noise-filtered time above the cap."""
    qgm = mini_db.explain("SELECT COUNT(*) FROM outlet")
    batch = Db2Batch(
        mini_db.catalog,
        mini_db.config.with_overrides(noise_seed=noise_seed),
        runs=runs,
        interference_probability=interference_probability,
        executor=mini_db.executor,
    )
    factors = batch.noise_factors(qgm)
    smallest = min(
        scale * batch.interference_factor if spiked else scale
        for scale, spiked in factors
    )
    measurement = batch._measurement(
        qgm, ExecutionResult(metrics=RuntimeMetrics(), elapsed_ms=base), factors
    )
    robust = robust_elapsed_ms(measurement)
    # A mean of floats can round a few ulps below its smallest term; the cap
    # carries nine orders of magnitude more head-room than that.
    assert robust >= base * smallest * (1.0 - 1e-12)
    # The consequence, with the cap exactly as the learning tier builds it:
    # the margin in the cap absorbs that rounding.
    cap_ms = candidate_cap_ms(base * cap_ratio, None, 0.15)
    if base > cap_ms / smallest:
        assert robust > 1.02 * 0.85 * (base * cap_ratio)


# ---------------------------------------------------------------------------
# end-to-end: random workload queries parse, bind, optimize, and the plan
# covers exactly the query's tables
# ---------------------------------------------------------------------------


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 10_000))
def test_generated_tpcds_queries_always_plan(seed, tiny_tpcds_workload):
    from repro.workloads.tpcds.queries import tpcds_model
    from repro.workloads.generator import StarQueryGenerator

    generator = StarQueryGenerator(tpcds_model(), seed=seed)
    query = generator.generate(1)[0]
    qgm = tiny_tpcds_workload.database.explain(query.sql)
    planned_tables = {scan.table for scan in qgm.scans()}
    assert query.fact in planned_tables
    assert planned_tables == {query.fact} | set(query.dimensions)


@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 10_000))
def test_random_plans_agree_with_optimizer_plan_results(seed, mini_db):
    """All valid plans for the same query return the same result multiset."""
    sql = (
        "SELECT i_category, COUNT(*) FROM sales, item, date_dim "
        "WHERE s_item_sk = i_item_sk AND s_date_sk = d_date_sk AND d_year >= 2018 "
        "GROUP BY i_category"
    )
    reference = mini_db.execute_sql(sql)
    generator = mini_db.random_plan_generator
    original_seed = generator.seed
    try:
        generator.seed = seed
        plans = generator.generate(mini_db.bind(sql), 2)
    finally:
        generator.seed = original_seed
    reference_counter = Counter(tuple(sorted(row.items())) for row in reference.rows)
    for plan in plans:
        rows = mini_db.execute_plan(plan).rows
        assert Counter(tuple(sorted(row.items())) for row in rows) == reference_counter


# ---------------------------------------------------------------------------
# plan builder: the memo of connecting predicates
# ---------------------------------------------------------------------------

_rows = st.floats(0, 1e12)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    outer_rows=_rows,
    inner_rows=_rows,
    output_rows=_rows,
    rows_per_lookup=st.floats(0, 1e9),
    inner_cost=st.floats(0, 1e15),
    cluster_ratio=st.floats(0, 1),
    bloom_filter=st.booleans(),
)
def test_no_join_operator_cost_is_negative(
    outer_rows, inner_rows, output_rows, rows_per_lookup, inner_cost, cluster_ratio,
    bloom_filter, mini_db,
):
    """The one premise of the join enumerator's bound: whatever the rows (and
    so the pages, on either side of the sort heap) and the cluster ratio, an
    operator's own cost and the SORT a merge input adds are >= 0 (and not
    NaN), so no candidate costs less than its two inputs together."""
    from repro.engine.optimizer.costmodel import CostModel

    cost_model = CostModel(mini_db.catalog)
    index = Index("ANY", "SALES", "s_item_sk", cluster_ratio=cluster_ratio)
    lookup_cost = cost_model.index_lookup_cost("SALES", index, rows_per_lookup)
    assert lookup_cost >= 0
    assert cost_model.sort_cost(outer_rows) >= 0
    assert cost_model.hash_join_cost(
        outer_rows, inner_rows, output_rows, bloom_filter=bloom_filter
    ) >= 0
    assert cost_model.merge_join_cost(
        outer_rows, inner_rows, output_rows, outer_sorted=True, inner_sorted=True
    ) >= 0
    for per_outer_row in (lookup_cost, max(inner_cost, 1e-3)):
        assert cost_model.nested_loop_join_cost(outer_rows, per_outer_row, output_rows) >= 0


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    tables=st.lists(st.integers(0, 3), min_size=2, max_size=5),
    edges=st.lists(
        st.tuples(st.integers(0, 4), st.integers(0, 4), st.sampled_from(["=", "<", ">="])),
        max_size=8,
    ),
)
def test_builder_memo_equals_joins_between_for_every_disjoint_pair(
    tables, edges, mini_db
):
    """Over a random bound query -- any table instances, any join predicates,
    duplicates and same-instance comparisons included -- the builder answers
    every pair of disjoint alias sets, in both orientations and on a repeated
    ask, with exactly ``BoundQuery.joins_between``'s predicates in its order."""
    import itertools

    from repro.engine.optimizer.builder import PlanBuilder
    from repro.engine.sql.binder import BoundQuery, BoundTable

    catalog = mini_db.catalog
    names = catalog.table_names
    assert len(names) == 4
    bound = [
        BoundTable(names[table], f"T{position}", catalog.table_schema(names[table]))
        for position, table in enumerate(tables)
    ]
    key = {table.alias: table.schema.columns[0].name for table in bound}
    query = BoundQuery(
        sql="",
        tables=bound,
        join_predicates=[
            Comparison(
                op,
                ColumnRef(bound[left % len(bound)].alias, key[bound[left % len(bound)].alias]),
                ColumnRef(bound[right % len(bound)].alias, key[bound[right % len(bound)].alias]),
            )
            for left, right, op in edges
        ],
    )
    builder = PlanBuilder(catalog, query)
    for sides in itertools.product((0, 1, 2), repeat=len(bound)):
        left = frozenset(t.alias for t, side in zip(bound, sides) if side == 1)
        right = frozenset(t.alias for t, side in zip(bound, sides) if side == 2)
        if not left or not right:
            continue
        for _ in range(2):
            assert builder.connecting_predicates(left, right) == tuple(
                query.joins_between(left, right)
            )
            assert builder.connecting_predicates(right, left) == tuple(
                query.joins_between(right, left)
            )

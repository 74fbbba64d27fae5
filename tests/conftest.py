"""Shared fixtures: a small star-schema database and tiny workloads.

The ``mini_db`` fixture is deliberately small (a few thousand rows) yet skewed
and correlated the same way the real workloads are, so optimizer mis-estimation
-- and therefore GALO's learning opportunities -- are present in every test
that needs them.

Test tiers
----------
Long-running tests (workload builds, offline learning, experiment sweeps) are
marked ``slow``.  The fast development loop is::

    PYTHONPATH=src python -m pytest -q -m "not slow"

which finishes in a few seconds; the tier-1 verification command
(``PYTHONPATH=src python -m pytest -x -q``) still runs everything.
"""

from __future__ import annotations

import random

import pytest


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "slow: long-running integration / experiment tests "
        '(deselect with -m "not slow")',
    )

from repro.engine.config import DbConfig
from repro.engine.database import Database
from repro.engine.schema import Index, make_schema
from repro.engine.types import DataType


CATEGORIES = ["Music", "Jewelry", "Books", "Sports", "Home"]


def build_mini_database(
    seed: int = 0, sales_rows: int = 8000, config: DbConfig = None
) -> Database:
    """A 4-table star schema: SALES fact plus ITEM / DATE_DIM / OUTLET dims."""
    db = Database(config=config or DbConfig())
    db.create_table(
        make_schema(
            "ITEM",
            [
                ("i_item_sk", DataType.INTEGER),
                ("i_category", DataType.VARCHAR),
                ("i_class", DataType.VARCHAR),
                ("i_price", DataType.DECIMAL),
            ],
            [Index("I_ITEM_PK", "ITEM", "i_item_sk", unique=True, cluster_ratio=0.99)],
        )
    )
    db.create_table(
        make_schema(
            "DATE_DIM",
            [
                ("d_date_sk", DataType.INTEGER),
                ("d_date", DataType.DATE),
                ("d_year", DataType.INTEGER),
            ],
            [Index("D_DATE_PK", "DATE_DIM", "d_date_sk", unique=True, cluster_ratio=0.99)],
        )
    )
    db.create_table(
        make_schema(
            "OUTLET",
            [
                ("o_outlet_sk", DataType.INTEGER),
                ("o_state", DataType.VARCHAR),
            ],
            [Index("O_OUTLET_PK", "OUTLET", "o_outlet_sk", unique=True, cluster_ratio=0.99)],
        )
    )
    db.create_table(
        make_schema(
            "SALES",
            [
                ("s_item_sk", DataType.INTEGER),
                ("s_date_sk", DataType.INTEGER),
                ("s_outlet_sk", DataType.INTEGER),
                ("s_quantity", DataType.INTEGER),
                ("s_price", DataType.DECIMAL),
            ],
            [
                Index("S_DATE_IDX", "SALES", "s_date_sk", cluster_ratio=0.97),
                Index("S_ITEM_IDX", "SALES", "s_item_sk", cluster_ratio=0.2),
                Index("S_OUTLET_IDX", "SALES", "s_outlet_sk", cluster_ratio=0.25),
            ],
        )
    )

    rng = random.Random(seed)
    db.load_rows(
        "ITEM",
        [
            {
                "i_item_sk": sk,
                # skewed categories, i_class determined by i_category
                "i_category": CATEGORIES[min(len(CATEGORIES) - 1, int(len(CATEGORIES) * rng.random() ** 1.5))],
                "i_class": f"class_{sk % 4}",
                "i_price": round(rng.uniform(1, 200), 2),
            }
            for sk in range(1200)
        ],
    )
    # 10 years of dates; sales only hit the last year.
    db.load_rows(
        "DATE_DIM",
        [{"d_date_sk": sk, "d_date": 9000 + sk, "d_year": 2009 + sk // 365} for sk in range(3650)],
    )
    db.load_rows(
        "OUTLET",
        [{"o_outlet_sk": sk, "o_state": ["CA", "NY", "TX", "WA"][sk % 4]} for sk in range(40)],
    )
    sales = [
        {
            "s_item_sk": min(1199, int(1200 * rng.random() ** 1.3)),
            "s_date_sk": rng.randint(3285, 3649),
            "s_outlet_sk": rng.randrange(40),
            "s_quantity": rng.randint(1, 10),
            "s_price": round(rng.uniform(1, 300), 2),
        }
        for _ in range(sales_rows)
    ]
    sales.sort(key=lambda row: row["s_date_sk"])
    db.load_rows("SALES", sales)
    return db


@pytest.fixture(scope="session")
def mini_db() -> Database:
    """Session-scoped small database (read-only in tests)."""
    return build_mini_database()


@pytest.fixture(scope="session")
def serving_db() -> Database:
    """Mid-size mini database for the serving-tier integration tests.

    Separate from ``mini_db`` so background learning runs in a second or two;
    the serving tests only read from it (learning mutates the knowledge base,
    never the database).
    """
    return build_mini_database(sales_rows=4000)


#: A handful of analytic queries over the mini database, as (name, sql).
MINI_QUERIES = [
    (
        "q_join2",
        "SELECT i_category, COUNT(*) FROM sales, item "
        "WHERE s_item_sk = i_item_sk AND i_category = 'Jewelry' GROUP BY i_category",
    ),
    (
        "q_join3",
        "SELECT i_category, SUM(s_price) FROM sales, item, date_dim "
        "WHERE s_item_sk = i_item_sk AND s_date_sk = d_date_sk AND d_year >= 2018 "
        "GROUP BY i_category",
    ),
    (
        "q_join4",
        "SELECT i_category, o_state, COUNT(*) FROM sales, item, date_dim, outlet "
        "WHERE s_item_sk = i_item_sk AND s_date_sk = d_date_sk AND s_outlet_sk = o_outlet_sk "
        "AND i_category = 'Music' AND o_state = 'CA' GROUP BY i_category, o_state",
    ),
    (
        "q_filter_range",
        "SELECT i_class, COUNT(*) FROM sales, item, date_dim "
        "WHERE s_item_sk = i_item_sk AND s_date_sk = d_date_sk "
        "AND d_date BETWEEN 12500 AND 12600 GROUP BY i_class",
    ),
]


@pytest.fixture(scope="session")
def mini_queries() -> list:
    """A handful of analytic queries over the mini database."""
    return list(MINI_QUERIES)


@pytest.fixture(scope="session")
def tiny_tpcds_workload():
    """A scaled-down TPC-DS workload shared across integration tests."""
    from repro.workloads.workload import load_workload

    return load_workload("tpcds", scale=0.15, query_count=20)


@pytest.fixture(scope="session")
def tiny_client_workload():
    """A scaled-down client workload shared across integration tests."""
    from repro.workloads.workload import load_workload

    return load_workload("client", scale=0.15, query_count=20)


def learn_first_queries(workload, queries=6, max_joins=3):
    """A GALO over ``workload``'s database that learned its first few queries."""
    from repro.core.galo import Galo
    from repro.core.learning.engine import LearningConfig
    from repro.core.matching.engine import MatchingConfig

    galo = Galo(
        workload.database,
        learning_config=LearningConfig(
            max_joins=max_joins, random_plans_per_subquery=4, max_variants=2
        ),
        matching_config=MatchingConfig(max_joins=max_joins),
    )
    galo.learn(workload.queries[:queries], workload_name=workload.name)
    assert len(galo.knowledge_base) > 0
    return galo


@pytest.fixture(scope="session")
def tiny_tpcds_galo(tiny_tpcds_workload):
    """Shared by the tests that steer by, or force, learned TPC-DS guidelines."""
    return learn_first_queries(tiny_tpcds_workload)

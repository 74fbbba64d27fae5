"""Serve a query stream online: GALO as a long-lived, continuously learning service.

Run with::

    python examples/serve_workload.py

The script builds a small skewed star schema, starts a :class:`GaloService`
with an *empty* knowledge base, and pushes the same query mix through it in
three waves:

1. wave 1 runs cold -- every query executes on the optimizer's plan, and
   runtime feedback spots the mis-estimated ones (large cardinality q-errors)
   and enqueues them for background learning;
2. by wave 2 the background learner has stored problem-pattern templates, so
   repeat statements are matched against the knowledge base and run on
   steered plans;
3. wave 3 shows the steady state plus the service metrics (throughput,
   latency percentiles, learning counters) and the knowledge-base lifecycle
   (size cap enforcement / eviction).

After the last wave it persists what the service learned: once ``drain()``
returns no learning is in flight, so ``Galo.save_knowledge_base(directory)``
checkpoints every learned template, and a restarted service picks them up
with ``Galo.load_knowledge_base(directory)``.

The script exits non-zero if a request failed, a learning task raised, or no
learning task completed -- so it doubles as an end-to-end check of the
learning-on queue.
"""

from __future__ import annotations

import asyncio
import random
import tempfile

from repro import Database, Galo, GaloService, KnowledgeBase, ServiceConfig
from repro.core.learning.engine import LearningConfig
from repro.engine.schema import Index, make_schema
from repro.engine.types import DataType


def build_database() -> Database:
    """A small star schema: SALES fact plus ITEM / DATE_DIM dimensions."""
    db = Database()
    db.create_table(
        make_schema(
            "ITEM",
            [("i_item_sk", DataType.INTEGER), ("i_category", DataType.VARCHAR),
             ("i_price", DataType.DECIMAL)],
            [Index("I_ITEM_PK", "ITEM", "i_item_sk", unique=True, cluster_ratio=0.99)],
        )
    )
    db.create_table(
        make_schema(
            "DATE_DIM",
            [("d_date_sk", DataType.INTEGER), ("d_year", DataType.INTEGER)],
            [Index("D_DATE_PK", "DATE_DIM", "d_date_sk", unique=True, cluster_ratio=0.99)],
        )
    )
    db.create_table(
        make_schema(
            "SALES",
            [("s_item_sk", DataType.INTEGER), ("s_date_sk", DataType.INTEGER),
             ("s_price", DataType.DECIMAL)],
            [
                Index("S_DATE_IDX", "SALES", "s_date_sk", cluster_ratio=0.97),
                # Poorly clustered foreign-key index: the flooding pattern.
                Index("S_ITEM_IDX", "SALES", "s_item_sk", cluster_ratio=0.2),
            ],
        )
    )
    rng = random.Random(7)
    categories = ["Jewelry", "Music", "Books", "Sports", "Home"]
    db.load_rows(
        "ITEM",
        [{"i_item_sk": sk, "i_category": categories[min(4, int(5 * rng.random() ** 1.5))],
          "i_price": round(rng.uniform(1, 300), 2)} for sk in range(1200)],
    )
    # 10 years of dates; sales cluster in the last year (the Figure-8 skew).
    db.load_rows("DATE_DIM", [{"d_date_sk": sk, "d_year": 2009 + sk // 365} for sk in range(3650)])
    db.load_rows(
        "SALES",
        sorted(
            (
                {
                    "s_item_sk": min(1199, int(1200 * rng.random() ** 1.3)),
                    "s_date_sk": rng.randint(3285, 3649),
                    "s_price": round(rng.uniform(1, 300), 2),
                }
                for _ in range(6000)
            ),
            key=lambda row: row["s_date_sk"],
        ),
    )
    return db


QUERY_MIX = [
    (
        "jewelry_count",
        "SELECT i_category, COUNT(*) FROM sales, item "
        "WHERE s_item_sk = i_item_sk AND i_category = 'Jewelry' GROUP BY i_category",
    ),
    (
        "yearly_revenue",
        "SELECT i_category, SUM(s_price) FROM sales, item, date_dim "
        "WHERE s_item_sk = i_item_sk AND s_date_sk = d_date_sk AND d_year >= 2018 "
        "GROUP BY i_category",
    ),
    (
        "music_scan",
        "SELECT i_category, COUNT(*) FROM sales, item "
        "WHERE s_item_sk = i_item_sk AND i_category = 'Music' GROUP BY i_category",
    ),
]


async def main() -> None:
    db = build_database()
    galo = Galo(db, learning_config=LearningConfig(max_joins=3, random_plans_per_subquery=4))
    config = ServiceConfig(max_pending=32, kb_capacity=8)
    service = GaloService(galo, config)

    async with service:
        for wave in (1, 2, 3):
            requests = [(f"{name}#w{wave}", sql) for name, sql in QUERY_MIX for _ in range(2)]
            steered = 0
            async for response in service.stream(requests):
                steered += response.steered
                print(
                    f"  wave {wave} {response.query_name:<22} {response.status:<8} "
                    f"rows={len(response.rows):<3} q-err={response.max_q_error:6.1f} "
                    f"{'steered ' + str(response.matched_template_ids) if response.steered else 'baseline'}"
                )
            # Let the background learner catch up between waves so the demo
            # shows the before/after; a real deployment would never wait.
            await service.drain()
            print(
                f"wave {wave}: {steered}/{len(requests)} steered, "
                f"knowledge base holds {galo.template_count} templates\n"
            )

        snapshot = service.metrics.snapshot()
        print("service metrics:")
        for key in sorted(snapshot):
            print(f"  {key:<22} {snapshot[key]:.3f}")
        if snapshot["failed"] or snapshot["learning_failed"]:
            raise RuntimeError(
                f"{snapshot['failed']:.0f} requests failed, "
                f"{snapshot['learning_failed']:.0f} learning tasks failed"
                f" (last: {service.last_learning_error or '-'})"
            )
        if not snapshot["learning_completed"]:
            raise RuntimeError("no learning task completed")

    # The waves drained the learner, so the checkpoint holds everything learned.
    with tempfile.TemporaryDirectory() as directory:
        version = galo.save_knowledge_base(directory)
        restored = KnowledgeBase.load(directory)
        print(f"\ncheckpoint v{version}: {len(restored)} templates persisted")
        if sorted(restored.templates) != sorted(galo.knowledge_base.templates):
            raise RuntimeError("the checkpoint does not hold the learned templates")


if __name__ == "__main__":
    asyncio.run(main())

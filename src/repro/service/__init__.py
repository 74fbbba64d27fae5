"""GALO's online serving tier.

The paper's two tiers -- offline learning and online matching -- are connected
here into one long-lived system: an asyncio front-end serving a stream of SQL
requests through the indexed matching tier and the vectorized engine, a
per-statement ledger whose runtime feedback spots mis-estimated or regressed
queries, a background learning loop that keeps growing the knowledge base
while the system serves, and knowledge-base lifecycle management (size cap,
eviction, incremental index maintenance).
"""

from repro.service.config import ServiceConfig, ShardedServiceConfig
from repro.service.feedback import LearningTask, sql_fingerprint
from repro.service.guard import GuardScreen, SteeringGuard
from repro.service.metrics import ServiceMetrics
from repro.service.service import (
    GaloService,
    ServiceResponse,
    serve_workload,
)
from repro.service.sharded import (
    ConsistentHashRouter,
    ShardedGaloService,
    WorkerCrashedError,
    serve_workload_sharded,
)

__all__ = [
    "ConsistentHashRouter",
    "GaloService",
    "GuardScreen",
    "LearningTask",
    "ServiceConfig",
    "ServiceMetrics",
    "ServiceResponse",
    "ShardedGaloService",
    "ShardedServiceConfig",
    "SteeringGuard",
    "WorkerCrashedError",
    "serve_workload",
    "serve_workload_sharded",
    "sql_fingerprint",
]

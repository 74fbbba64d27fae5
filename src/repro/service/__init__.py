"""GALO's online serving tier.

The paper's two tiers -- offline learning and online matching -- are connected
here into one long-lived system: an asyncio front-end serving a stream of SQL
requests through the indexed matching tier and the vectorized engine, a
per-statement ledger whose runtime feedback spots mis-estimated or regressed
queries, a background learning loop that keeps growing the knowledge base
while the system serves, and knowledge-base lifecycle management (size cap,
eviction, incremental index maintenance).  All of it runs in one process, on
one event loop.
"""

from repro.service.config import ServiceConfig
from repro.service.feedback import LearningTask, sql_fingerprint
from repro.service.guard import GuardScreen, SteeringGuard
from repro.service.metrics import ServiceMetrics
from repro.service.service import (
    GaloService,
    ServiceResponse,
    serve_workload,
)

__all__ = [
    "GaloService",
    "GuardScreen",
    "LearningTask",
    "ServiceConfig",
    "ServiceMetrics",
    "ServiceResponse",
    "SteeringGuard",
    "serve_workload",
    "sql_fingerprint",
]

"""The GALO facade: offline learning plus online re-optimization in one object.

.. code-block:: python

    from repro import Galo, Database

    db = Database()
    ...  # create tables, load data
    galo = Galo(db)

    # Offline: learn problem-pattern templates over a workload.
    report = galo.learn(tpcds_queries, workload_name="TPC-DS")

    # Online: re-optimize incoming queries (third optimization tier).
    result = galo.reoptimize("SELECT ...", query_name="query24")
    print(result.was_reoptimized, result.improvement)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

from repro.core.knowledge_base import KnowledgeBase
from repro.core.learning.engine import LearningConfig, LearningEngine, LearningReport
from repro.core.matching.engine import (
    MatchingConfig,
    MatchingEngine,
    QueryReoptimization,
)
from repro.engine.database import Database
from repro.obs.tracing import NULL_SPAN

#: Public alias matching the terminology used throughout the docs.
ReoptimizationResult = QueryReoptimization


class Galo:
    """Guided Automated Learning for query workload re-Optimization."""

    def __init__(
        self,
        database: Database,
        knowledge_base: Optional[KnowledgeBase] = None,
        learning_config: Optional[LearningConfig] = None,
        matching_config: Optional[MatchingConfig] = None,
    ):
        self.database = database
        self.knowledge_base = knowledge_base or KnowledgeBase()
        self.learning_engine = LearningEngine(
            database, self.knowledge_base, learning_config
        )
        self.matching_engine = MatchingEngine(
            database, self.knowledge_base, matching_config
        )

    # -- offline -------------------------------------------------------------

    def learn(
        self,
        queries: Sequence[Union[str, Tuple[str, str]]],
        workload_name: str = "workload",
    ) -> LearningReport:
        """Offline phase: learn problem-pattern templates over ``queries``."""
        return self.learning_engine.learn_workload(queries, workload_name)

    def learn_query(
        self, sql: str, query_name: str = "", workload_name: str = "", span=NULL_SPAN
    ):
        """Learn over a single query (convenience wrapper).

        ``span`` is forwarded to the learning engine for per-phase tracing.
        """
        return self.learning_engine.learn_query(
            sql, query_name=query_name, workload_name=workload_name, span=span
        )

    # -- online ---------------------------------------------------------------

    def reoptimize(
        self, sql: str, query_name: str = "", execute: bool = True
    ) -> QueryReoptimization:
        """Online phase: re-optimize one query using the knowledge base."""
        return self.matching_engine.reoptimize(sql, query_name=query_name, execute=execute)

    def reoptimize_workload(
        self,
        queries: Sequence[Union[str, Tuple[str, str]]],
        execute: bool = True,
    ) -> List[QueryReoptimization]:
        """Re-optimize a whole workload, one query after the other."""
        return self.matching_engine.reoptimize_workload(queries, execute=execute)

    # -- online serving --------------------------------------------------------

    def create_service(self, config=None):
        """Build a :class:`repro.service.GaloService` over this instance.

        The service connects the two tiers into a long-lived system: it
        serves queries through the matching tier and keeps learning in the
        background from runtime feedback.  Imported lazily to keep the core
        importable without the serving layer.
        """
        from repro.service.service import GaloService

        return GaloService(self, config)

    # -- knowledge base management ---------------------------------------------

    def evict_template(self, template_id: str) -> bool:
        """Online eviction of one template (index maintained incrementally)."""
        return self.knowledge_base.evict_template(template_id)

    def enforce_kb_capacity(self, capacity: int) -> List[str]:
        """Evict cold/low-benefit templates until at most ``capacity`` remain."""
        return self.knowledge_base.enforce_capacity(capacity)

    def quarantine_template(self, template_id: str) -> bool:
        """Stop steering from one template (it keeps learning); see the
        knowledge base's guard ledger for the full lifecycle."""
        return self.knowledge_base.quarantine_template(template_id)

    def rearm_template(self, template_id: str) -> bool:
        """Lift one template's quarantine (fresh ledger)."""
        return self.knowledge_base.rearm_template(template_id)

    def quarantined_template_ids(self) -> List[str]:
        """Template ids currently quarantined (sorted)."""
        return self.knowledge_base.quarantined_template_ids()

    def save_knowledge_base(self, directory: str) -> int:
        """Checkpoint the KB to ``directory``; returns the version published."""
        return self.knowledge_base.save(directory)

    def adopt_knowledge_base(self, knowledge_base: KnowledgeBase) -> KnowledgeBase:
        """Swap in ``knowledge_base`` and rewire both engines to it.

        The three attribute assignments are individually atomic and every
        serving path reads the KB reference once per request, so a swap under
        live traffic is safe: an in-flight request finishes on the replica it
        started with.  No database-side invalidation is needed -- the explain
        cache is keyed by (sql, guideline) and the execution memo by plan
        structure + data epoch, neither of which depends on the KB.
        """
        self.knowledge_base = knowledge_base
        self.learning_engine.knowledge_base = knowledge_base
        self.matching_engine.knowledge_base = knowledge_base
        return knowledge_base

    def load_knowledge_base(self, directory: str) -> KnowledgeBase:
        """Replace the current knowledge base with one saved by
        :meth:`save_knowledge_base` and rewire both engines to it."""
        return self.adopt_knowledge_base(KnowledgeBase.load(directory))

    def maybe_reload_knowledge_base(
        self, directory: str, force: bool = False
    ) -> Optional[int]:
        """Hot-reload the KB from ``directory`` if a newer checkpoint landed.

        The serving-tier entry point for checkpoint propagation: compares the
        checkpoint's newest version directory against the live replica's
        version and swaps via :meth:`adopt_knowledge_base` on a bump --
        serving never pauses.  ``force`` loads the current checkpoint even
        without a bump (fresh-worker bootstrap).  A version directory is
        never rewritten, so a load reads one save's state.  No checkpoint,
        or a version directory a newer save pruned mid-read, returns None;
        the next poll adopts the newer version.  Returns the adopted
        version, or None when nothing was (re)loaded.
        """
        disk_version = KnowledgeBase.checkpoint_version_on_disk(directory)
        if not force and disk_version <= self.knowledge_base.checkpoint_version:
            return None
        try:
            loaded = KnowledgeBase.load(directory)
        except OSError:
            return None
        self.adopt_knowledge_base(loaded)
        return loaded.checkpoint_version

    @property
    def template_count(self) -> int:
        return len(self.knowledge_base)

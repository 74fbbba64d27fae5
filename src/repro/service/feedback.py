"""Runtime feedback: estimated-vs-actual comparison driving continuous learning.

After every served query the :class:`FeedbackMonitor` compares the executed
plan's estimated cardinalities against the actuals the executor observed (the
per-operator *q-error*) and the query's elapsed time against its own history.
Queries that are badly mis-estimated -- the precondition for GALO finding a
better plan -- or that regressed against their best observed runtime are
turned into :class:`LearningTask` items for the background learning queue.

Each distinct SQL text is enqueued at most once *per learning cycle*
(deduplicated by hash): the learning tier already merges structurally
identical sub-queries, so repeated tasks for the same statement would only
burn learner time.  After the learner finishes the statement
(:meth:`FeedbackMonitor.mark_learned`) a later *regression* on the same
fingerprint re-arms it -- the learned template may itself be the problem --
while repeat misestimation alone stays deduplicated (re-learning the same
estimates would produce the same templates).  Eviction or a dropped task
(:meth:`FeedbackMonitor.forget`) re-arms the statement completely.
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.engine.executor.executor import ExecutionResult
from repro.engine.plan.physical import Qgm


def sql_fingerprint(sql: str) -> str:
    """Stable hash of a statement (whitespace-normalized, case-preserved)."""
    normalized = " ".join(sql.split())
    return hashlib.sha1(normalized.encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True)
class LearningTask:
    """One background-learning work item produced by the feedback monitor."""

    sql: str
    query_name: str
    reason: str  # "misestimated" | "regressed"
    sql_hash: str
    max_q_error: float
    elapsed_ms: float
    #: ``time.perf_counter()`` at enqueue (stamped by the service); lets the
    #: learner trace report queue dwell.  0.0 = never enqueued.
    enqueued_at: float = 0.0


@dataclass
class QueryObservation:
    """What the monitor learned from one served query (returned to callers)."""

    sql_hash: str
    max_q_error: float
    elapsed_ms: float
    matched: bool
    steered: bool
    regressed: bool = False
    task: Optional[LearningTask] = None


@dataclass
class _SqlHistory:
    """Per-statement runtime history (best observed elapsed time)."""

    best_elapsed_ms: float
    executions: int = 1


class FeedbackMonitor:
    """Decides which served queries the background learner should analyze."""

    def __init__(
        self,
        q_error_threshold: float = 4.0,
        regression_threshold: float = 1.5,
        max_tracked_statements: int = 4096,
    ) -> None:
        if q_error_threshold < 1.0:
            raise ValueError("q_error_threshold must be >= 1.0")
        if regression_threshold < 1.0:
            raise ValueError("regression_threshold must be >= 1.0")
        self.q_error_threshold = q_error_threshold
        self.regression_threshold = regression_threshold
        self.max_tracked_statements = max_tracked_statements
        self._lock = threading.Lock()
        #: sql hash -> runtime history (insertion-ordered for FIFO trimming).
        self._history: Dict[str, _SqlHistory] = {}
        #: sql hash -> dedup state: the enqueue reason while the statement is
        #: queued or learning, ``_LEARNED`` once the learner finished it (at
        #: which point a fresh regression may re-enqueue -- see ``observe``).
        self._enqueued: Dict[str, str] = {}

    #: Dedup-state marker for statements whose learning completed.
    _LEARNED = "learned"

    # ------------------------------------------------------------------

    def observe(
        self,
        *,
        sql: str,
        query_name: str,
        qgm: Qgm,
        result: ExecutionResult,
        matched: bool,
        steered: bool,
        max_q_error: Optional[float] = None,
    ) -> QueryObservation:
        """Digest one served query; ``observation.task`` is set when the query
        should be enqueued for background learning (at most once per SQL).
        ``max_q_error`` is ``result.max_q_error(qgm)`` when the caller has it
        already (a replayed prepared hit)."""
        if max_q_error is None:
            max_q_error = result.max_q_error(qgm)
        sql_hash = sql_fingerprint(sql)
        observation = QueryObservation(
            sql_hash=sql_hash,
            max_q_error=max_q_error,
            elapsed_ms=result.elapsed_ms,
            matched=matched,
            steered=steered,
        )
        with self._lock:
            history = self._history.get(sql_hash)
            if history is None:
                self._trim_history_locked()
                self._history[sql_hash] = _SqlHistory(best_elapsed_ms=result.elapsed_ms)
            else:
                history.executions += 1
                if result.elapsed_ms > history.best_elapsed_ms * self.regression_threshold:
                    observation.regressed = True
                history.best_elapsed_ms = min(history.best_elapsed_ms, result.elapsed_ms)

            reason = None
            if max_q_error >= self.q_error_threshold and not steered:
                # Mis-estimated and the knowledge base did not already fix it.
                reason = "misestimated"
            elif observation.regressed:
                reason = "regressed"
            state = self._enqueued.get(sql_hash)
            # A statement re-arms once its learning cycle completed, but only
            # for *regressions*: the learned template may be what regressed
            # it.  Repeat misestimation stays deduplicated -- re-learning the
            # same estimates would just reproduce the same templates.
            rearmed = state == self._LEARNED and reason == "regressed"
            if reason is not None and (state is None or rearmed):
                # Bound the dedup map too (FIFO): in a very long-lived service
                # the oldest statements become learnable again, which is
                # harmless -- learning merges duplicate sub-queries anyway.
                while len(self._enqueued) >= self.max_tracked_statements * 4:
                    oldest = next(iter(self._enqueued))
                    del self._enqueued[oldest]
                self._enqueued.pop(sql_hash, None)
                self._enqueued[sql_hash] = reason
                observation.task = LearningTask(
                    sql=sql,
                    query_name=query_name,
                    reason=reason,
                    sql_hash=sql_hash,
                    max_q_error=max_q_error,
                    elapsed_ms=result.elapsed_ms,
                )
        return observation

    def _trim_history_locked(self) -> None:
        """FIFO-trim the per-statement history at the tracking cap."""
        while len(self._history) >= self.max_tracked_statements:
            oldest = next(iter(self._history))
            del self._history[oldest]

    # ------------------------------------------------------------------

    def was_enqueued(self, sql: str) -> bool:
        with self._lock:
            return sql_fingerprint(sql) in self._enqueued

    def forget(self, sql: str) -> None:
        """Allow ``sql`` to be enqueued again (e.g. after a KB eviction)."""
        with self._lock:
            self._enqueued.pop(sql_fingerprint(sql), None)

    def mark_learned(self, sql: str) -> None:
        """Record that ``sql``'s learning cycle completed.

        The statement stays deduplicated against repeat misestimation but
        re-arms for regression-triggered re-learning (the learned template
        itself may be what regressed it).  A statement never enqueued is
        left untracked.
        """
        with self._lock:
            sql_hash = sql_fingerprint(sql)
            if sql_hash in self._enqueued:
                self._enqueued[sql_hash] = self._LEARNED

    @property
    def enqueued_count(self) -> int:
        with self._lock:
            return len(self._enqueued)

    def best_elapsed_ms(self, sql: str) -> Optional[float]:
        with self._lock:
            history = self._history.get(sql_fingerprint(sql))
            return history.best_elapsed_ms if history else None

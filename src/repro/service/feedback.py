"""The statement ledger: what the serving tier remembers per served statement.

:class:`StatementLedger` maps each statement key (:func:`statement_key`) to
one :class:`StatementRecord`: best runtime, best *unsteered* runtime (the
baseline :mod:`repro.service.guard` judges steered runs against), execution
count and learn state.  It keeps at most :data:`MAX_STATEMENTS` records,
trimming the oldest first, and has no lock: only the event-loop thread
touches it.

After every served query :func:`feedback` turns a badly mis-estimated query
(worst per-operator *q-error*; the precondition for GALO finding a better
plan) or one that regressed against its best runtime into a
:class:`LearningTask` for the background learning queue -- at most once
while its record is live.  The learner analyzes each structurally distinct
sub-query once per process (``LearningEngine._seen_subqueries``), so learning
a statement again -- after a regression, or after its templates were evicted
-- would store nothing.  Only a task that was dropped, cancelled or failed
(:meth:`StatementLedger.forget`) makes its statement learnable again, and so
does trimming, which is harmless: learning merges duplicate sub-queries.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Dict, Optional

#: Records the ledger keeps; the oldest is trimmed first.
MAX_STATEMENTS = 4096
#: Worst per-operator cardinality q-error before a query is considered
#: mis-estimated and enqueued for learning (1.0 = estimates were perfect).
Q_ERROR_THRESHOLD = 4.0


def statement_key(sql: str) -> str:
    """A statement's ledger key: its text with whitespace collapsed outside
    single-quoted literals.

    Splitting on ``'`` puts the lexer's string literals (``''`` escapes
    included) at the odd positions.  Collapsing maps each whitespace run to
    one space in place and moves no quote, so the literals the whole-text
    collapse changed are put back as they were.
    """
    key = " ".join(sql.split())
    if "'" in key:
        parts, literals = key.split("'"), sql.split("'")[1::2]
        if parts[1::2] != literals:
            parts[1::2] = literals
            key = "'".join(parts)
    return key


def _sha1(key: str) -> str:
    return hashlib.sha1(key.encode("utf-8")).hexdigest()[:16]


def sql_fingerprint(sql: str) -> str:
    """Process-stable hash of a statement's :func:`statement_key`."""
    return _sha1(statement_key(sql))


@dataclass(frozen=True)
class LearningTask:
    """One background-learning work item produced by :func:`feedback`."""

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
class StatementRecord:
    """What the ledger knows about one statement (inf: not observed yet)."""

    key: str
    best_ms: float = math.inf
    best_unsteered_ms: float = math.inf
    executions: int = 0
    #: Enqueued for learning (and not forgotten since).
    enqueued: bool = False


class StatementLedger:
    """Statement key -> :class:`StatementRecord`, FIFO-bounded."""

    def __init__(self) -> None:
        self._records: Dict[str, StatementRecord] = {}

    def observe(self, key: str, *, create: bool) -> Optional[StatementRecord]:
        """Count one execution of ``key``'s statement; returns its record,
        created (trimming the oldest at the bound) if absent and ``create``."""
        record = self._records.get(key)
        if record is None:
            if not create:
                return None
            while len(self._records) >= MAX_STATEMENTS:
                del self._records[next(iter(self._records))]
            record = self._records[key] = StatementRecord(key)
        record.executions += 1
        return record

    def get(self, sql: str) -> Optional[StatementRecord]:
        return self._records.get(statement_key(sql))

    def forget(self, sql: str) -> None:
        """Allow ``sql`` to be enqueued again (its task was dropped, cancelled
        or failed before every sub-query was analyzed)."""
        record = self.get(sql)
        if record is not None:
            record.enqueued = False


def feedback(
    record: StatementRecord,
    *,
    sql: str,
    query_name: str,
    elapsed_ms: float,
    max_q_error: float,
    steered: bool,
    regression_threshold: float,
) -> Optional[LearningTask]:
    """Digest one served execution into ``record``; returns the learning task
    to enqueue, if the statement should be learned and never was."""
    regressed = elapsed_ms > record.best_ms * regression_threshold
    record.best_ms = min(record.best_ms, elapsed_ms)
    if max_q_error >= Q_ERROR_THRESHOLD and not steered:
        # Mis-estimated and the knowledge base did not already fix it.
        reason = "misestimated"
    elif regressed:
        reason = "regressed"
    else:
        return None
    if record.enqueued:
        return None
    record.enqueued = True
    return LearningTask(
        sql=sql,
        query_name=query_name,
        reason=reason,
        sql_hash=_sha1(record.key),
        max_q_error=max_q_error,
        elapsed_ms=elapsed_ms,
    )

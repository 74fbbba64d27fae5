"""Exception hierarchy shared across the GALO reproduction."""


class ReproError(Exception):
    """Base class for every error raised by this package."""


class EngineError(ReproError):
    """Base class for relational-engine errors."""


class CatalogError(EngineError):
    """A table, column, or index referenced does not exist (or already exists)."""


class SqlSyntaxError(EngineError):
    """The SQL text could not be parsed."""


class BindError(EngineError):
    """The SQL parsed but references objects not present in the catalog."""


class PlanError(EngineError):
    """An invalid physical plan was constructed or executed."""


class GuidelineError(EngineError):
    """An OPTGUIDELINES document is malformed."""


class PlanBudgetExceeded(EngineError):
    """A plan ran past the simulated-time budget of its execution.

    Raised by the executors at the first node boundary where the partial
    simulated ``elapsed_ms`` is above the ``budget_ms`` the caller passed to
    ``execute``; every term of the runtime model only grows, so the finished
    plan would have been above the budget too.  Only callers that pass a
    budget can see it, and they catch it themselves.
    """

    def __init__(self, elapsed_ms: float, budget_ms: float):
        super().__init__(
            f"plan stopped at {elapsed_ms:.3f} simulated ms, budget {budget_ms:.3f} ms"
        )
        self.elapsed_ms = elapsed_ms
        self.budget_ms = budget_ms


class RdfError(ReproError):
    """Base class for RDF / SPARQL errors."""


class SparqlSyntaxError(RdfError):
    """The SPARQL text could not be parsed."""


class SparqlEvaluationError(RdfError):
    """A SPARQL query failed during evaluation."""

"""Exception hierarchy for the repro package.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch all library failures with a single ``except`` clause while
still being able to distinguish the subsystem that failed.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class SchemaError(ReproError):
    """Raised for inconsistent type, attribute, or collection definitions."""


class CatalogError(ReproError):
    """Raised when a catalog lookup fails (unknown type, set, or index)."""


class StorageError(ReproError):
    """Raised by the simulated object store (bad OID, full page, etc.)."""


class QuerySyntaxError(ReproError):
    """Raised by the ZQL lexer/parser on malformed query text."""

    def __init__(self, message: str, position: int | None = None) -> None:
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class QueryTypeError(ReproError):
    """Raised during simplification when a query does not type-check."""


class SimplificationError(ReproError):
    """Raised when a query cannot be reduced to the optimizer input algebra."""


class AlgebraError(ReproError):
    """Raised for ill-formed logical algebra expressions (scope violations)."""


class OptimizerError(ReproError):
    """Raised when the search engine cannot produce a plan."""


class NoPlanFoundError(OptimizerError):
    """Raised when no physical plan satisfies the required properties."""


class ExecutionError(ReproError):
    """Raised by the physical execution engine."""


class GovernorError(ReproError):
    """Base class for resource-governor failures.

    Every governor outcome that stops a query — deadline, cancellation,
    admission rejection, exhausted storage retries — derives from this
    class, so "the query was governed, not wrong" is one ``except``
    clause.  The chaos oracle relies on exactly this distinction: a run
    under injected faults must either match the fault-free run or raise
    a ``GovernorError`` subclass, never anything else.
    """


class QueryTimeout(GovernorError):
    """Raised when a query exceeds its :class:`QueryContext` deadline."""


class QueryCancelled(GovernorError):
    """Raised when a query's cooperative cancel token was triggered."""


class MemoryBudgetExceeded(GovernorError):
    """Raised when an operator cannot honour its memory budget even by
    spilling (e.g. a single row larger than the whole budget)."""


class AdmissionRejected(GovernorError):
    """Raised when the admission controller's bounded wait for a free
    query slot expires."""


class StorageFaultError(GovernorError, StorageError):
    """A page read kept failing after all retries — the degradation
    ladder's typed terminal error for persistent storage faults."""


class IndexCorruptionError(StorageError):
    """An index probe hit a corrupt page.  Callers degrade to a scan
    plan (``Database`` replans without index scans) instead of failing
    the query."""

    def __init__(self, index_name: str) -> None:
        super().__init__(f"index {index_name!r} has corrupt pages")
        self.index_name = index_name


class TransactionError(ReproError):
    """Raised for transaction misuse: writing through a finished
    transaction, committing twice, DML without a populated store."""


class WriteConflict(TransactionError):
    """Raised at commit when another transaction committed a write to
    the same object after this transaction's snapshot was taken.

    Snapshot isolation's first-committer-wins rule: readers never block
    writers, writers never block readers, but two writers of the same
    object cannot both win.  The losing transaction is rolled back (none
    of its writes are visible) and the caller may retry on a fresh
    snapshot.
    """

    def __init__(self, message: str, oid: object = None) -> None:
        super().__init__(message)
        self.oid = oid


class SessionExpired(ReproError):
    """Raised by the serving tier when a request arrives on a session
    the idle reaper already expired: its open transaction was rolled
    back and its cursors dropped.  Reconnect and start fresh."""


class PlanCacheError(ReproError):
    """Raised for plan-cache misuse (bad capacity, unbindable plans)."""


class ParameterBindingError(ReproError):
    """Raised when prepared-query parameters are missing, unexpected, or
    of an unsupported type at bind time."""

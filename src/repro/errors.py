"""Exception hierarchy for the :mod:`repro` package.

All exceptions raised deliberately by this library derive from
:class:`ReproError`, so callers can catch library failures with a single
``except ReproError`` clause while letting programming errors (``TypeError``,
``KeyError`` from misuse of third-party objects, ...) propagate unchanged.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "InvalidParameterError",
    "SchemaError",
    "UnknownGroupError",
    "BudgetExceededError",
    "CheckpointVersionError",
    "JobFailedError",
    "OracleError",
    "PlatformError",
    "NoEligibleWorkersError",
    "InfeasibleProfileError",
]


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class InvalidParameterError(ReproError, ValueError):
    """An algorithm parameter is out of its documented domain.

    Examples: a non-positive coverage threshold ``tau``, a set-query size
    bound ``n`` smaller than one, or a sampling constant ``c`` below zero.
    """


class SchemaError(ReproError, ValueError):
    """A schema definition is malformed.

    Raised for duplicate attribute names, attributes with fewer than two
    values, duplicate values within an attribute, or empty schemas.
    """


class UnknownGroupError(ReproError, KeyError):
    """A group predicate references an attribute or value not in the schema."""


class BudgetExceededError(ReproError, RuntimeError):
    """An oracle exhausted its task budget before the algorithm finished.

    The partially collected state is intentionally *not* attached: a budget
    violation means the requested audit is not answerable at the configured
    cost, and callers should either raise the budget or shrink the audit.
    """


class CheckpointVersionError(InvalidParameterError):
    """A checkpoint (session string, service answer log, or job record)
    carries a version this build cannot read, or entries that do not
    match their declared version's shape.

    Raised by :meth:`~repro.audit.AuditSession.resume` and
    :meth:`~repro.service.AuditService.resume` instead of a bare
    ``KeyError`` so callers can tell "written by an incompatible build"
    apart from programming errors. Subclasses
    :class:`InvalidParameterError`, so existing ``except`` clauses keep
    working.
    """


class JobFailedError(ReproError, RuntimeError):
    """An :class:`~repro.service.AuditService` job reached a terminal
    state without a result: its audit raised, or it was cancelled.

    Raised when the job's result is *requested*; the originating error
    message is carried in the text (and the job's event trail)."""


class OracleError(ReproError, RuntimeError):
    """An oracle received a query it cannot answer (e.g. out-of-range index)."""


class PlatformError(ReproError, RuntimeError):
    """The crowd platform could not process a HIT."""


class NoEligibleWorkersError(PlatformError):
    """Quality-control screening left fewer workers than required per HIT."""


class InfeasibleProfileError(ReproError, ValueError):
    """A requested classifier profile (accuracy, precision) is not achievable
    on the given dataset composition.

    The confusion-matrix solver in :mod:`repro.classifiers.simulated` raises
    this when no non-negative integer confusion matrix reproduces the target
    metrics within tolerance.
    """

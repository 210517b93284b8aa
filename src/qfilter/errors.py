"""Exception hierarchy for the qfilter package.

Every error raised by the library derives from :class:`QFilterError`, so
callers (including the CLI) can catch one type to distinguish domain
failures from genuine bugs.
"""

from __future__ import annotations


class QFilterError(Exception):
    """Base class for all errors raised by qfilter."""


class InvalidStateError(QFilterError, ValueError):
    """A state vector is malformed (zero, badly normalized, or too small)."""


class InvalidEnsembleError(QFilterError, ValueError):
    """An ensemble is malformed (wrong count, mismatched dimensions, bad priors)."""


class DegenerateSubspaceError(QFilterError):
    """States 2 and 3 are (anti)parallel, so their span is one-dimensional."""


class DegeneratePriorError(QFilterError):
    """The filter target has zero prior probability; filtering is vacuous."""


class InternalConsistencyError(QFilterError):
    """A quantity combination occurred that a consistent instance cannot produce."""


class InconsistentSolutionError(QFilterError):
    """A proposed solution is incompatible with the ensemble (no design realizes its q)."""


class InfeasibleError(QFilterError):
    """A constraint set admits no solution (should not happen for valid optima)."""


class DomainError(QFilterError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""

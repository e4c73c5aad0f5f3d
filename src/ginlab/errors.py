"""Shared exception types.

The split mirrors the process exit codes: bad requests are ``ValueError``
(usage, exit 2) and impossible internal states are ``ComputationGuardError``
(arithmetic guard, exit 3).  A failed cross-check is not an exception: the
suite returns a report whose failures the CLI prints before exiting 1.
"""

from __future__ import annotations


class UnsupportedConfigError(ValueError):
    """The requested operation has no engine for this point configuration."""


class ComputationGuardError(RuntimeError):
    """An internal consistency guard tripped.

    Raised instead of returning a value whenever the engines produce data
    that cannot come from a correct run: non-terminating reductions,
    negative section counts, staircase segments that are not full above the
    nef threshold or start left of the one a degree above or past t + 1, or
    colength disagreeing with the scheme length.
    """

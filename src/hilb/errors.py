"""Exception hierarchy shared by the whole package.

The CLI maps these onto exit codes: a failed check -> 1; UsageError, DataError
and a file it cannot read as UTF-8 -> 2; ResourceError -> 3.  Anything else
escaping is a genuine bug and is allowed to crash loudly.
"""


class HilbError(Exception):
    """Base class for all package errors."""


class UsageError(HilbError):
    """Caller violated a precondition (bad arguments, malformed input)."""


class ModeError(UsageError):
    """Operation requires the other ring mode (compact vs open)."""


class DivergenceError(UsageError):
    """A series factor with no s-degree cannot be expanded to a finite truncation."""


class DataError(HilbError):
    """Input data is structurally valid but mathematically inconsistent."""


class ResourceError(HilbError):
    """Requested computation exceeds the configured resource limit."""


class InternalInvariantError(HilbError):
    """A theorem the code relies on failed on concrete data; abort."""

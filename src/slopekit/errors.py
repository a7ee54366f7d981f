"""Exception hierarchy shared across the toolkit.

Every error raised on purpose derives from :class:`SlopekitError`, so the
command line driver can separate expected mathematical/usage failures from
genuine bugs.  Concrete subclasses live next to the code that raises them;
only the base class is defined here to avoid import cycles, together with
the integer check that every reader of JSON input shares.
"""

import operator


class SlopekitError(Exception):
    """Base class for all errors raised by slopekit."""


def _json_int(value: object) -> int:
    """An int read from JSON.  operator.index takes true and false as 1 and
    0, but a JSON boolean is not a number, so it is refused like a string."""
    if isinstance(value, bool):
        raise TypeError("'bool' object cannot be interpreted as an integer")
    return operator.index(value)

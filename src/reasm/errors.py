"""Exception types shared across the package; each class carries the exit
code that the command line ends with."""


class ReasmError(Exception):
    """Base of the package's errors; each subclass sets `exit_code`."""
    exit_code: int


class ValidationError(ReasmError, ValueError):
    """Malformed input: bad file syntax, invalid graph/tree/arrangement data,
    violated preconditions (wrong ground set, infeasible anchor, ...)."""
    exit_code = 2


class LimitError(ReasmError, RuntimeError):
    """Instance exceeds a configured resource cap (solver size limits)."""
    exit_code = 3


class VerificationError(ReasmError):
    """An identity or lemma the results rest on failed on an instance."""
    exit_code = 4

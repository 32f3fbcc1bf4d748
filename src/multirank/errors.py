"""Exception hierarchy shared across the package.

Each class carries the CLI's exit code for it in ``exit_code``:
parse/validation failures exit 2, a state that is zero (all terms cancel)
or zero mod the run's prime (no verdict) exits 3, and a rank-policy/state
mismatch (parametric amplitudes under a non-generic policy) exits 4.
"""


class MultirankError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 2


class StateSyntaxError(MultirankError):
    """A state document violates the input grammar.

    Carries the 1-based ``line`` and ``column`` of the offending
    statement so the CLI can point at it.  Both are None for a fault
    that has no position in the text, such as a missing JSON key.
    """

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        if line is not None:
            message = f"line {line}, column {column}: {message}"
        super().__init__(message)
        self.line = line
        self.column = column


class InvalidStateError(MultirankError):
    """A structurally valid document describes an inadmissible state.

    Examples: a ket index out of range for its declared dimension, fewer
    than two parties, or two terms on the same ket that cannot be merged
    because one of them is parametric.
    """


class ZeroStateError(MultirankError):
    """All terms cancel (no profile), or all ranks are 0 mod the prime (no verdict)."""

    exit_code = 3


class PolicyMismatchError(MultirankError):
    """The requested rank policy cannot handle the given matrix.

    Raised when a matrix with parametric entries is pushed through the
    exact, fast or modular policies; only generic substitutes values.
    """

    exit_code = 4


class PrimeClashError(MultirankError):
    """The chosen prime divides a denominator of the matrix.

    Only an explicit prime raises this, such as the one in ``mod:<p>`` or
    ``generic:<t>,<p>``: the automatic prime search skips such primes.
    """

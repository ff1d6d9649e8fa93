"""Exception types shared across the package."""
from __future__ import annotations


class FlowrankError(Exception):
    """Base class for all package-specific errors."""


class InputFormatError(FlowrankError):
    """Malformed input file (edge list or event log).

    Carries the offending path and 1-based line number when known so the
    CLI can report "path:line: message" and exit with the input-error code.
    """

    def __init__(self, message: str, *, path: str | None = None, line: int | None = None):
        self.path = path
        self.line = line
        prefix = ""
        if path is not None:
            prefix = f"{path}:{line}: " if line is not None else f"{path}: "
        super().__init__(prefix + message)


class ParameterError(FlowrankError, ValueError):
    """An argument value outside its domain, alone or for the data it meets.

    `name` is the argument's keyword (`window`, `active_users`, `p_cut`);
    the CLI reports the error as a usage error naming that argument's flag.
    """

    def __init__(self, name: str, message: str):
        self.name = name
        self.detail = message
        super().__init__(f"{name} {message}")


class NumericalError(FlowrankError):
    """A computation is undefined or left its validity domain.

    Examples: supercritical infinite-horizon sums, attenuation at the
    spectral singularity, epidemic threshold of a nilpotent adjacency.
    """


class ConvergenceError(NumericalError):
    """An iteration hit its step budget before reaching tolerance.

    `history` holds the trailing residuals/diffs so callers can tell
    stagnation from oscillation; `best` holds the best iterate seen,
    when the algorithm tracks one.
    """

    def __init__(self, message: str, *, iterations: int | None = None,
                 history: tuple[float, ...] = (), best=None):
        self.iterations = iterations
        self.history = tuple(history)
        self.best = best
        if iterations is not None:
            message = f"{message} (after {iterations} iterations)"
        if self.history:
            tail = ", ".join(f"{h:.3e}" for h in self.history[-5:])
            message = f"{message}; trailing residuals: {tail}"
        super().__init__(message)

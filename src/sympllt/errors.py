"""Exception types shared across the package."""

import copyreg


class SympLLTError(Exception):
    """Base class for all library errors."""

    def __reduce__(self):
        # pickle rebuilds the exception from its message without calling
        # __init__, whose parameters a subclass chooses, then restores the
        # attributes, so an error crosses a process boundary unchanged
        return copyreg.__newobj__, (type(self), *self.args), self.__dict__


class DimensionError(SympLLTError):
    """Shape or structural precondition violated (mismatched sizes, asymmetry, odd order)."""


class InvalidEntryError(SympLLTError):
    """A matrix entry is NaN or infinite where finite values are required."""


class SingularError(SympLLTError):
    """Matrix is singular to working precision."""


class DomainError(SympLLTError):
    """Scalar argument outside the domain of the requested quantity."""


class UsageError(SympLLTError):
    """Operation invoked with the wrong kind of argument (e.g. wrong algorithm tag)."""


class FactorError(SympLLTError):
    """A factorization could not be completed."""


class PivotNotPositiveError(FactorError):
    """Cholesky-type elimination met a non-positive pivot.

    ``index`` is the 1-based row of the first failing pivot; ``stage``
    names which factorization failed when an algorithm chains several.
    """

    def __init__(self, index, value, stage="cholesky"):
        value = float(value)  # a numpy scalar's repr would name its type
        super().__init__(f"pivot {index} is not positive ({value!r}) during {stage}")
        self.index = index
        self.value = value
        self.stage = stage


class ParseError(SympLLTError):
    """Matrix file is malformed; carries the 1-based line number."""

    def __init__(self, line, message):
        super().__init__(f"line {line}: {message}")
        self.line = line

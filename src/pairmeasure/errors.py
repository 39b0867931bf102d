"""Exception types shared across the package."""


class DimensionMismatchError(ValueError):
    """Operands live in different single-particle spaces."""


class DegenerateInputError(ValueError):
    """An input is zero, or collapses to zero, where a nonzero state is required.

    Also an input that the relative tolerance cannot decide on, such as an
    antisymmetric spectrum whose degenerate pair straddles the rank threshold.
    """


class InputTooLargeError(MemoryError):
    """A request for an array that grows with the space, above the memory budget.

    Raised where such an array would be allocated, before it is; see
    ``hilbert.MAX_PAIR_BYTES``.
    """


class ParseError(ValueError):
    """A state or measure file is malformed.

    Carries the 1-based line number of the offending record when known.
    """

    def __init__(self, message: str, line_number: int | None = None):
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number

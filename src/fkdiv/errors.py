"""Exception types shared across the library."""


class FkdivError(Exception):
    """Base class for all library errors.

    An error that names vertices or decomposition nodes is raised as a
    message template with one `{}` per id, followed by the 0-based ids.
    `str()` reads as the library numbers them, and `one_based()` as an
    instance file does, which is what the CLI prints.
    """

    def __init__(self, message="", *ids):
        self.template = message
        self.ids = ids
        super().__init__(message.format(*ids) if ids else message)

    def one_based(self) -> str:
        if not self.ids:
            return str(self)
        return self.template.format(*(i + 1 for i in self.ids))


class VertexRangeError(FkdivError):
    pass


class NotComparabilityError(FkdivError):
    """The graph admits no transitive orientation."""


class CycleDetectedError(FkdivError):
    pass


class NotCocomparabilityError(FkdivError):
    """The conflict graph's complement admits no transitive orientation."""


class OrderingNotBiconvexError(FkdivError):
    pass


class NotChordalError(FkdivError):
    pass


class DecompositionError(FkdivError):
    """Base class for tree-decomposition validity failures."""


class NotATreeError(DecompositionError):
    pass


class MissingVertexError(DecompositionError):
    pass


class MissingEdgeError(DecompositionError):
    pass


class DisconnectedOccurrenceError(DecompositionError):
    pass


class InvalidDecompositionError(DecompositionError):
    pass


class EmptySetError(FkdivError):
    pass


class BudgetExceededError(FkdivError):
    pass


class ParseError(FkdivError):
    def __init__(self, message, line=None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


class DimensionMismatchError(ParseError):
    pass


class UnknownFamilyError(FkdivError):
    pass


class ParameterOutOfRangeError(FkdivError):
    pass


class NoApplicableAlgorithmError(FkdivError):
    pass

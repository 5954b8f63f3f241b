"""Exception types shared across the library."""


class FkdivError(Exception):
    """Base class for all library errors."""


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


class StructureMismatchError(FkdivError):
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

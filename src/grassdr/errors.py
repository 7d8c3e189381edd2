"""Exception types raised across the library."""


class GrassdrError(Exception):
    """Base class for all library errors; ``index`` names the bad item within a stack or dataset, if any."""

    def __init__(self, message: str = "", index: int | None = None):
        super().__init__(message)
        self.index = index


class ShapeError(GrassdrError, ValueError):
    """Dimension or scalar-field mismatch between operands, or a bad landmark shape."""


class DegenerateInputError(GrassdrError, ValueError):
    """Input matrix is (numerically) rank deficient."""


class DegenerateProjectionError(DegenerateInputError):
    """A data subspace is nearly orthogonal to the projection range."""


class DegenerateShapeError(DegenerateInputError):
    """All landmarks of a shape coincide."""


class InvalidTangentError(GrassdrError, ValueError):
    """Matrix is not in the horizontal space of the given base point."""


class CutLocusError(GrassdrError, ArithmeticError):
    """Logarithm map undefined: a principal angle is too close to pi/2."""


class ConvergenceError(GrassdrError, RuntimeError):
    """Iteration failed to converge; carries the best iterate seen."""

    def __init__(self, message: str, result=None):
        super().__init__(message)
        self.result = result


class SupervisionDegenerateError(GrassdrError, ValueError):
    """Supervised operation received fewer than two classes."""


class UndefinedRatioError(GrassdrError, ValueError):
    """Variance ratio undefined because the reference variance is zero."""


class FormatError(GrassdrError, ValueError):
    """Malformed data, model, or landmark file."""

    def __init__(self, message: str, location: str | None = None):
        super().__init__(message if location is None else f"{location}: {message}")
        self.location = location

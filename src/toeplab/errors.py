"""Exception types shared across the package."""


class ToeplabError(Exception):
    """Base class for all package-specific failures.

    ``operation`` names the module-level operation that failed, so the CLI
    can report it without inspecting tracebacks.
    """

    operation: str = ""

    def __init__(self, message: str, operation: str = ""):
        super().__init__(message)
        if operation:
            self.operation = operation


class ValidationError(ToeplabError):
    """Malformed input data (bad manifest, bad symbol, bad subtorus)."""


class UnboundedFiberError(ToeplabError):
    """The weight fiber is an unbounded lattice set and cannot be enumerated."""


class SymbolFormatError(ValidationError):
    """A symbol violates its structural contract (degree mismatch, missing
    conjugate term, complex coefficient on a diagonal term)."""


class PolynomialDegreeError(ToeplabError):
    """Polynomial test function exceeds the supported trace-power degree."""


class EigensolveError(ToeplabError):
    """Dense Hermitian eigensolve failed to converge."""


class IllConditionedFitError(ToeplabError):
    """Least-squares design matrix condition number exceeds the safe bound."""


class RegularityError(ToeplabError):
    """Torus level set fails the regular-and-free criterion."""

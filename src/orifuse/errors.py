"""Exception types shared across the package."""


class OrifuseError(Exception):
    """Base class for all orifuse errors."""


class NotARotation(OrifuseError):
    """Matrix failed the special-orthogonality check."""


class SeriesTooShort(OrifuseError):
    """Time series has too few samples for the requested operation."""


class DegenerateData(OrifuseError):
    """Training data cannot support the requested mixture fit."""


class FactorizationFailure(OrifuseError):
    """A row's lambda * Sigma_i is not positive definite, or the regression is not finite."""


class DomainOverlap(OrifuseError):
    """Via-point weight domains interfere with each other."""


class ChartBoundaryError(OrifuseError):
    """A via-point falls outside the ball of the chosen chart."""


class ParseError(OrifuseError):
    """Malformed input file; carries file location."""

    def __init__(self, message, path=None, line=None, column=None):
        loc = str(path) if path is not None else "<input>"
        if line is not None:
            loc += f":{line}"
            if column is not None:
                loc += f":{column}"
        super().__init__(f"{loc}: {message}")
        self.path = path
        self.line = line
        self.column = column


class InconsistentTiming(OrifuseError):
    """Demonstrations in a set do not share a common sampling step."""


class ConfigError(OrifuseError):
    """Run configuration is invalid."""


class IoError(OrifuseError):
    """Output file could not be written."""

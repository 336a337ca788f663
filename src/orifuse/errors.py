"""Exception types of the package; each carries the exit code cli.main returns for it."""


class OrifuseError(Exception):
    """Base class for all orifuse errors."""

    exit_code = 1


class NotARotation(OrifuseError):
    """Matrix failed the special-orthogonality check."""

    exit_code = 4


class SeriesTooShort(OrifuseError):
    """Time series has too few samples for the requested operation."""

    exit_code = 4


class DegenerateData(OrifuseError):
    """Training data cannot support the requested mixture fit."""

    exit_code = 4


class FactorizationFailure(OrifuseError):
    """A row's lambda * Sigma_i is not positive definite, or the regression is not finite."""

    exit_code = 4


class DomainOverlap(OrifuseError):
    """Via-point weight domains interfere with each other."""

    exit_code = 5


class ChartBoundaryError(OrifuseError):
    """A via-point falls outside the ball of the chosen chart."""

    exit_code = 4


class ParseError(OrifuseError):
    """Malformed input file; carries file location."""

    exit_code = 3

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

    exit_code = 3


class ConfigError(OrifuseError):
    """Run configuration is invalid."""

    exit_code = 2


class IoError(OrifuseError):
    """Output file could not be written."""

    exit_code = 6

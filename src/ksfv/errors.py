"""Exception types shared across the package."""


class KsfvError(Exception):
    """Base of every exception type the package raises on purpose."""


class ConfigError(KsfvError, ValueError):
    """Invalid static configuration (grid sizes, parameter ranges, config files)."""


class UsageError(KsfvError, ValueError):
    """API or CLI misuse: mismatched grids, unknown flags, malformed field specs."""


class DomainError(KsfvError, ValueError):
    """Scalar function evaluated outside its mathematical domain (e.g. negative density)."""


class PreconditionError(KsfvError, ValueError):
    """A documented operation precondition does not hold."""


class ResolutionError(KsfvError, RuntimeError):
    """Requested feature is below what the current grid can resolve."""


class DivergenceError(KsfvError, ValueError):
    """An integral required to be finite is divergent (or its quadrature cannot converge)."""


class QuadratureError(KsfvError, RuntimeError):
    """Adaptive quadrature failed to reach the requested tolerance."""


class NumericsError(KsfvError, RuntimeError):
    """Non-finite values produced by a time step."""


class ScanAbortedError(KsfvError, RuntimeError):
    """A parameter scan hit a run that did not complete (e.g. blow-up before the probe time)."""

    def __init__(self, message, offender=None):
        super().__init__(message)
        self.offender = offender

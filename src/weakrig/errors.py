"""Exception types shared across the package."""


class InputError(ValueError):
    """Malformed or out-of-range caller input (bad vertex, shape mismatch, bad file)."""


class DomainError(ValueError):
    """Structurally valid input outside an operation's domain."""


class UnsupportedRegimeError(DomainError):
    """Too few points for the ambient dimension (n <= d)."""


class UnsupportedDimensionError(DomainError):
    """Planar-only operation invoked with d != 2."""


class NotRealizableError(DomainError):
    """Gram matrix cannot be realized in the requested dimension."""


class NoValidExtensionError(DomainError):
    """Greedy tree growth ran out of admissible edges."""


class ConstructionError(DomainError):
    """Constraint-set construction hit a vertex with no usable neighbor split."""


class FitError(ValueError):
    """Decay-rate fit is impossible on the requested window."""


class DivergenceError(RuntimeError):
    """Integration blew up. ``trace`` holds the samples recorded before the blow-up."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace

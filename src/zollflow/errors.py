"""Exception types shared across the package."""


class DomainError(ValueError):
    """Coordinate outside the meridian domain."""


class PoleProximityError(ValueError):
    """Evaluation too close to a pole for the height-gauge curvature formula.

    Work near the poles should go through the arc-length or conformal gauge.
    """


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to reach the requested tolerance."""


class GaugeError(ValueError):
    """Input does not satisfy the preconditions of a gauge conversion."""


class NoClosureError(RuntimeError):
    """No geodesic return detected within the configured horizon."""


class NumericalAbort(RuntimeError):
    """A numeric kernel stopped early (pole breakdown, step-size underflow,
    exhausted step budget)."""


class ZollCertificationError(RuntimeError):
    """Period spread too large for a common-period certificate."""


class FlowInstabilityError(RuntimeError):
    """Flow step rejected (stability bound violated or non-finite state)."""

    def __init__(self, message, state=None):
        super().__init__(message)
        self.state = state

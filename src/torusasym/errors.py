"""Exception types shared across the library."""


class TorusAsymError(Exception):
    """Base class for all errors raised by this package."""


class NonDecayingIntegrand(TorusAsymError):
    """Integrand magnitude at the truncated contour ends stays above tolerance."""


class ToleranceNotReached(TorusAsymError):
    """Quadrature refinement stalled before reaching the requested tolerance."""


class PoleHit(TorusAsymError):
    """Evaluation point coincides with a genuine pole of the torsion kernel."""


class InvalidXi(TorusAsymError):
    """The spectral parameter is outside the domain of the requested operation."""


class DegenerateDenominator(TorusAsymError):
    """A normalizing denominator vanishes and no exact limit point was identified."""


class InvalidK(TorusAsymError):
    """Integer index is divisible by a or b and carries no irreducible component."""


class ParityViolation(TorusAsymError):
    """Component index pair (alpha, beta) with mismatched parity."""


class NonIntegerShift(TorusAsymError):
    """Bundle elements differ by coordinate shifts that are not near-integers."""


class CoordinateMismatch(TorusAsymError):
    """Bundle element coordinates do not match the requested (u, v) frame."""


class CaseUndefined(TorusAsymError):
    """No expansion case is defined for the supplied spectral parameter."""


class DegenerateDiscriminant(TorusAsymError):
    """The meridian discriminant vanishes; torsion formulas degenerate."""


class ExtrapolationUnstable(TorusAsymError):
    """Limit extrapolation produced non-finite or wildly inconsistent estimates."""


class CancellationLimit(TorusAsymError):
    """A finite sum cancels more bits than its evaluator may absorb."""

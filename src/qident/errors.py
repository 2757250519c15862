"""Exception hierarchy.

Every failure mode that signals a *degenerate or inadmissible input* (as
opposed to a programming error) gets its own class so callers can react
precisely: the verification driver converts most of these into "skipped"
reports instead of crashing the run.
"""

class QIdentError(Exception):
    """Base class for all package-specific errors."""


class ZeroLeadingCoefficient(QIdentError):
    """Tried to invert a series whose leading coefficient vanishes.

    Typically signals a degenerate parameter specialization (e.g. x = 1
    making the factor 1 - x collapse to zero).
    """


class OrderInsufficient(QIdentError):
    """A comparison was requested beyond the guaranteed truncation order;
    `short`, when known, is how many units of order are missing."""

    def __init__(self, message: str, short: int | None = None):
        super().__init__(message)
        self.short = short


class NonTruncatable(QIdentError):
    """An infinite product cannot be truncated to a finite q-window.

    Raised when the product argument has negative valuation or the base has
    non-positive valuation; only finitely supported tails can be cut off.
    """


class ValuationStall(QIdentError):
    """Summand valuations stopped growing; the exact sum cannot terminate."""


class BoundViolation(QIdentError):
    """A term fell below the valuation bound its summand declared. The
    declaration is wrong, not the input inadmissible: a sum stopped on it
    could drop terms, so it is never reported as a skip."""


class UndeclaredFloor(QIdentError):
    """An opaque factor of a summand declares no valuation floor, so no
    exact sum over it can be certified to stop. Like BoundViolation it is
    a defect of the declaration, whatever the draw, so it is never
    reported as a skip."""


class TailNotDecreasing(QIdentError):
    """The numeric tail never met the stopping rule within the term budget."""


class LowerParameterPole(QIdentError):
    """A lower series parameter hits a pole of the term ratio."""


class DegenerateVWP(QIdentError):
    """The very-well-poised factor (1 - k q^{2n})/(1 - k) has k = 1."""


class DegenerateDenominator(QIdentError):
    """A denominator factor vanishes identically at this specialization."""


class SizeMismatch(QIdentError):
    """Two multisets that must have matching sizes do not."""


class DegenerateFamily(QIdentError):
    """A parametric solution family collapsed to two equal multisets."""


class BridgeConstraintError(QIdentError):
    """The polynomial compatibility condition linking two multisets to a
    telescoping term sequence does not hold."""


class SamplerExhausted(QIdentError):
    """Rejection sampling failed to find an admissible assignment."""
